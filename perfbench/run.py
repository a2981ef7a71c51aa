"""vica prefill benchmark: one closed-loop client driving the vica library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload joint_prefill --seed 1 --seconds 15 --trace 0

The run sets up the workload five times (``setup_s`` is the median), then
runs rounds of ops until ``--seconds`` of op time have been measured, checks
every op's output, prints a human-readable report and, as the last line of
standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics built from the
spans of the traced ones. The full result, with the host record, goes to
``.bench_out/<workload>[_trace].json`` and the spans to
``.bench_out/<workload>_spans.jsonl``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads, fixed so runs on different hosts use the same kernel setup
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
EXIT_NO_PROGRAM = 2

#: per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = [
    ("numerics.row_softmax.calls", "count/round", "lower"),
    ("numerics.row_softmax.elems", "elems/round", "lower"),
    ("numerics.row_softmax.live_frac", "frac", "higher"),
    ("numerics.row_softmax.self_ms", "ms/round", "lower"),
    ("numerics.silu.elems", "elems/round", "lower"),
    ("numerics.silu.self_ms", "ms/round", "lower"),
    ("numerics.matmul.calls", "count/round", "lower"),
    ("numerics.matmul.macs", "MAC/round", "lower"),
    ("numerics.matmul.self_ms", "ms/round", "lower"),
    ("numerics.matmul.gmac_per_s", "GMAC/s", "higher"),
    ("numerics.rms_norm.self_ms", "ms/round", "lower"),
    ("numerics.gated_ffn.self_ms", "ms/round", "lower"),
    ("attention.asymmetric_cross_attention.calls", "count/round", "lower"),
    ("attention.asymmetric_cross_attention.macs", "MAC/round", "lower"),
    ("attention.asymmetric_cross_attention.self_ms", "ms/round", "lower"),
    ("attention.masked_attention_oracle.calls", "count/round", "lower"),
    ("attention.masked_attention_oracle.self_ms", "ms/round", "lower"),
    ("attention.attention_weights.self_ms", "ms/round", "lower"),
    ("model.forward.ms", "ms", "lower"),
    ("model.forward.self_ms", "ms/round", "lower"),
    ("model.forward_baseline_masked_oracle.ms", "ms", "lower"),
    ("model.forward_baseline_masked_oracle.self_ms", "ms/round", "lower"),
    ("model.precompute_visual_kv.ms", "ms", "lower"),
    ("model.precompute_visual_kv.self_ms", "ms/round", "lower"),
    ("model.forward_vica_fast.ms", "ms", "lower"),
    ("model.forward_vica_fast.self_ms", "ms/round", "lower"),
    ("model.forward_vica_fast.row_softmax_calls", "count/round", "lower"),
    ("model.macs_counted", "MAC/round", "lower"),
    ("model.macs_walker", "MAC/round", "lower"),
    ("model.kv_bytes", "bytes/image", "lower"),
    ("model.trace_bytes", "bytes/sweep", "lower"),
    ("costmodel.flops_ratio", "ratio", "higher"),
    ("costmodel.mac_ratio_rel_err", "frac", "lower"),
    ("pruning.select_kept_tokens.calls", "count/round", "lower"),
    ("pruning.select_kept_tokens.self_ms", "ms/round", "lower"),
    ("pruning.kept_frac", "frac", "lower"),
    ("diagnostics.layer_sweep.ms", "ms", "lower"),
    ("diagnostics.oracle_calls", "count/round", "lower"),
    ("diagnostics.kl_divergence.self_ms", "ms/round", "lower"),
    ("diagnostics.cosine_change.self_ms", "ms/round", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]

END_TO_END_UNITS = {
    "latency_ms": "ms", "tokens_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def stats(values: list[float]) -> dict:
    """Median, quartiles and count; plus the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
            break
    return out


def fmt_stats(s: dict) -> str:
    parts = [f"median {s['median']:.4g}"]
    parts += [f"{k} {s[k]:.4g}" for k in s if k not in ("median", "n")]
    return "  ".join(parts) + f"  n={s['n']}"


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def run_op(op, tracer):
    """Time one op (traced if ``tracer``), then check its output untimed."""
    traced = tracer is not None
    start = time.perf_counter()
    try:
        with tracer.installed() if traced else nullcontext():
            with tracer.op(op.kind) if traced else nullcontext():
                start = time.perf_counter()
                out = op.call()
                seconds = time.perf_counter() - start
    except Exception:
        return time.perf_counter() - start, [f"{op.kind} raised:\n{traceback.format_exc()}"]
    try:
        return seconds, op.check(out)
    except Exception:
        return seconds, [f"{op.kind} check raised:\n{traceback.format_exc()}"]


def run_workload(workload, seconds: float, trace: bool, tracer_factory=None) -> dict:
    """Set up, run rounds for ``seconds`` of op time, check every op."""
    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    tracer = tracer_factory() if trace else None
    records = []          # one dict per op
    round_s = {False: [], True: []}
    timed, index = 0.0, 0
    # at least two rounds: a median of more than one sample, and in a traced
    # run at least one untraced and one traced round
    while timed < seconds or index < 2:
        traced = trace and index % 2 == 1
        this_round = 0.0
        for op in workload.round(index):
            op_s, failures = run_op(op, tracer if traced else None)
            this_round += op_s
            records.append({
                "round": index, "kind": op.kind, "seconds": op_s, "tokens": op.tokens,
                "traced": traced, "failures": failures,
                "macs_counted": op.counter.macs, "macs_walker": op.walker,
            })
        round_s[traced].append(this_round)
        timed += this_round
        index += 1
    return {
        "setup_s": setup_s, "records": records, "round_s": round_s,
        "tracer": tracer, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """End-to-end metrics from untraced ops, and per-kind latency stats."""
    untraced = [r for r in run["records"] if not r["traced"]]
    by_kind = defaultdict(list)
    for r in untraced:
        by_kind[r["kind"]].append(r["seconds"] * 1e3)
    op_stats = {kind: stats(ms) for kind, ms in by_kind.items()}
    ok = [r for r in untraced if not r["failures"]]
    busy = sum(r["seconds"] for r in untraced)
    metrics = {
        "latency_ms": op_stats[workload.headline]["median"],
        "tokens_per_s": sum(r["tokens"] for r in ok) / busy,
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, op_stats


def per_layer(workload, run: dict, ratios: dict) -> dict:
    """Per-layer metrics from the spans of the traced rounds, per traced round."""
    tracer = run["tracer"]
    rounds = len(run["round_s"][True])
    selfs = tracer.self_times()
    calls, self_ns, durations = defaultdict(int), defaultdict(int), defaultdict(list)
    counts = defaultdict(lambda: defaultdict(int))
    fast_softmax = oracle_in_sweep = trace_bytes = 0
    for op, sid, parent, name, start, end, span_counts in tracer.spans:
        calls[name] += 1
        self_ns[name] += selfs[sid]
        durations[name].append(end - start)
        for key, value in (span_counts or {}).items():
            counts[name][key] += value
        if name == "numerics.row_softmax" and "model.forward_vica_fast" in tracer.ancestors(sid):
            fast_softmax += 1
        if name == "model.forward_baseline_masked_oracle" and "diagnostics.layer_sweep" in tracer.ancestors(sid):
            oracle_in_sweep += 1
            trace_bytes += (span_counts or {}).get("bytes", 0)

    def per_round(x):
        return x / rounds

    def self_ms(name):
        return per_round(self_ns[name]) / 1e6

    def median_ms(name):
        return statistics.median(durations[name]) / 1e6 if durations[name] else 0.0

    traced_ops = [r for r in run["records"] if r["traced"]]
    counted = {r["kind"]: r["macs_counted"] for r in run["records"] if not r["failures"]}
    softmax = counts["numerics.row_softmax"]
    pruned = counts["pruning.select_kept_tokens"]
    matmul_macs = counts["numerics.matmul"]["macs"]
    m = {
        "numerics.row_softmax.calls": per_round(calls["numerics.row_softmax"]),
        "numerics.row_softmax.elems": per_round(softmax["elems"]),
        "numerics.row_softmax.live_frac": softmax["live"] / softmax["elems"] if softmax["elems"] else 0.0,
        "numerics.row_softmax.self_ms": self_ms("numerics.row_softmax"),
        "numerics.silu.elems": per_round(counts["numerics.silu"]["elems"]),
        "numerics.silu.self_ms": self_ms("numerics.silu"),
        "numerics.matmul.calls": per_round(calls["numerics.matmul"]),
        "numerics.matmul.macs": per_round(matmul_macs),
        "numerics.matmul.self_ms": self_ms("numerics.matmul"),
        # MACs per nanosecond is GMAC/s
        "numerics.matmul.gmac_per_s": matmul_macs / self_ns["numerics.matmul"] if self_ns["numerics.matmul"] else 0.0,
        "numerics.rms_norm.self_ms": self_ms("numerics.rms_norm"),
        "numerics.gated_ffn.self_ms": self_ms("numerics.gated_ffn"),
        "attention.asymmetric_cross_attention.calls": per_round(calls["attention.asymmetric_cross_attention"]),
        "attention.asymmetric_cross_attention.macs": per_round(counts["attention.asymmetric_cross_attention"]["macs"]),
        "attention.asymmetric_cross_attention.self_ms": self_ms("attention.asymmetric_cross_attention"),
        "attention.masked_attention_oracle.calls": per_round(calls["attention.masked_attention_oracle"]),
        "attention.masked_attention_oracle.self_ms": self_ms("attention.masked_attention_oracle"),
        "attention.attention_weights.self_ms": self_ms("attention.attention_weights"),
    }
    for fn in ("forward", "forward_baseline_masked_oracle", "precompute_visual_kv", "forward_vica_fast"):
        m[f"model.{fn}.ms"] = median_ms(f"model.{fn}")
        m[f"model.{fn}.self_ms"] = self_ms(f"model.{fn}")
    kv_calls = calls["model.precompute_visual_kv"]
    sweeps = calls["diagnostics.layer_sweep"]
    m.update({
        "model.forward_vica_fast.row_softmax_calls": per_round(fast_softmax),
        "model.macs_counted": per_round(sum(r["macs_counted"] for r in traced_ops)),
        "model.macs_walker": per_round(sum(r["macs_walker"] for r in traced_ops)),
        "model.kv_bytes": counts["model.precompute_visual_kv"]["bytes"] / kv_calls if kv_calls else 0,
        "model.trace_bytes": trace_bytes / sweeps if sweeps else 0,
        "costmodel.flops_ratio": workload.flops_ratio(counted),
        "costmodel.mac_ratio_rel_err": ratios["mac_ratio_rel_err"],
        "pruning.select_kept_tokens.calls": per_round(calls["pruning.select_kept_tokens"]),
        "pruning.select_kept_tokens.self_ms": self_ms("pruning.select_kept_tokens"),
        # no selection keeps every vision token
        "pruning.kept_frac": pruned["kept"] / pruned["offered"] if pruned["offered"] else 1.0,
        "diagnostics.layer_sweep.ms": median_ms("diagnostics.layer_sweep"),
        "diagnostics.oracle_calls": per_round(oracle_in_sweep),
        "diagnostics.kl_divergence.self_ms": self_ms("diagnostics.kl_divergence"),
        "diagnostics.cosine_change.self_ms": self_ms("diagnostics.cosine_change"),
        "trace_overhead_frac": statistics.median(run["round_s"][True])
        / statistics.median(run["round_s"][False]) - 1.0,
    })
    return m


def derived_ratios(ratios: dict) -> dict:
    """Information only: wall speed-up and counted MAC ratio from the latest
    untraced joint_prefill and sparse_prefill results, when both exist."""
    try:
        joint = json.loads((OUT_DIR / "joint_prefill.json").read_text())
        sparse = json.loads((OUT_DIR / "sparse_prefill.json").read_text())
        prefill = joint["op_stats"]["prefill"]["median"]
        decoupled = (sparse["op_stats"]["kv_precompute"]["median"]
                     + sparse["op_stats"]["text_prefill"]["median"])
        counted = sparse["counted_macs"]
        counted_ratio = (counted["kv_precompute"] + counted["text_prefill"]) / joint["counted_macs"]["prefill"]
    except (OSError, KeyError, ValueError):
        return dict(ratios)
    return {**ratios, "wall_speedup": prefill / decoupled, "counted_mac_ratio": counted_ratio}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # imports vica; fails when the checkout holds no program
        from tracer import Tracer
    except ImportError as exc:
        print(f"cannot import the vica package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    from vica import attention, diagnostics, model, numerics, pruning

    modules = {"numerics": numerics, "attention": attention, "model": model,
               "pruning": pruning, "diagnostics": diagnostics}
    workload = workloads.WORKLOADS[args.workload](args.seed)
    run = run_workload(workload, args.seconds, bool(args.trace), lambda: Tracer(modules))

    records = run["records"]
    failed = [r for r in records if r["failures"]]
    ratios = workloads.desk_ratios()
    counted = {r["kind"]: r["macs_counted"] for r in records if not r["failures"]}
    e2e, op_stats = end_to_end(workload, run)
    result = {
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "host": host_record(args.seed),
        "end_to_end": e2e,
        "op_stats": op_stats,
        "setup_s": run["setup_s"],
        "error_rate": len(failed) / len(records),
        "counted_macs": counted,
        "info": ratios,
        "failures": [f for r in failed for f in r["failures"]][:20],
    }
    correct = not failed
    if args.trace:
        tracer = run["tracer"]
        nesting = tracer.nesting_errors()
        correct = correct and not nesting
        result["per_layer"] = per_layer(workload, run, ratios)
        result["trace_errors"] = nesting[:20]
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"{workload.name}{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        run["tracer"].write(OUT_DIR / f"{workload.name}_spans.jsonl")
    result["info"] = derived_ratios(ratios)

    print_report(result, metrics, correct)
    for f in result["failures"]:
        print(f"FAIL {f}", file=sys.stderr)
    for e in result.get("trace_errors", []):
        print(f"TRACE {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def print_report(result: dict, metrics: dict, correct: bool) -> None:
    host = result["host"]
    print(f"vica prefill benchmark: workload {result['workload']}, seed {host['seed']}, "
          f"{result['seconds']:g} s, trace {result['trace']}")
    print(f"host: nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
          f"blas {host['blas']} {host['blas_version']}, threads {host['threads']}, "
          f"commit {host['commit']}")
    for kind, s in result["op_stats"].items():
        print(f"  {kind + '_ms':<20} {fmt_stats(s)}  (ms)")
    e2e = result["end_to_end"]
    print(f"  {'tokens_per_s':<20} {e2e['tokens_per_s']:.6g} 1/s")
    print(f"  {'setup_s':<20} {fmt_stats(stats(result['setup_s']))}  (s)")
    print(f"  {'peak_rss_mb':<20} {e2e['peak_rss_mb']:.6g} MB")
    print(f"  {'error_rate':<20} {result['error_rate']:.6g} (failed ops / attempted ops)")
    info = result["info"]
    line = (f"info (not gated): vica7b/baseline MAC ratio {info['mac_ratio']:.4%} "
            f"(count_forward_macs), model ratio {info['model_ratio']:.4%}, "
            f"rel err {info['mac_ratio_rel_err']:.4%}")
    if "wall_speedup" in info:
        line += (f", counted MAC ratio {info['counted_mac_ratio']:.4%}, "
                 f"wall speed-up {info['wall_speedup']:.3f}x "
                 f"(prefill_ms over kv_precompute_ms + text_prefill_ms)")
    print(line)
    if result["trace"]:
        for name, entry in metrics.items():
            print(f"  {name:<46} {entry['value']:.6g} {entry['unit']}")
    print(f"correct: {correct}")


if __name__ == "__main__":
    sys.exit(main())
