"""Self-test of the benchmark's own checks, on a tiny geometry (a few seconds).

    python3 perfbench/selftest.py

It shows that NaN logits fail the output check (a ``>`` comparison would
pass them), that corrupting one op's logits raises the error rate from 0,
that a traced run emits exactly the per-layer metrics ``BENCHMARK.json``
declares with spans that nest, and that the end-to-end names and units
match ``BENCHMARK.json``. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from vica import attention, diagnostics, model, numerics, pruning  # noqa: E402
from vica.attention import TokenLayout  # noqa: E402
from vica.harness import EQUIV_TOL  # noqa: E402

MODULES = {"numerics": numerics, "attention": attention, "model": model,
           "pruning": pruning, "diagnostics": diagnostics}


class TinySparse(workloads.SparsePrefill):
    """The sparse_prefill op mix on a geometry that runs in milliseconds."""

    config = model.ModelConfig(32, 2, 16, 32, max_seq=32)
    layout = TokenLayout(16, 3, 4)


class CorruptOne(TinySparse):
    """TinySparse with NaN written into the logits of its first text prefill."""

    def round(self, index):
        ops = super().round(index)
        if index == 0:
            op = next(o for o in ops if o.kind == "text_prefill")
            call = op.call

            def corrupted():
                logits = call().copy()
                logits[-1, 0] = np.nan
                return logits

            op.call = corrupted
        return ops


def check(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def main() -> int:
    results = []
    logits = np.zeros((4, 8))
    nan_logits = logits.copy()
    nan_logits[-1, 0] = np.nan
    dev = float(np.abs(nan_logits - logits).max())
    results.append(check(not dev > EQUIV_TOL, "a '>' comparison lets a NaN deviation pass"))
    results.append(check(bool(workloads.logit_failures("x", nan_logits, logits, "ref")),
                         "the benchmark's check rejects NaN logits"))
    results.append(check(not workloads.logit_failures("x", logits, logits, "ref"),
                         "the benchmark's check accepts equal finite logits"))

    clean = run.run_workload(TinySparse(0), 0.0, trace=False)
    failed = sum(bool(r["failures"]) for r in clean["records"])
    results.append(check(failed == 0, f"clean tiny run: {failed} of {len(clean['records'])} ops failed"))

    bad = run.run_workload(CorruptOne(0), 0.0, trace=False)
    failed = sum(bool(r["failures"]) for r in bad["records"])
    results.append(check(failed == 1, f"one NaN op: error rate {failed}/{len(bad['records'])} > 0"))

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced_workload = TinySparse(0)
    traced = run.run_workload(traced_workload, 0.0, trace=True,
                              tracer_factory=lambda: Tracer(MODULES))
    per_layer = run.per_layer(traced_workload, traced, workloads.desk_ratios())
    results.append(check(
        list(per_layer) == [m["name"] for m in declared["per_layer"]]
        == [name for name, _, _ in run.PER_LAYER]
        and [m["unit"] for m in declared["per_layer"]] == [u for _, u, _ in run.PER_LAYER],
        "traced run emits the per-layer metrics BENCHMARK.json declares",
    ))
    results.append(check(not traced["tracer"].nesting_errors(),
                         "spans nest and each op's self times add up to its span"))
    results.append(check(per_layer["model.forward_vica_fast.row_softmax_calls"] == 0
                         and per_layer["attention.asymmetric_cross_attention.calls"] > 0,
                         "fast path: asymmetric kernel runs, row_softmax does not"))
    results.append(check(per_layer["model.macs_counted"] == per_layer["model.macs_walker"],
                         "counted MACs equal count_forward_macs"))
    results.append(check(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS,
        "end-to-end names and units match BENCHMARK.json",
    ))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
