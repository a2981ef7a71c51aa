"""Experiment front door.

Resolves a flat key=value config (plus CLI overrides) into seeded runs:
cost reporting with golden-number verification, layerwise ablation sweeps,
the three-way path-agreement suite, and a CPU micro-benchmark. Every run
writes a manifest next to its outputs; re-running the same config yields
byte-identical JSON, with wall-clock readings quarantined in a ``timing``
block that reproducibility checks exclude.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attention import TokenLayout
from .costmodel import (
    CostInputs,
    baseline_vision_flops,
    equivalent_token_count,
    fmt_tflops,
    kv_cache_fraction,
    projector_to_cross_ratio,
    resolved_vision_counts,
    schedule_vision_flops,
    text_only_flops,
    tflops,
    total_flops,
    vica_total_flops,
    vica_vision_flops,
    visual_update_flops,
)
from .diagnostics import layer_sweep
from .model import (
    MODEL_PRESETS,
    RETAINED_LAYERS,
    WRITE_PATH_KINDS,
    ConfigError,
    ModelConfig,
    PolicySchedule,
    forward,
    forward_baseline_masked_oracle,
    forward_vica_fast,
    init_model,
    pdrop_baseline_events,
    precompute_visual_kv,
    schedule_preset,
    schedule_to_disabled_paths,
)
from .numerics import MacCounter
from .pruning import mean_vision_tokens

OUT_DIR_ENV = "VICA_OUT_DIR"

# live-model modes allocate real weights; keep them at desk scale
MAX_LIVE_D_MODEL = 1024
MAX_LIVE_LAYERS = 64

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2


@dataclass
class ExperimentConfig:
    """One experiment, fully determined: geometry, schedule, layout, seed."""

    mode: str = "cost"
    preset: str | None = None
    schedule: str | None = None
    n_layers: int | None = None
    n_heads: int | None = None
    d_model: int | None = None
    d_ffn: int | None = None
    n_vision: int = 576
    t_system: int = 35
    t_question: int = 20
    seed: int = 0
    batch: int = 4
    reps: int = 3
    warmup: int = 1
    dtype: str = "float64"
    paths: tuple[str, ...] = WRITE_PATH_KINDS
    out_dir: str | None = None
    golden: bool = False
    decoupled: bool = False
    self_test: bool = False

    MODES = ("cost", "diagnose", "equivalence", "bench")
    DEFAULT_GEOMETRY = {
        "diagnose": (4, 2, 16, 32),
        "bench": (32, 32, 256, 688),
    }

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {self.MODES}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.preset is not None and self.preset not in MODEL_PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; expected one of {sorted(MODEL_PRESETS)}"
            )
        for f_name in ("n_vision", "t_system", "seed", "reps", "warmup"):
            if getattr(self, f_name) < 0:
                raise ConfigError(f"{f_name} must be non-negative")
        if self.batch < 1:
            raise ConfigError("batch must be at least 1")
        if self.t_question < 1:
            raise ConfigError("t_question must be at least 1")
        bad = [p for p in self.paths if p not in WRITE_PATH_KINDS]
        if bad:
            raise ConfigError(f"unknown paths {bad}; expected subset of {WRITE_PATH_KINDS}")

    def model_config(self) -> ModelConfig:
        if self.preset is not None:
            return MODEL_PRESETS[self.preset]
        explicit = (self.n_layers, self.n_heads, self.d_model, self.d_ffn)
        if all(v is not None for v in explicit):
            return ModelConfig(
                *explicit, max_seq=max(64, self.n_vision + self.t_system + self.t_question)
            )
        if any(v is not None for v in explicit):
            raise ConfigError(
                "partial geometry: set all of n_layers/n_heads/d_model/d_ffn or none"
            )
        default = self.DEFAULT_GEOMETRY.get(self.mode)
        if default is None:
            raise ConfigError(f"{self.mode} mode needs --preset or explicit geometry")
        return ModelConfig(
            *default, max_seq=max(64, self.n_vision + self.t_system + self.t_question)
        )

    def policy_schedule(self, n_layers: int) -> PolicySchedule:
        name = self.schedule or "baseline"
        if name == "baseline":
            return PolicySchedule.baseline(n_layers)
        if name == "baseline+pdrop":
            return PolicySchedule.baseline(n_layers).with_drops(
                pdrop_baseline_events(n_layers)
            )
        if name in ("freeze", "freezevis"):
            return PolicySchedule.freeze_vis(n_layers)
        if name == "textonly":
            return PolicySchedule.text_only(n_layers)
        if name.startswith("sparse:"):
            spec = name.removeprefix("sparse:")
            try:
                retained = {int(x) for x in spec.split(",")}
            except ValueError:
                raise ConfigError(
                    f"bad schedule {name!r}; expected sparse:<layer>,<layer>,..."
                ) from None
            return PolicySchedule.sparse_cross(n_layers, retained)
        sched = schedule_preset(name)
        if sched.n_layers != n_layers:
            raise ConfigError(
                f"schedule {name!r} spans {sched.n_layers} layers, model has {n_layers}"
            )
        return sched

    def cost_inputs(self, schedule: PolicySchedule, mc: ModelConfig) -> CostInputs:
        return CostInputs(
            mc.n_layers,
            mc.d_model,
            mc.d_ffn,
            n=self.n_vision,
            t_system=self.t_system,
            t_question=self.t_question,
            n_retained=len(schedule.frozen_vision_layers()),
        )

    def layout(self) -> TokenLayout:
        return TokenLayout(self.n_vision, self.t_system, self.t_question)

    def require_desk_scale(self):
        mc = self.model_config()
        if mc.d_model > MAX_LIVE_D_MODEL or mc.n_layers > MAX_LIVE_LAYERS:
            raise ConfigError(
                f"{self.mode} builds a live model; geometry "
                f"d_model={mc.d_model}, n_layers={mc.n_layers} exceeds the "
                f"desk-scale limit ({MAX_LIVE_D_MODEL}, {MAX_LIVE_LAYERS})"
            )

    def to_json_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    t = _FIELD_TYPES[key]
    if t in ("int", "int | None"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from None
    if t == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key} expects true/false, got {raw!r}")
    if t == "tuple[str, ...]":
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    return raw


def parse_config(text: str) -> dict:
    """Parse the flat ``key = value`` grammar; ``#`` starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    values = parse_config(Path(path).read_text())
    values.update(overrides or {})
    return ExperimentConfig(**values)


def resolve_out_dir(cfg: ExperimentConfig) -> Path:
    if cfg.out_dir:
        base = Path(cfg.out_dir)
    elif os.environ.get(OUT_DIR_ENV):
        base = Path(os.environ[OUT_DIR_ENV])
    else:
        base = Path("runs") / cfg.mode
    base.mkdir(parents=True, exist_ok=True)
    return base


def dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir: Path, cfg: ExperimentConfig) -> None:
    config = cfg.to_json_dict()
    # output location is environment, not experiment identity
    config.pop("out_dir")
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    dump_json(
        out_dir / "manifest.json",
        {
            "config": config,
            "config_sha256": digest,
            "seed": cfg.seed,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "vica": __version__,
            },
        },
    )


# ---------------------------------------------------------------------------
# cost

# Reference results for the three model scales at n=576, t_s=35, t_q=20.
# Values are frozen at their displayed precision; tolerances are half a
# unit in the last displayed digit (0.01 TFLOPs, 0.1 percentage point).
GOLDEN_NUMBERS = {
    "llava3b": {
        "baseline_vision_tflops": (3.04, 0.01),
        "baseline_total_tflops": (3.33, 0.01),
        "vica_vision_tflops": (0.14, 0.01),
        "vica_total_tflops": (0.42, 0.01),
        "visual_update_pct": (84.0, 0.1),
        "vica_rel_vision_pct": (4.5, 0.1),
        "equivalent_tokens": 27,
        "kv_fraction_pct": (28.1, 0.1),
    },
    "llava7b": {
        "baseline_vision_tflops": (7.65, 0.01),
        "baseline_total_tflops": (8.38, 0.01),
        "vica_vision_tflops": (0.31, 0.01),
        "vica_total_tflops": (1.02, 0.01),
        "visual_update_pct": (83.8, 0.1),
        "vica_rel_vision_pct": (4.1, 0.1),
        "equivalent_tokens": 24,
        "kv_fraction_pct": (25.0, 0.1),
        "projector_to_cross_ratio": (204.8, 0.5),
    },
    "llava13b": {
        "baseline_vision_tflops": (14.91, 0.01),
        "baseline_total_tflops": (16.34, 0.01),
        "vica_vision_tflops": (0.49, 0.01),
        "vica_total_tflops": (1.88, 0.01),
        "visual_update_pct": (83.7, 0.1),
        "vica_rel_vision_pct": (3.3, 0.1),
        "equivalent_tokens": 19,
        "kv_fraction_pct": (20.0, 0.1),
    },
}
GOLDEN_PDROP_MEAN_TOKENS = 270.0

VICA_SCHEDULE_FOR_PRESET = {
    "llava3b": "vica3b",
    "llava7b": "vica7b",
    "llava13b": "vica13b",
}


def _preset_quantities(preset: str) -> dict:
    mc = MODEL_PRESETS[preset]
    vica_name = VICA_SCHEDULE_FOR_PRESET[preset]
    sched = schedule_preset(vica_name)
    ci = CostInputs(
        mc.n_layers, mc.d_model, mc.d_ffn, n=576,
        n_retained=len(RETAINED_LAYERS[vica_name][1]),
    )
    vis = baseline_vision_flops(ci)["total"]
    vv = vica_vision_flops(ci)
    update, ratio = visual_update_flops(ci)
    out = {
        "baseline_vision_tflops": tflops(vis),
        "baseline_total_tflops": tflops(total_flops(ci)),
        "vica_vision_tflops": tflops(vv),
        "vica_total_tflops": tflops(vica_total_flops(ci)),
        "visual_update_pct": ratio * 100,
        "vica_rel_vision_pct": vv / vis * 100,
        "equivalent_tokens": equivalent_token_count(ci, vv),
        "kv_fraction_pct": kv_cache_fraction(sched, ci) * 100,
    }
    pc = projector_to_cross_ratio(ci)
    if pc is not None:
        out["projector_to_cross_ratio"] = pc
    return out


def check_golden(presets: list[str]) -> list[tuple[str, str, float, float, float, bool]]:
    """Compare computed quantities to the frozen reference table.

    Returns rows of (preset, quantity, actual, expected, tol, ok).
    """
    rows = []
    for preset in presets:
        actuals = _preset_quantities(preset)
        for key, spec in GOLDEN_NUMBERS[preset].items():
            if isinstance(spec, tuple):
                expected, tol = spec
            else:
                expected, tol = float(spec), 0.0
            actual = float(actuals[key])
            rows.append(
                (preset, key, actual, expected, tol, abs(actual - expected) <= tol)
            )
    if set(presets) == set(GOLDEN_NUMBERS):
        sched = PolicySchedule.baseline(32).with_drops(pdrop_baseline_events(32))
        mc = MODEL_PRESETS["llava7b"]
        counts = resolved_vision_counts(
            sched, CostInputs(mc.n_layers, mc.d_model, mc.d_ffn, n=576)
        )
        mean = mean_vision_tokens(counts)
        rows.append(
            (
                "llava7b",
                "pdrop_baseline_mean_tokens",
                mean,
                GOLDEN_PDROP_MEAN_TOKENS,
                1e-9,
                abs(mean - GOLDEN_PDROP_MEAN_TOKENS) <= 1e-9,
            )
        )
    return rows


def build_cost_report(cfg: ExperimentConfig) -> dict:
    mc = cfg.model_config()
    sched = cfg.policy_schedule(mc.n_layers)
    ci = cfg.cost_inputs(sched, mc)
    parts = baseline_vision_flops(ci)
    update, ratio = visual_update_flops(ci)
    sched_vis = schedule_vision_flops(sched, ci)
    sched_total = sched_vis + text_only_flops(ci)
    counts = resolved_vision_counts(sched, ci)
    report = {
        "geometry": {
            "preset": cfg.preset,
            "n_layers": mc.n_layers,
            "n_heads": mc.n_heads,
            "d_model": mc.d_model,
            "d_ffn": mc.d_ffn,
        },
        "layout": {
            "n_vision": ci.n,
            "t_system": ci.t_system,
            "t_question": ci.t_question,
        },
        "schedule": {
            "name": cfg.schedule or "baseline",
            "modes": [p.mode.value for p in sched.layers],
            "retained_layers": sorted(sched.frozen_vision_layers()),
            "drop_events": {str(k): v for k, v in sorted(sched.drop_events().items())},
        },
        "baseline": {
            "vision_projection_flops": parts["projections"],
            "vision_attention_flops": parts["attention"],
            "vision_ffn_flops": parts["ffn"],
            "vision_total_flops": parts["total"],
            "total_flops": total_flops(ci),
            "text_only_flops": text_only_flops(ci),
        },
        "visual_update": {
            "flops": update,
            "share_of_vision": ratio,
            "remainder_flops": parts["total"] - update,
        },
        "schedule_costs": {
            "vision_flops": sched_vis,
            "total_flops": sched_total,
            "relative_vision": sched_vis / parts["total"] if parts["total"] else None,
            "relative_total": sched_total / total_flops(ci),
            "equivalent_tokens": (
                equivalent_token_count(ci, sched_vis) if ci.n else 0
            ),
            "kv_cache_fraction": kv_cache_fraction(sched, ci),
            "vision_token_counts": counts,
            "mean_vision_tokens": mean_vision_tokens(counts),
        },
        "projector_to_cross_ratio": projector_to_cross_ratio(ci),
    }
    return report


def format_cost_text(report: dict) -> str:
    g, b, s = report["geometry"], report["baseline"], report["schedule_costs"]
    rel = s["relative_vision"]
    rel_txt = f" ({rel * 100:.1f}%)" if rel is not None else ""
    lines = [
        f"model              {g['preset'] or 'custom'}  "
        f"(layers={g['n_layers']} heads={g['n_heads']} d={g['d_model']} ffn={g['d_ffn']})",
        f"layout             n={report['layout']['n_vision']} "
        f"t_s={report['layout']['t_system']} t_q={report['layout']['t_question']}",
        f"schedule           {report['schedule']['name']}",
        "",
        f"baseline vision    {fmt_tflops(b['vision_total_flops'])} TFLOPs",
        f"baseline total     {fmt_tflops(b['total_flops'])} TFLOPs",
        f"text-only floor    {fmt_tflops(b['text_only_flops'])} TFLOPs",
        f"visual update      {fmt_tflops(report['visual_update']['flops'])} TFLOPs"
        + (
            f" ({report['visual_update']['share_of_vision'] * 100:.1f}% of vision)"
            if report["visual_update"]["share_of_vision"] is not None
            else ""
        ),
        "",
        f"schedule vision    {fmt_tflops(s['vision_flops'])} TFLOPs{rel_txt}",
        f"schedule total     {fmt_tflops(s['total_flops'])} TFLOPs"
        f" ({s['relative_total'] * 100:.1f}% of baseline)",
        f"equivalent tokens  {s['equivalent_tokens']}",
        f"kv cache fraction  {s['kv_cache_fraction'] * 100:.1f}%",
        f"mean vision tokens {s['mean_vision_tokens']:.1f}",
    ]
    if report["projector_to_cross_ratio"] is not None:
        lines.append(f"proj : cross read  {report['projector_to_cross_ratio']:.1f}")
    return "\n".join(lines) + "\n"


def run_cost(cfg: ExperimentConfig) -> int:
    out_dir = resolve_out_dir(cfg)
    explicit_geometry = all(
        v is not None for v in (cfg.n_layers, cfg.n_heads, cfg.d_model, cfg.d_ffn)
    )
    if cfg.preset is None and not explicit_geometry:
        if not cfg.golden:
            raise ConfigError("cost mode needs --preset or explicit geometry")
        presets = sorted(GOLDEN_NUMBERS)
        reports = {
            p: build_cost_report(replace(cfg, preset=p, schedule=VICA_SCHEDULE_FOR_PRESET[p]))
            for p in presets
        }
        dump_json(out_dir / "cost.json", reports)
        for p in presets:
            print(f"== {p} ==")
            print(format_cost_text(reports[p]))
    else:
        presets = [cfg.preset] if cfg.preset else []
        report = build_cost_report(cfg)
        dump_json(out_dir / "cost.json", report)
        print(format_cost_text(report))
    write_manifest(out_dir, cfg)

    if not cfg.golden:
        return EXIT_OK
    if not presets:
        raise ConfigError("--golden needs a preset geometry")
    rows = check_golden(presets)
    failures = [r for r in rows if not r[5]]
    width = max(len(f"{r[0]}.{r[1]}") for r in rows)
    for preset, key, actual, expected, tol, ok in rows:
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {f'{preset}.{key}':<{width}}  actual={actual:.4f}  "
              f"expected={expected:.4f}  tol={tol}")
    dump_json(
        out_dir / "golden.json",
        {
            "rows": [
                {
                    "preset": p, "quantity": k, "actual": a,
                    "expected": e, "tolerance": t, "ok": ok,
                }
                for p, k, a, e, t, ok in rows
            ],
            "pass": not failures,
        },
    )
    if failures:
        print(f"golden check FAILED: {len(failures)} of {len(rows)} quantities off")
        return EXIT_VERIFY_FAILED
    print(f"golden check passed: {len(rows)} quantities within tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose

def _seeded_batch(cfg: ExperimentConfig, d_model: int):
    rng = np.random.default_rng(cfg.seed)
    layout = cfg.layout()
    return [
        (
            rng.standard_normal((layout.n_vision, d_model)),
            rng.standard_normal((layout.n_text, d_model)),
        )
        for _ in range(cfg.batch)
    ]


def run_diagnose(cfg: ExperimentConfig) -> int:
    cfg.require_desk_scale()
    out_dir = resolve_out_dir(cfg)
    mc = cfg.model_config()
    sched = cfg.policy_schedule(mc.n_layers)
    weights = init_model(mc, cfg.seed)
    batch = _seeded_batch(cfg, mc.d_model)

    reports = {}
    for path in cfg.paths:
        report = layer_sweep(weights, batch, path, schedule=sched)
        reports[path] = report
        csv_lines = ["layer,kl,one_minus_cos"]
        dat_lines = [f"# path: {path}", "# layer kl one_minus_cos"]
        for l in report.layers:
            csv_lines.append(f"{l},{report.kl[l]!r},{report.one_minus_cos[l]!r}")
            dat_lines.append(f"{l} {report.kl[l]!r} {report.one_minus_cos[l]!r}")
        (out_dir / f"diagnose_{path}.csv").write_text("\n".join(csv_lines) + "\n")
        (out_dir / f"diagnose_{path}.dat").write_text("\n".join(dat_lines) + "\n")

    dump_json(
        out_dir / "diagnose.json",
        {
            "geometry": {
                "n_layers": mc.n_layers, "n_heads": mc.n_heads,
                "d_model": mc.d_model, "d_ffn": mc.d_ffn,
            },
            "schedule": cfg.schedule or "baseline",
            "batch": cfg.batch,
            "sweeps": {p: r.to_json_dict() for p, r in reports.items()},
        },
    )
    write_manifest(out_dir, cfg)
    for path, report in reports.items():
        top = report.ranking()[0]
        print(f"{path:<16} peak layer {top} (kl={report.kl[top]:.6f}); "
              f"report in diagnose_{path}.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# equivalence

EQUIV_GRID = {
    "n": (0, 1, 4, 8, 16),
    "t": (1, 2, 5, 9),
    "d": (8, 16, 32),
    "heads": (1, 2, 4),
    "layers": (1, 2, 4),
    "schedules": ("baseline", "freeze", "sparse", "textonly"),
}
EQUIV_TOL = 1e-10


def _grid_schedule(name: str, n_layers: int) -> PolicySchedule:
    if name == "baseline":
        return PolicySchedule.baseline(n_layers)
    if name == "freeze":
        return PolicySchedule.freeze_vis(n_layers)
    if name == "textonly":
        return PolicySchedule.text_only(n_layers)
    retained = {0} if n_layers == 1 else {0, n_layers // 2}
    return PolicySchedule.sparse_cross(n_layers, retained)


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, or inf if either side has a non-finite entry.

    A NaN compares false against any tolerance, so it would slip through a
    ``dev > tol`` check; inf fails every tolerance check.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    return float(np.abs(a - b).max())


def run_equivalence_cases(cfg: ExperimentConfig):
    """Yield (case_dict, max_abs_deviation) over the seeded grid.

    The deviation is inf when any of the engine, oracle or fast logits is
    non-finite.

    Cases are independent and could be dispatched concurrently; results
    are consumed by a single collector either way.
    """
    weights_cache = {}
    idx = 0
    corrupted = False
    for d in EQUIV_GRID["d"]:
        for layers in EQUIV_GRID["layers"]:
            for heads in EQUIV_GRID["heads"]:
                key = (layers, d)
                if key not in weights_cache:
                    weights_cache[key] = init_model(
                        ModelConfig(layers, 1, d, 2 * d, vocab=17, max_seq=32),
                        cfg.seed,
                    )
                base_weights = weights_cache[key]
                mc = ModelConfig(layers, heads, d, 2 * d, vocab=17, max_seq=32)
                weights = replace(base_weights, config=mc)
                for n in EQUIV_GRID["n"]:
                    for t in EQUIV_GRID["t"]:
                        for sched_name in EQUIV_GRID["schedules"]:
                            rng = np.random.default_rng([cfg.seed, idx])
                            idx += 1
                            ve = rng.standard_normal((n, d))
                            te = rng.standard_normal((t, d))
                            sched = _grid_schedule(sched_name, layers)
                            engine = forward(weights, ve, te, sched).logits
                            oracle = forward_baseline_masked_oracle(
                                weights, ve, te, schedule_to_disabled_paths(sched)
                            ).logits
                            dev = _deviation(engine, oracle)
                            if sched_name != "baseline":
                                kv = precompute_visual_kv(weights, ve, sched)
                                fast = forward_vica_fast(weights, kv, te, sched).logits
                                if cfg.self_test and not corrupted:
                                    corrupted = True
                                    fast = fast.copy()
                                    fast[-1, 0] += 1e-6
                                dev = max(
                                    dev,
                                    _deviation(fast, engine),
                                    _deviation(fast, oracle),
                                )
                            yield (
                                {
                                    "n": n, "t": t, "d": d, "heads": heads,
                                    "layers": layers, "schedule": sched_name,
                                },
                                dev,
                            )


def run_equivalence(cfg: ExperimentConfig) -> int:
    out_dir = resolve_out_dir(cfg)
    worst_case, worst_dev, n_cases, failures = None, -1.0, 0, []
    for case, dev in run_equivalence_cases(cfg):
        n_cases += 1
        # written as not (dev <= x) so that a NaN deviation counts as worst and fails
        if not (dev <= worst_dev):
            worst_case, worst_dev = case, dev
        if not (dev <= EQUIV_TOL):
            failures.append({"case": case, "deviation": dev})
    passed = not failures
    dump_json(
        out_dir / "equivalence.json",
        {
            "cases": n_cases,
            "tolerance": EQUIV_TOL,
            "max_deviation": worst_dev,
            "worst_case": worst_case,
            "failures": failures,
            "pass": passed,
        },
    )
    write_manifest(out_dir, cfg)
    if passed:
        print(f"PASS {n_cases} cases, max |deviation| = {worst_dev:.3e} "
              f"(tolerance {EQUIV_TOL:.0e})")
        return EXIT_OK
    for f in failures[:5]:
        print(f"FAIL {f['case']} deviation={f['deviation']:.3e}")
    print(f"FAIL {len(failures)} of {n_cases} cases exceed {EQUIV_TOL:.0e}")
    return EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# bench

def _median(xs: list[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def run_bench(cfg: ExperimentConfig) -> int:
    cfg.require_desk_scale()
    if cfg.reps < 1:
        raise ConfigError("bench needs reps >= 1")
    out_dir = resolve_out_dir(cfg)
    mc = cfg.model_config()
    vica_name = cfg.schedule or ("vica7b" if mc.n_layers == 32 else None)
    if vica_name is None:
        raise ConfigError("bench needs a sparse schedule; pass --schedule")
    sched = replace(cfg, schedule=vica_name).policy_schedule(mc.n_layers)
    if not sched.frozen_vision_layers():
        raise ConfigError(
            f"bench schedule {vica_name!r} retains no cross-attention layers"
        )
    baseline = PolicySchedule.baseline(mc.n_layers)
    layout = cfg.layout()
    dtype = np.float64 if cfg.dtype == "float64" else np.float32

    weights = init_model(mc, cfg.seed).astype(dtype)
    rng = np.random.default_rng(cfg.seed)
    ve = rng.standard_normal((layout.n_vision, mc.d_model)).astype(dtype)
    te = rng.standard_normal((layout.n_text, mc.d_model)).astype(dtype)

    # instrumented multiply counts, one untimed pass per path
    base_counter, vica_counter = MacCounter(), MacCounter()
    forward(weights, ve, te, baseline, layout=layout, counter=base_counter)
    kv = precompute_visual_kv(weights, ve, sched, counter=vica_counter)
    forward_vica_fast(weights, kv, te, sched, counter=vica_counter)
    mac_ratio = vica_counter.macs / base_counter.macs

    ci = cfg.cost_inputs(sched, mc)
    model_ratio = vica_total_flops(ci) / total_flops(ci)
    ratio_rel_err = abs(mac_ratio - model_ratio) / model_ratio

    def time_reps(fn) -> list[float]:
        for _ in range(cfg.warmup):
            fn()
        out = []
        for _ in range(cfg.reps):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return out

    base_times = time_reps(lambda: forward(weights, ve, te, baseline, layout=layout))
    pre_times = time_reps(lambda: precompute_visual_kv(weights, ve, sched))
    if cfg.decoupled:
        vica_times = time_reps(lambda: forward_vica_fast(weights, kv, te, sched))
    else:
        def joint():
            fresh = precompute_visual_kv(weights, ve, sched)
            forward_vica_fast(weights, fresh, te, sched)
        vica_times = time_reps(joint)

    base_med, vica_med = _median(base_times), _median(vica_times)
    report = {
        "geometry": {
            "n_layers": mc.n_layers, "n_heads": mc.n_heads,
            "d_model": mc.d_model, "d_ffn": mc.d_ffn,
            "n_vision": layout.n_vision, "t_text": layout.n_text,
            "dtype": cfg.dtype,
        },
        "schedule": vica_name,
        "macs": {
            "baseline": base_counter.macs,
            "vica": vica_counter.macs,
            "ratio": mac_ratio,
            "costmodel_ratio": model_ratio,
            "ratio_rel_err": ratio_rel_err,
        },
        "checks": {
            "mac_ratio_within_5pct": ratio_rel_err <= 0.05,
            "vica_macs_leq_10pct": mac_ratio <= 0.10,
            "vica_wall_clock_lower": vica_med < base_med,
        },
        "timing": {
            "reps": cfg.reps,
            "warmup": cfg.warmup,
            "decoupled": cfg.decoupled,
            "baseline_median_s": base_med,
            "vica_median_s": vica_med,
            "precompute_median_s": _median(pre_times),
            "baseline_s": base_times,
            "vica_s": vica_times,
        },
    }
    dump_json(out_dir / "bench.json", report)
    write_manifest(out_dir, cfg)
    print(f"multiplies   baseline {base_counter.macs:,}  vica {vica_counter.macs:,}  "
          f"ratio {mac_ratio * 100:.2f}% (model {model_ratio * 100:.2f}%, "
          f"rel err {ratio_rel_err * 100:.2f}%)")
    print(f"median wall  baseline {base_med * 1e3:.1f} ms  vica {vica_med * 1e3:.1f} ms"
          f"{'  (decoupled)' if cfg.decoupled else ''}")
    if ratio_rel_err > 0.05:
        print("FAIL instrumented ratio deviates from cost model by more than 5%")
        return EXIT_VERIFY_FAILED
    return EXIT_OK
