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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from statistics import median

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
    visual_update_flops,
)
from .diagnostics import layer_sweep
from .model import (
    MAC_OPS,
    MODEL_PRESETS,
    SPARSE_PRESETS,
    WRITE_PATH_KINDS,
    ConfigError,
    ModelConfig,
    PolicySchedule,
    count_forward_macs,
    forward,
    forward_baseline_masked_oracle,
    forward_vica_fast,
    init_model,
    mac_table,
    mac_total,
    parse_schedule,
    precompute_visual_kv,
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
EXIT_INTERNAL_ERROR = 3


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
    n_vision: int | None = None
    t_system: int | None = None
    t_question: int | None = None
    seed: int = 0
    batch: int = 4
    reps: int = 3
    warmup: int = 1
    dtype: str = "float64"
    paths: tuple[str, ...] = WRITE_PATH_KINDS
    out_dir: str | None = None
    golden: bool = False
    self_test: bool = False

    GEOMETRY = ("n_layers", "n_heads", "d_model", "d_ffn")
    LAYOUT = ("n_vision", "t_system", "t_question")
    # per mode: the geometry used when none of GEOMETRY is set, the layout
    # filling each LAYOUT key left unset, the schedule filling an unset one
    # (but under golden, the preset's), and the keys the mode reads. Those
    # keys (and out_dir) are its flags, the keys its config files may set
    # and what its manifest records; config files and flags win over the
    # defaults, and a key the mode does not read must stay at its default
    MODE_DEFAULTS = {
        "cost": (None, (576, 35, 20), "baseline",
                 ("preset", "schedule", *GEOMETRY, *LAYOUT, "golden")),
        "diagnose": ((4, 2, 16, 32), (16, 2, 4), "baseline",
                     ("schedule", *GEOMETRY, *LAYOUT, "seed", "batch", "paths")),
        "equivalence": (None, None, None, ("seed", "self_test")),
        "bench": ((32, 32, 256, 688), (576, 35, 20), "vica7b",
                  ("schedule", *GEOMETRY, *LAYOUT, "seed", "reps", "warmup", "dtype")),
    }
    MODES = tuple(MODE_DEFAULTS)

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {self.MODES}")
        _, layout, schedule, keys = self.MODE_DEFAULTS[self.mode]
        unread = [f.name for f in fields(self) if f.name not in ("mode", "out_dir", *keys)
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"{self.mode} mode reads no {', '.join(unread)}")
        empty = [f.name for f in fields(self) if getattr(self, f.name) == ""]
        if empty:
            raise ConfigError(f"{', '.join(empty)} must not be empty")
        for f_name, default in zip(self.LAYOUT, layout or ()):
            if getattr(self, f_name) is None:
                setattr(self, f_name, default)
        if self.schedule is None and not self.golden:
            self.schedule = schedule
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.preset is not None and self.preset not in MODEL_PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; expected one of {sorted(MODEL_PRESETS)}"
            )
        # an unread key is at its default: check the read ones
        for f_name, low in (("n_vision", 0), ("t_system", 0), ("t_question", 1), ("seed", 0),
                            ("batch", 1), ("reps", 1), ("warmup", 0)):
            if f_name in keys and getattr(self, f_name) < low:
                raise ConfigError(f"{f_name} must be at least {low}")
        paths = set(self.paths)
        if not paths or len(paths) < len(self.paths) or not paths <= set(WRITE_PATH_KINDS):
            raise ConfigError(f"paths {list(self.paths)}: expected distinct names from "
                              f"{WRITE_PATH_KINDS}, at least one")

    def model_config(self) -> ModelConfig:
        geometry = tuple(getattr(self, k) for k in self.GEOMETRY)
        if self.preset is not None:
            if any(v is not None for v in geometry):
                raise ConfigError(f"preset {self.preset} excludes n_layers/n_heads/d_model/d_ffn")
            return MODEL_PRESETS[self.preset]
        if all(v is None for v in geometry):
            geometry = self.MODE_DEFAULTS[self.mode][0]
            if geometry is None:
                raise ConfigError(f"{self.mode} mode needs --preset or explicit geometry")
        elif None in geometry:
            raise ConfigError(
                "partial geometry: set all of n_layers/n_heads/d_model/d_ffn or none"
            )
        return ModelConfig(*geometry, max_seq=max(64, self.layout().total))

    def policy_schedule(self, n_layers: int) -> PolicySchedule:
        return parse_schedule(self.schedule, n_layers)

    def cost_inputs(self, mc: ModelConfig) -> CostInputs:
        return CostInputs(
            mc.n_layers,
            mc.d_model,
            mc.d_ffn,
            n=self.n_vision,
            t_system=self.t_system,
            t_question=self.t_question,
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


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    t = _FIELD_TYPES[key]
    if t in ("int", "int | None"):
        # ASCII digits, "-" kept for the bound checks; int() also takes "3_2" or "+3"
        digits = raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ConfigError(f"{key} expects an integer, got {raw!r}")
        return int(raw)
    if t == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key} expects true/false, got {raw!r}")
    if t == "tuple[str, ...]":
        # an empty item stays, for ExperimentConfig to refuse
        return tuple(p.strip() for p in raw.split(","))
    return raw


def parse_config(text: str, mode: str | None = None) -> dict:
    """Parse the flat ``key = value`` grammar; ``#`` starts a comment.

    With ``mode``, only ``mode``, ``out_dir`` and the keys that mode reads
    are allowed, and a ``mode`` line must name it.
    """
    allowed = _FIELD_TYPES if mode is None else ("mode", "out_dir",
                                                 *ExperimentConfig.MODE_DEFAULTS[mode][-1])
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
        if key not in allowed:
            raise ConfigError(f"line {lineno}: {mode} mode reads no {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
        if key == "mode" and mode not in (None, raw):
            raise ConfigError(f"line {lineno}: mode {raw!r} in a config read for {mode}")
    return values


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
    # the mode and the keys it reads; output location is environment, not
    # experiment identity
    config = {k: getattr(cfg, k) for k in ("mode", *cfg.MODE_DEFAULTS[cfg.mode][-1])}
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    dump_json(
        out_dir / "manifest.json",
        {
            "config": config,
            "config_sha256": digest,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "vica": __version__,
            },
        },
    )


# ---------------------------------------------------------------------------
# cost

# Reference results for the three model scales at GOLDEN_LAYOUT.
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
GOLDEN_LAYOUT = TokenLayout(n_vision=576, t_system=35, t_question=20)


def _reference_schedule(preset: str | None) -> str | None:
    """The sparse preset whose row names the backbone ``preset``, if any."""
    return next((name for name, row in SPARSE_PRESETS.items() if row[0] == preset), None)


def _golden_config(preset: str, schedule: str | None = None) -> ExperimentConfig:
    """Cost config of ``preset`` at the reference layout, by default under its
    reference schedule."""
    return ExperimentConfig(
        preset=preset, schedule=schedule or _reference_schedule(preset),
        **asdict(GOLDEN_LAYOUT),
    )


def check_golden(presets: list[str]) -> list[tuple[str, str, float, float, float, bool]]:
    """Compare the cost reports at the reference layout to the frozen table.

    Each preset's quantities come from :func:`build_cost_report` under the
    preset's reference schedule. Returns rows of
    (preset, quantity, actual, expected, tol, ok).
    """
    rows = []
    for preset in presets:
        report = build_cost_report(_golden_config(preset))
        b, s = report["baseline"], report["schedule_costs"]
        actuals = {
            "baseline_vision_tflops": tflops(b["vision_total_flops"]),
            "baseline_total_tflops": tflops(b["total_flops"]),
            "vica_vision_tflops": tflops(s["vision_flops"]),
            "vica_total_tflops": tflops(s["total_flops"]),
            "visual_update_pct": report["visual_update"]["share_of_vision"] * 100,
            "vica_rel_vision_pct": s["relative_vision"] * 100,
            "equivalent_tokens": s["equivalent_tokens"],
            "kv_fraction_pct": s["kv_cache_fraction"] * 100,
            "projector_to_cross_ratio": report["projector_to_cross_ratio"],
        }
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
        report = build_cost_report(_golden_config("llava7b", "baseline+pdrop"))
        mean = report["schedule_costs"]["mean_vision_tokens"]
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
    ci = cfg.cost_inputs(mc)
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
            "name": cfg.schedule,
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


def _golden_request(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` under the preset's reference schedule (none without a preset:
    each is checked under its own) at ``GOLDEN_LAYOUT``; ConfigError if it
    names a geometry, another schedule or layout."""
    if cfg.preset is None and any(getattr(cfg, k) is not None for k in cfg.GEOMETRY):
        raise ConfigError("--golden needs a preset geometry")
    reference = _reference_schedule(cfg.preset)
    if cfg.schedule not in (None, reference):
        raise ConfigError(
            f"--golden reads schedule {reference or 'vica<size> of each preset'}, "
            f"not {cfg.schedule!r}"
        )
    if cfg.layout() != GOLDEN_LAYOUT:
        raise ConfigError(f"--golden checks {GOLDEN_LAYOUT}, not {cfg.layout()}")
    return replace(cfg, schedule=reference)


def run_cost(cfg: ExperimentConfig) -> int:
    if cfg.golden:
        cfg = _golden_request(cfg)
    # the reports parse the schedule and the geometry: build them before the
    # out dir exists
    if cfg.golden and cfg.preset is None:
        presets = sorted(GOLDEN_NUMBERS)
        cost = {p: build_cost_report(_golden_config(p)) for p in presets}
        text = "".join(f"== {p} ==\n{format_cost_text(cost[p])}\n" for p in presets)
    else:
        presets = [cfg.preset]
        cost = build_cost_report(cfg)
        text = format_cost_text(cost) + "\n"
    out_dir = resolve_out_dir(cfg)
    dump_json(out_dir / "cost.json", cost)
    print(text, end="")
    write_manifest(out_dir, cfg)

    if not cfg.golden:
        return EXIT_OK
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
    mc = cfg.model_config()
    sched = cfg.policy_schedule(mc.n_layers)
    weights = init_model(mc, cfg.seed)
    batch = _seeded_batch(cfg, mc.d_model)

    # the sweeps refuse what they cannot run: run them before the out dir exists
    reports = {path: layer_sweep(weights, batch, path, schedule=sched) for path in cfg.paths}
    out_dir = resolve_out_dir(cfg)
    for path, report in reports.items():
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
            "schedule": cfg.schedule,
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
    idx = 0
    corrupted = False
    for d in EQUIV_GRID["d"]:
        for layers in EQUIV_GRID["layers"]:
            for heads in EQUIV_GRID["heads"]:
                weights = init_model(ModelConfig(layers, heads, d, 2 * d, vocab=17, max_seq=32),
                                     cfg.seed)
                for n in EQUIV_GRID["n"]:
                    for t in EQUIV_GRID["t"]:
                        for sched_name in EQUIV_GRID["schedules"]:
                            rng = np.random.default_rng([cfg.seed, idx])
                            idx += 1
                            ve = rng.standard_normal((n, d))
                            te = rng.standard_normal((t, d))
                            sched = (
                                PolicySchedule.sparse_cross(layers, {0, layers // 2})
                                if sched_name == "sparse" else parse_schedule(sched_name, layers)
                            )
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

def run_bench(cfg: ExperimentConfig) -> int:
    cfg.require_desk_scale()
    mc = cfg.model_config()
    sched = cfg.policy_schedule(mc.n_layers)
    if not sched.frozen_vision_layers():
        raise ConfigError(
            f"bench schedule {cfg.schedule!r} retains no cross-attention layers"
        )
    out_dir = resolve_out_dir(cfg)
    baseline = PolicySchedule.baseline(mc.n_layers)
    textonly = PolicySchedule.text_only(mc.n_layers)
    layout = cfg.layout()
    dtype = np.float64 if cfg.dtype == "float64" else np.float32

    weights = init_model(mc, cfg.seed).astype(dtype)
    rng = np.random.default_rng(cfg.seed)
    ve = rng.standard_normal((layout.n_vision, mc.d_model)).astype(dtype)
    te = rng.standard_normal((layout.n_text, mc.d_model)).astype(dtype)

    # instrumented multiply counts, one untimed pass per path
    base_counter, pre_counter, fast_counter, text_counter = (MacCounter() for _ in range(4))
    forward(weights, ve, te, baseline, layout=layout, counter=base_counter)
    kv = precompute_visual_kv(weights, ve, sched, counter=pre_counter)
    forward_vica_fast(weights, kv, te, sched, counter=fast_counter)
    no_kv = precompute_visual_kv(weights, ve, textonly)
    forward_vica_fast(weights, no_kv, te, textonly, counter=text_counter)
    vica_macs = pre_counter.macs + fast_counter.macs
    mac_ratio = vica_macs / base_counter.macs

    # the check: the counts against the table under the rules of the timed paths
    vica_table = count_forward_macs(mc, layout, sched, "fast")
    table_ratio = vica_table / count_forward_macs(mc, layout, baseline, "engine")
    ratio_rel_err = abs(mac_ratio - table_ratio) / table_ratio
    # information: the cost model (the paper rule), and by op what the fast
    # rule charges beyond it; the differences sum to vica_table - vica_model
    d, m = mc.d_model, mc.d_ffn
    paper, fast = (mac_table(sched, d, m, layout, rule) for rule in ("paper", "fast"))
    vica_model = mac_total(paper)
    model_ratio = vica_model / mac_total(mac_table(baseline, d, m, layout, "paper"))
    vica_minus_model = {op: mac_total(fast, (op,)) - mac_total(paper, (op,)) for op in MAC_OPS}
    vica_minus_model["logits"] = vica_table - mac_total(fast)

    # the paths rep by rep in one loop, so every overhead is read on one clock
    # window; each rep builds a fresh KV, then prefills on it, and text-only
    # reads no vision KV, so it has none to build
    times = {name: [] for name in ("baseline", "precompute", "prefill", "textonly")}
    for rep in range(cfg.warmup + cfg.reps):
        ticks = [time.perf_counter()]
        forward(weights, ve, te, baseline, layout=layout)
        ticks.append(time.perf_counter())
        fresh = precompute_visual_kv(weights, ve, sched)
        ticks.append(time.perf_counter())
        forward_vica_fast(weights, fresh, te, sched)
        ticks.append(time.perf_counter())
        del fresh
        forward_vica_fast(weights, no_kv, te, textonly)
        ticks.append(time.perf_counter())
        if rep >= cfg.warmup:
            for laps, a, b in zip(times.values(), ticks, ticks[1:]):
                laps.append(b - a)
    times["vica"] = [a + b for a, b in zip(times["precompute"], times["prefill"])]
    med = {name: median(t) for name, t in times.items()}
    report = {
        "geometry": {
            "n_layers": mc.n_layers, "n_heads": mc.n_heads,
            "d_model": mc.d_model, "d_ffn": mc.d_ffn,
            "n_vision": layout.n_vision, "t_text": layout.n_text,
            "dtype": cfg.dtype,
        },
        "schedule": cfg.schedule,
        "macs": {
            "baseline": base_counter.macs,
            "vica": vica_macs,
            "ratio": mac_ratio,
            "table_ratio": table_ratio,
            "ratio_rel_err": ratio_rel_err,
            "costmodel_vica": vica_model,
            "costmodel_ratio": model_ratio,
            "vica_minus_costmodel": vica_minus_model,
        },
        "checks": {
            "mac_ratio_within_5pct": ratio_rel_err <= 0.05,
            "vica_macs_leq_10pct": mac_ratio <= 0.10,
        },
        "timing": {
            "vica_wall_clock_lower": med["vica"] < med["baseline"],
            "reps": cfg.reps,
            "warmup": cfg.warmup,
            **{f"{name}_median_s": v for name, v in med.items()},
            **{f"{name}_s": t for name, t in times.items()},
            "wall_overhead_over_textonly": med["vica"] / med["textonly"] - 1,
            "mac_overhead_over_textonly": vica_macs / text_counter.macs - 1,
            "prefill_wall_overhead_over_textonly": med["prefill"] / med["textonly"] - 1,
            "prefill_mac_overhead_over_textonly": fast_counter.macs / text_counter.macs - 1,
        },
    }
    dump_json(out_dir / "bench.json", report)
    write_manifest(out_dir, cfg)
    gap = "  ".join(f"{op} {v:+,}" for op, v in vica_minus_model.items() if v)
    print(f"multiplies   baseline {base_counter.macs:,}  vica {vica_macs:,}  "
          f"ratio {mac_ratio * 100:.2f}% (table {table_ratio * 100:.2f}%, "
          f"rel err {ratio_rel_err * 100:.2f}%)")
    print(f"cost model   vica {vica_model:,}  ratio {model_ratio * 100:.2f}%  "
          f"vica minus model: {gap or 'none'}")
    print(f"median wall  baseline {med['baseline'] * 1e3:.1f} ms  vica {med['vica'] * 1e3:.1f} "
          f"ms (KV build {med['precompute'] * 1e3:.1f} ms, prefill {med['prefill'] * 1e3:.1f} ms)")
    t = report["timing"]
    print(f"textonly     {med['textonly'] * 1e3:.1f} ms  vica over it: "
          f"wall {t['wall_overhead_over_textonly']:+.1%}  "
          f"multiplies {t['mac_overhead_over_textonly']:+.1%}; prefill alone: "
          f"wall {t['prefill_wall_overhead_over_textonly']:+.1%}  "
          f"multiplies {t['prefill_mac_overhead_over_textonly']:+.1%}")
    if ratio_rel_err > 0.05:
        print("FAIL instrumented ratio deviates from the table by more than 5%")
        return EXIT_VERIFY_FAILED
    return EXIT_OK
