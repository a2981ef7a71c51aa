"""Command-line entry point.

Subcommands map onto the harness runners; flags override config-file
values, which override per-mode defaults. Exit codes: 0 pass, 1
verification failure, 2 configuration error, 3 internal error (an
unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .harness import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    ExperimentConfig,
    _coerce,
    parse_config,
    run_bench,
    run_cost,
    run_diagnose,
    run_equivalence,
)
from .model import (
    MODEL_PRESETS,
    PDROP_EVENTS,
    RETAINED_LAYERS,
    ConfigError,
)

# defaults that only make sense for a given mode; config files and flags win
MODE_DEFAULTS = {
    "diagnose": {"n_vision": 16, "t_system": 2, "t_question": 4},
}

RUNNERS = {
    "cost": run_cost,
    "diagnose": run_diagnose,
    "equivalence": run_equivalence,
    "bench": run_bench,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat key=value config file")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed")


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", dest="n_layers", type=int, help="transformer layers")
    p.add_argument("--heads", dest="n_heads", type=int, help="attention heads")
    p.add_argument("--d-model", dest="d_model", type=int, help="model width")
    p.add_argument("--d-ffn", dest="d_ffn", type=int, help="FFN width")


def _add_layout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", dest="n_vision", type=int, help="vision tokens")
    p.add_argument("--t-system", dest="t_system", type=int, help="system text tokens")
    p.add_argument("--t-question", dest="t_question", type=int, help="question text tokens")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vica",
        description="frozen-vision decoder engine: cost model, diagnostics, benchmarks",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    cost = sub.add_parser("cost", help="analytical FLOPs/KV report, optional golden check")
    _add_common(cost)
    _add_geometry(cost)
    _add_layout(cost)
    cost.add_argument("--preset", help="model geometry preset (llava3b/7b/13b)")
    cost.add_argument("--schedule", help="policy schedule name")
    cost.add_argument("--golden", action="store_true", default=argparse.SUPPRESS,
                      help="verify against the frozen reference numbers")

    diag = sub.add_parser("diagnose", help="layerwise ablation sweep on a seeded toy model")
    _add_common(diag)
    _add_geometry(diag)
    _add_layout(diag)
    diag.add_argument("--preset", help="model geometry preset")
    diag.add_argument("--schedule", help="schedule context for the sweep")
    diag.add_argument("--batch", type=int, help="seeded inputs per sweep")
    diag.add_argument("--paths", type=lambda s: _coerce("paths", s),
                      help="comma-separated pathway kinds to sweep")

    equiv = sub.add_parser("equivalence", help="three-way path agreement over a seeded grid")
    _add_common(equiv)
    equiv.add_argument("--self-test", dest="self_test", action="store_true",
                       default=argparse.SUPPRESS,
                       help="corrupt one case to prove the check can fail")

    bench = sub.add_parser("bench", help="CPU micro-benchmark, baseline vs sparse schedule")
    _add_common(bench)
    _add_geometry(bench)
    _add_layout(bench)
    bench.add_argument("--schedule", help="sparse schedule to benchmark")
    bench.add_argument("--reps", type=int, help="timed repetitions")
    bench.add_argument("--warmup", type=int, help="untimed repetitions")
    bench.add_argument("--dtype", choices=("float64", "float32"), help="compute dtype")

    sub.add_parser("presets", help="list model and schedule presets")
    return parser


def print_presets() -> int:
    print("model presets:")
    for name, mc in MODEL_PRESETS.items():
        print(f"  {name:<10} layers={mc.n_layers:<3} heads={mc.n_heads:<3} "
              f"d_model={mc.d_model:<5} d_ffn={mc.d_ffn}")
    print("\nschedule presets:")
    print("  baseline / freeze / textonly   uniform policies at any depth")
    print("  baseline+pdrop                 quarter-depth 0.5 drops")
    for name, (n_layers, retained) in RETAINED_LAYERS.items():
        print(f"  {name:<10} {n_layers} layers, cross-attention at "
              f"{sorted(retained)}")
        events = PDROP_EVENTS[name]
        print(f"  {name + '+pdrop':<10} adds drops {dict(sorted(events.items()))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        build_parser().print_help()
        return EXIT_CONFIG_ERROR
    if args.command == "presets":
        return print_presets()
    try:
        values = dict(MODE_DEFAULTS.get(args.command, {}))
        if getattr(args, "config", None):
            values.update(parse_config(Path(args.config).read_text()))
        values.update(
            {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "config") and v is not None
            }
        )
        values["mode"] = args.command
        cfg = ExperimentConfig(**values)
        return RUNNERS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        # an unreadable config or out dir is a setup problem, not a failed check
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        # a crash is neither a failed check nor a bad config
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
