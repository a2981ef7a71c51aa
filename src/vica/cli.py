"""Command-line entry point.

Subcommands map onto the harness runners. Each subcommand's flags are the
keys its mode reads (``ExperimentConfig.MODE_DEFAULTS``) plus ``--out``
and ``--config``; a config file may set the same keys and no others.
Flags override config-file values, which override per-mode defaults. Exit
codes: 0 pass, 1 verification failure, 2 configuration error, 3 internal
error (an unexpected exception; its traceback goes to stderr).
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
from .model import MODEL_PRESETS, SPARSE_PRESETS, UNIFORM_PRESETS, ConfigError

RUNNERS = {
    "cost": run_cost,
    "diagnose": run_diagnose,
    "equivalence": run_equivalence,
    "bench": run_bench,
}


# each config key's (flag, help, argparse keywords)
FLAGS = {
    "out_dir": ("--out", "output directory", {"metavar": "DIR"}),
    "preset": ("--preset", "model geometry preset (llava3b/7b/13b)", {}),
    "schedule": ("--schedule", "policy schedule name (see `vica presets`)", {}),
    "n_layers": ("--layers", "transformer layers", {"type": int}),
    "n_heads": ("--heads", "attention heads", {"type": int}),
    "d_model": ("--d-model", "model width", {"type": int}),
    "d_ffn": ("--d-ffn", "FFN width", {"type": int}),
    "n_vision": ("--n", "vision tokens", {"type": int}),
    "t_system": ("--t-system", "system text tokens", {"type": int}),
    "t_question": ("--t-question", "question text tokens", {"type": int}),
    "seed": ("--seed", "RNG seed", {"type": int}),
    "batch": ("--batch", "seeded inputs per sweep", {"type": int}),
    "paths": ("--paths", "comma-separated pathway kinds to sweep",
              {"type": lambda s: _coerce("paths", s)}),
    "reps": ("--reps", "timed repetitions", {"type": int}),
    "warmup": ("--warmup", "untimed repetitions", {"type": int}),
    "dtype": ("--dtype", "compute dtype", {"choices": ("float64", "float32")}),
    "golden": ("--golden", "verify against the frozen reference numbers",
               {"action": "store_true"}),
    "self_test": ("--self-test", "corrupt one case to prove the check can fail",
                  {"action": "store_true"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vica",
        description="frozen-vision decoder engine: cost model, diagnostics, benchmarks",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")
    for mode, help_text in (
        ("cost", "analytical FLOPs/KV report, optional golden check"),
        ("diagnose", "layerwise ablation sweep on a seeded toy model"),
        ("equivalence", "three-way path agreement over a seeded grid"),
        ("bench", "CPU micro-benchmark, baseline vs sparse schedule"),
    ):
        # an unset flag leaves no attribute, so it overrides nothing
        p = sub.add_parser(mode, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE", help="flat key=value config file")
        for key in ("out_dir", *ExperimentConfig.MODE_DEFAULTS[mode][-1]):
            flag, key_help, kwargs = FLAGS[key]
            p.add_argument(flag, dest=key, help=key_help, **kwargs)
    sub.add_parser("presets", help="list model and schedule presets")
    return parser


def print_presets() -> int:
    print("model presets:")
    for name, mc in MODEL_PRESETS.items():
        print(f"  {name:<10} layers={mc.n_layers:<3} heads={mc.n_heads:<3} "
              f"d_model={mc.d_model:<5} d_ffn={mc.d_ffn}")
    print("\nschedule presets:")
    print(f"  {' / '.join(UNIFORM_PRESETS):<30} uniform policies at any depth")
    print("  baseline+pdrop                 quarter-depth 0.5 drops")
    print("  sparse:<layer>,<layer>,...     cross-attention at the listed layers")
    for name, (backbone, retained, events) in SPARSE_PRESETS.items():
        print(f"  {name:<10} {MODEL_PRESETS[backbone].n_layers} layers, cross-attention at "
              f"{sorted(retained)}")
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
        config = getattr(args, "config", None)
        values = parse_config(Path(config).read_text(), args.command) if config else {}
        values.update((k, v) for k, v in vars(args).items() if k not in ("command", "config"))
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
