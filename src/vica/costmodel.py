"""Closed-form prefill cost accounting, exact in integer arithmetic.

All counts are FLOPs for a single prefill pass: every multiply-accumulate is
two FLOPs, and that factor of two is always included. Only matrix products
are counted (projections, attention score/value contractions, FFN); norms,
softmax, and elementwise gates are excluded, which is why the engine's
instrumented counts are expected to match these within a small fraction of a
percent rather than exactly.

Symbols: ``d`` model width, ``m`` FFN width, ``n`` vision tokens, ``t``
text tokens (``t_system + t_question``), ``L = n + t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import FROZEN_KV_MODES, KV_MODES, PolicyMode, PolicySchedule, vision_counts


@dataclass(frozen=True)
class CostInputs:
    """Geometry and token counts for one analytical evaluation."""

    n_layers: int
    d: int
    m: int
    n: int
    t_system: int = 35
    t_question: int = 20
    n_retained: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.d < 1 or self.m < 1:
            raise ValueError("n_layers, d, m must be positive")
        if min(self.n, self.t_system, self.t_question, self.n_retained) < 0:
            raise ValueError("token and layer counts must be non-negative")
        if self.n_retained > self.n_layers:
            raise ValueError(
                f"n_retained {self.n_retained} exceeds n_layers {self.n_layers}"
            )

    @property
    def t(self) -> int:
        return self.t_system + self.t_question


def baseline_vision_flops(ci: CostInputs) -> dict[str, int]:
    """Vision-attributable FLOPs of a full joint prefill, by component.

    projections: q/k/v/o of the n vision rows          -> 2 * L * 4 n d^2
    attention:   score + value products touching vision -> 2 * L * 2 d (n^2 + n t)
    ffn:         vision rows through the gated FFN      -> 2 * L * 3 n d m
    (L = n_layers; the n^2 term is vision-to-vision, the n*t term is the
    text-query-to-vision-key block.)
    """
    nl, d, m, n, t = ci.n_layers, ci.d, ci.m, ci.n, ci.t
    projections = nl * 2 * 4 * n * d * d
    attention = nl * 2 * 2 * d * (n * n + n * t)
    ffn = nl * 2 * 3 * n * d * m
    return {
        "projections": projections,
        "attention": attention,
        "ffn": ffn,
        "total": projections + attention + ffn,
    }


def total_flops(ci: CostInputs) -> int:
    """Whole joint prefill over L = n + t tokens."""
    nl, d, m = ci.n_layers, ci.d, ci.m
    L = ci.n + ci.t
    return nl * 2 * (4 * L * d * d + 2 * d * L * L + 3 * L * d * m)


def text_only_flops(ci: CostInputs) -> int:
    """Prefill cost of the text pipeline alone (every layer, t tokens)."""
    nl, d, m, t = ci.n_layers, ci.d, ci.m, ci.t
    return nl * 2 * (4 * t * d * d + 2 * d * t * t + 3 * t * d * m)


def frozen_read_flops_per_layer(ci: CostInputs) -> int:
    """Vision cost of one layer that only reads frozen vision KV.

    KV projection of the n vision rows (2 n d^2) plus the question queries'
    cross-attention score/value products against them (2 d n t_question).
    """
    d, n = ci.d, ci.n
    return 2 * (2 * n * d * d + 2 * d * n * ci.t_question)


def visual_update_flops(ci: CostInputs) -> tuple[int, float | None]:
    """FLOPs spent *updating* vision rows, and their share of vision cost.

    Everything in the baseline vision budget except what a frozen-vision
    layer would keep (KV projection + cross-attention reads) is update work:
    vision q/o projections, vision-to-vision attention, and the vision FFN.
    With no vision tokens the ratio is undefined and reported as None.
    """
    vis_total = baseline_vision_flops(ci)["total"]
    retained = ci.n_layers * frozen_read_flops_per_layer(ci)
    update = vis_total - retained
    if ci.n == 0:
        return 0, None
    return update, update / vis_total


def vica_vision_flops(ci: CostInputs) -> int:
    """Vision cost of a sparse schedule retaining ``n_retained`` layers."""
    return ci.n_retained * frozen_read_flops_per_layer(ci)


def vica_total_flops(ci: CostInputs) -> int:
    """Sparse-schedule prefill: full text pipeline + retained vision reads."""
    return vica_vision_flops(ci) + text_only_flops(ci)


def projector_to_cross_ratio(ci: CostInputs) -> float | None:
    """KV projection cost over cross-attention read cost at one layer: d / t_q."""
    if ci.n == 0 or ci.t_question == 0:
        return None
    return (2 * ci.n * ci.d * ci.d) / (2 * ci.d * ci.n * ci.t_question)


def _vision_cost_coeffs(ci: CostInputs) -> tuple[int, int]:
    """Coefficients (a, b) with baseline vision cost = a n^2 + b n."""
    nl, d, m, t = ci.n_layers, ci.d, ci.m, ci.t
    a = 4 * nl * d
    b = 2 * nl * (4 * d * d + 2 * d * t + 3 * d * m)
    return a, b


def equivalent_token_count(ci: CostInputs, vision_flops: int) -> int:
    """Vision-token count whose baseline cost equals ``vision_flops``.

    Solves a n^2 + b n = C for the positive root and rounds to the nearest
    integer. Exact integer arithmetic is used whenever the root is an
    integer, so round-tripping a baseline vision cost returns its token
    count without any floating-point wobble.
    """
    if vision_flops < 0:
        raise ValueError(f"vision_flops {vision_flops} must be non-negative")
    if vision_flops == 0:
        return 0
    a, b = _vision_cost_coeffs(ci)
    disc = b * b + 4 * a * vision_flops
    s = math.isqrt(disc)
    if s * s == disc and (s - b) % (2 * a) == 0:
        return (s - b) // (2 * a)
    # fractional root: integer sqrt plus a first-order remainder correction
    frac = (disc - s * s) / (2.0 * s)
    return round((s + frac - b) / (2 * a))


def resolved_vision_counts(schedule: PolicySchedule, ci: CostInputs) -> list[int]:
    """Per-layer vision-token counts under the schedule's drop events."""
    if schedule.n_layers != ci.n_layers:
        raise ValueError(
            f"schedule spans {schedule.n_layers} layers, cost inputs {ci.n_layers}"
        )
    return vision_counts(schedule, ci.n)


def kv_cache_fraction(schedule: PolicySchedule, ci: CostInputs) -> float:
    """Vision KV entries held by the schedule, over the baseline's n per layer."""
    if ci.n == 0:
        return 0.0
    counts = resolved_vision_counts(schedule, ci)
    held = sum(
        counts[l] for l, p in enumerate(schedule.layers) if p.mode in KV_MODES
    )
    return held / (schedule.n_layers * ci.n)


def schedule_vision_flops(schedule: PolicySchedule, ci: CostInputs) -> int:
    """Vision-attributable FLOPs of an arbitrary schedule.

    Frozen-KV layers contribute their read cost; baseline layers contribute
    the full per-layer write terms; text-only layers contribute nothing.
    Per-layer vision counts honor the drop events.
    """
    counts = resolved_vision_counts(schedule, ci)
    d, m, t, t_q = ci.d, ci.m, ci.t, ci.t_question
    flops = 0
    for l, p in enumerate(schedule.layers):
        n_l = counts[l]
        if p.mode is PolicyMode.TEXT_ONLY or n_l == 0:
            continue
        if p.mode in FROZEN_KV_MODES:
            flops += 2 * (2 * n_l * d * d + 2 * d * n_l * t_q)
        else:
            flops += 2 * (4 * n_l * d * d + 2 * d * (n_l * n_l + n_l * t) + 3 * n_l * d * m)
    return flops


def tflops(flops: int) -> float:
    return flops / 1e12


def fmt_tflops(flops: int) -> str:
    return f"{flops / 1e12:.2f}"
