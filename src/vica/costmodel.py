"""Closed-form prefill cost accounting, exact in integer arithmetic.

All counts are FLOPs for a single prefill pass: every multiply-accumulate is
two FLOPs. Each is a sum or a column difference over the ``paper`` rule of
:func:`vica.model.mac_table`, which counts matrix products only. The shape
walker sums the same table under the engine's rules, which differ in three
ways: every text row reads vision (the paper: question rows only), text
attention is causal (the paper: dense), and the logits count. ``vica
bench`` prints that gap by op: at its desk geometry ``vica7b`` counts
2,153,906,176 MACs, the model 2,092,056,576: +82,575,360 system-row reads,
-24,330,240 causal attention and +3,604,480 logits (9.58% against 9.30%).

Symbols: ``d`` model width, ``m`` FFN width, ``n`` vision tokens, ``t``
text tokens (``t_system + t_question``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .attention import TokenLayout
from .model import MAC_OPS, PolicySchedule, mac_table, mac_total, vision_counts


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


def _check_span(schedule: PolicySchedule, ci: CostInputs) -> None:
    if schedule.n_layers != ci.n_layers:
        raise ValueError(
            f"schedule spans {schedule.n_layers} layers, cost inputs {ci.n_layers}"
        )


def _paper_table(schedule: PolicySchedule, ci: CostInputs) -> list[dict[str, int]]:
    _check_span(schedule, ci)
    layout = TokenLayout(ci.n, ci.t_system, ci.t_question)
    return mac_table(schedule, ci.d, ci.m, layout, "paper")


def _vision_columns(schedule: PolicySchedule, ci: CostInputs) -> dict[str, int]:
    """FLOPs of each op of ``schedule`` beyond the text-only pipeline's."""
    sched = _paper_table(schedule, ci)
    text = _paper_table(PolicySchedule.text_only(ci.n_layers), ci)
    return {op: 2 * (mac_total(sched, (op,)) - mac_total(text, (op,))) for op in MAC_OPS}


def baseline_vision_flops(ci: CostInputs) -> dict[str, int]:
    """Vision-attributable FLOPs of a full joint prefill, by component.

    projections: q/k/v/o of the n vision rows
    attention:   score + value products of every query by vision keys
    ffn:         vision rows through the gated FFN
    :func:`total_flops` holds the vision-query by text-key block, this not.
    """
    cols = _vision_columns(PolicySchedule.baseline(ci.n_layers), ci)
    parts = {
        "projections": cols["proj"] + cols["vision_kv"],
        "attention": cols["t2v_read"] + cols["vision_attn"],
        "ffn": cols["ffn"],
    }
    return {**parts, "total": sum(parts.values())}


def total_flops(ci: CostInputs) -> int:
    """Whole joint prefill over n + t tokens."""
    return 2 * mac_total(_paper_table(PolicySchedule.baseline(ci.n_layers), ci))


def text_only_flops(ci: CostInputs) -> int:
    """Prefill cost of the text pipeline alone (every layer, t tokens)."""
    return 2 * mac_total(_paper_table(PolicySchedule.text_only(ci.n_layers), ci))


def visual_update_flops(ci: CostInputs) -> tuple[int, float | None]:
    """FLOPs spent *updating* vision rows, and their share of vision cost.

    Everything in the baseline vision budget except what a frozen-vision
    layer would keep (KV projection + cross-attention reads) is update work:
    vision q/o projections, vision-to-vision attention, and the vision FFN.
    With no vision tokens the ratio is undefined and reported as None.
    """
    if ci.n == 0:
        return 0, None
    vis_total = baseline_vision_flops(ci)["total"]
    update = vis_total - schedule_vision_flops(PolicySchedule.freeze_vis(ci.n_layers), ci)
    return update, update / vis_total


def vica_vision_flops(ci: CostInputs) -> int:
    """Vision cost of a sparse schedule retaining ``n_retained`` layers."""
    retained = PolicySchedule.sparse_cross(ci.n_layers, range(ci.n_retained))
    return schedule_vision_flops(retained, ci)


def vica_total_flops(ci: CostInputs) -> int:
    """Sparse-schedule prefill: full text pipeline + retained vision reads."""
    return vica_vision_flops(ci) + text_only_flops(ci)


def projector_to_cross_ratio(ci: CostInputs) -> float | None:
    """KV projection cost over cross-attention read cost at one layer: d / t_q."""
    if ci.n == 0 or ci.t_question == 0:
        return None
    cols = _vision_columns(PolicySchedule.freeze_vis(ci.n_layers), ci)
    return cols["vision_kv"] / cols["t2v_read"]


def equivalent_token_count(ci: CostInputs, vision_flops: int) -> int:
    """Vision-token count whose baseline cost equals ``vision_flops``.

    The baseline vision cost is a n^2 + b n; this solves a n^2 + b n = C for
    the positive root and rounds to the nearest integer. Exact integer
    arithmetic is used whenever the root is an integer, so round-tripping a
    baseline vision cost returns its token count without any floating-point
    wobble.
    """
    if vision_flops < 0:
        raise ValueError(f"vision_flops {vision_flops} must be non-negative")
    if vision_flops == 0:
        return 0
    c1, c2 = (baseline_vision_flops(replace(ci, n=n))["total"] for n in (1, 2))
    a = (c2 - 2 * c1) // 2
    b = c1 - a
    disc = b * b + 4 * a * vision_flops
    s = math.isqrt(disc)
    if s * s == disc and (s - b) % (2 * a) == 0:
        return (s - b) // (2 * a)
    # fractional root: integer sqrt plus a first-order remainder correction
    frac = (disc - s * s) / (2.0 * s)
    return round((s + frac - b) / (2 * a))


def resolved_vision_counts(schedule: PolicySchedule, ci: CostInputs) -> list[int]:
    """Per-layer vision-token counts under the schedule's drop events."""
    _check_span(schedule, ci)
    return vision_counts(schedule, ci.n)


def kv_cache_fraction(schedule: PolicySchedule, ci: CostInputs) -> float:
    """Vision KV rows of the ``paper`` rule, over the baseline's n per layer."""
    table = _paper_table(schedule, ci)
    if ci.n == 0:
        return 0.0
    held = mac_total(table, ("vision_kv",)) // (2 * ci.d * ci.d)
    return held / (ci.n_layers * ci.n)


def schedule_vision_flops(schedule: PolicySchedule, ci: CostInputs) -> int:
    """Vision-attributable FLOPs of an arbitrary schedule.

    Frozen-KV layers contribute their read cost; baseline layers contribute
    the full per-layer write terms; text-only layers contribute nothing.
    Per-layer vision counts honor the drop events.
    """
    cols = _vision_columns(schedule, ci)
    return sum(cols.values()) - cols["v2t_unclaimed"]


def tflops(flops: int) -> float:
    return flops / 1e12


def fmt_tflops(flops: int) -> str:
    return f"{flops / 1e12:.2f}"
