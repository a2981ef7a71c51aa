"""Progressive vision-token dropping: schedule resolution and selection.

A drop schedule is a map ``layer -> keep_fraction``. Each event takes effect
at that layer's entry, so the listed layer already sees the reduced set. The
resolved per-layer count is the floor of ``n_initial`` times the product of
all keep fractions at or before that layer (one floor, applied to the exact
product, so composed events cannot drift by off-by-one rounding).
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction

import numpy as np

logger = logging.getLogger(__name__)


def resolve_schedule(
    events: dict[int, float], n_initial: int, n_layers: int
) -> list[int]:
    """Vision-token count at each layer under the given drop events."""
    if n_initial < 0:
        raise ValueError(f"n_initial {n_initial} must be non-negative")
    if n_layers < 1:
        raise ValueError(f"n_layers {n_layers} must be positive")
    for layer, keep in events.items():
        if not (0 <= layer < n_layers):
            raise ValueError(f"drop event at layer {layer} outside 0..{n_layers - 1}")
        if not (0.0 <= keep <= 1.0):
            raise ValueError(f"keep fraction {keep} at layer {layer} outside [0, 1]")
    counts: list[int] = []
    factor = Fraction(1)
    for layer in range(n_layers):
        if layer in events:
            factor *= Fraction(events[layer])
        counts.append(math.floor(n_initial * factor))
    if events and n_initial > 0 and counts[-1] == 0:
        zero_at = counts.index(0)
        logger.warning("drop schedule empties the vision set at layer %d", zero_at)
    return counts


def mean_vision_tokens(counts: list[int]) -> float:
    """Average vision tokens per layer for a resolved schedule."""
    return sum(counts) / len(counts)


def relocate_drop_events(
    events: dict[int, float], kv_exposing: list[bool]
) -> dict[int, float]:
    """Move events off layers that hold no vision KV.

    A drop configured at a text-only layer cannot be scored there (there is
    no text-to-vision attention to rank by), so it slides to the next layer
    that exposes vision KV, with a logged warning. Events with no such layer
    downstream are discarded: nothing after them ever reads vision again.
    Colliding events compose multiplicatively.
    """
    out: dict[int, float] = {}
    for layer in sorted(events):
        keep = events[layer]
        if not (0 <= layer < len(kv_exposing)):
            raise ValueError(f"drop event at layer {layer} outside the schedule")
        target = next(
            (l for l in range(layer, len(kv_exposing)) if kv_exposing[l]), None
        )
        if target is None:
            logger.warning(
                "drop event at layer %d has no vision-exposing layer to land on; dropped",
                layer,
            )
            continue
        if target != layer:
            logger.warning(
                "drop event at text-only layer %d deferred to layer %d", layer, target
            )
        out[target] = out.get(target, 1.0) * keep
    return out


def select_kept_tokens(attn_to_vision: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` most-attended vision tokens, sorted ascending.

    ``attn_to_vision`` is a (text queries x vision tokens) attention-weight
    block from the drop layer; its final query row ranks the tokens
    (PyramidDrop's rule: the last instruction token's attention). Ties break
    toward the lower token index.
    """
    attn = np.asarray(attn_to_vision)
    if attn.ndim != 2:
        raise ValueError(f"attention block must be 2-D, got shape {attn.shape}")
    n = attn.shape[1]
    if not (0 <= keep <= n):
        raise ValueError(f"keep {keep} outside 0..{n}")
    if keep == 0:
        return np.empty(0, dtype=np.intp)
    if attn.shape[0] < 1:
        raise ValueError("need at least one query row to rank tokens")
    order = np.lexsort((np.arange(n), -attn[-1]))
    return np.sort(order[:keep])
