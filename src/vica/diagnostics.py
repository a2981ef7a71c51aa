"""Layerwise contribution diagnostics for the vision pathways.

For each layer, one pathway (vision attention writes, vision FFN writes, or
text-to-vision reads) is disabled in the masked-oracle forward, and the damage
is measured two ways:

* KL divergence (natural log) between the intact and ablated next-token
  distributions at the final text position, averaged over a small input batch;
* how much the affected token rows move across the host sublayer in the
  intact run, reported as 1 - cosine.

Affected rows per pathway: vision rows around the attention block for
``vis_attn_write``, vision rows around the FFN for ``vis_ffn_write``, and
text rows around the attention block for ``t2v_read``.

An ablated run recomputes only the rows and layers its ablation can reach
and reads the rest from the traced intact run: disabling ``t2v_read`` at
layer l reruns the text rows alone from l on, disabling a vision write at l
all rows from l + 1 on but the text rows alone at the last layer (see
:func:`layer_sweep`). Each row is computed as a direct referee run computes
it; only the BLAS kernel of the shorter text-row products may round
differently. KLs moved by ~1e-16 at 576 + 55 tokens and d=256, and with a
single text row, whose products NumPy runs as matrix-vector products;
elsewhere the tests find them equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ForwardResult,
    PolicySchedule,
    Weights,
    _disabled_by_layer,
    _oracle_ffn,
    _oracle_layers,
    _vision_kv,
    forward_baseline_masked_oracle,
    parse_path,
    schedule_to_disabled_paths,
)
from .numerics import row_softmax

#: Probabilities below this are lifted before a KL evaluation (then the
#: distribution is renormalized) so ablations that zero a token's mass
#: cannot produce infinite divergence.
KL_FLOOR = 1e-12


@dataclass
class CosineChange:
    one_minus_cos: np.ndarray  # per included row
    mean: float
    skipped: int               # rows excluded for having a zero-norm side


def cosine_change(before: np.ndarray, after: np.ndarray) -> CosineChange:
    """Per-row 1 - cos(before, after); zero-norm rows are excluded and a
    non-finite entry raises ValueError, so a NaN row is never skipped."""
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    if before.shape != after.shape or before.ndim != 2:
        raise ValueError(f"row sets {before.shape} and {after.shape} must match")
    if not (np.isfinite(before).all() and np.isfinite(after).all()):
        raise ValueError("row sets hold non-finite entries")
    nb = np.linalg.norm(before, axis=1)
    na = np.linalg.norm(after, axis=1)
    ok = (nb > 0.0) & (na > 0.0)
    cos = np.einsum("ij,ij->i", before[ok], after[ok]) / (nb[ok] * na[ok])
    one_minus = 1.0 - cos
    mean = float(one_minus.mean()) if one_minus.size else 0.0
    return CosineChange(one_minus, mean, int((~ok).sum()))


def kl_divergence(p: np.ndarray, p_prime: np.ndarray) -> float:
    """KL(p || p') in nats over two distributions on the same support.

    Both must be non-negative and sum to 1 within 1e-9. ``p_prime`` is
    floored at ``KL_FLOOR`` and renormalized, but only when some entry
    actually falls below the floor, so well-conditioned identical inputs
    come back as exactly 0.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(p_prime, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions {p.shape} and {q.shape} must match")
    for name, dist in (("p", p), ("p_prime", q)):
        if (dist < 0.0).any():
            raise ValueError(f"{name} has negative entries")
        # written as not (... <= x) so that a NaN sum fails
        if not (abs(float(dist.sum()) - 1.0) <= 1e-9):
            raise ValueError(f"{name} sums to {float(dist.sum())}, not 1")
    if (q < KL_FLOOR).any():
        q = np.maximum(q, KL_FLOOR)
        q = q / q.sum()
    support = p > 0.0
    total = float(np.sum(p[support] * np.log(p[support] / q[support])))
    # rounding can leave -O(ulp) on near-identical pairs; the true value
    # is non-negative (Gibbs), so clamp
    return max(total, 0.0)


def next_token_distribution(result: ForwardResult) -> np.ndarray:
    """Softmax over the final text position's logits."""
    return row_softmax(result.logits[-1:])[0]


@dataclass
class ImpactReport:
    """Per-layer impact of disabling one pathway."""

    path: str
    layers: list[int]
    kl: list[float]
    one_minus_cos: list[float]

    def ranking(self) -> list[int]:
        """Layers ordered by KL descending; ties go to the lower layer."""
        return sorted(self.layers, key=lambda l: (-self.kl[l], l))

    def to_json_dict(self) -> dict:
        return {
            "path": self.path,
            "layers": self.layers,
            "kl": self.kl,
            "one_minus_cos": self.one_minus_cos,
            "ranking": self.ranking(),
        }


def _affected_rows(trace_entry, path: str, n_vision: int) -> tuple[np.ndarray, np.ndarray]:
    if path == "vis_attn_write":
        return trace_entry.h_pre_attn[:n_vision], trace_entry.h_post_attn[:n_vision]
    if path == "vis_ffn_write":
        return trace_entry.h_post_attn[:n_vision], trace_entry.h_post_ffn[:n_vision]
    if path == "t2v_read":
        return trace_entry.h_pre_attn[n_vision:], trace_entry.h_post_attn[n_vision:]
    raise ValueError(f"unknown path {path!r}")


def _resume(weights: Weights, run: ForwardResult, n: int, path: str, l: int,
            base_off: dict[int, set[str]], vision_kv) -> ForwardResult:
    """The traced base ``run`` with ``path@l`` also disabled, recomputing only
    what that can change; ``vision_kv`` holds the run's vision keys/values."""
    entry = run.trace[l]
    if path == "t2v_read":
        off = {**base_off, l: base_off.get(l, set()) | {path}}
        return _oracle_layers(weights, entry.h_pre_attn[n:], n, off, l, vision_kv=vision_kv)
    if l == weights.config.n_layers - 1:  # a write no readout reads
        return run
    # no text row reads a vision row's write at l: the text rows leave l as they did
    v = entry.h_post_attn[:n] if path == "vis_ffn_write" else entry.h_pre_attn[:n]
    if path == "vis_attn_write":
        v = v + _oracle_ffn(v, weights.layers[l], n, "vis_ffn_write" not in base_off.get(l, ()))
    h = np.vstack([v, entry.h_post_ffn[n:]])
    return _oracle_layers(weights, h, n, base_off, l + 1, last_text_rows=True)


def layer_sweep(
    weights: Weights,
    inputs: list[tuple[np.ndarray, np.ndarray]],
    path: str,
    schedule: PolicySchedule | None = None,
) -> ImpactReport:
    """Disable ``path`` one layer at a time and measure the output damage.

    ``schedule`` sets the base configuration the sweep perturbs: its policy
    modes are expressed as a masked-oracle disabled-path set, and each swept
    layer adds ``path@l`` on top. Disabling a path the base configuration
    already has off (or one that cannot reach the output) measures as exactly
    zero KL. Default base is the all-baseline model.

    Each ablated run starts from the traced base run and recomputes only
    the rows and layers its ablation can reach. No vision row reads text, so
    for ``path@l``:

    * ``t2v_read``: the vision rows stay the base run's; the text rows alone
      run layers ``l..L-1``, over the base run's vision keys/values
      (projected once per input and layer);
    * ``vis_ffn_write``: every row's attention at ``l`` is the base run's,
      so the full rows run layers ``l+1..L-2``, then the text rows alone
      run ``L-1``, since no readout reads the vision rows leaving it;
    * ``vis_attn_write``: as ``vis_ffn_write``, after the vision rows' FFN at ``l``;
    * a write at ``l = L-1`` runs nothing and measures exactly 0.

    That is L full referee layers per input for the base run, plus
    ``sum(L - l)`` text-row layers for a read, or ``sum(L - 2 - l)`` full
    and one text-row layer per ``l <= L-2`` for a write, over the swept
    layers ``l``. Inputs run one at a time, so one base trace is alive.
    """
    if not inputs:
        raise ValueError("layer_sweep needs at least one input")
    n_layers = weights.config.n_layers
    base: frozenset[str] = (
        schedule_to_disabled_paths(schedule) if schedule is not None else frozenset()
    )
    parse_path(f"{path}@0", n_layers)  # reject an unknown path before any work
    base_off = _disabled_by_layer(base, n_layers)
    # where the base configuration has the path off already, the ablated
    # model is the base model
    swept = [l for l in range(n_layers) if path not in base_off.get(l, set())]

    kls, cosines = [], []  # per input, per layer
    for ve, te in inputs:
        n = ve.shape[0]
        run = forward_baseline_masked_oracle(weights, ve, te, base, record_trace=True)
        p_base = next_token_distribution(run)
        vision_kv = None if path != "t2v_read" else {
            j: _vision_kv(run.trace[j].h_pre_attn[:n], weights.layers[j])
            for j in range(min(swept, default=n_layers), n_layers)
        }
        kls.append([
            kl_divergence(p_base, next_token_distribution(
                _resume(weights, run, n, path, l, base_off, vision_kv)))
            if l in swept else 0.0
            for l in range(n_layers)
        ])
        cosines.append([
            cosine_change(*_affected_rows(run.trace[l], path, n)).mean for l in range(n_layers)
        ])
    # summed in input order, as one running total per layer would be
    return ImpactReport(
        path, list(range(n_layers)),
        [sum(col) / len(inputs) for col in zip(*kls)],
        [sum(col) / len(inputs) for col in zip(*cosines)],
    )


def partition_regimes(report: ImpactReport, k: int) -> tuple[list[int], list[int]]:
    """Split layers into (essential, redundant): top-k by KL, ties to lower index."""
    if not (0 <= k <= len(report.layers)):
        raise ValueError(f"k {k} outside 0..{len(report.layers)}")
    ranked = report.ranking()
    essential = sorted(ranked[:k])
    redundant = sorted(ranked[k:])
    return essential, redundant
