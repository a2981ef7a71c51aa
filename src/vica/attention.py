"""Permission masks and attention over a [vision; text] token stream.

The token stream is always ordered vision prefix first, then system text,
then question text; system and question rows follow one rule, so every
text row reads the whole vision prefix. A causal mask over that ordering
already guarantees that no vision query can see a text key (vision tokens
precede all text), which is what lets the text rows be computed against a
rectangular key set: row ``i`` of a length-``q`` query block over ``kv``
keys may attend to key ``j`` iff ``j <= i + (kv - q)``, the bottom-right
alignment of the causal diagonal.

Two evaluation paths are provided. :func:`masked_attention_oracle` takes an
explicit boolean permission matrix (query rows by keys), forms the full
score matrix and is the reference for everything else.
:func:`asymmetric_cross_attention` is the causal kernel of the engine and
the fast path: it builds no mask, works a block of query rows and a
group of heads at a time (each block sizing its groups so their score
tiles stay cache-sized), forms no key tile past a block's last permitted
key and applies the bottom-right rule to the rest in place. When a bound
on every score proves ``exp`` cannot overflow, it exponentiates the scores
unshifted and zeroes the masked ones; otherwise it masks them to ``-inf``
and shifts each row by its max first. Every engine layer is one call of
it; a joint ``BASELINE`` layer is one causal block over the [vision;
text] rows with no prefix keys. :func:`attention_weights` gives unmasked
head-averaged attention weights, all heads in one batched product and
one softmax; the layer body scores vision-token drops with it. The oracle
loops over heads, so it shares no head layout with the paths it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, add_macs, matmul, row_softmax

# Least rows per block in the causal kernel: the rows split evenly into
# rows // _ROW_BLOCK blocks, so there is no short tail block whose call
# overhead outweighs the columns it skips. Fixed, not configurable.
_ROW_BLOCK = 64

# Score elements per head group in the causal kernel (1 MiB of float64): each
# row block splits the heads evenly into groups of at most _TILE // (its rows
# * its keys), so small tiles share one NumPy call across many heads and a
# large one stays in cache. Twice this size measured slower in a full prefill: the larger
# buffers were page-faulted afresh on every call. Fixed, not configurable.
_TILE = 1 << 17


@dataclass(frozen=True)
class TokenLayout:
    """Token counts for one sequence: vision prefix, then system + question text."""

    n_vision: int
    t_system: int
    t_question: int

    def __post_init__(self) -> None:
        for name in ("n_vision", "t_system", "t_question"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n_text(self) -> int:
        return self.t_system + self.t_question

    @property
    def total(self) -> int:
        return self.n_vision + self.n_text


def bottom_right_causal_allowed(i: int, j: int, q_len: int, kv_len: int) -> bool:
    """May query row ``i`` (of ``q_len``) attend to key ``j`` (of ``kv_len``)?

    The last query row aligns with the last key; earlier query rows lose one
    key each, so the rule is ``j <= i + (kv_len - q_len)``.
    """
    if q_len > kv_len:
        raise ValueError(f"q_len {q_len} exceeds kv_len {kv_len}")
    if not (0 <= i < q_len and 0 <= j < kv_len):
        raise ValueError(f"({i}, {j}) outside mask of shape ({q_len}, {kv_len})")
    return j <= i + (kv_len - q_len)


def bottom_right_mask(q_len: int, kv_len: int) -> np.ndarray:
    """Boolean matrix form of the bottom-right causal rule."""
    if q_len > kv_len:
        raise ValueError(f"q_len {q_len} exceeds kv_len {kv_len}")
    offset = kv_len - q_len
    rows = np.arange(q_len)[:, None]
    cols = np.arange(kv_len)[None, :]
    return cols <= rows + offset


def build_baseline_mask(layout: TokenLayout) -> np.ndarray:
    """Square causal mask over the full [vision; text] stream.

    Because vision tokens occupy the prefix, the causal rule alone forces the
    text-key block of every vision query row to be all False.
    """
    return bottom_right_mask(layout.total, layout.total)


def build_cross_mask(layout: TokenLayout) -> np.ndarray:
    """Mask for text queries over [vision keys; text keys].

    Equals the last ``n_text`` rows of the baseline mask: every text row sees
    the whole vision prefix plus the causal text prefix.
    """
    return bottom_right_mask(layout.n_text, layout.total)


def split_heads(x: np.ndarray, n_heads: int) -> list[np.ndarray]:
    """Column-split (rows, d) into per-head (rows, d / n_heads) views."""
    d = x.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible by {n_heads} heads")
    return [x[:, h * (d // n_heads) : (h + 1) * (d // n_heads)] for h in range(n_heads)]


def _head_major(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, d) as (heads, rows, d / n_heads); a view of a row-major ``x``."""
    return x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)


def _tile(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of the flat ``buf`` as a contiguous ``shape`` array."""
    return buf[: math.prod(shape)].reshape(shape)


def _abs_max(x: np.ndarray) -> float:
    """Largest ``|x|`` as a Python float; NaN if ``x`` holds a NaN."""
    return float(max(x.max(), -x.min()))


def masked_attention_oracle(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    allowed: np.ndarray,
    n_heads: int,
) -> np.ndarray:
    """Reference multi-head attention with an explicit permission mask.

    ``allowed`` is a boolean (queries, keys) matrix. Per head:
    softmax(Q K^T / sqrt(d_head)) V with masked positions excluded from the
    softmax reductions. Head outputs are concatenated; any output
    projection is the caller's business.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.shape[1] != k.shape[1] or k.shape != v.shape:
        raise ShapeError(f"q {q.shape}, k {k.shape}, v {v.shape} are inconsistent")
    if np.shape(allowed) != (q.shape[0], k.shape[0]):
        raise ShapeError(
            f"mask {np.shape(allowed)} does not cover q {q.shape[0]} by kv {k.shape[0]}"
        )
    d_head = q.shape[1] // n_heads
    scale = 1.0 / math.sqrt(d_head)
    out = np.empty_like(q)
    for q_h, k_h, v_h, o_h in zip(
        split_heads(q, n_heads),
        split_heads(k, n_heads),
        split_heads(v, n_heads),
        split_heads(out, n_heads),
    ):
        # one expression, so no head's scores or weights outlive it
        o_h[:] = matmul(row_softmax(matmul(q_h, k_h.T), allowed, scale), v_h)
    return out


def attention_weights(q: np.ndarray, k: np.ndarray, n_heads: int) -> np.ndarray:
    """Head-averaged attention-weight matrix of every query over every key.

    No mask and no value mix. All heads' scores come from one batched
    product and go through one :func:`~vica.numerics.row_softmax` call as a
    ``(heads * rows, keys)`` matrix. Accumulates in the dtype of ``q`` and
    ``k``. The engine calls it with one query row, the last text row of a
    drop layer, which sees every key.
    """
    q, k = np.asarray(q), np.asarray(k)
    (rows, d), kv_len = q.shape, k.shape[0]
    if k.shape[1] != d or d % n_heads != 0:
        raise ShapeError(f"q {q.shape} and k {k.shape} do not split into {n_heads} heads")
    scores = _head_major(q, n_heads) @ _head_major(k, n_heads).transpose(0, 2, 1)
    add_macs(rows * d * kv_len)
    probs = row_softmax(
        scores.reshape(n_heads * rows, kv_len), scale=1.0 / math.sqrt(d // n_heads)
    )
    return probs.reshape(n_heads, rows, kv_len).sum(axis=0) / n_heads


def asymmetric_cross_attention(
    q_text: np.ndarray,
    k_all: np.ndarray,
    v_all: np.ndarray,
    n_heads: int,
) -> np.ndarray:
    """Text queries over [vision keys; text keys] under the bottom-right rule.

    With ``t`` queries and ``kv_len`` keys, the first ``n = kv_len - t`` keys
    are the vision prefix. Query row ``i`` sees every vision key and the text
    keys ``0..i``. With ``n = 0`` this is plain causal self-attention, which
    is how the engine runs the [vision; text] rows of a joint layer.

    The query rows split into ``max(1, t // _ROW_BLOCK)`` even blocks; the
    block ``[r0, r1)`` forms scores only against keys ``0 .. n + r1 - 1``,
    its last permitted one, and masks only its diagonal tile's future keys.
    Each block splits the heads evenly into groups of at most ``_TILE //
    (rows * (n + r1))`` (at least one), so a group's score tile stays
    cache-sized and the early blocks of a causal call run many heads per
    NumPy call. q, k, v and the output are viewed head-major, never copied.

    Softmax is invariant to a per-row shift; the max shift only keeps
    ``exp`` in range. Before the loop the kernel bounds every score it will
    form, masked ones included, by ``B = d_head * max|q / sqrt(d_head)| *
    max|k|``. If ``B <= log(finfo.max) / 4`` in the score dtype (~177.4 in
    float64, ~22.2 in float32), each tile is exponentiated in place
    unshifted and then its masked entries are set to 0.0: the weights lie
    in ``[e^-B, e^B]`` and the row sums stay far from overflow (the value
    mix overflows only if some ``|v|`` exceeds ``finfo.max ** 0.75 /
    kv_len``). Otherwise, NaN or inf ``B`` included, the masked entries are
    set to ``-inf`` and each row is shifted by its max before ``exp``, so
    NaN inputs propagate as the referee's do. ``1 / sqrt(d_head)`` is
    folded into the queries once. The row sums are the weights' product
    with a ones column, and the ``(rows, d_head)`` value product is divided
    by them straight into the output view. Every row sees at least its own
    key, so no row is empty. The score, max/sum and value-mix buffers, the
    ones column and the diagonal mask are allocated once per call.

    Matches :func:`masked_attention_oracle` under :func:`build_cross_mask`.
    Credits the causal MAC count ``2 * d * (t * n + t * (t + 1) / 2)``.
    """
    q_text = np.asarray(q_text)
    k_all = np.asarray(k_all)
    v_all = np.asarray(v_all)
    t, d = q_text.shape
    kv_len = k_all.shape[0]
    if t > kv_len:
        raise ShapeError(f"q_len {t} exceeds kv_len {kv_len}")
    if k_all.shape != v_all.shape or k_all.shape[1] != d:
        raise ShapeError(f"k {k_all.shape}, v {v_all.shape} inconsistent with q width {d}")
    if d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible by {n_heads} heads")
    n = kv_len - t
    out = np.empty(q_text.shape, dtype=q_text.dtype)  # row-major: written via a view
    if t == 0:
        return out
    d_head = d // n_heads
    q_scaled = q_text * (1.0 / math.sqrt(d_head))
    q_h = _head_major(q_scaled, n_heads)
    k_t = _head_major(k_all, n_heads).transpose(0, 2, 1)
    v_h, o_h = _head_major(v_all, n_heads), _head_major(out, n_heads)
    n_blocks = max(1, t // _ROW_BLOCK)
    max_rows = -(-t // n_blocks)
    # a group's tile is one head's block or at most _TILE elements
    max_tile = max(max_rows * kv_len, min(n_heads * max_rows * kv_len, _TILE))
    score_buf = np.empty(max_tile, dtype=np.result_type(q_h, k_t))
    reduce_buf = np.empty(n_heads * max_rows, dtype=score_buf.dtype)
    mix_buf = np.empty(n_heads * max_rows * d_head, dtype=np.result_type(score_buf, v_h))
    ones = np.ones((kv_len, 1), dtype=score_buf.dtype)
    # text key j > query row i, for the largest diagonal tile of any block
    future = ~np.tri(max_rows + 1, dtype=bool)
    # no score, masked or not, exceeds the bound in size; NaN or inf fails it
    bound = d_head * _abs_max(q_scaled) * _abs_max(k_all)
    shift = not (bound <= math.log(np.finfo(score_buf.dtype).max) / 4)
    fill = -np.inf if shift else 0.0

    for b in range(n_blocks):
        r0, r1 = b * t // n_blocks, (b + 1) * t // n_blocks
        rows, keys = r1 - r0, n + r1
        n_groups = -(-n_heads // max(1, _TILE // (rows * keys)))
        for j in range(n_groups):
            h0, h1 = j * n_heads // n_groups, (j + 1) * n_heads // n_groups
            g = h1 - h0
            scores, red = _tile(score_buf, g, rows, keys), _tile(reduce_buf, g, rows, 1)
            np.matmul(q_h[h0:h1, r0:r1], k_t[h0:h1, :, :keys], out=scores)
            if not shift:
                np.exp(scores, out=scores)
            np.copyto(scores[:, :, n + r0 :], fill, where=future[:rows, :rows])
            if shift:
                scores -= np.max(scores, axis=2, keepdims=True, out=red)
                np.exp(scores, out=scores)  # masked entries: exp(-inf) == 0.0
            mixed = np.matmul(scores, v_h[h0:h1, :keys], out=_tile(mix_buf, g, rows, d_head))
            np.matmul(scores, ones[:keys], out=red)
            np.divide(mixed, red, out=o_h[h0:h1, r0:r1])
    add_macs(2 * d * (t * n + t * (t + 1) // 2))
    return out
