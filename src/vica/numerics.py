"""Dense matrix kernels: matmul, masked row softmax, RMS norm, gated FFN.

Everything here operates on plain 2-D numpy arrays (row-major, float64 by
default; float32 is accepted for benchmark runs). Masked softmax uses
exclusion-from-reduction semantics, so masked positions come out as exact
zeros rather than tiny exponentials.

The softmax and SiLU kernels spend their time on arithmetic, not on
temporaries. :func:`row_softmax` works a block of rows at a time in one
small buffer, masks it in place and stops each block at its last permitted
key column, so the causally masked half of a square score matrix is neither
copied nor exponentiated. It does not shrink the products around it: the
attention callers still form the full ``q x kv`` score matrix and value mix
with :func:`matmul`, because those square products are what the cost model
charges the dense baseline and what the MAC counter checks it against.
:func:`silu` works in place on fixed-size chunks.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging

import numpy as np

logger = logging.getLogger(__name__)

# RMS normalization epsilon. Fixed, not configurable.
RMS_EPS = 1e-6

# Least rows per block in row_softmax: the rows split evenly into
# rows // _ROW_BLOCK blocks, so there is no short tail block whose call
# overhead outweighs the columns it skips. Fixed, not configurable.
_ROW_BLOCK = 64

# Elements per chunk in silu (256 KiB of float64). Fixed, not configurable.
_SILU_CHUNK = 32768


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class MacCounter:
    """Tallies multiply-accumulate operations performed by counted kernels.

    Not safe for concurrent mutation; give each worker its own counter.
    """

    __slots__ = ("macs",)

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


_ACTIVE_COUNTER: contextvars.ContextVar[MacCounter | None] = contextvars.ContextVar(
    "vica_mac_counter", default=None
)


@contextlib.contextmanager
def count_macs(counter: MacCounter | None):
    """Route MACs from kernels in this context into ``counter``."""
    token = _ACTIVE_COUNTER.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER.reset(token)


def add_macs(n: int) -> None:
    """Credit ``n`` MACs to the active counter, if any.

    Kernels that contract tensors without going through :func:`matmul`
    (e.g. the mask-free attention path) call this with the exact count
    an equivalent matmul decomposition would report.
    """
    counter = _ACTIVE_COUNTER.get()
    if counter is not None:
        counter.add(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two 2-D matrices with explicit shape validation."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    add_macs(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def row_softmax(
    scores: np.ndarray,
    allowed: np.ndarray | None = None,
    scale: float = 1.0,
    empty_rows: list[int] | None = None,
) -> np.ndarray:
    """Row-wise softmax of ``scale * scores`` over the permitted entries.

    ``allowed`` is a boolean matrix of the same shape; disallowed entries are
    excluded from the max/sum reductions entirely and come back as exact 0.0.
    A row with no permitted entries yields an all-zero row; its index is
    appended to ``empty_rows`` when a list is supplied, and logged otherwise.

    The result is a zero-filled buffer written a block of rows at a time
    (``_ROW_BLOCK`` to ``2 * _ROW_BLOCK - 1`` rows, or all of them when
    there are fewer). A block covers only the key columns up to its last
    permitted one; the columns past it stay exact zeros and are never
    exponentiated. For each block, ``scale * scores`` goes into one work
    buffer, the masked entries are set to ``-inf`` in place, the max shift
    and ``exp`` run in place, and the row normalization writes the block of
    the result. ``scores`` and ``allowed`` are never written. Only the
    softmax skips masked tiles: ``scores`` is still the full square product
    the cost model charges the dense baseline, and the value mix consumes
    the full result, zeros included.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ShapeError(f"row_softmax needs a 2-D score matrix, got {scores.shape}")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != scores.shape:
            raise ShapeError(
                f"mask shape {allowed.shape} does not match scores {scores.shape}"
            )

    rows, cols = scores.shape
    dtype = np.result_type(scores, scale, -np.inf)
    probs = np.zeros(scores.shape, dtype=dtype)
    empty: list[int] = []
    n_blocks = max(1, rows // _ROW_BLOCK)
    if cols == 0:  # no keys at all: every row is empty
        empty, n_blocks = list(range(rows)), 0
    for b in range(n_blocks):
        r0, r1 = b * rows // n_blocks, (b + 1) * rows // n_blocks
        lim = cols
        if allowed is not None:
            seen = allowed[r0:r1].any(axis=0)
            lim = cols - int(np.argmax(seen[::-1]))
            if not seen[lim - 1]:  # no permitted entry in the whole block
                empty.extend(range(r0, r1))
                continue
        # contiguous work buffer: ufuncs over a short-row strided view are slower
        block = np.multiply(scores[r0:r1, :lim], scale, dtype=dtype)
        if allowed is not None:
            np.copyto(block, -np.inf, where=~allowed[r0:r1, :lim])
        row_max = block.max(axis=1, keepdims=True)
        dead = None
        if allowed is not None and row_max.min() == -np.inf:
            # rows without a permitted entry: keep -inf - -inf = nan out of them
            dead = ~allowed[r0:r1, :lim].any(axis=1)
            row_max[dead] = 0.0
            empty.extend(r0 + int(i) for i in np.flatnonzero(dead))
        block -= row_max
        np.exp(block, out=block)  # masked entries: exp(-inf) == 0.0
        denom = block.sum(axis=1, keepdims=True)
        if dead is not None:
            denom[dead] = 1.0
        np.divide(block, denom, out=probs[r0:r1, :lim])
    if empty:
        if empty_rows is not None:
            empty_rows.extend(empty)
        else:
            logger.debug("row_softmax: all-masked rows %s", empty)
    return probs


def rms_norm(h: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Root-mean-square normalization of each row, scaled by ``gain``."""
    h = np.asarray(h)
    gain = np.asarray(gain)
    if h.ndim != 2:
        raise ShapeError(f"rms_norm needs a 2-D input, got {h.shape}")
    if gain.shape != (h.shape[1],):
        raise ShapeError(f"gain shape {gain.shape} does not match width {h.shape[1]}")
    ms = np.mean(np.square(h), axis=1, keepdims=True)
    return h / np.sqrt(ms + RMS_EPS) * gain


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), evaluated without overflow for large |x|.

    With ``e = exp(-|x|)`` in (0, 1], sigmoid(x) is ``1 / (1 + e)`` for
    x >= 0 and ``e / (1 + e)`` below, so nothing overflows and no difference
    of nearly equal numbers is formed: the result keeps full relative
    precision in both tails (``x * (1 + tanh(x / 2)) / 2`` does not: for
    negative x the sum ``1 + tanh`` cancels). It is computed in place,
    ``_SILU_CHUNK`` elements at a time, so the temporaries stay small.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=np.result_type(x, 1.0))
    for i in range(0, flat.size, _SILU_CHUNK):
        xc, yc = flat[i : i + _SILU_CHUNK], out[i : i + _SILU_CHUNK]
        np.abs(xc, out=yc)
        np.negative(yc, out=yc)
        np.exp(yc, out=yc)                # e = exp(-|x|)
        numer = np.maximum(yc, xc >= 0)   # 1 where x >= 0, e below
        yc += 1.0
        np.divide(numer, yc, out=yc)      # sigmoid(x)
        yc *= xc
    return out.reshape(x.shape)


def gated_ffn(
    h: np.ndarray,
    w_gate: np.ndarray,
    w_up: np.ndarray,
    w_down: np.ndarray,
) -> np.ndarray:
    """Gated feed-forward block: (silu(h W_gate) * (h W_up)) W_down."""
    w_gate = np.asarray(w_gate)
    w_up = np.asarray(w_up)
    w_down = np.asarray(w_down)
    if w_gate.shape != w_up.shape:
        raise ShapeError(f"gate {w_gate.shape} and up {w_up.shape} must match")
    if w_down.shape != (w_gate.shape[1], w_gate.shape[0]):
        raise ShapeError(
            f"down projection {w_down.shape} does not invert {w_gate.shape}"
        )
    gate = silu(matmul(h, w_gate))
    up = matmul(h, w_up)
    return matmul(gate * up, w_down)
