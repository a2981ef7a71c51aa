"""Dense matrix kernels: matmul, masked row softmax, RMS norm, gated FFN.

Everything here operates on plain 2-D numpy arrays (row-major, float64 by
default; float32 is accepted for benchmark runs). Masked softmax uses
exclusion-from-reduction semantics, so masked positions come out as exact
zeros rather than tiny exponentials.

:func:`row_softmax` is one pass over the whole score matrix, in the result
array itself; its callers are the masked oracle (per head, under its explicit
mask) and the engine's one-row drop scoring
(:func:`~vica.attention.attention_weights`, all heads as one ``(heads, keys)``
matrix, unmasked). The engine's causal kernel
(:func:`~vica.attention.asymmetric_cross_attention`) does not call it: it
blocks its query rows, runs a group of heads per block in reused buffers and
never forms the masked key tiles at all. :func:`silu` works in place on
fixed-size chunks.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

# RMS normalization epsilon. Fixed, not configurable.
RMS_EPS = 1e-6

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
    call this with the count they are charged. The text-query attention
    kernel charges only the keys each query row may see.
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
) -> np.ndarray:
    """Row-wise softmax of ``scale * scores`` over the permitted entries.

    ``allowed`` is a boolean matrix of the same shape; disallowed entries are
    excluded from the max/sum reductions entirely and come back as exact 0.0.
    A row with no permitted entries yields an all-zero row.

    The zero-filled result array is the only work buffer, and every pass
    over it (scale, row max, shift, ``exp``, divide by the row sum) runs
    with ``where=allowed``: the masked entries are never written and stay
    0.0, and a row without a permitted entry is never touched.
    ``scores`` and ``allowed`` are never written. Zero-row or zero-column
    input returns an empty result.
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

    live = True if allowed is None else allowed
    probs = np.zeros(scores.shape, dtype=np.result_type(scores, scale, -np.inf))
    np.multiply(scores, scale, out=probs, where=live)
    row_max = probs.max(axis=1, keepdims=True, where=live, initial=-np.inf)
    np.subtract(probs, row_max, out=probs, where=live)
    np.exp(probs, out=probs, where=live)
    np.divide(probs, probs.sum(axis=1, keepdims=True), out=probs, where=live)
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
