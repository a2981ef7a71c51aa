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
never forms the masked key tiles at all. :func:`silu` and :func:`rms_norm`
each allocate their result and no other full-size temporary;
:func:`gated_ffn` holds two ``(rows, d_ffn)`` arrays at a time.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

# RMS normalization epsilon. Fixed, not configurable.
RMS_EPS = 1e-6


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
    """Root-mean-square normalization of each row, scaled by ``gain``; the
    squares sum in one pass in ``h``'s dtype, and the gain scales in place."""
    h = np.asarray(h)
    gain = np.asarray(gain)
    if h.ndim != 2:
        raise ShapeError(f"rms_norm needs a 2-D input, got {h.shape}")
    if gain.shape != (h.shape[1],):
        raise ShapeError(f"gain shape {gain.shape} does not match width {h.shape[1]}")
    ms = np.einsum("ij,ij->i", h, h)[:, None] / h.shape[1]
    out = h / np.sqrt(ms + RMS_EPS)
    return np.multiply(out, gain, out=out)


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) as ``x / (1 + exp(-x))``: four passes over the result.

    No difference of nearly equal numbers is formed, so the result keeps
    full relative precision in both tails (``x * (1 + tanh(x / 2)) / 2``
    does not: for negative x the sum ``1 + tanh`` cancels). Below x =
    -709.78 (float64) or -88.72 (float32) ``exp(-x)`` overflows, silently,
    and the result is -0.0; the true values there are smaller than
    4.3e-306 (float64) or 5.4e-37 (float32) in magnitude.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, 1.0))
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(x, out, out=out)
    return out


def gated_ffn(
    h: np.ndarray,
    w_gate: np.ndarray,
    w_up: np.ndarray,
    w_down: np.ndarray,
) -> np.ndarray:
    """Gated FFN (silu(h W_gate) * (h W_up)) W_down; the gate is scaled in place."""
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
    gate *= matmul(h, w_up)
    return matmul(gate, w_down)
