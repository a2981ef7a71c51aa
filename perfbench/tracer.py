"""Spans around the calls into each vica module, recorded from outside.

The tracer rebinds the public functions listed in :data:`LAYERS` to timing
wrappers in every vica module that holds them (``model`` and ``attention``
import ``numerics`` functions by name, so rebinding only the defining module
would miss most calls). It is installed only around traced rounds and
restored afterwards, so untraced rounds run the program untouched.

A span is ``(op, id, parent, name, start_ns, end_ns, counts)``. Spans stay
in memory until :meth:`Tracer.write` dumps them as JSON lines. A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

#: module -> public functions whose calls are timed
LAYERS = {
    "numerics": ("matmul", "row_softmax", "rms_norm", "silu", "gated_ffn"),
    "attention": (
        "masked_attention_oracle", "attention_weights", "asymmetric_cross_attention",
    ),
    "model": (
        "forward", "forward_baseline_masked_oracle", "precompute_visual_kv",
        "forward_vica_fast",
    ),
    "pruning": ("select_kept_tokens",),
    "diagnostics": ("layer_sweep", "kl_divergence", "cosine_change"),
}


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _counts(name, args, kwargs, result) -> dict | None:
    """Work done by one call, as counts; measured inside the callee's span."""
    if name == "numerics.matmul":
        a, b = np.shape(args[0]), np.shape(args[1])
        return {"macs": a[0] * a[1] * b[1]}
    if name == "numerics.row_softmax":
        size = np.size(args[0])
        allowed = _arg(args, kwargs, 1, "allowed")
        live = size if allowed is None else int(np.count_nonzero(allowed))
        return {"elems": size, "live": live}
    if name == "numerics.silu":
        return {"elems": np.size(args[0])}
    if name == "attention.asymmetric_cross_attention":
        (t, d), kv_len = np.shape(args[0]), np.shape(args[1])[0]
        return {"macs": 2 * d * (t * (kv_len - t) + t * (t + 1) // 2)}
    if name == "pruning.select_kept_tokens":
        return {"kept": int(_arg(args, kwargs, 1, "keep")), "offered": np.shape(args[0])[1]}
    if name == "model.precompute_visual_kv":
        return {"bytes": sum(k.nbytes + v.nbytes for k, v in result.entries.values())}
    if name == "model.forward_baseline_masked_oracle" and result.trace is not None:
        return {
            "bytes": sum(
                e.h_pre_attn.nbytes + e.h_post_attn.nbytes + e.h_post_ffn.nbytes
                for e in result.trace
            )
        }
    return None


class Tracer:
    """In-memory span recorder for the benchmark's traced rounds."""

    def __init__(self, modules: dict):
        self._modules = modules          # short name -> imported vica module
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals = {
            f"{mod}.{fn}": getattr(modules[mod], fn)
            for mod, fns in LAYERS.items()
            for fn in fns
        }
        self._wrappers = {
            name: self._wrap(name, fn) for name, fn in self._originals.items()
        }

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            counts = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                counts = _counts(name, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self._op, sid, parent, name, start, end, counts)

        return wrapper

    def _rebind(self, old: dict, new: dict) -> None:
        by_identity = {id(old[n]): new[n] for n in old}
        for module in self._modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in by_identity:
                    setattr(module, attr, by_identity[id(value)])

    @contextlib.contextmanager
    def installed(self):
        """Route every vica call through the wrappers for the duration."""
        self._rebind(self._originals, self._wrappers)
        try:
            yield self
        finally:
            self._rebind(self._wrappers, self._originals)

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; one op id per span tree."""
        self._op += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self._op, sid, -1, f"op.{kind}", start, end, None)

    # -- analysis

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus direct children."""
        selfs = [end - start for _, _, _, _, start, end, _ in self.spans]
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def nesting_errors(self) -> list[str]:
        """Spans not inside their parent, or whose op's self times miss its length."""
        errors = []
        selfs = self.self_times()
        op_self = defaultdict(int)
        for op, sid, parent, name, start, end, _ in self.spans:
            op_self[op] += selfs[sid]
            if parent >= 0:
                p = self.spans[parent]
                if not (p[4] <= start <= end <= p[5]):
                    errors.append(f"span {sid} {name} escapes parent {parent}")
        for op, sid, parent, name, start, end, _ in self.spans:
            if parent < 0 and op_self[op] != end - start:
                errors.append(
                    f"op {op}: self times sum to {op_self[op]} ns, span is {end - start} ns"
                )
        return errors

    def ancestors(self, sid: int):
        parent = self.spans[sid][2]
        while parent >= 0:
            yield self.spans[parent][3]
            parent = self.spans[parent][2]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "counts": counts,
                }) + "\n")
