"""Toy decoder engine with per-layer vision policies.

The engine runs a pre-norm decoder over a [vision; text] stream, where each
layer carries a policy mode:

* ``BASELINE``:   full joint self-attention; vision rows are updated.
* ``FREEZE_VIS``: vision rows are never written (no attention or FFN
                  residuals land on them) but their keys/values are still
                  offered to the text queries.
* ``VICA_CROSS``: same frozen behavior; the name marks the layers that
                  keep vision KV in a sparse schedule (everything else is
                  ``TEXT_ONLY``).
* ``TEXT_ONLY``:  vision is neither written nor read; the layer is a plain
                  causal text block and does not project vision KV at all.

The engine and the fast path run one layer loop, :func:`_prefill`, and
every layer one call of one layer body, :func:`_layer`: a block of rows
goes through causal attention (the kernel
:func:`~vica.attention.asymmetric_cross_attention`) and the FFN, reading
read-only prefix keys/values if it is given any. At a ``FREEZE_VIS`` or
``VICA_CROSS`` layer the block is the text rows, system and question
alike, over the vision keys/values as a prefix; at a ``TEXT_ONLY`` layer
it is the text rows alone. No vision query ever sees a text key, so a
joint ``BASELINE`` layer is one causal block over the [vision; text] rows
with no prefix. A drop event is scored inside the call, from the last
text row's attention over the keys of every entering vision row and the
text keys, and only the kept vision rows get queries. At a frozen layer
:func:`_vision_kv` projects the vision rows entering it. Until the first
cut those are all the input rows, so :func:`precompute_visual_kv` can
project those layers ahead of any text, and :func:`forward_vica_fast`
reads them; after a cut both paths project the kept rows. Frozen rows never
change, so both give the same bits. Everything computes in the dtype of
the weights and inputs.

:func:`forward_baseline_masked_oracle` is the referee for all of this,
``BASELINE`` layers included. It shares only the norm, projections and FFN
kernels with the engine; its attention is
:func:`~vica.attention.masked_attention_oracle` over the full square score
matrix under an explicit boolean mask. It reproduces the policy modes
purely by disabling write/read paths (zeroed residual slices, masked
attention blocks), which is the semantic claim the equivalence suite
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .attention import (
    TokenLayout,
    asymmetric_cross_attention,
    attention_weights,
    bottom_right_mask,
    masked_attention_oracle,
)
from .numerics import ShapeError, add_macs, count_macs, gated_ffn, matmul, rms_norm
from .pruning import relocate_drop_events, resolve_schedule, select_kept_tokens


class ConfigError(ValueError):
    """Raised for invalid configurations (bad schedules, mismatched inputs)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ModelConfig:
    """Transformer geometry plus token-stream limits."""

    n_layers: int
    n_heads: int
    d_model: int
    d_ffn: int
    vocab: int = 256
    max_seq: int = 704

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "d_ffn", "vocab", "max_seq"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


#: Published backbone geometries this engine mirrors at toy scale.
MODEL_PRESETS: dict[str, ModelConfig] = {
    "llava3b": ModelConfig(n_layers=32, n_heads=32, d_model=2560, d_ffn=6912),
    "llava7b": ModelConfig(n_layers=32, n_heads=32, d_model=4096, d_ffn=11008),
    "llava13b": ModelConfig(n_layers=40, n_heads=40, d_model=5120, d_ffn=13824),
}


class PolicyMode(str, Enum):
    BASELINE = "baseline"
    FREEZE_VIS = "freeze_vis"
    VICA_CROSS = "vica_cross"
    TEXT_ONLY = "text_only"


#: Modes whose layers hold vision keys/values (read side).
KV_MODES = (PolicyMode.BASELINE, PolicyMode.FREEZE_VIS, PolicyMode.VICA_CROSS)
#: Modes whose vision KV is frozen and therefore precomputable.
FROZEN_KV_MODES = (PolicyMode.FREEZE_VIS, PolicyMode.VICA_CROSS)


@dataclass(frozen=True)
class LayerPolicy:
    """Mode for one layer, plus an optional vision-token drop at layer entry."""

    mode: PolicyMode
    drop_keep: float | None = None

    def __post_init__(self) -> None:
        if self.drop_keep is not None and not (0.0 <= self.drop_keep <= 1.0):
            raise ConfigError(f"drop_keep {self.drop_keep} outside [0, 1]")


@dataclass(frozen=True)
class PolicySchedule:
    """Per-layer policies for a whole model."""

    layers: tuple[LayerPolicy, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def frozen_vision_layers(self) -> list[int]:
        """Layers with frozen, precomputable vision KV."""
        return [l for l, p in enumerate(self.layers) if p.mode in FROZEN_KV_MODES]

    def drop_events(self) -> dict[int, float]:
        return {
            l: p.drop_keep for l, p in enumerate(self.layers) if p.drop_keep is not None
        }

    def with_drops(self, events: dict[int, float]) -> "PolicySchedule":
        for layer in events:
            if not (0 <= layer < self.n_layers):
                raise ConfigError(f"drop event at layer {layer} outside schedule")
        layers = tuple(
            replace(p, drop_keep=events.get(l, p.drop_keep))
            for l, p in enumerate(self.layers)
        )
        return PolicySchedule(layers)

    # -- constructors

    @staticmethod
    def uniform(n_layers: int, mode: PolicyMode) -> "PolicySchedule":
        return PolicySchedule(tuple(LayerPolicy(mode) for _ in range(n_layers)))

    @staticmethod
    def baseline(n_layers: int) -> "PolicySchedule":
        return PolicySchedule.uniform(n_layers, PolicyMode.BASELINE)

    @staticmethod
    def freeze_vis(n_layers: int) -> "PolicySchedule":
        return PolicySchedule.uniform(n_layers, PolicyMode.FREEZE_VIS)

    @staticmethod
    def text_only(n_layers: int) -> "PolicySchedule":
        return PolicySchedule.uniform(n_layers, PolicyMode.TEXT_ONLY)

    @staticmethod
    def sparse_cross(n_layers: int, retained) -> "PolicySchedule":
        """Frozen vision KV at ``retained`` layers, text-only elsewhere."""
        retained = set(retained)
        bad = [l for l in retained if not (0 <= l < n_layers)]
        if bad:
            raise ConfigError(f"retained layers {bad} outside 0..{n_layers - 1}")
        return PolicySchedule(
            tuple(
                LayerPolicy(
                    PolicyMode.VICA_CROSS if l in retained else PolicyMode.TEXT_ONLY
                )
                for l in range(n_layers)
            )
        )


#: The sparse cross-attention schedules, one row each: (backbone, retained
#: layers, drops). The backbone is the MODEL_PRESETS key the schedule was
#: picked for, whose depth it spans; ``+pdrop`` adds the keep-fraction drops.
SPARSE_PRESETS: dict[str, tuple[str, set[int], dict[int, float]]] = {
    "vica3b": ("llava3b", {0, 1, 14, 15, 18, 19, 21, 22, 23}, {1: 0.75, 14: 0.75, 18: 0.75}),
    "vica7b": ("llava7b", {0, 1, 7, 8, 9, 10, 11, 14}, {1: 0.75, 7: 0.75, 10: 0.75}),
    "vica13b": ("llava13b", {0, 6, 8, 9, 10, 13, 14, 16}, {6: 0.75, 9: 0.75, 13: 0.75}),
}

#: The schedules with one mode at every layer, for any depth.
UNIFORM_PRESETS: dict[str, PolicyMode] = {
    "baseline": PolicyMode.BASELINE,
    "freeze": PolicyMode.FREEZE_VIS,
    "textonly": PolicyMode.TEXT_ONLY,
}


def pdrop_baseline_events(n_layers: int) -> dict[int, float]:
    """Halve the remaining vision tokens at the quarter-depth boundaries."""
    return {n_layers // 4: 0.5, n_layers // 2: 0.5, (3 * n_layers) // 4: 0.5}


def schedule_preset(name: str) -> PolicySchedule:
    """A :data:`SPARSE_PRESETS` name, optionally ``+pdrop``, at its backbone's depth."""
    row = SPARSE_PRESETS.get(name.removesuffix("+pdrop"))
    if row is None:
        raise ConfigError(f"unknown schedule preset {name!r}")
    return parse_schedule(name, MODEL_PRESETS[row[0]].n_layers)


def parse_schedule(name: str, n_layers: int) -> PolicySchedule:
    """Schedule by name for an ``n_layers``-deep model.

    ``sparse:<layer>,<layer>,...`` retains the listed layers, distinct and
    each written in ASCII digits. Any other name is a key of
    :data:`UNIFORM_PRESETS`, which fits any depth, or of
    :data:`SPARSE_PRESETS`, which must span ``n_layers``. A ``+pdrop``
    suffix adds the row's drops to a sparse preset, or
    :func:`pdrop_baseline_events` to ``baseline``; no other name takes it.
    """
    if name.startswith("sparse:"):
        items = name.removeprefix("sparse:").split(",")
        retained = {int(x) for x in items if x.isascii() and x.isdigit()}
        if len(retained) < len(items):
            raise ConfigError(f"bad schedule {name!r}; expected sparse:<layer>,<layer>,...")
        return PolicySchedule.sparse_cross(n_layers, retained)
    base, pdrop = name.removesuffix("+pdrop"), name.endswith("+pdrop")
    if base in UNIFORM_PRESETS and (base == "baseline" or not pdrop):
        schedule = PolicySchedule.uniform(n_layers, UNIFORM_PRESETS[base])
        events = pdrop_baseline_events(n_layers)
    elif base in SPARSE_PRESETS:
        backbone, retained, events = SPARSE_PRESETS[base]
        depth = MODEL_PRESETS[backbone].n_layers
        if depth != n_layers:
            raise ConfigError(f"schedule {name!r} spans {depth} layers, model has {n_layers}")
        schedule = PolicySchedule.sparse_cross(n_layers, retained)
    else:
        raise ConfigError(f"unknown schedule preset {name!r}")
    return schedule.with_drops(events) if pdrop else schedule


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class LayerWeights:
    attn_gain: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ffn_gain: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass(frozen=True)
class Weights:
    config: ModelConfig
    pos: np.ndarray          # (max_seq, d) learned absolute positions
    layers: tuple[LayerWeights, ...]
    out_gain: np.ndarray
    w_out: np.ndarray        # (d, vocab)

    def astype(self, dtype) -> "Weights":
        """Copy with every tensor cast to ``dtype`` (for benchmark runs)."""
        cast = lambda a: np.ascontiguousarray(a, dtype=dtype)
        layers = tuple(
            LayerWeights(**{k: cast(getattr(lw, k)) for k in lw.__dataclass_fields__})
            for lw in self.layers
        )
        return Weights(self.config, cast(self.pos), layers, cast(self.out_gain), cast(self.w_out))


def init_model(config: ModelConfig, seed: int) -> Weights:
    """Seeded Gaussian weights at scale 1/sqrt(d_model); norm gains start at 1.

    Draw order is fixed (positions, then per-layer q/k/v/o and gate/up/down,
    then the output head) so a given seed always yields identical bytes.
    """
    rng = np.random.default_rng(seed)
    d, m = config.d_model, config.d_ffn
    scale = 1.0 / np.sqrt(d)
    pos = rng.standard_normal((config.max_seq, d)) * scale
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                attn_gain=np.ones(d),
                wq=rng.standard_normal((d, d)) * scale,
                wk=rng.standard_normal((d, d)) * scale,
                wv=rng.standard_normal((d, d)) * scale,
                wo=rng.standard_normal((d, d)) * scale,
                ffn_gain=np.ones(d),
                w_gate=rng.standard_normal((d, m)) * scale,
                w_up=rng.standard_normal((d, m)) * scale,
                w_down=rng.standard_normal((m, d)) * scale,
            )
        )
    w_out = rng.standard_normal((d, config.vocab)) * scale
    return Weights(config, pos, tuple(layers), np.ones(d), w_out)


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class LayerTrace:
    # The referee's entries and the engine's BASELINE ones alias the loop's
    # arrays (``h_post_ffn`` of one layer may be ``h_pre_attn`` of the next).
    layer: int
    mode: PolicyMode
    n_vision_in: int
    n_vision_out: int
    kept: np.ndarray | None      # indices into the layer-entry vision set
    h_pre_attn: np.ndarray       # hidden state entering the attention block
    h_post_attn: np.ndarray      # after the attention residual
    h_post_ffn: np.ndarray       # after the FFN residual


@dataclass
class ForwardResult:
    vision_hidden: np.ndarray          # final vision rows
    text_hidden: np.ndarray
    logits: np.ndarray                 # (n_text, vocab)
    trace: list[LayerTrace] | None


WRITE_PATH_KINDS = ("vis_attn_write", "vis_ffn_write", "t2v_read")


def parse_path(spec: str, n_layers: int) -> tuple[str, int]:
    """Split 'kind@layer' and validate both halves."""
    kind, sep, layer_s = spec.partition("@")
    if not sep or kind not in WRITE_PATH_KINDS or not (layer_s.isascii() and layer_s.isdigit()):
        raise ConfigError(
            f"bad path {spec!r}; expected one of {WRITE_PATH_KINDS} + '@<layer>'"
        )
    layer = int(layer_s)
    if layer >= n_layers:
        raise ConfigError(f"path {spec!r} addresses layer {layer} of {n_layers}")
    return kind, layer


def schedule_to_disabled_paths(schedule: PolicySchedule) -> frozenset[str]:
    """Express a (drop-free) schedule as a masked-oracle disabled-path set."""
    if schedule.drop_events():
        raise ConfigError("drop events have no masked-oracle equivalent")
    disabled: set[str] = set()
    for l, pol in enumerate(schedule.layers):
        if pol.mode is PolicyMode.BASELINE:
            continue
        disabled.add(f"vis_attn_write@{l}")
        disabled.add(f"vis_ffn_write@{l}")
        if pol.mode is PolicyMode.TEXT_ONLY:
            disabled.add(f"t2v_read@{l}")
    return frozenset(disabled)


def _check_schedule(cfg: ModelConfig, schedule: PolicySchedule) -> None:
    if schedule.n_layers != cfg.n_layers:
        raise ConfigError(
            f"schedule covers {schedule.n_layers} layers, model has {cfg.n_layers}"
        )


def _check_rows(kind: str, emb: np.ndarray, d_model: int) -> int:
    """Row count of a 2-D ``(rows, d_model)`` embedding matrix of finite values."""
    shape = np.shape(emb)
    if len(shape) != 2 or shape[1] != d_model:
        raise ShapeError(f"{kind} embeddings {shape} need width {d_model}")
    if not np.isfinite(emb).all():
        raise ConfigError(f"{kind} embeddings hold NaN or inf")
    return shape[0]


def _check_stream(cfg: ModelConfig, n: int, t: int) -> None:
    """At least one text token, and ``n + t`` tokens within ``max_seq``."""
    if t < 1:
        raise ConfigError("at least one text token is required")
    if n + t > cfg.max_seq:
        raise ConfigError(f"{n}+{t} tokens exceed max_seq {cfg.max_seq}")


def _check_inputs(weights: Weights, vision_emb: np.ndarray, text_emb: np.ndarray,
                  schedule: PolicySchedule) -> tuple[int, int]:
    """Validate schedule depth, embedding shapes and stream length; return (n, t)."""
    cfg = weights.config
    _check_schedule(cfg, schedule)
    n = _check_rows("vision", vision_emb, cfg.d_model)
    t = _check_rows("text", text_emb, cfg.d_model)
    _check_stream(cfg, n, t)
    return n, t


def _embed_text(weights: Weights, text_emb: np.ndarray, n_vision: int) -> np.ndarray:
    # learned absolute positions indexed over the concatenated [V; T] stream;
    # vision rows are frozen memory and carry no additive position
    t = text_emb.shape[0]
    return text_emb + weights.pos[n_vision : n_vision + t]


def _baseline_layer(
    h: np.ndarray,
    lw: LayerWeights,
    allowed: np.ndarray,
    n_heads: int,
    n_vision: int,
    *,
    vis_attn_write: bool = True,
    vis_ffn_write: bool = True,
    prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The referee's joint layer: attention under ``allowed`` over the whole stream.

    The rows ``h`` attend to ``[prefix keys; own keys]``, the prefix being
    read-only keys/values of rows before them if given, and ``allowed``
    covers those rows by all those keys. Flags carve out the write paths of
    the first ``n_vision`` rows. Returns (h_post_attn, h_post_ffn) as new
    arrays; ``h`` is only read.
    """
    x = rms_norm(h, lw.attn_gain)
    q = matmul(x, lw.wq)
    k = matmul(x, lw.wk)
    v = matmul(x, lw.wv)
    if prefix_kv is not None:
        k, v = np.vstack([prefix_kv[0], k]), np.vstack([prefix_kv[1], v])
    delta = matmul(masked_attention_oracle(q, k, v, allowed, n_heads), lw.wo)
    if not vis_attn_write:
        delta[:n_vision] = 0.0
    h_attn = h + delta
    f = _oracle_ffn(h_attn, lw, n_vision, vis_ffn_write)
    return h_attn, h_attn + f


def _oracle_ffn(h_attn: np.ndarray, lw: LayerWeights, n_vision: int,
                vis_ffn_write: bool = True) -> np.ndarray:
    """The FFN residual of :func:`_baseline_layer`, zero on the first
    ``n_vision`` rows unless ``vis_ffn_write``; ``h_attn`` is only read."""
    f = gated_ffn(rms_norm(h_attn, lw.ffn_gain), lw.w_gate, lw.w_up, lw.w_down)
    if not vis_ffn_write:
        f[:n_vision] = 0.0
    return f


def _vision_kv(v_rows: np.ndarray, lw: LayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values of the vision rows entering one layer; reads no text."""
    xv = rms_norm(v_rows, lw.attn_gain)
    return matmul(xv, lw.wk), matmul(xv, lw.wv)


def _layer(
    rows: np.ndarray,
    lw: LayerWeights,
    n_heads: int,
    keep: int,
    prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
    n_vis: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """One causal layer over ``rows``, reading read-only prefix KV if given.

    The rows attend to ``[prefix keys; own keys]`` under the bottom-right
    rule. The vision keys are the prefix, or else the first ``n_vis`` rows'
    own keys (a joint ``BASELINE`` layer). A ``keep`` below their count cuts
    them first to the ``keep`` rows the last row attends to most,
    head-averaged over all keys (PyramidDrop's rule); only kept vision rows
    get queries. Returns (rows, post_attn, post_ffn, kept): the rows that
    stayed, and ``kept``, the sorted indices of the surviving vision keys,
    or None when nothing was cut.
    """
    x = rms_norm(rows, lw.attn_gain)
    k, v = matmul(x, lw.wk), matmul(x, lw.wv)
    if prefix_kv is not None:
        k, v = np.vstack([prefix_kv[0], k]), np.vstack([prefix_kv[1], v])
    n_pre = len(k) - len(rows) + n_vis
    kept = None
    if keep >= n_pre:
        q = matmul(x, lw.wq)
    else:
        q = matmul(x[n_vis:], lw.wq)
        kept = select_kept_tokens(attention_weights(q[-1:], k, n_heads)[:, :n_pre], keep)
        attended = np.concatenate([kept, np.arange(n_pre, len(k))])
        k, v = k[attended], v[attended]
        if n_vis:  # no prefix: each key is its own row's
            rows, q = rows[attended], np.vstack([matmul(x[kept], lw.wq), q])
    attn = asymmetric_cross_attention(q, k, v, n_heads)
    del k, v  # before the FFN allocates its own buffers
    r_attn = rows + matmul(attn, lw.wo)
    r_ffn = r_attn + gated_ffn(rms_norm(r_attn, lw.ffn_gain), lw.w_gate, lw.w_up, lw.w_down)
    return rows, r_attn, r_ffn, kept


def forward(
    weights: Weights,
    vision_emb: np.ndarray,
    text_emb: np.ndarray,
    schedule: PolicySchedule,
    *,
    layout: TokenLayout | None = None,
    record_trace: bool = False,
    counter=None,
) -> ForwardResult:
    """Policy-engine forward pass over the [vision; text] stream.

    Under any non-``BASELINE`` policy the vision rows are structurally frozen:
    the engine simply never writes to them, so they remain bit-identical to
    the input embeddings at every layer. ``layout`` is only checked against
    the embeddings: every text row, system or question, reads the vision
    keys, so the split does not change what is computed.
    """
    n0, t = _check_inputs(weights, vision_emb, text_emb, schedule)
    if layout is not None and (layout.n_vision, layout.n_text) != (n0, t):
        raise ConfigError(
            f"layout {layout} does not match embeddings ({n0} vision, {t} text)"
        )
    return _prefill(
        weights, schedule, vision_counts(schedule, n0), text_emb, np.array(vision_emb, copy=True),
        counter=counter, trace=[] if record_trace else None,
    )


def _prefill(weights: Weights, schedule: PolicySchedule, counts: list[int],
             text_emb: np.ndarray, v_rows: np.ndarray, *, kv: VisualKvSet | None = None,
             counter=None, trace: list[LayerTrace] | None = None) -> ForwardResult:
    """The layers of :func:`forward` and :func:`forward_vica_fast`, then the logits.

    ``v_rows`` are the vision rows entering layer 0 (only read) and ``counts``
    their :func:`vision_counts`. A frozen layer projects the keys/values of
    the vision rows entering it, or reads the ``kv`` entry until the first
    cut. A ``BASELINE`` layer runs the [vision; text] rows as one block and
    hands its output rows on as they are.
    """
    cfg = weights.config
    n0 = len(v_rows)
    t_rows = _embed_text(weights, np.asarray(text_emb), n0)
    joint = None  # the [vision; text] rows entering the layer, once built
    with count_macs(counter):
        for l, pol in enumerate(schedule.layers):
            lw, m = weights.layers[l], counts[l]
            if pol.mode is PolicyMode.BASELINE:
                # No vision query sees a text key, so the joint rows are one
                # causal block with no prefix.
                h = np.vstack([v_rows, t_rows]) if joint is None else joint
                h, h_attn, joint, kept = _layer(h, lw, cfg.n_heads, m, n_vis=len(v_rows))
                # The kernel credits the causal d * L * (L + 1) MACs; credit
                # the masked d * L * (L - 1) here, so the engine counts the
                # dense 2 * d * L^2 the cost model charges.
                add_macs(cfg.d_model * len(h) * (len(h) - 1))
                v_rows, t_rows = joint[:m], joint[m:]
            else:
                if pol.mode not in KV_MODES:
                    vision_kv = None
                elif kv is not None and len(v_rows) == n0:  # no cut yet
                    vision_kv = kv.entries[l]
                else:
                    vision_kv = _vision_kv(v_rows, lw)
                _, t_attn, t_ffn, kept = _layer(t_rows, lw, cfg.n_heads, m, vision_kv)
                del vision_kv  # before the next layer projects its own
                if kept is not None:
                    v_rows = v_rows[kept]
                joint = None
                if trace is not None:
                    h, h_attn, joint = (np.vstack([v_rows, r]) for r in (t_rows, t_attn, t_ffn))
                t_rows = t_ffn
            if trace is not None:
                trace.append(LayerTrace(l, pol.mode, counts[l - 1] if l else n0, m, kept,
                                        h, h_attn, joint))

        logits = matmul(rms_norm(t_rows, weights.out_gain), weights.w_out)
    return ForwardResult(v_rows, t_rows, logits, trace)


def forward_baseline_masked_oracle(
    weights: Weights,
    vision_emb: np.ndarray,
    text_emb: np.ndarray,
    write_paths_disabled=(),
    *,
    record_trace: bool = False,
    counter=None,
) -> ForwardResult:
    """Joint-attention forward that disables named write/read paths.

    Always computes the full square attention; policy behavior emerges from
    zeroing residual slices (``vis_attn_write@l``, ``vis_ffn_write@l``) or
    masking the text-to-vision block (``t2v_read@l``).
    """
    n, _ = _check_inputs(
        weights, vision_emb, text_emb, PolicySchedule.baseline(weights.config.n_layers)
    )
    disabled = _disabled_by_layer(write_paths_disabled, weights.config.n_layers)
    h = np.vstack([np.asarray(vision_emb), _embed_text(weights, np.asarray(text_emb), n)])
    with count_macs(counter):
        return _oracle_layers(weights, h, n, disabled, 0, [] if record_trace else None)


def _disabled_by_layer(specs, n_layers: int) -> dict[int, set[str]]:
    """Parse ``kind@layer`` specs into the path kinds disabled at each layer."""
    disabled: dict[int, set[str]] = {}
    for kind, layer in (parse_path(spec, n_layers) for spec in specs):
        disabled.setdefault(layer, set()).add(kind)
    return disabled


def _oracle_layers(weights: Weights, h: np.ndarray, n: int, disabled: dict[int, set[str]],
                   start: int, trace: list[LayerTrace] | None = None,
                   vision_kv: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
                   last_text_rows: bool = False) -> ForwardResult:
    """The referee's layers ``start..L-1`` from the state ``h`` entering ``start``.

    ``disabled`` maps a layer to its disabled path kinds. ``h`` is only read.
    With ``vision_kv``, ``h`` holds the text rows alone and the ``n`` vision
    rows are taken as known: at layer ``l`` the text rows read
    ``vision_kv[l]``, the keys/values of the vision rows entering it, under
    the text rows of the mask, and the vision write paths have no rows to
    act on. No vision row reads text, so this is exact whenever the
    disabled paths leave the vision rows as they were. ``last_text_rows``
    runs the last layer that way, since no readout reads its vision rows.
    """
    total = len(h) if vision_kv is None else n + len(h)
    causal = bottom_right_mask(total, total)
    no_t2v = causal.copy()
    no_t2v[n:, :n] = False
    n_own = n if vision_kv is None else 0  # vision rows in h
    for l in range(start, weights.config.n_layers):
        if last_text_rows and n_own and l == weights.config.n_layers - 1:
            vision_kv, h, n_own = {l: _vision_kv(h[:n], weights.layers[l])}, h[n:], 0
        off = disabled.get(l, set())
        h_attn, h_ffn = _baseline_layer(
            h, weights.layers[l], (no_t2v if "t2v_read" in off else causal)[total - len(h):],
            weights.config.n_heads, n_own,
            vis_attn_write="vis_attn_write" not in off,
            vis_ffn_write="vis_ffn_write" not in off,
            prefix_kv=None if vision_kv is None else vision_kv[l],
        )
        if trace is not None:
            trace.append(LayerTrace(l, PolicyMode.BASELINE, n, n, None, h, h_attn, h_ffn))
        h = h_ffn
    logits = matmul(rms_norm(h[n_own:], weights.out_gain), weights.w_out)
    return ForwardResult(h[:n_own], h[n_own:], logits, trace)


# ---------------------------------------------------------------------------
# decoupled vision KV


@dataclass(frozen=True)
class VisualKvSet:
    """A read-only copy of the frozen vision rows, and the keys/values of all
    of them at frozen layers no cut precedes; depends on vision inputs only."""

    rows: np.ndarray
    entries: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def layers(self) -> list[int]:
        return sorted(self.entries)


def precompute_visual_kv(
    weights: Weights,
    vision_emb: np.ndarray,
    schedule: PolicySchedule,
    *,
    counter=None,
) -> VisualKvSet:
    """Copy the frozen vision rows and project their KV at each retaining
    layer no cut precedes (the rows a cut keeps depend on the text).

    Nothing here reads text, which is the whole point: these tensors can be
    built as soon as the image is projected, in parallel with prompt arrival.
    """
    cfg = weights.config
    _check_schedule(cfg, schedule)
    n = _check_rows("vision", vision_emb, cfg.d_model)
    rows = np.array(vision_emb, copy=True)
    rows.flags.writeable = False
    with count_macs(counter):
        entries = {
            l: _vision_kv(rows, weights.layers[l])
            for l in _uncut_layers(schedule, vision_counts(schedule, n), n)
        }
    return VisualKvSet(rows, entries)


def forward_vica_fast(
    weights: Weights,
    kv: VisualKvSet,
    text_emb: np.ndarray,
    schedule: PolicySchedule,
    *,
    counter=None,
) -> ForwardResult:
    """The engine's layer loop over the rows of ``kv``, reading its entries.

    The logits, kept sets and final vision rows are :func:`forward`'s: until
    the first cut a frozen layer reads its precomputed keys/values, and after
    it projects the kept rows as the engine does. ``kv`` must hold each
    frozen layer no cut precedes and no layer the schedule does not retain,
    so one built without drops serves the schedule with them. ``BASELINE``
    layers update vision rows and are rejected.
    """
    n, _ = _check_inputs(weights, kv.rows, text_emb, schedule)
    if any(p.mode is PolicyMode.BASELINE for p in schedule.layers):
        raise ConfigError("fast path cannot update vision rows (baseline layers)")
    counts = vision_counts(schedule, n)
    needed, retained = _uncut_layers(schedule, counts, n), schedule.frozen_vision_layers()
    if not set(needed) <= set(kv.entries) <= set(retained):
        raise ConfigError(f"kv covers layers {kv.layers()}; the schedule needs {needed} "
                          f"and retains {retained}")
    for l, (k_vis, v_vis) in kv.entries.items():
        if k_vis.shape != kv.rows.shape or v_vis.shape != k_vis.shape:
            raise ConfigError(f"kv entry at layer {l} has shape {k_vis.shape}")
    return _prefill(weights, schedule, counts, text_emb, kv.rows, kv=kv, counter=counter)


# ---------------------------------------------------------------------------
# multiply-accumulate accounting


def vision_counts(schedule: PolicySchedule, n_vision: int) -> list[int]:
    """Vision-token count at each layer under the schedule's drop events; an
    event at a layer without vision KV moves to the next layer with it."""
    exposing = [p.mode in KV_MODES for p in schedule.layers]
    events = relocate_drop_events(schedule.drop_events(), exposing)
    return resolve_schedule(events, n_vision, schedule.n_layers)


def _uncut_layers(schedule: PolicySchedule, counts: list[int], n: int) -> list[int]:
    """The frozen layers all ``n`` vision rows enter: by the schedule's
    :func:`vision_counts`, no cut comes before them."""
    return [l for l in schedule.frozen_vision_layers() if l == 0 or counts[l - 1] == n]


#: The ops of a layer, each a column of :func:`mac_table`. ``proj`` holds the
#: text rows' q/k/v/o and the q/o of the vision rows a ``BASELINE`` layer
#: updates; ``v2t_unclaimed`` is the vision-query by text-key block.
MAC_OPS = ("proj", "vision_kv", "text_attn", "t2v_read", "vision_attn", "v2t_unclaimed",
           "ffn", "drop_score")


def mac_table(schedule: PolicySchedule, d: int, m: int, layout: TokenLayout,
              rule: str) -> list[dict[str, int]]:
    """MACs of each op of :data:`MAC_OPS` at each layer, from shapes only.

    ``engine`` charges what :func:`forward` and :func:`forward_vica_fast`
    run: causal text attention (dense at ``BASELINE`` layers, whose masked
    part :func:`_prefill` credits), every text row reading vision, the
    keys/values of the vision rows entering a layer, and a cut's scoring of
    the last text row. ``paper`` is the cost model: dense attention,
    question rows reading vision (all text rows at ``BASELINE`` layers),
    keys/values of the kept rows, free drops.
    """
    paper = rule == "paper"
    n0, t = layout.n_vision, layout.n_text
    table, n = [], n0
    for pol, count in zip(schedule.layers, vision_counts(schedule, n0)):
        n_in, n = n, count
        reads, joint = pol.mode in KV_MODES, pol.mode is PolicyMode.BASELINE
        v_rows = n if joint else 0  # vision rows the layer updates
        readers = layout.t_question if paper and not joint else t
        kv_rows = {"engine": n_in, "paper": n}[rule] if reads else 0
        table.append({
            "proj": 4 * t * d * d + 2 * v_rows * d * d,
            "vision_kv": 2 * kv_rows * d * d,
            "text_attn": 2 * d * t * t if paper or joint else d * t * (t + 1),
            "t2v_read": 2 * d * readers * n if reads else 0,
            "vision_attn": 2 * d * v_rows * v_rows,
            "v2t_unclaimed": 2 * d * v_rows * t,
            "ffn": 3 * (t + v_rows) * d * m,
            "drop_score": d * (n_in + t) if n < n_in and not paper else 0,
        })
    return table


def mac_total(table: list[dict[str, int]], ops=MAC_OPS) -> int:
    """The MACs of the columns ``ops`` of a :func:`mac_table`."""
    return sum(row[op] for row in table for op in ops)


def count_forward_macs(
    config: ModelConfig,
    layout: TokenLayout,
    schedule: PolicySchedule,
    path: str = "engine",
    *,
    include_kv_precompute: bool = True,
) -> int:
    """Exact MAC count the instrumented forward would report, from shapes only.

    ``path='engine'`` mirrors :func:`forward`; ``path='fast'`` mirrors
    :func:`precompute_visual_kv` + :func:`forward_vica_fast` and rejects
    ``BASELINE`` layers as they do. Both run the ``engine`` rule of
    :func:`mac_table` plus the logits; ``include_kv_precompute=False``
    leaves out the precomputed layers' ``vision_kv``. The test suite checks
    the count against the live counters.
    """
    if path not in ("engine", "fast"):
        raise ConfigError(f"unknown path {path!r}")
    _check_schedule(config, schedule)
    _check_stream(config, layout.n_vision, layout.n_text)
    if path == "fast" and any(p.mode is PolicyMode.BASELINE for p in schedule.layers):
        raise ConfigError("fast path cannot update vision rows (baseline layers)")
    table = mac_table(schedule, config.d_model, config.d_ffn, layout, "engine")
    if path == "fast" and not include_kv_precompute:
        n = layout.n_vision
        for l in _uncut_layers(schedule, vision_counts(schedule, n), n):
            table[l]["vision_kv"] = 0
    return mac_total(table) + layout.n_text * config.d_model * config.vocab
