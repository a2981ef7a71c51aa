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
every layer one layer body, :func:`_layer`: a block of rows goes through
causal attention (the kernel
:func:`~vica.attention.asymmetric_cross_attention`) and the FFN, reading
read-only prefix keys/values if it is given any. The text rows, system and
question alike, go first in every layer, as such a block over the vision
keys/values of every mode of ``KV_MODES``; a drop event is scored inside
that call, from the last text row's attention. No vision query ever sees a
text key, so a joint ``BASELINE`` layer factorises exactly: the surviving
vision rows then run the same body as their own causal block over those
keys/values. The loop's vision source is either the vision rows, which
:func:`_vision_kv` projects at each layer, or the keys/values
:func:`precompute_visual_kv` projected from them ahead of any text,
gathered by the kept rows after a cut. Frozen rows never change, so both
give the same bits: :func:`forward_vica_fast` runs drop schedules without
ever materializing vision rows, at the price of projecting every row at
every retaining layer. Everything computes in the dtype of the weights and
inputs.

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


#: Retained-layer sets for the sparse cross-attention schedules, keyed by the
#: backbone they were selected for.
RETAINED_LAYERS: dict[str, tuple[int, set[int]]] = {
    "vica3b": (32, {0, 1, 14, 15, 18, 19, 21, 22, 23}),
    "vica7b": (32, {0, 1, 7, 8, 9, 10, 11, 14}),
    "vica13b": (40, {0, 6, 8, 9, 10, 13, 14, 16}),
}

#: Keep-fraction drop events layered on top of the sparse schedules.
PDROP_EVENTS: dict[str, dict[int, float]] = {
    "vica3b": {1: 0.75, 14: 0.75, 18: 0.75},
    "vica7b": {1: 0.75, 7: 0.75, 10: 0.75},
    "vica13b": {6: 0.75, 9: 0.75, 13: 0.75},
}


def pdrop_baseline_events(n_layers: int) -> dict[int, float]:
    """Halve the remaining vision tokens at the quarter-depth boundaries."""
    return {n_layers // 4: 0.5, n_layers // 2: 0.5, (3 * n_layers) // 4: 0.5}


def schedule_preset(name: str) -> PolicySchedule:
    """Named schedule: ``vica{3b,7b,13b}``, optionally ``+pdrop``."""
    base = name.removesuffix("+pdrop")
    if base not in RETAINED_LAYERS:
        raise ConfigError(f"unknown schedule preset {name!r}")
    n_layers, retained = RETAINED_LAYERS[base]
    schedule = PolicySchedule.sparse_cross(n_layers, retained)
    if name.endswith("+pdrop"):
        schedule = schedule.with_drops(PDROP_EVENTS[base])
    return schedule


def parse_schedule(name: str, n_layers: int) -> PolicySchedule:
    """Schedule by name for an ``n_layers``-deep model.

    ``baseline``, ``baseline+pdrop``, ``freeze`` and ``textonly`` fit any
    depth; ``sparse:<layer>,<layer>,...`` retains the listed layers; any
    other name is a :func:`schedule_preset`, which must span ``n_layers``.
    """
    if name == "baseline":
        return PolicySchedule.baseline(n_layers)
    if name == "baseline+pdrop":
        return PolicySchedule.baseline(n_layers).with_drops(pdrop_baseline_events(n_layers))
    if name == "freeze":
        return PolicySchedule.freeze_vis(n_layers)
    if name == "textonly":
        return PolicySchedule.text_only(n_layers)
    if name.startswith("sparse:"):
        try:
            retained = {int(x) for x in name.removeprefix("sparse:").split(",")}
        except ValueError:
            raise ConfigError(
                f"bad schedule {name!r}; expected sparse:<layer>,<layer>,..."
            ) from None
        return PolicySchedule.sparse_cross(n_layers, retained)
    schedule = schedule_preset(name)
    if schedule.n_layers != n_layers:
        raise ConfigError(
            f"schedule {name!r} spans {schedule.n_layers} layers, model has {n_layers}"
        )
    return schedule


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
    # The referee's entries alias its loop's arrays (``h_post_ffn`` of layer
    # l is ``h_pre_attn`` of layer l + 1): read them, never write them.
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
    vision_hidden: np.ndarray | None   # final vision rows (None on the fast path)
    text_hidden: np.ndarray
    logits: np.ndarray                 # (n_text, vocab)
    trace: list[LayerTrace] | None


WRITE_PATH_KINDS = ("vis_attn_write", "vis_ffn_write", "t2v_read")


def parse_path(spec: str, n_layers: int) -> tuple[str, int]:
    """Split 'kind@layer' and validate both halves."""
    kind, sep, layer_s = spec.partition("@")
    if not sep or kind not in WRITE_PATH_KINDS or not layer_s.isdigit():
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


def _check_inputs(weights: Weights, vision_emb: np.ndarray | None, text_emb: np.ndarray,
                  schedule: PolicySchedule, n_vision: int = 0) -> tuple[int, int]:
    """Validate schedule depth, embedding shapes and stream length; return (n, t).

    The fast path has no vision embeddings: it passes ``vision_emb=None`` and
    the vision count of its precomputed KV as ``n_vision``.
    """
    cfg = weights.config
    _check_schedule(cfg, schedule)
    n = n_vision if vision_emb is None else _check_rows("vision", vision_emb, cfg.d_model)
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
    prefix_kv: tuple[np.ndarray, np.ndarray] | None = None,
    keep: int | None = None,
    kv: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One causal layer over ``rows``, reading read-only prefix KV if given.

    The rows attend to ``[prefix keys; own keys]`` under the bottom-right
    rule. ``kv`` holds the rows' own keys and values if the caller has
    projected them already. A ``keep`` below the prefix length cuts the
    prefix first to the ``keep`` rows the last row attends to most,
    head-averaged over ``[prefix keys; own keys]`` (PyramidDrop's rule).
    Returns (post_attn, post_ffn, kept, (k, v)): ``kept`` holds the sorted
    indices of the surviving prefix rows, or None when nothing was cut, and
    ``k``, ``v`` the keys and values the rows attended over, the surviving
    prefix rows first.
    """
    x = rms_norm(rows, lw.attn_gain)
    q = matmul(x, lw.wq)
    k, v = kv if kv is not None else (matmul(x, lw.wk), matmul(x, lw.wv))
    kept = None
    if prefix_kv is not None:
        n_pre = len(prefix_kv[0])
        k, v = np.vstack([prefix_kv[0], k]), np.vstack([prefix_kv[1], v])
        if keep is not None and keep < n_pre:
            kept = select_kept_tokens(attention_weights(q[-1:], k, n_heads)[:, :n_pre], keep)
            attended = np.concatenate([kept, np.arange(n_pre, len(k))])
            k, v = k[attended], v[attended]
    attn = asymmetric_cross_attention(q, k, v, n_heads)
    r_attn = rows + matmul(attn, lw.wo)
    r_ffn = r_attn + gated_ffn(rms_norm(r_attn, lw.ffn_gain), lw.w_gate, lw.w_up, lw.w_down)
    return r_attn, r_ffn, kept, (k, v)


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
        weights, schedule, text_emb, v_rows=np.array(vision_emb, copy=True),
        counter=counter, trace=[] if record_trace else None,
    )


def _prefill(weights: Weights, schedule: PolicySchedule, text_emb: np.ndarray, *,
             v_rows: np.ndarray | None = None, kv: VisualKvSet | None = None,
             counter=None, trace: list[LayerTrace] | None = None) -> ForwardResult:
    """The layers of :func:`forward` and :func:`forward_vica_fast`, then the logits.

    The vision source is the rows ``v_rows`` or a precomputed ``kv``, whose
    entries are read as they are before the first cut and gathered by the
    kept indices composed over every cut after it. ``BASELINE`` layers and
    a ``trace`` need ``v_rows``.
    """
    cfg = weights.config
    n0 = kv.n_vision if v_rows is None else len(v_rows)
    counts = vision_counts(schedule, n0)
    t_rows = _embed_text(weights, np.asarray(text_emb), n0)
    chain = None  # kept indices into the input vision rows; None before a cut
    with count_macs(counter):
        for l, pol in enumerate(schedule.layers):
            lw = weights.layers[l]
            if pol.mode in KV_MODES and v_rows is None:
                k_vis, v_vis = kv.entries[l]
                vision_kv = (k_vis, v_vis) if chain is None else (k_vis[chain], v_vis[chain])
            else:
                vision_kv = _vision_kv(v_rows, lw) if pol.mode in KV_MODES else None
            t_attn, t_ffn, kept, (k, v) = _layer(t_rows, lw, cfg.n_heads, vision_kv, counts[l])
            del vision_kv  # k, v hold its kept rows: keep one copy alive
            if kept is not None:
                chain = kept if chain is None else chain[kept]
                v_rows = None if v_rows is None else v_rows[kept]

            # No vision query sees a text key, so a joint layer is the text
            # layer plus the vision rows' own causal layer over the same KV.
            v_attn = v_ffn = v_rows
            if pol.mode is PolicyMode.BASELINE:
                m = counts[l]
                v_attn, v_ffn = _layer(v_rows, lw, cfg.n_heads, kv=(k[:m], v[:m]))[:2]
                # The kernels credit the causal d * L * (L + 1) MACs, but the
                # cost model charges the dense baseline 2 * d * L^2 (ROADMAP
                # item 1, gap (a)): credit the masked d * L * (L - 1) here, so
                # the engine counts what the model charges.
                total = counts[l] + len(t_rows)
                add_macs(cfg.d_model * total * (total - 1))
            del k, v  # before the next layer joins its own

            if trace is not None:
                trace.append(
                    LayerTrace(
                        layer=l, mode=pol.mode, n_vision_in=counts[l - 1] if l else n0,
                        n_vision_out=counts[l], kept=kept,
                        h_pre_attn=np.vstack([v_rows, t_rows]),
                        h_post_attn=np.vstack([v_attn, t_attn]),
                        h_post_ffn=np.vstack([v_ffn, t_ffn]),
                    )
                )
            v_rows, t_rows = v_ffn, t_ffn

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
    """Per-layer frozen vision keys/values; depends on vision inputs only."""

    n_vision: int
    d_model: int
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
    """Project the frozen vision embeddings to KV at every retaining layer.

    Nothing here reads text, which is the whole point: these tensors can be
    built as soon as the image is projected, in parallel with prompt arrival.
    """
    cfg = weights.config
    _check_schedule(cfg, schedule)
    n = _check_rows("vision", vision_emb, cfg.d_model)
    with count_macs(counter):
        entries = {
            l: _vision_kv(vision_emb, weights.layers[l])
            for l in schedule.frozen_vision_layers()
        }
    return VisualKvSet(n, cfg.d_model, entries)


def forward_vica_fast(
    weights: Weights,
    kv: VisualKvSet,
    text_emb: np.ndarray,
    schedule: PolicySchedule,
    *,
    counter=None,
) -> ForwardResult:
    """Text-only pipeline attending into precomputed vision KV.

    Vision rows never enter the hidden state: the text rows run the
    engine's layer loop over the precomputed KV, gathered by the kept rows
    once a drop event has cut them, so the logits and kept sets are the
    engine's. The precompute cannot know which rows a later cut drops, so
    it spends more MACs than the engine: every row at every retaining layer.
    ``BASELINE`` layers update vision rows and are rejected.
    """
    cfg = weights.config
    _check_inputs(weights, None, text_emb, schedule, n_vision=kv.n_vision)
    if any(p.mode is PolicyMode.BASELINE for p in schedule.layers):
        raise ConfigError("fast path cannot update vision rows (baseline layers)")
    retained = schedule.frozen_vision_layers()
    if kv.layers() != retained:
        raise ConfigError(f"kv covers layers {kv.layers()}, schedule retains {retained}")
    if kv.d_model != cfg.d_model:
        raise ConfigError(f"kv width {kv.d_model} does not match model {cfg.d_model}")
    for l, (k_vis, v_vis) in kv.entries.items():
        if k_vis.shape != (kv.n_vision, cfg.d_model) or v_vis.shape != k_vis.shape:
            raise ConfigError(f"kv entry at layer {l} has shape {k_vis.shape}")
    return _prefill(weights, schedule, text_emb, kv=kv, counter=counter)


# ---------------------------------------------------------------------------
# multiply-accumulate accounting


def vision_counts(schedule: PolicySchedule, n_vision: int) -> list[int]:
    """Vision-token count at each layer under the schedule's drop events; an
    event at a layer without vision KV moves to the next layer with it."""
    exposing = [p.mode in KV_MODES for p in schedule.layers]
    events = relocate_drop_events(schedule.drop_events(), exposing)
    return resolve_schedule(events, n_vision, schedule.n_layers)


#: The ops of a layer, each a column of :func:`mac_table`. ``proj`` holds the
#: text rows' q/k/v/o and the q/o of the vision rows a ``BASELINE`` layer
#: updates; ``v2t_unclaimed`` is the vision-query by text-key block.
MAC_OPS = ("proj", "vision_kv", "text_attn", "t2v_read", "vision_attn", "v2t_unclaimed",
           "ffn", "drop_score")


def mac_table(schedule: PolicySchedule, d: int, m: int, layout: TokenLayout,
              rule: str) -> list[dict[str, int]]:
    """MACs of each op of :data:`MAC_OPS` at each layer, from shapes only.

    ``engine`` charges what :func:`forward` runs: causal text attention
    (dense at ``BASELINE`` layers, whose masked part :func:`_prefill`
    credits), every text row reading vision, the keys/values of the vision
    rows entering a layer, and a cut's scoring of the last text row. ``fast``
    charges the same, but keys/values of every input row, as
    :func:`precompute_visual_kv` projects them. ``paper`` is the cost model:
    dense attention, question rows reading vision (all text rows at
    ``BASELINE`` layers), keys/values of the kept rows, free drops.
    """
    paper = rule == "paper"
    n0, t = layout.n_vision, layout.n_text
    table, n = [], n0
    for pol, count in zip(schedule.layers, vision_counts(schedule, n0)):
        n_in, n = n, count
        reads, joint = pol.mode in KV_MODES, pol.mode is PolicyMode.BASELINE
        v_rows = n if joint else 0  # vision rows the layer updates
        readers = layout.t_question if paper and not joint else t
        kv_rows = {"engine": n_in, "fast": n0, "paper": n}[rule] if reads else 0
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
    ``BASELINE`` layers as they do. The count is the path's :func:`mac_table`
    plus the logits (``include_kv_precompute=False`` leaves out the
    precompute); the test suite checks it against the live counters.
    """
    if path not in ("engine", "fast"):
        raise ConfigError(f"unknown path {path!r}")
    _check_schedule(config, schedule)
    _check_stream(config, layout.n_vision, layout.n_text)
    if path == "fast" and any(p.mode is PolicyMode.BASELINE for p in schedule.layers):
        raise ConfigError("fast path cannot update vision rows (baseline layers)")
    table = mac_table(schedule, config.d_model, config.d_ffn, layout, path)
    skip = mac_total(table, ("vision_kv",)) if path == "fast" and not include_kv_precompute else 0
    return mac_total(table) - skip + layout.n_text * config.d_model * config.vocab
