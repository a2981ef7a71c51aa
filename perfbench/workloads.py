"""The benchmark's workloads: seeded inputs, timed calls and output checks.

Each workload is a closed loop with one client. It builds a round of ops from
the workload seed and the round index, so a seed fixes every input however
many rounds fit in a run. The runner times each op's call and then runs the
op's check; checks (references, MAC reconciliation) start after the op's
clock stops, so they are counted in neither op timings nor ``setup_s``.

The benchmark calls vica through module attributes (``vmodel.forward``), so
the tracer's rebinding reaches the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from vica import costmodel
from vica import diagnostics as vdiag
from vica import model as vmodel
from vica.attention import TokenLayout
from vica.harness import EQUIV_TOL
from vica.numerics import MacCounter

#: the ``vica bench`` desk geometry: 32 layers, 32 heads, d=256, d_ffn=688
DESK = vmodel.ModelConfig(32, 32, 256, 688, max_seq=631)
DESK_LAYOUT = TokenLayout(576, 35, 20)
#: vision tokens in the warm-up input; enough to touch every kernel and weight
WARMUP_VISION = 64


def cost_inputs(config, layout, n_retained: int = 0) -> costmodel.CostInputs:
    return costmodel.CostInputs(
        config.n_layers, config.d_model, config.d_ffn, n=layout.n_vision,
        t_system=layout.t_system, t_question=layout.t_question, n_retained=n_retained,
    )


def desk_ratios() -> dict:
    """vica7b against baseline at the desk geometry: counted MACs and closed form.

    The counts come from ``count_forward_macs``, which every run checks
    against the live ``MacCounter``. ``mac_ratio_rel_err`` is the cost
    model's known masked-work gap.
    """
    sched = vmodel.schedule_preset("vica7b")
    base = vmodel.count_forward_macs(
        DESK, DESK_LAYOUT, vmodel.PolicySchedule.baseline(DESK.n_layers), "engine"
    )
    fast = vmodel.count_forward_macs(DESK, DESK_LAYOUT, sched, "fast")
    ci = cost_inputs(DESK, DESK_LAYOUT, len(sched.frozen_vision_layers()))
    model_ratio = costmodel.vica_total_flops(ci) / costmodel.total_flops(ci)
    mac_ratio = fast / base
    return {
        "macs_baseline": base,
        "macs_vica7b_fast": fast,
        "mac_ratio": mac_ratio,
        "model_ratio": model_ratio,
        "mac_ratio_rel_err": abs(mac_ratio - model_ratio) / model_ratio,
    }


@dataclass
class Op:
    """One timed call and the check of its output."""

    kind: str                          # latency is reported as ``<kind>_ms``
    tokens: int                        # prefill tokens (vision + text) it completes
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    counter: MacCounter                # MACs the op counted
    walker: int                        # MACs ``count_forward_macs`` predicts


def logit_failures(label: str, logits, ref=None, ref_label: str = "") -> list[str]:
    """Non-finite logits, or a deviation from ``ref`` that is not <= EQUIV_TOL.

    Written as ``not (dev <= tol)`` so that a NaN deviation fails.
    """
    logits = np.asarray(logits)
    failures = []
    if not np.isfinite(logits).all():
        failures.append(f"{label}: non-finite logits")
    if ref is not None:
        if logits.shape != np.shape(ref):
            return failures + [f"{label}: shape {logits.shape} vs {ref_label} {np.shape(ref)}"]
        dev = float(np.abs(logits - ref).max())
        if not (dev <= EQUIV_TOL):
            failures.append(f"{label}: |{label} - {ref_label}| = {dev:.3e} > {EQUIV_TOL:.0e}")
    return failures


def mac_failures(label: str, counted: int, walker: int) -> list[str]:
    if counted == walker:
        return []
    return [f"{label}: counted {counted} MACs, count_forward_macs gives {walker}"]


class Workload:
    """Seeded weights and inputs for one geometry; subclasses define the ops."""

    name: str
    headline: str                      # op kind whose median is ``latency_ms``
    config: vmodel.ModelConfig
    layout: TokenLayout

    def __init__(self, seed: int):
        self.seed = seed
        self.weights = None

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def inputs(self, rng: np.random.Generator, n_vision: int | None = None):
        n = self.layout.n_vision if n_vision is None else n_vision
        d = self.config.d_model
        return rng.standard_normal((n, d)), rng.standard_normal((self.layout.n_text, d))

    def warmup_inputs(self, rng: np.random.Generator):
        return self.inputs(rng, min(WARMUP_VISION, self.layout.n_vision))

    def setup(self) -> None:
        """Weight init, warm-up input generation and a warm-up pass (``setup_s``)."""
        self.weights = None  # release the previous copy before allocating the next
        self.weights = vmodel.init_model(self.config, self.seed)
        self.warm_up(self.rng(1))

    def warm_up(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def flops_ratio(self, counted: dict[str, int]) -> float:
        """Closed-form FLOPs over twice the counted MACs of one headline prefill.

        ``counted`` maps an op kind to the MACs one op of that kind counted.
        """
        raise NotImplementedError


class JointPrefill(Workload):
    """The paper's comparator: one full joint prefill per op, fast path unused."""

    name = "joint_prefill"
    headline = "prefill"
    config = DESK
    layout = DESK_LAYOUT

    def __init__(self, seed: int):
        super().__init__(seed)
        self.schedule = vmodel.PolicySchedule.baseline(self.config.n_layers)
        self.walker = vmodel.count_forward_macs(self.config, self.layout, self.schedule, "engine")

    def warm_up(self, rng):
        ve, te = self.warmup_inputs(rng)
        vmodel.forward(self.weights, ve, te, self.schedule)

    def round(self, index):
        w, sched, layout = self.weights, self.schedule, self.layout
        ve, te = self.inputs(self.rng(0, index))
        counter = MacCounter()

        def call():
            return vmodel.forward(w, ve, te, sched, layout=layout, counter=counter).logits

        def check(logits):
            ref = vmodel.forward_baseline_masked_oracle(w, ve, te).logits
            return logit_failures("engine", logits, ref, "oracle") + mac_failures(
                "engine baseline", counter.macs, self.walker
            )

        return [Op("prefill", layout.total, call, check, counter, self.walker)]

    def flops_ratio(self, counted):
        ci = cost_inputs(self.config, self.layout)
        return costmodel.total_flops(ci) / (2 * counted["prefill"])


class SparsePrefill(Workload):
    """The paper's decoupled prefill: per image one KV precompute (write side),
    four prompts reading that KV, and one pruned engine forward."""

    name = "sparse_prefill"
    headline = "text_prefill"
    config = DESK
    layout = DESK_LAYOUT
    PROMPTS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.schedule = vmodel.schedule_preset("vica7b")
        self.pdrop = vmodel.schedule_preset("vica7b+pdrop")
        config, layout = self.config, self.layout
        fast = vmodel.count_forward_macs(config, layout, self.schedule, "fast")
        self.walker_text = vmodel.count_forward_macs(
            config, layout, self.schedule, "fast", include_kv_precompute=False
        )
        self.walker_kv = fast - self.walker_text
        self.walker_pdrop = vmodel.count_forward_macs(config, layout, self.pdrop, "engine")

    def warm_up(self, rng):
        ve, te = self.warmup_inputs(rng)
        kv = vmodel.precompute_visual_kv(self.weights, ve, self.schedule)
        vmodel.forward_vica_fast(self.weights, kv, te, self.schedule)
        vmodel.forward(self.weights, ve, te, self.pdrop)

    def round(self, index):
        rng = self.rng(0, index)
        d = self.config.d_model
        ve = rng.standard_normal((self.layout.n_vision, d))
        prompts = [rng.standard_normal((self.layout.n_text, d)) for _ in range(self.PROMPTS + 1)]
        kv_box: dict = {}
        ops = [self._precompute(ve, kv_box)]
        # the reads and the pruned forward interleave in a seeded order;
        # prompt index PROMPTS is the one that goes through the pruned forward
        for i in rng.permutation(self.PROMPTS + 1):
            if i == self.PROMPTS:
                ops.append(self._pdrop(ve, prompts[i]))
            else:
                ops.append(self._text(ve, prompts[i], kv_box))
        return ops

    def _precompute(self, ve, kv_box):
        w, sched = self.weights, self.schedule
        counter = MacCounter()

        def call():
            kv_box["kv"] = vmodel.precompute_visual_kv(w, ve, sched, counter=counter)
            return kv_box["kv"]

        def check(kv):
            failures = mac_failures("kv precompute", counter.macs, self.walker_kv)
            if kv.layers() != sched.frozen_vision_layers():
                failures.append(f"kv precompute: layers {kv.layers()}")
            if not all(np.isfinite(k).all() and np.isfinite(v).all()
                       for k, v in kv.entries.values()):
                failures.append("kv precompute: non-finite keys or values")
            return failures

        return Op("kv_precompute", self.layout.n_vision, call, check, counter, self.walker_kv)

    def _text(self, ve, te, kv_box):
        w, sched, layout = self.weights, self.schedule, self.layout
        counter = MacCounter()

        def call():
            return vmodel.forward_vica_fast(w, kv_box["kv"], te, sched, counter=counter).logits

        def check(logits):
            ref = vmodel.forward(w, ve, te, sched, layout=layout).logits
            return logit_failures("fast", logits, ref, "engine vica7b") + mac_failures(
                "fast text", counter.macs, self.walker_text
            )

        return Op("text_prefill", layout.n_text, call, check, counter, self.walker_text)

    def _pdrop(self, ve, te):
        w, sched, layout = self.weights, self.pdrop, self.layout
        counter = MacCounter()

        def call():
            return vmodel.forward(w, ve, te, sched, layout=layout, counter=counter).logits

        def check(logits):
            failures = logit_failures("engine vica7b+pdrop", logits)
            if np.shape(logits) != (layout.n_text, self.config.vocab):
                failures.append(f"engine vica7b+pdrop: logits shape {np.shape(logits)}")
            return failures + mac_failures("engine vica7b+pdrop", counter.macs, self.walker_pdrop)

        return Op("pdrop_prefill", layout.total, call, check, counter, self.walker_pdrop)

    def flops_ratio(self, counted):
        ci = cost_inputs(self.config, self.layout, len(self.schedule.frozen_vision_layers()))
        decoupled = counted["kv_precompute"] + counted["text_prefill"]
        return costmodel.vica_total_flops(ci) / (2 * decoupled)


class AblationSweep(Workload):
    """The diagnostics sweep: thousands of small oracle calls per op."""

    name = "ablation_sweep"
    headline = "sweep"
    config = vmodel.ModelConfig(8, 4, 64, 128, max_seq=88)
    layout = TokenLayout(64, 8, 16)
    BATCH = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        baseline = vmodel.PolicySchedule.baseline(self.config.n_layers)
        # one oracle forward with no path disabled counts like the baseline engine
        self.walker_forward = vmodel.count_forward_macs(
            self.config, self.layout, baseline, "engine"
        )
        # a sweep from the all-baseline model: the intact run plus one per layer
        self.forwards = self.BATCH * (1 + self.config.n_layers)

    def warm_up(self, rng):
        vdiag.layer_sweep(self.weights, [self.inputs(rng)], "t2v_read")

    def round(self, index):
        rng = self.rng(0, index)
        batch = [self.inputs(rng) for _ in range(self.BATCH)]
        paths = rng.permutation(vmodel.WRITE_PATH_KINDS)
        layers = rng.integers(self.config.n_layers, size=len(paths))
        return [self._sweep(batch, str(p), int(l)) for p, l in zip(paths, layers)]

    def _sweep(self, batch, path, layer):
        w, n_layers = self.weights, self.config.n_layers
        counter = MacCounter()

        def call():
            return vdiag.layer_sweep(w, batch, path)

        def check(report):
            failures = []
            if len(report.kl) != n_layers or len(report.one_minus_cos) != n_layers:
                return [f"sweep {path}: {len(report.kl)} rows for {n_layers} layers"]
            values = np.asarray(report.kl + report.one_minus_cos)
            if not np.isfinite(values).all() or not (min(report.kl) >= 0.0):
                failures.append(f"sweep {path}: non-finite or negative values")
            # reference: the seeded layer's KL from direct oracle calls
            ref_counter = MacCounter()
            total = 0.0
            for i, (ve, te) in enumerate(batch):
                base = vmodel.forward_baseline_masked_oracle(
                    w, ve, te, counter=ref_counter if i == 0 else None
                )
                ablated = vmodel.forward_baseline_masked_oracle(w, ve, te, {f"{path}@{layer}"})
                total += vdiag.kl_divergence(
                    vdiag.next_token_distribution(base),
                    vdiag.next_token_distribution(ablated),
                )
            dev = abs(total / len(batch) - report.kl[layer])
            if not (dev <= EQUIV_TOL):
                failures.append(f"sweep {path}@{layer}: KL off the direct ablation by {dev:.3e}")
            counter.add(self.forwards * ref_counter.macs)
            return failures + mac_failures("oracle", ref_counter.macs, self.walker_forward)

        tokens = self.forwards * self.layout.total
        return Op("sweep", tokens, call, check, counter, self.forwards * self.walker_forward)

    def flops_ratio(self, counted):
        ci = cost_inputs(self.config, self.layout)
        return costmodel.total_flops(ci) * self.forwards / (2 * counted["sweep"])


WORKLOADS = {w.name: w for w in (JointPrefill, SparsePrefill, AblationSweep)}
