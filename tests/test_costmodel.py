"""Closed-form cost accounting.

The golden numbers in TestGoldenNumbers are frozen at the displayed
precision of the reference results; everything else is checked as an
algebraic property of the formulas.
"""

import pytest

from vica.costmodel import (
    CostInputs,
    baseline_vision_flops,
    equivalent_token_count,
    fmt_tflops,
    kv_cache_fraction,
    projector_to_cross_ratio,
    resolved_vision_counts,
    schedule_vision_flops,
    text_only_flops,
    tflops,
    total_flops,
    vica_total_flops,
    vica_vision_flops,
    visual_update_flops,
)
from vica.harness import GOLDEN_LAYOUT
from vica.model import (
    MODEL_PRESETS,
    SPARSE_PRESETS,
    ModelConfig,
    PolicySchedule,
    count_forward_macs,
    parse_schedule,
    pdrop_baseline_events,
    schedule_preset,
)


def preset_inputs(name, n_retained):
    cfg = MODEL_PRESETS[name]
    return CostInputs(cfg.n_layers, cfg.d_model, cfg.d_ffn, n=576, n_retained=n_retained)


CI_3B = preset_inputs("llava3b", 9)
CI_7B = preset_inputs("llava7b", 8)
CI_13B = preset_inputs("llava13b", 8)


class TestGoldenNumbers:
    # (inputs, vis, total, vica_vis, vica_total, update_pct, eq_tokens, rel_vis_pct)
    TABLE = [
        (CI_3B, 3.04, 3.33, 0.14, 0.42, 84.0, 27, 4.5),
        (CI_7B, 7.65, 8.38, 0.31, 1.02, 83.8, 24, 4.1),
        (CI_13B, 14.91, 16.34, 0.49, 1.88, 83.7, 19, 3.3),
    ]

    @pytest.mark.parametrize("ci,vis,total,vv,vt,upd_pct,eq,rel", TABLE)
    def test_preset_costs(self, ci, vis, total, vv, vt, upd_pct, eq, rel):
        assert tflops(baseline_vision_flops(ci)["total"]) == pytest.approx(vis, abs=0.005)
        assert tflops(total_flops(ci)) == pytest.approx(total, abs=0.005)
        assert tflops(vica_vision_flops(ci)) == pytest.approx(vv, abs=0.005)
        assert tflops(vica_total_flops(ci)) == pytest.approx(vt, abs=0.005)
        update, ratio = visual_update_flops(ci)
        assert ratio * 100 == pytest.approx(upd_pct, abs=0.05)
        assert equivalent_token_count(ci, vica_vision_flops(ci)) == eq
        observed_rel = vica_vision_flops(ci) / baseline_vision_flops(ci)["total"]
        assert observed_rel * 100 == pytest.approx(rel, abs=0.05)

    def test_update_remainders(self):
        # what survives freezing: the per-layer KV projection + read cost
        for ci, remainder in ((CI_3B, 0.49), (CI_7B, 1.24), (CI_13B, 2.43)):
            update, _ = visual_update_flops(ci)
            total = baseline_vision_flops(ci)["total"]
            assert tflops(total - update) == pytest.approx(remainder, abs=0.005)

    def test_kv_cache_fractions(self):
        for name, ci, pct in (
            ("vica3b", CI_3B, 28.1),
            ("vica7b", CI_7B, 25.0),
            ("vica13b", CI_13B, 20.0),
        ):
            frac = kv_cache_fraction(schedule_preset(name), ci)
            assert frac * 100 == pytest.approx(pct, abs=0.05)

    def test_projector_to_cross_ratio(self):
        assert projector_to_cross_ratio(CI_7B) == pytest.approx(204.8, abs=0.05)
        assert projector_to_cross_ratio(CI_3B) == pytest.approx(128.0, abs=0.05)

    def test_quarter_depth_halving(self):
        sched = PolicySchedule.baseline(32).with_drops(pdrop_baseline_events(32))
        counts = resolved_vision_counts(sched, preset_inputs("llava7b", 0))
        assert sorted(set(counts)) == [72, 144, 288, 576]
        assert sum(counts) / len(counts) == pytest.approx(270.0, abs=1e-9)

    def test_sparse_plus_drop_composite(self):
        sched = schedule_preset("vica7b+pdrop")
        vis = schedule_vision_flops(sched, CI_7B)
        assert tflops(vis) == pytest.approx(0.18, abs=0.005)
        assert kv_cache_fraction(sched, CI_7B) * 100 == pytest.approx(14.7, abs=0.05)

    def test_formatting(self):
        assert fmt_tflops(vica_vision_flops(CI_7B)) == "0.31"
        assert fmt_tflops(0) == "0.00"


def exact_quantities(name):
    """The closed forms of a preset at GOLDEN_LAYOUT, or ``count_forward_macs``
    at the ``vica bench`` desk geometry for ``name == "desk"``."""
    if name == "desk":
        desk = ModelConfig(32, 32, 256, 688, max_seq=631)
        return {
            f"{sched} {path}": count_forward_macs(
                desk, GOLDEN_LAYOUT, parse_schedule(sched, 32), path
            )
            for sched in ("baseline", "vica7b", "vica7b+pdrop")
            for path in ("engine", "fast")
            if (sched, path) != ("baseline", "fast")
        }
    mc = MODEL_PRESETS[name]
    ci = CostInputs(mc.n_layers, mc.d_model, mc.d_ffn, n=576)
    vica = next(v for v, (backbone, *_) in SPARSE_PRESETS.items() if backbone == name)
    out = {"total": total_flops(ci), "text_only": text_only_flops(ci)}
    out.update({f"baseline_vision_{k}": v for k, v in baseline_vision_flops(ci).items()})
    for sched in (vica, vica + "+pdrop", "baseline+pdrop"):
        out[sched] = schedule_vision_flops(parse_schedule(sched, mc.n_layers), ci)
    return out


class TestExactIntegers:
    # Every figure to the last FLOP (MAC for "desk"): the golden table's
    # two decimals would miss a drift of billions.
    PINNED = {
        "llava3b": {
            "total": 3_332_862_443_520,
            "text_only": 280_122_163_200,
            "baseline_vision_projections": 966_367_641_600,
            "baseline_vision_attention": 119_097_262_080,
            "baseline_vision_ffn": 1_956_894_474_240,
            "baseline_vision_total": 3_042_359_377_920,
            "vica3b": 136_957_132_800,
            "vica3b+pdrop": 75_849_523_200,
            "baseline+pdrop": 1_411_242_393_600,
        },
        "llava7b": {
            "total": 8_381_469_818_880,
            "text_only": 713_946_562_560,
            "baseline_vision_projections": 2_473_901_162_496,
            "baseline_vision_attention": 190_555_619_328,
            "baseline_vision_ffn": 4_986_457_030_656,
            "baseline_vision_total": 7_650_913_812_480,
            "vica7b": 310_747_594_752,
            "vica7b+pdrop": 182_685_597_696,
            "baseline+pdrop": 3_562_584_145_920,
        },
        "llava13b": {
            "total": 16_338_138_726_400,
            "text_only": 1_398_132_736_000,
            "baseline_vision_projections": 4_831_838_208_000,
            "baseline_vision_attention": 297_743_155_200,
            "baseline_vision_ffn": 9_784_472_371_200,
            "baseline_vision_total": 14_914_053_734_400,
            "vica13b": 485_071_257_600,
            "vica13b+pdrop": 296_537_702_400,
            "baseline+pdrop": 6_953_803_776_000,
        },
        "desk": {
            "baseline engine": 22_489_415_680,
            "vica7b engine": 2_153_906_176,
            "vica7b fast": 2_153_906_176,
            "vica7b+pdrop engine": 1_895_554_816,
            "vica7b+pdrop fast": 1_895_554_816,
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name):
        assert exact_quantities(name) == self.PINNED[name]


class TestFormulaProperties:
    def test_component_additivity(self):
        for ci in (CI_3B, CI_7B, CI_13B):
            parts = baseline_vision_flops(ci)
            assert parts["projections"] + parts["attention"] + parts["ffn"] == parts["total"]

    def test_all_counts_are_even_integers(self):
        # MAC-to-FLOP doubling means every figure is an even integer
        for ci in (CI_3B, CI_7B):
            assert baseline_vision_flops(ci)["total"] % 2 == 0
            assert total_flops(ci) % 2 == 0
            assert vica_vision_flops(ci) % 2 == 0

    def test_vica_total_decomposes(self):
        for ci in (CI_3B, CI_7B, CI_13B):
            assert vica_total_flops(ci) == text_only_flops(ci) + vica_vision_flops(ci)

    def test_near_linearity_in_small_n(self):
        # below n = d/10 the quadratic attention term contributes < 5%
        base = CostInputs(32, 4096, 11008, n=1)
        per_token = baseline_vision_flops(base)["total"]
        for n in (2, 64, 256, 409):
            ci = CostInputs(32, 4096, 11008, n=n)
            actual = baseline_vision_flops(ci)["total"]
            assert actual / (n * per_token) < 1.05

    def test_monotonicity(self):
        grid = [CostInputs(32, 4096, 11008, n=n) for n in (16, 64, 256, 576)]
        costs = [baseline_vision_flops(ci)["total"] for ci in grid]
        assert costs == sorted(costs) and len(set(costs)) == len(costs)
        deeper = CostInputs(40, 4096, 11008, n=576)
        assert baseline_vision_flops(deeper)["total"] > costs[-1]

    def test_equivalent_tokens_round_trip(self):
        ci = CostInputs(32, 4096, 11008, n=576)
        for n in range(1, 1025):
            exact = baseline_vision_flops(
                CostInputs(32, 4096, 11008, n=n)
            )["total"]
            assert equivalent_token_count(ci, exact) == n

    def test_equivalent_tokens_monotone_in_flops(self):
        ci = CostInputs(32, 4096, 11008, n=576)
        budgets = [10**12, 3 * 10**12, 10**13]
        counts = [equivalent_token_count(ci, b) for b in budgets]
        assert counts == sorted(counts)

    def test_no_vision_degenerate(self):
        ci = CostInputs(32, 4096, 11008, n=0)
        assert baseline_vision_flops(ci)["total"] == 0
        assert visual_update_flops(ci) == (0, None)
        assert projector_to_cross_ratio(ci) is None
        assert vica_vision_flops(ci) == 0
        assert total_flops(ci) == text_only_flops(ci) + 0

    def test_schedule_flops_consistency(self):
        ci = CI_7B
        sparse = schedule_preset("vica7b")
        assert schedule_vision_flops(sparse, ci) == vica_vision_flops(ci)
        full = PolicySchedule.baseline(32)
        assert schedule_vision_flops(full, ci) == baseline_vision_flops(ci)["total"]
        blind = PolicySchedule.text_only(32)
        assert schedule_vision_flops(blind, ci) == 0
        assert kv_cache_fraction(blind, ci) == 0.0
        assert kv_cache_fraction(full, ci) == 1.0

    def test_freeze_everywhere_matches_update_remainder(self):
        # freezing all layers leaves exactly the non-update share of vision cost
        for ci_all in (CI_3B, CI_7B, CI_13B):
            ci = CostInputs(
                ci_all.n_layers, ci_all.d, ci_all.m, n=576,
                n_retained=ci_all.n_layers,
            )
            update, _ = visual_update_flops(ci)
            assert (
                baseline_vision_flops(ci)["total"] - update
                == vica_vision_flops(ci)
            )


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CostInputs(0, 4096, 11008, n=576)
        with pytest.raises(ValueError):
            CostInputs(32, 4096, 11008, n=-1)
        with pytest.raises(ValueError):
            CostInputs(32, 4096, 11008, n=576, n_retained=33)

    def test_schedule_length_checked(self):
        with pytest.raises(ValueError):
            schedule_vision_flops(PolicySchedule.baseline(31), CI_7B)

    @pytest.mark.parametrize("n", [0, 576])
    def test_kv_fraction_checks_schedule_length_without_vision(self, n):
        with pytest.raises(ValueError, match="spans 31 layers"):
            kv_cache_fraction(PolicySchedule.baseline(31), CostInputs(32, 4096, 11008, n=n))
