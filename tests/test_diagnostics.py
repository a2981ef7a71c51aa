"""Divergence measures, per-layer ablation sweeps, and regime partitioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vica.diagnostics as diagnostics_module
import vica.model as model_module
from vica.diagnostics import (
    ImpactReport,
    cosine_change,
    kl_divergence,
    layer_sweep,
    next_token_distribution,
    partition_regimes,
)
from vica.model import (
    WRITE_PATH_KINDS,
    LayerPolicy,
    ModelConfig,
    PolicyMode,
    PolicySchedule,
    forward,
    forward_baseline_masked_oracle,
    init_model,
    schedule_to_disabled_paths,
)


def random_distribution(rng, k):
    p = rng.random(k) + 1e-3
    return p / p.sum()


class TestKlDivergence:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_distribution(rng, 7)
            assert kl_divergence(p, p) == 0.0

    def test_hand_values(self):
        # KL([1,0] || [.5,.5]) = log 2; zero-probability rows drop out of the sum
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-9
        )
        # 0.5*log(0.5/0.9) + 0.5*log(0.5/0.1) = log(5/3)
        assert kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
            math.log(5.0 / 3.0), abs=1e-9
        )

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            p, q = random_distribution(rng, k), random_distribution(rng, k)
            assert kl_divergence(p, q) >= 0.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            kl_divergence([1.1, -0.1], [0.5, 0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.4], [0.5, 0.5])

    @pytest.mark.parametrize("p, q", [
        ([math.nan, 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [math.nan, 0.5]),
        ([math.nan, math.nan], [0.5, 0.5]),
        ([0.5, 0.5], [math.inf, 0.5]),
    ])
    def test_rejects_non_finite(self, p, q):
        # a NaN sum compares false against the tolerance, so it must fail it
        with pytest.raises(ValueError):
            kl_divergence(p, q)

    def test_floor_only_engages_on_tiny_entries(self):
        # a genuinely zero reference entry gets floored instead of exploding
        v = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(v) and v > 10.0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, a, b):
        k = min(len(a), len(b))
        p = np.asarray(a[:k]) / sum(a[:k])
        q = np.asarray(b[:k]) / sum(b[:k])
        assert kl_divergence(p, q) >= 0.0


class TestCosineChange:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 8))
        r = cosine_change(x, x)
        assert r.mean == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_is_two(self):
        x = np.ones((3, 4))
        r = cosine_change(x, -x)
        assert r.mean == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        a = cosine_change(x, y).mean
        b = cosine_change(2.5 * x, 0.3 * y).mean
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_norm_rows_are_skipped(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 1.0]])
        r = cosine_change(x, y)
        assert r.skipped == 1
        assert r.mean == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_rows(self, bad, side):
        # such a row's norm is not finite: it must not be skipped as zero-norm
        rows = [np.ones((3, 4)), np.ones((3, 4))]
        rows[side][1, 2] = bad
        with pytest.raises(ValueError):
            cosine_change(*rows)

    def test_empty_input(self):
        r = cosine_change(np.empty((0, 4)), np.empty((0, 4)))
        assert r.mean == 0.0 and r.skipped == 0


class TestLayerSweep:
    CFG = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)

    def make_batch(self, seed, count=2, n=5, t=4):
        rng = np.random.default_rng(seed)
        return [
            (rng.standard_normal((n, 8)), rng.standard_normal((t, 8)))
            for _ in range(count)
        ]

    def test_report_shape_and_determinism(self):
        w = init_model(self.CFG, seed=0)
        batch = self.make_batch(1)
        a = layer_sweep(w, batch, "t2v_read")
        b = layer_sweep(w, batch, "t2v_read")
        assert a.layers == list(range(3))
        assert a.kl == b.kl
        assert len(a.kl) == 3 and all(v >= 0.0 for v in a.kl)

    def test_ablation_on_already_disabled_path_is_zero(self):
        # schedule context: TextOnly layers have no read to ablate
        w = init_model(self.CFG, seed=0)
        batch = self.make_batch(2)
        sched = PolicySchedule.sparse_cross(3, {1})
        report = layer_sweep(w, batch, "t2v_read", schedule=sched)
        assert report.kl[0] == 0.0
        assert report.kl[2] == 0.0
        assert report.kl[1] > 0.0

    def test_write_sweep_under_frozen_context_is_identically_zero(self):
        # frozen schedules never write vision rows, so there is nothing to ablate
        w = init_model(self.CFG, seed=0)
        batch = self.make_batch(3)
        sched = PolicySchedule.sparse_cross(3, {0})
        for path in ("vis_attn_write", "vis_ffn_write"):
            report = layer_sweep(w, batch, path, schedule=sched)
            assert report.kl == [0.0, 0.0, 0.0]

    def test_write_ablation_matters_under_baseline(self):
        w = init_model(self.CFG, seed=0)
        batch = self.make_batch(4)
        report = layer_sweep(w, batch, "vis_attn_write")
        # under the default all-baseline context, early writes reach the text
        assert any(v > 0.0 for v in report.kl)
        assert all(c >= 0.0 for c in report.one_minus_cos)

    def test_last_layer_write_is_unreadable(self):
        # a write at the final layer is never read afterwards
        w = init_model(self.CFG, seed=0)
        batch = self.make_batch(5)
        for path in ("vis_attn_write", "vis_ffn_write"):
            report = layer_sweep(w, batch, path)
            assert report.kl[2] == 0.0

    # ablated runs resume from the base trace: the same KLs for less work
    CFG4 = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
    BASES = {
        "baseline": PolicySchedule.baseline(4),
        "sparse_0_2": PolicySchedule.sparse_cross(4, {0, 2}),
        "freeze_vis": PolicySchedule.freeze_vis(4),
    }

    @pytest.mark.parametrize("base_name", sorted(BASES))
    @pytest.mark.parametrize("path", WRITE_PATH_KINDS)
    def test_kl_equals_direct_ablation_exactly(self, path, base_name):
        sched = self.BASES[base_name]
        w = init_model(self.CFG4, seed=7)
        batch = self.make_batch(11)
        base = schedule_to_disabled_paths(sched)
        report = layer_sweep(w, batch, path, schedule=sched)
        for l in range(4):
            total = 0.0
            for ve, te in batch:
                intact = forward_baseline_masked_oracle(w, ve, te, base)
                ablated = forward_baseline_masked_oracle(w, ve, te, base | {f"{path}@{l}"})
                total += kl_divergence(
                    next_token_distribution(intact), next_token_distribution(ablated)
                )
            assert report.kl[l] == total / len(batch), (path, base_name, l)
        if path == "t2v_read" or base_name == "baseline":
            # the ablation reaches the output somewhere, so equality is not 0 == 0
            assert max(report.kl) > 0.0

    CFG2 = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)

    @pytest.mark.parametrize("path", ["vis_attn_write", "vis_ffn_write"])
    def test_kl_equals_direct_ablation_with_two_layers(self, path, monkeypatch):
        # a write at layer 0 resumes on the last layer alone, in its text
        # rows; a write at layer 1 runs no layer
        w = init_model(self.CFG2, seed=7)
        n, t = 5, 4
        batch = self.make_batch(16, n=n, t=t)
        direct = [
            sum(kl_divergence(
                next_token_distribution(forward_baseline_masked_oracle(w, ve, te)),
                next_token_distribution(forward_baseline_masked_oracle(w, ve, te, {f"{path}@{l}"})),
            ) for ve, te in batch) / len(batch)
            for l in range(2)
        ]
        attention_rows: list[int] = []
        attention_oracle = model_module.masked_attention_oracle

        def spy_attention(q, *args, **kwargs):
            attention_rows.append(q.shape[0])
            return attention_oracle(q, *args, **kwargs)

        monkeypatch.setattr(model_module, "masked_attention_oracle", spy_attention)
        report = layer_sweep(w, batch, path)
        assert report.kl == direct
        assert report.kl[0] > 0.0 and report.kl[1] == 0.0
        assert attention_rows == [n + t, n + t, t] * len(batch)

    @pytest.mark.parametrize("base_name", sorted(BASES))
    @pytest.mark.parametrize("path", WRITE_PATH_KINDS)
    def test_referee_work_per_sweep(self, path, base_name, monkeypatch):
        # each ablated run recomputes only the rows and layers it can reach
        sched = self.BASES[base_name]
        calls = {"forward": 0}
        attention_rows: list[int] = []

        def spy_forward(*args, **kwargs):
            calls["forward"] += 1
            return forward_oracle(*args, **kwargs)

        def spy_attention(q, *args, **kwargs):
            attention_rows.append(q.shape[0])
            return attention_oracle(q, *args, **kwargs)

        forward_oracle = diagnostics_module.forward_baseline_masked_oracle
        attention_oracle = model_module.masked_attention_oracle
        monkeypatch.setattr(diagnostics_module, "forward_baseline_masked_oracle", spy_forward)
        monkeypatch.setattr(model_module, "masked_attention_oracle", spy_attention)
        w = init_model(self.CFG4, seed=7)
        n, t = 5, 4
        batch = self.make_batch(12, count=3, n=n, t=t)
        layer_sweep(w, batch, path, schedule=sched)
        base = schedule_to_disabled_paths(sched)
        swept = [l for l in range(4) if f"{path}@{l}" not in base]
        assert calls["forward"] == len(batch)
        if path == "t2v_read":
            # base run: L full-row layers; then text rows only from l on
            full, text = 4, sum(4 - l for l in swept)
        else:
            # base run: L full-row layers; then full rows from l + 1 on but
            # text rows alone at the last layer, and nothing for l = L - 1
            full, text = 4 + sum(2 - l for l in swept if l <= 2), sum(l <= 2 for l in swept)
        assert attention_rows.count(n + t) == len(batch) * full
        assert attention_rows.count(t) == len(batch) * text
        assert len(attention_rows) == len(batch) * (full + text)

    @pytest.mark.parametrize("path", ["vis_attn_write", "vis_ffn_write"])
    def test_last_layer_write_runs_no_referee_layer(self, path, monkeypatch):
        # a base that writes vision rows at the last layer only: the one
        # swept write is never read, so it costs no layer and measures 0
        sched = PolicySchedule(
            (LayerPolicy(PolicyMode.FREEZE_VIS),) * 3 + (LayerPolicy(PolicyMode.BASELINE),)
        )
        calls = {"masked_attention_oracle": 0, "gated_ffn": 0}

        def spy(name):
            fn = getattr(model_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(model_module, name, spy(name))
        w = init_model(self.CFG4, seed=7)
        batch = self.make_batch(14, count=2)
        report = layer_sweep(w, batch, path, schedule=sched)
        assert calls["masked_attention_oracle"] == len(batch) * 4  # the base runs alone
        assert calls["gated_ffn"] == len(batch) * 4
        assert report.kl == [0.0, 0.0, 0.0, 0.0]

    def test_empty_input_list_is_rejected_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("layer_sweep ran a forward")

        monkeypatch.setattr(diagnostics_module, "forward_baseline_masked_oracle", fail)
        w = init_model(self.CFG4, seed=7)
        for path in WRITE_PATH_KINDS:
            with pytest.raises(ValueError, match="at least one input"):
                layer_sweep(w, [], path)

    # the ablation_sweep benchmark's geometry: 8 layers, 4 heads, d=64,
    # 64 vision + 24 text tokens, 4 inputs
    CFG8 = ModelConfig(n_layers=8, n_heads=4, d_model=64, d_ffn=128, max_seq=88)
    BASES8 = {
        "baseline": PolicySchedule.baseline(8),
        "sparse_0_3_5": PolicySchedule.sparse_cross(8, {0, 3, 5}),
        "freeze_vis": PolicySchedule.freeze_vis(8),
    }

    @pytest.mark.parametrize("base_name", sorted(BASES8))
    def test_sweep_equals_direct_ablation_at_benchmark_geometry(self, base_name):
        sched = self.BASES8[base_name]
        w = init_model(self.CFG8, seed=3)
        rng = np.random.default_rng(21)
        n = 64
        batch = [(rng.standard_normal((n, 64)), rng.standard_normal((24, 64))) for _ in range(4)]
        base = schedule_to_disabled_paths(sched)
        intact = [forward_baseline_masked_oracle(w, ve, te, base, record_trace=True)
                  for ve, te in batch]
        rows = {  # (before, after) rows of the host sublayer in the intact run
            "vis_attn_write": lambda e: (e.h_pre_attn[:n], e.h_post_attn[:n]),
            "vis_ffn_write": lambda e: (e.h_post_attn[:n], e.h_post_ffn[:n]),
            "t2v_read": lambda e: (e.h_pre_attn[n:], e.h_post_attn[n:]),
        }
        for path in WRITE_PATH_KINDS:
            report = layer_sweep(w, batch, path, schedule=sched)
            for l in range(8):
                kl_total = cos_total = 0.0
                for (ve, te), run in zip(batch, intact):
                    ablated = forward_baseline_masked_oracle(w, ve, te, base | {f"{path}@{l}"})
                    kl_total += kl_divergence(
                        next_token_distribution(run), next_token_distribution(ablated)
                    )
                    cos_total += cosine_change(*rows[path](run.trace[l])).mean
                assert report.kl[l] == kl_total / len(batch), (path, base_name, l)
                assert report.one_minus_cos[l] == cos_total / len(batch), (path, base_name, l)
            if path == "t2v_read" or base_name == "baseline":
                assert max(report.kl) > 0.0

    @pytest.mark.parametrize("base_name", sorted(BASES))
    @pytest.mark.parametrize("path", WRITE_PATH_KINDS)
    def test_mixed_batch_matches_direct_ablation(self, path, base_name):
        # inputs of different shapes in one sweep, no vision rows, and one
        # text row; a single text row makes NumPy use a matrix-vector
        # product, which rounds differently from the full-stream product
        sched = self.BASES[base_name]
        w = init_model(self.CFG4, seed=7)
        rng = np.random.default_rng(15)
        batch = [
            (rng.standard_normal((n, 8)), rng.standard_normal((t, 8)))
            for n, t in ((3, 2), (0, 4), (6, 1))
        ]
        base = schedule_to_disabled_paths(sched)
        report = layer_sweep(w, batch, path, schedule=sched)
        for l in range(4):
            total = 0.0
            for ve, te in batch:
                intact = forward_baseline_masked_oracle(w, ve, te, base)
                ablated = forward_baseline_masked_oracle(w, ve, te, base | {f"{path}@{l}"})
                total += kl_divergence(
                    next_token_distribution(intact), next_token_distribution(ablated)
                )
            assert report.kl[l] == pytest.approx(total / len(batch), rel=0, abs=1e-12)

    def test_sweep_leaves_inputs_unchanged(self):
        w = init_model(self.CFG4, seed=7)
        batch = self.make_batch(13)
        before = [(ve.copy(), te.copy()) for ve, te in batch]
        for path in WRITE_PATH_KINDS:
            layer_sweep(w, batch, path, schedule=self.BASES["sparse_0_2"])
        for (ve, te), (ve0, te0) in zip(batch, before):
            np.testing.assert_array_equal(ve, ve0)
            np.testing.assert_array_equal(te, te0)

    def test_ranking_orders_by_kl(self):
        report = ImpactReport(
            path="t2v_read",
            layers=[0, 1, 2, 3],
            kl=[0.3, 0.1, 0.3, 0.0],
            one_minus_cos=[0.0, 0.0, 0.0, 0.0],
        )
        assert report.ranking() == [0, 2, 1, 3]

    def test_next_token_distribution(self):
        w = init_model(self.CFG, seed=0)
        ve, te = self.make_batch(6, count=1)[0]
        res = forward(w, ve, te, PolicySchedule.baseline(3))
        p = next_token_distribution(res)
        assert p.shape == (13,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(p) == np.argmax(res.logits[-1])


class TestPartitionRegimes:
    def test_split(self):
        report = ImpactReport(
            path="t2v_read",
            layers=[0, 1, 2, 3],
            kl=[0.3, 0.1, 0.3, 0.0],
            one_minus_cos=[0.0] * 4,
        )
        assert partition_regimes(report, 2) == ([0, 2], [1, 3])
        assert partition_regimes(report, 1) == ([0], [1, 2, 3])
        assert partition_regimes(report, 4) == ([0, 1, 2, 3], [])

    def test_k_bounds(self):
        report = ImpactReport("t2v_read", [0], [0.1], [0.0])
        with pytest.raises(ValueError):
            partition_regimes(report, 2)
        with pytest.raises(ValueError):
            partition_regimes(report, -1)
