"""Mask construction and attention-path tests.

The loop oracle here recomputes attention element by element so the
vectorized paths in the package are checked against arithmetic that shares
no code with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vica import attention
from vica.attention import (
    _ROW_BLOCK,
    TokenLayout,
    asymmetric_cross_attention,
    attention_weights,
    bottom_right_causal_allowed,
    bottom_right_mask,
    build_baseline_mask,
    build_cross_mask,
    masked_attention_oracle,
)
from vica.numerics import ShapeError, row_softmax


def attention_loop_oracle(q, k, v, allowed, n_heads):
    """Elementwise reference attention, python floats only."""
    t, d = q.shape
    kv = k.shape[0]
    dh = d // n_heads
    out = np.zeros((t, d))
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        for i in range(t):
            cols = [j for j in range(kv) if allowed[i, j]]
            if not cols:
                continue
            scores = []
            for j in cols:
                s = sum(q[i, c] * k[j, c] for c in range(lo, hi))
                scores.append(s / math.sqrt(dh))
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            for j, e in zip(cols, exps):
                w = e / z
                for c in range(lo, hi):
                    out[i, c] += w * v[j, c]
    return out


# (n vision keys, t queries): small layouts; then no queries, one row block
# at its edges (63..65 rows), two blocks (128, 129; the second starts at row
# 64) and three (200; blocks start at rows 66 and 133)
GRID_CASES = [(n, t) for n in range(0, 9, 2) for t in range(1, 9, 2)]
GRID_CASES += [(n, t) for n in (0, 7) for t in (0, 63, 64, 65, 128, 129)]
GRID_CASES += [(5, 200)]


def _force_heads_per_group(monkeypatch, n, t, per_group):
    """Shrink the kernel's score tile so the last row block, whose tile is the
    largest, runs ``per_group`` heads per group. Each block sizes its own
    groups, so an earlier block, with fewer keys, runs at least as many."""
    n_blocks = max(1, t // _ROW_BLOCK)
    rows = t - (n_blocks - 1) * t // n_blocks
    monkeypatch.setattr(attention, "_TILE", per_group * max(1, rows) * (n + t))


def _score_bound(q, k, n_heads):
    """The causal kernel's bound on the size of every score it forms."""
    d_head = q.shape[1] // n_heads
    return d_head * np.abs(q / math.sqrt(d_head)).max() * np.abs(k).max()


def _exp_limit(dtype):
    """Largest score bound at which the causal kernel skips the max shift."""
    return math.log(np.finfo(dtype).max) / 4


def _check_grid(rng, d, n_heads, dtype, atol, monkeypatch=None, heads_per_group=None,
                qk_scale=1.0):
    for n, t in GRID_CASES:
        if monkeypatch is not None:
            _force_heads_per_group(monkeypatch, n, t, heads_per_group)
        q = rng.standard_normal((t, d)) * qk_scale
        k = rng.standard_normal((n + t, d)) * qk_scale
        v = rng.standard_normal((n + t, d))
        if qk_scale != 1.0 and t > 0:
            assert _score_bound(q, k, n_heads) > _exp_limit(np.float64)
        fast = asymmetric_cross_attention(
            q.astype(dtype), k.astype(dtype), v.astype(dtype), n_heads
        )
        assert fast.shape == (t, d) and fast.dtype == dtype
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, bottom_right_mask(t, n + t), n_heads),
            atol=atol, err_msg=f"n={n} t={t}",
        )


class TestTokenLayout:
    def test_text_total(self):
        layout = TokenLayout(n_vision=4, t_system=2, t_question=3)
        assert layout.n_text == 5
        assert layout.total == 9

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TokenLayout(n_vision=-1, t_system=0, t_question=1)


class TestBottomRightRule:
    def test_square_equals_plain_causal(self):
        for i in range(4):
            for j in range(4):
                assert bottom_right_causal_allowed(i, j, 4, 4) == (j <= i)

    def test_two_queries_over_five_keys(self):
        # offset 3: row 0 sees keys 0..3, row 1 sees all five
        assert [bottom_right_causal_allowed(0, j, 2, 5) for j in range(5)] == [
            True, True, True, True, False,
        ]
        assert all(bottom_right_causal_allowed(1, j, 2, 5) for j in range(5))

    def test_single_query_sees_everything(self):
        assert all(bottom_right_causal_allowed(0, j, 1, 6) for j in range(6))

    def test_more_queries_than_keys_rejected(self):
        with pytest.raises(ValueError):
            bottom_right_causal_allowed(0, 0, 3, 2)
        with pytest.raises(ValueError):
            bottom_right_mask(3, 2)

    def test_matrix_matches_scalar_rule(self):
        mask = bottom_right_mask(3, 7)
        for i in range(3):
            for j in range(7):
                assert mask[i, j] == bottom_right_causal_allowed(i, j, 3, 7)


class TestBaselineMask:
    def test_no_vision_is_lower_triangular(self):
        mask = build_baseline_mask(TokenLayout(0, 1, 2))
        assert np.array_equal(mask, np.tril(np.ones((3, 3), dtype=bool)))

    def test_small_layout_rows(self):
        mask = build_baseline_mask(TokenLayout(2, 1, 1))
        expected = np.array(
            [
                [1, 0, 0, 0],
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [1, 1, 1, 1],
            ],
            dtype=bool,
        )
        assert np.array_equal(mask, expected)

    def test_allowed_count(self):
        # 6 tokens causal: 6*7/2 = 21 permitted pairs
        mask = build_baseline_mask(TokenLayout(3, 2, 1))
        assert int(mask.sum()) == 21

    @given(st.integers(0, 12), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_vision_rows_never_see_text(self, n, ts, tq):
        layout = TokenLayout(n, ts, tq)
        mask = build_baseline_mask(layout)
        assert not mask[: layout.n_vision, layout.n_vision :].any()


class TestCrossMask:
    def test_small_layout_rows(self):
        mask = build_cross_mask(TokenLayout(2, 1, 1))
        expected = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        assert np.array_equal(mask, expected)

    def test_no_vision_equals_causal(self):
        layout = TokenLayout(0, 2, 2)
        with_vision = build_cross_mask(layout)
        text_only = bottom_right_mask(4, 4)
        causal = np.tril(np.ones((4, 4), dtype=bool))
        assert np.array_equal(with_vision, causal)
        assert np.array_equal(text_only, causal)

    def test_is_bottom_slice_of_baseline(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            layout = TokenLayout(
                int(rng.integers(0, 10)), int(rng.integers(0, 5)), int(rng.integers(1, 5))
            )
            full = build_baseline_mask(layout)
            cross = build_cross_mask(layout)
            assert np.array_equal(cross, full[layout.n_vision :, :])

    @given(st.integers(0, 10), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_slice_identity_property(self, n, ts, tq):
        layout = TokenLayout(n, ts, tq)
        full = build_baseline_mask(layout)
        cross = build_cross_mask(layout)
        assert np.array_equal(cross, full[n:, :])


class TestMaskedAttentionOracle:
    def test_diagonal_mask_returns_values(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((4, 6))
        v = rng.standard_normal((4, 6))
        mask = np.eye(4, dtype=bool)
        out = masked_attention_oracle(q, k, v, mask, n_heads=2)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_zero_queries_average_permitted_values(self):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        allowed = np.array([[True, True, False, True, False]])
        out = masked_attention_oracle(np.zeros((1, 4)), k, v, allowed, 1)
        np.testing.assert_allclose(out[0], v[[0, 1, 3]].mean(axis=0), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((7, 8))
        v = rng.standard_normal((7, 8))
        allowed = rng.random((5, 7)) < 0.6
        allowed[:, 0] = True
        out = masked_attention_oracle(q, k, v, allowed, n_heads=2)
        expected = attention_loop_oracle(q, k, v, allowed, n_heads=2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError):
            masked_attention_oracle(
                np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 4)),
                np.ones((2, 2), dtype=bool), 1,
            )

    def test_weights_are_head_averaged_and_row_stochastic(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((6, 8))
        w = attention_weights(q, k, n_heads=4)
        assert w.shape == (3, 6)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_weights_equal_per_head_loop(self):
        # one query row, as the engine scores drops, and several: bit-equal to
        # summing the per-head softmaxes in head order
        rng = np.random.default_rng(4)
        k = rng.standard_normal((40, 64))
        for rows in (1, 3, 7):
            q = rng.standard_normal((rows, 64))
            acc = np.zeros((rows, 40))
            for h in range(8):
                cols = slice(h * 8, (h + 1) * 8)
                acc += row_softmax(q[:, cols] @ k[:, cols].T, scale=1 / math.sqrt(8))
            assert np.array_equal(attention_weights(q, k, n_heads=8), acc / 8)

    def test_weights_shapes_checked(self):
        with pytest.raises(ShapeError):
            attention_weights(np.zeros((2, 8)), np.zeros((3, 16)), 4)
        with pytest.raises(ShapeError):
            attention_weights(np.zeros((2, 8)), np.zeros((3, 8)), 3)

    def test_weights_float32_in_float32_out(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((6, 8))
        w32 = attention_weights(q.astype(np.float32), k.astype(np.float32), n_heads=4)
        assert w32.dtype == np.float32
        np.testing.assert_allclose(w32, attention_weights(q, k, n_heads=4), atol=1e-6)


class TestAsymmetricCrossAttention:
    def test_no_vision_equals_causal_self_attention(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        fast = asymmetric_cross_attention(q, k, v, n_heads=2)
        mask = np.tril(np.ones((5, 5), dtype=bool))
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, mask, 2), atol=1e-12
        )

    def test_single_query_is_unmasked_attention(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((1, 4))
        k = rng.standard_normal((9, 4))
        v = rng.standard_normal((9, 4))
        fast = asymmetric_cross_attention(q, k, v, n_heads=1)
        mask = np.ones((1, 9), dtype=bool)
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, mask, 1), atol=1e-12
        )

    def test_seeded_case_matches_oracle(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((6 + 4, 8))
        v = rng.standard_normal((6 + 4, 8))
        fast = asymmetric_cross_attention(q, k, v, n_heads=2)
        mask = bottom_right_mask(4, 10)
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, mask, 2), atol=1e-12
        )

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_grid_against_oracle(self, n_heads):
        rng = np.random.default_rng(7)
        _check_grid(rng, d=8, n_heads=n_heads, dtype=np.float64, atol=1e-12)

    @pytest.mark.parametrize("dtype, qk_scale, atol", [
        (np.float64, 30.0, 1e-12), (np.float32, 8.0, 1e-4),
    ])
    def test_grid_above_exp_limit_against_oracle(self, dtype, qk_scale, atol):
        # Every case's score bound exceeds both limits: the max-shifted path.
        # Scores reach past exp's range in the dtype, so unshifted they overflow.
        rng = np.random.default_rng(11)
        _check_grid(rng, d=8, n_heads=2, dtype=dtype, atol=atol, qk_scale=qk_scale)

    @pytest.mark.parametrize("big", [10.0, 3000.0])
    def test_masked_keys_scoring_far_above_visible_ones(self, big):
        # Each row's masked keys, its future text keys, score big / sqrt(d)
        # against ~0 for its permitted ones. At 3000 the bound exceeds the
        # limit, and a max shift taken over the masked entries would underflow
        # every permitted weight to 0.
        n, t = 3, 6
        mask = bottom_right_mask(t, n + t)
        rng = np.random.default_rng(12)
        q = ~mask + 0.01 * rng.standard_normal((t, n + t))
        k = big * np.eye(n + t) + 0.01 * rng.standard_normal((n + t, n + t))
        v = rng.standard_normal((n + t, n + t))
        assert (_score_bound(q, k, 1) > _exp_limit(np.float64)) == (big > 100)
        np.testing.assert_allclose(
            asymmetric_cross_attention(q, k, v, 1),
            masked_attention_oracle(q, k, v, mask, 1), atol=1e-12,
        )

    def test_bound_just_under_float64_limit(self):
        # |q| and |k| constant, so the aligned and opposed pairs score the
        # bound itself: unnormalised weights reach exp(+-177) unshifted
        n, t, d, n_heads = 7, 70, 16, 4
        rng = np.random.default_rng(13)
        q = rng.choice([-1.0, 1.0], size=(t, d))
        k = rng.choice([-1.0, 1.0], size=(n + t, d))
        k *= 0.999 * _exp_limit(np.float64) / _score_bound(q, k, n_heads)
        v = rng.standard_normal((n + t, d))
        assert 0.99 < _score_bound(q, k, n_heads) / _exp_limit(np.float64) < 1.0
        fast = asymmetric_cross_attention(q, k, v, n_heads)
        mask = bottom_right_mask(t, n + t)
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, mask, n_heads), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("operand, row, col", [("q", 3, 5), ("k", 2, 9), ("k", 9, 1)])
    def test_nan_in_q_or_k_gives_nan_output(self, operand, row, col):
        n, t, n_heads = 4, 8, 2
        rng = np.random.default_rng(14)
        q = rng.standard_normal((t, 12))
        k = rng.standard_normal((n + t, 12))
        v = rng.standard_normal((n + t, 12))
        {"q": q, "k": k}[operand][row, col] = np.nan
        fast = asymmetric_cross_attention(q, k, v, n_heads)
        ref = masked_attention_oracle(q, k, v, bottom_right_mask(t, n + t), n_heads)
        assert np.isnan(fast).any()
        assert np.array_equal(np.isnan(fast), np.isnan(ref))
        np.testing.assert_allclose(fast, ref, atol=1e-12)

    def test_uneven_head_groups_match_oracle(self, monkeypatch):
        # 5 heads in 3 groups (1 + 2 + 2) in the last row block of every grid
        # case; the earlier blocks of t >= 128 run 3, 2 (2 + 3) or 1 group
        rng = np.random.default_rng(8)
        _check_grid(rng, d=10, n_heads=5, dtype=np.float64, atol=1e-12,
                    monkeypatch=monkeypatch, heads_per_group=2)

    def test_uneven_head_groups_float32(self, monkeypatch):
        # two row blocks: 5 heads in 2 groups (2 + 3) in the second, 1 in the first
        rng = np.random.default_rng(9)
        n, t, n_heads = 7, 129, 5
        _force_heads_per_group(monkeypatch, n, t, 3)
        q = rng.standard_normal((t, 10))
        k = rng.standard_normal((n + t, 10))
        v = rng.standard_normal((n + t, 10))
        fast = asymmetric_cross_attention(
            q.astype(np.float32), k.astype(np.float32), v.astype(np.float32), n_heads
        )
        assert fast.dtype == np.float32
        np.testing.assert_allclose(
            fast, masked_attention_oracle(q, k, v, bottom_right_mask(t, n + t), n_heads),
            atol=1e-5,
        )

    @pytest.mark.parametrize("n, t", [(576, 55), (0, 631), (0, 200), (7, 129)])
    def test_one_head_per_group_equals_default_grouping(self, monkeypatch, n, t):
        rng = np.random.default_rng(10)
        q = rng.standard_normal((t, 256))
        k = rng.standard_normal((n + t, 256))
        v = rng.standard_normal((n + t, 256))
        grouped = asymmetric_cross_attention(q, k, v, 32)
        monkeypatch.setattr(attention, "_TILE", 1)
        assert np.array_equal(asymmetric_cross_attention(q, k, v, 32), grouped)

    def test_too_many_queries_rejected(self):
        with pytest.raises(ShapeError):
            asymmetric_cross_attention(
                np.zeros((4, 8)), np.zeros((3, 8)), np.zeros((3, 8)), 2
            )
