"""Kernel tests against independent loop oracles and hand-computed values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vica import numerics
from vica.attention import _ROW_BLOCK, TokenLayout, bottom_right_mask, build_cross_mask
from vica.numerics import (
    MacCounter,
    ShapeError,
    count_macs,
    gated_ffn,
    matmul,
    rms_norm,
    row_softmax,
    silu,
)


def matmul_oracle(a, b):
    """Triple-loop reference product, no vectorization."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def softmax_oracle(scores, allowed, scale):
    """Per-row exp/sum over permitted entries only, no max-subtraction."""
    out = np.zeros_like(scores, dtype=float)
    for i in range(scores.shape[0]):
        cols = [j for j in range(scores.shape[1]) if allowed[i, j]]
        if not cols:
            continue
        exps = [math.exp(scale * scores[i, j]) for j in cols]
        total = sum(exps)
        for j, e in zip(cols, exps):
            out[i, j] = e / total
    return out


def softmax_where_reference(scores, allowed, scale):
    """Full-matrix np.where form of the masked softmax; returns (probs, empty rows)."""
    shifted = np.where(allowed, scores * scale, -np.inf)
    empty = ~allowed.any(axis=1)
    row_max = np.max(np.where(allowed, shifted, -np.inf), axis=1, initial=-np.inf)
    row_max = np.where(empty, 0.0, row_max)
    weights = np.exp(shifted - row_max[:, None])
    denom = np.where(empty, 1.0, weights.sum(axis=1))
    probs = weights / denom[:, None]
    probs[empty] = 0.0
    return probs, np.flatnonzero(empty).tolist()


def _softmax_masks():
    """Masks the engine produces, plus empty rows and masked trailing columns."""
    layout = TokenLayout(200, 7, 12)  # 219 rows: three of the causal kernel's row blocks
    total = layout.total
    causal = bottom_right_mask(total, total)
    t2v_off = causal.copy()
    t2v_off[layout.n_vision :, : layout.n_vision] = False
    empty_row = causal.copy()
    empty_row[70] = False
    empty_block = causal.copy()
    empty_block[64:160] = False  # 96 consecutive empty rows in the middle
    trailing = causal.copy()
    trailing[:, 150:] = False
    return {
        "causal_631": bottom_right_mask(631, 631),
        "causal_219": causal,
        "cross_55x631": bottom_right_mask(55, 631),
        "t2v_read_off": t2v_off,
        "system_blind": build_cross_mask(layout, system_reads_vision=False),
        "empty_row": empty_row,
        "empty_row_block": empty_block,
        "trailing_cols_masked": trailing,
        "one_row": bottom_right_mask(1, 631),
        "one_row_trailing_masked": bottom_right_mask(1, 631) & (np.arange(631) < 300),
    }


def ffn_oracle(h, w_gate, w_up, w_down):
    """Loop evaluation of the gated feed-forward block."""
    rows, d = h.shape
    m = w_gate.shape[1]
    out = np.zeros((rows, d))
    for i in range(rows):
        hidden = np.zeros(m)
        for j in range(m):
            g = sum(h[i, k] * w_gate[k, j] for k in range(d))
            u = sum(h[i, k] * w_up[k, j] for k in range(d))
            hidden[j] = (g / (1.0 + math.exp(-g))) * u
        for j in range(d):
            out[i, j] = sum(hidden[k] * w_down[k, j] for k in range(m))
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(matmul(a, np.eye(4)), a)

    def test_permutation_reorders_rows(self):
        a = np.arange(12.0).reshape(3, 4)
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0
        out = matmul(perm, a)
        assert np.array_equal(out[0], a[2])
        assert np.array_equal(out[1], a[0])
        assert np.array_equal(out[2], a[1])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        c = rng.standard_normal((5, 2))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)

    def test_mac_counting(self):
        counter = MacCounter()
        with count_macs(counter):
            matmul(np.zeros((2, 3)), np.zeros((3, 5)))
        assert counter.macs == 2 * 3 * 5
        # outside the context nothing accumulates
        matmul(np.zeros((2, 3)), np.zeros((3, 5)))
        assert counter.macs == 2 * 3 * 5


class TestRowSoftmax:
    def test_uniform_over_equal_scores(self):
        scores = np.full((2, 4), 3.7)
        out = row_softmax(scores, np.ones((2, 4), dtype=bool), scale=0.9)
        np.testing.assert_allclose(out, 0.25)

    def test_single_permitted_entry_gets_everything(self):
        allowed = np.zeros((1, 5), dtype=bool)
        allowed[0, 3] = True
        out = row_softmax(np.random.default_rng(1).standard_normal((1, 5)), allowed)
        assert out[0, 3] == 1.0
        assert np.count_nonzero(out) == 1

    def test_masked_entries_are_exact_zeros(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((6, 6))
        allowed = rng.random((6, 6)) < 0.5
        allowed[:, 0] = True  # keep every row non-empty
        out = row_softmax(scores, allowed)
        assert np.all(out[~allowed] == 0.0)

    def test_rows_sum_to_one_and_stay_in_range(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((8, 9)) * 30
        allowed = rng.random((8, 9)) < 0.7
        allowed[:, -1] = True
        out = row_softmax(scores, allowed, scale=0.25)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((7, 5)) * 4
        allowed = rng.random((7, 5)) < 0.6
        allowed[:, 2] = True
        expected = softmax_oracle(scores, allowed, scale=0.5)
        np.testing.assert_allclose(row_softmax(scores, allowed, 0.5), expected, atol=1e-12)

    def test_all_masked_row_zeroed_and_flagged(self):
        allowed = np.ones((3, 4), dtype=bool)
        allowed[1] = False
        out = row_softmax(np.ones((3, 4)), allowed)
        assert np.all(out[1] == 0.0)
        np.testing.assert_allclose(out[[0, 2]].sum(axis=1), 1.0)

    def test_scale_applied_before_exp(self):
        scores = np.array([[0.0, 1.0]])
        out = row_softmax(scores, scale=2.0)
        expected = np.exp([0.0, 2.0])
        expected /= expected.sum()
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    @pytest.mark.parametrize("shape", [(0, 5), (0, 0), (3, 0)])
    def test_empty_input_gives_empty_result(self, shape):
        for allowed in (None, np.zeros(shape, dtype=bool)):
            out = row_softmax(np.zeros(shape), allowed, 0.5)
            assert out.shape == shape and out.dtype == np.float64


class TestRowSoftmaxBlocks:
    """row_softmax under the engine's masks against the full-matrix np.where form."""

    MASKS = _softmax_masks()

    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_matches_where_reference(self, name):
        allowed = self.MASKS[name]
        rng = np.random.default_rng(len(name))
        scores = rng.standard_normal(allowed.shape) * 4
        scores_before, allowed_before = scores.copy(), allowed.copy()
        out = row_softmax(scores, allowed, 1 / math.sqrt(8))
        expected, empty = softmax_where_reference(scores, allowed, 1 / math.sqrt(8))
        assert out.shape == scores.shape and out.dtype == np.float64
        assert np.abs(out - expected).max() <= 1e-15
        assert np.all(out[~allowed] == 0.0)
        assert np.all(out[empty] == 0.0)
        assert np.array_equal(scores, scores_before)
        assert np.array_equal(allowed, allowed_before)

    def test_engine_masks_cover_the_cases(self):
        assert self.MASKS["causal_219"].shape[0] // _ROW_BLOCK == 3
        assert not self.MASKS["system_blind"][:7, :200].any()
        assert self.MASKS["system_blind"][7:, :200].all()
        assert not self.MASKS["t2v_read_off"][200:, :200].any()
        assert not self.MASKS["trailing_cols_masked"][:, 150:].any()

    def test_unmasked_spans_several_blocks(self):
        scores = np.random.default_rng(9).standard_normal((200, 130)) * 4
        expected, _ = softmax_where_reference(scores, np.ones(scores.shape, bool), 0.7)
        assert np.abs(row_softmax(scores, scale=0.7) - expected).max() <= 1e-15

    def test_float32_in_float32_out(self):
        allowed = self.MASKS["causal_219"]
        rng = np.random.default_rng(10)
        scores = rng.standard_normal(allowed.shape).astype(np.float32)
        out = row_softmax(scores, allowed, 0.5)
        assert out.dtype == np.float32
        expected, _ = softmax_where_reference(scores.astype(float), allowed, 0.5)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)
        assert np.all(out[~allowed] == 0.0)

    def test_no_columns_every_row_empty(self):
        out = row_softmax(np.zeros((3, 0)))
        assert out.shape == (3, 0)


class TestRmsNorm:
    def test_zero_rows_stay_zero(self):
        out = rms_norm(np.zeros((3, 4)), np.ones(4))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_hand_value(self):
        # row [3, 4]: mean square 12.5, so the row divides by sqrt(12.5 + eps)
        out = rms_norm(np.array([[3.0, 4.0]]), np.ones(2))
        expected = np.array([3.0, 4.0]) / math.sqrt(12.5 + numerics.RMS_EPS)
        np.testing.assert_allclose(out[0], expected, rtol=1e-15)
        np.testing.assert_allclose(out[0], [0.8485, 1.1314], atol=1e-4)

    def test_unit_rows_with_unit_gain_nearly_fixed(self):
        h = np.array([[1.0, -1.0, 1.0, -1.0]])
        out = rms_norm(h, np.ones(4))
        np.testing.assert_allclose(out, h, rtol=1e-6)

    @given(st.floats(min_value=0.25, max_value=100.0), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c, seed):
        # keep row mean-squares far above RMS_EPS so the epsilon term
        # cannot break the invariance at the tested tolerance
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((3, 6))
        h = h / np.linalg.norm(h, axis=1, keepdims=True) * 500.0
        gain = rng.standard_normal(6)
        np.testing.assert_allclose(
            rms_norm(c * h, gain), rms_norm(h, gain), rtol=1e-9, atol=1e-9
        )

    def test_gain_mismatch_raises(self):
        with pytest.raises(ShapeError):
            rms_norm(np.zeros((2, 3)), np.ones(4))

    def test_float32_in_float32_out(self):
        # the squares are summed in the input's dtype
        rng = np.random.default_rng(9)
        h = (rng.standard_normal((6, 256)) * 30.0).astype(np.float32)
        gain = rng.standard_normal(256).astype(np.float32)
        out = rms_norm(h, gain)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, rms_norm(h.astype(np.float64), gain.astype(np.float64)), rtol=1e-6, atol=0
        )


class TestGatedFfn:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(5)
        w_gate = rng.standard_normal((4, 6))
        w_up = rng.standard_normal((4, 6))
        w_down = rng.standard_normal((6, 4))
        out = gated_ffn(np.zeros((2, 4)), w_gate, w_up, w_down)
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_scalar_silu_value(self):
        # 1x1 weights of 1.0 reduce the block to silu(1) * 1 = sigmoid(1)
        one = np.ones((1, 1))
        out = gated_ffn(one, one, one, one)
        np.testing.assert_allclose(out[0, 0], 0.731059, atol=1e-6)

    def test_silu_stable_for_large_negative(self):
        out = silu(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 0.0
        assert out[2] == 1000.0

    def test_silu_matches_logistic_form_to_full_precision(self):
        x = np.linspace(-1000.0, 1000.0, 40001)
        with np.errstate(over="ignore"):
            expected = x / (1.0 + np.exp(-x))
        with np.errstate(over="raise", invalid="raise"):
            out = silu(x)
        # below x = -709.78 the reference's exp(-x) overflows and it returns
        # -0.0 where the true value is a subnormal smaller than 1e-305 in size
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-300)

    def test_silu_float32_in_float32_out(self):
        x = np.linspace(-100.0, 100.0, 2001).astype(np.float32)
        with np.errstate(over="raise", invalid="raise"):
            out = silu(x.reshape(1, -1, 1))
        assert out.dtype == np.float32 and out.shape == (1, 2001, 1)
        np.testing.assert_allclose(
            out.ravel(), silu(x.astype(np.float64)), rtol=1e-6, atol=1e-30
        )

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((3, 4))
        w_gate = rng.standard_normal((4, 5))
        w_up = rng.standard_normal((4, 5))
        w_down = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            gated_ffn(h, w_gate, w_up, w_down),
            ffn_oracle(h, w_gate, w_up, w_down),
            atol=1e-12,
        )

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            gated_ffn(np.zeros((2, 4)), np.zeros((4, 6)), np.zeros((4, 5)), np.zeros((6, 4)))
        with pytest.raises(ShapeError):
            gated_ffn(np.zeros((2, 4)), np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((5, 4)))
