"""Drop-schedule resolution and token-selection tests."""

import numpy as np
import pytest

from vica.pruning import (
    mean_vision_tokens,
    relocate_drop_events,
    resolve_schedule,
    select_kept_tokens,
)


class TestResolveSchedule:
    def test_no_events_keeps_everything(self):
        assert resolve_schedule({}, 576, 4) == [576] * 4

    def test_halving_at_quarter_depths(self):
        counts = resolve_schedule({8: 0.5, 16: 0.5, 24: 0.5}, 576, 32)
        assert counts[:8] == [576] * 8
        assert counts[8:16] == [288] * 8
        assert counts[16:24] == [144] * 8
        assert counts[24:] == [72] * 8
        assert mean_vision_tokens(counts) == 270.0

    def test_quarter_drops_compose(self):
        counts = resolve_schedule({1: 0.75, 7: 0.75, 10: 0.75}, 576, 32)
        assert counts[0] == 576
        assert counts[1] == 432      # drop applies at the listed layer's entry
        assert counts[6] == 432
        assert counts[7] == 324
        assert counts[10] == 243
        assert counts[31] == 243

    def test_floor_applies_to_the_composed_product(self):
        # 2 * 0.9 * 0.9 = 1.62 -> 1; flooring each step would give 1 then 0
        counts = resolve_schedule({0: 0.9, 1: 0.9}, 2, 3)
        assert counts == [1, 1, 1]

    def test_event_outside_schedule_rejected(self):
        with pytest.raises(ValueError):
            resolve_schedule({4: 0.5}, 10, 4)
        with pytest.raises(ValueError):
            resolve_schedule({1: 1.5}, 10, 4)

    def test_emptying_schedule_warns(self, caplog):
        with caplog.at_level("WARNING", logger="vica.pruning"):
            counts = resolve_schedule({1: 0.0}, 8, 4)
        assert counts == [8, 0, 0, 0]
        assert any("empties" in r.message for r in caplog.records)


class TestRelocateDropEvents:
    def test_events_on_exposing_layers_stay_put(self):
        exposing = [True, True, False, True]
        assert relocate_drop_events({1: 0.5}, exposing) == {1: 0.5}

    def test_event_on_blind_layer_slides_forward(self, caplog):
        exposing = [True, False, False, True]
        with caplog.at_level("WARNING", logger="vica.pruning"):
            moved = relocate_drop_events({1: 0.5}, exposing)
        assert moved == {3: 0.5}
        assert any("deferred" in r.message for r in caplog.records)

    def test_colliding_events_compose(self):
        exposing = [True, False, False, True]
        moved = relocate_drop_events({1: 0.5, 3: 0.5}, exposing)
        assert moved == {3: 0.25}

    def test_event_with_no_landing_layer_is_discarded(self, caplog):
        exposing = [True, True, False, False]
        with caplog.at_level("WARNING", logger="vica.pruning"):
            moved = relocate_drop_events({2: 0.5}, exposing)
        assert moved == {}
        assert any("dropped" in r.message for r in caplog.records)


class TestSelectKeptTokens:
    def test_keep_all_is_identity(self):
        attn = np.random.default_rng(0).random((3, 5))
        kept = select_kept_tokens(attn, 5)
        assert np.array_equal(kept, np.arange(5))

    def test_final_row_decides(self):
        attn = np.array(
            [
                [0.9, 0.05, 0.05, 0.0],
                [0.1, 0.2, 0.3, 0.4],   # only this row should matter
            ]
        )
        kept = select_kept_tokens(attn, 2)
        assert np.array_equal(kept, [2, 3])

    def test_matches_brute_force_on_seeded_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            attn = rng.random((int(rng.integers(1, 5)), n))
            keep = int(rng.integers(0, n + 1))
            kept = select_kept_tokens(attn, keep)
            scores = attn[-1]
            brute = sorted(
                sorted(range(n), key=lambda j: (-scores[j], j))[:keep]
            )
            assert kept.tolist() == brute

    def test_ties_prefer_lower_index(self):
        attn = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert select_kept_tokens(attn, 2).tolist() == [0, 1]

    def test_output_sorted_and_unique(self):
        rng = np.random.default_rng(2)
        attn = rng.random((4, 9))
        kept = select_kept_tokens(attn, 6)
        assert kept.tolist() == sorted(set(kept.tolist()))

    def test_keep_zero_returns_empty(self):
        assert select_kept_tokens(np.ones((1, 4)), 0).size == 0

    def test_keep_beyond_count_rejected(self):
        with pytest.raises(ValueError):
            select_kept_tokens(np.ones((1, 4)), 5)

    def test_deterministic(self):
        attn = np.random.default_rng(3).random((3, 8))
        a = select_kept_tokens(attn, 4)
        b = select_kept_tokens(attn.copy(), 4)
        assert np.array_equal(a, b)
