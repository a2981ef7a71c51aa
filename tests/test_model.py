"""Engine tests: policy modes, the masked-oracle equivalences, decoupled KV,
seeded init, and instrumented multiply-accumulate accounting."""

import math

import numpy as np
import pytest

import vica.model as model_module
from vica.attention import (
    TokenLayout,
    asymmetric_cross_attention,
    attention_weights,
    bottom_right_mask,
    build_cross_mask,
)
from vica.model import (
    MODEL_PRESETS,
    SPARSE_PRESETS,
    UNIFORM_PRESETS,
    ConfigError,
    LayerPolicy,
    ModelConfig,
    PolicyMode,
    PolicySchedule,
    VisualKvSet,
    count_forward_macs,
    forward,
    forward_baseline_masked_oracle,
    forward_vica_fast,
    init_model,
    parse_path,
    parse_schedule,
    pdrop_baseline_events,
    precompute_visual_kv,
    schedule_preset,
    schedule_to_disabled_paths,
    _baseline_layer,
    _embed_text,
)
from vica.numerics import MacCounter, ShapeError, matmul, rms_norm, row_softmax
from vica.pruning import select_kept_tokens


TOY = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)


def toy_inputs(seed, n=5, t=4, d=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((t, d))


MODE_LETTERS = {
    "B": PolicyMode.BASELINE, "F": PolicyMode.FREEZE_VIS,
    "V": PolicyMode.VICA_CROSS, "T": PolicyMode.TEXT_ONLY,
}


def mixed_schedule(letters, drops=None):
    """Schedule from one mode letter per layer (B, F, V, T)."""
    sched = PolicySchedule(tuple(LayerPolicy(MODE_LETTERS[c]) for c in letters))
    return sched.with_drops(drops) if drops else sched


class TestConfigAndPresets:
    def test_preset_geometries(self):
        assert MODEL_PRESETS["llava3b"].d_model == 2560
        assert MODEL_PRESETS["llava3b"].d_ffn == 6912
        assert MODEL_PRESETS["llava7b"].d_model == 4096
        assert MODEL_PRESETS["llava7b"].d_ffn == 11008
        assert MODEL_PRESETS["llava13b"] == ModelConfig(40, 40, 5120, 13824)
        assert MODEL_PRESETS["llava3b"].n_layers == 32
        assert MODEL_PRESETS["llava7b"].n_layers == 32

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, n_heads=3, d_model=8, d_ffn=16)

    def test_schedule_presets_retained_sets(self):
        assert SPARSE_PRESETS["vica3b"][1] == {0, 1, 14, 15, 18, 19, 21, 22, 23}
        assert SPARSE_PRESETS["vica7b"][1] == {0, 1, 7, 8, 9, 10, 11, 14}
        assert SPARSE_PRESETS["vica13b"][1] == {0, 6, 8, 9, 10, 13, 14, 16}
        # each row's backbone sets its depth
        assert {name: row[0] for name, row in SPARSE_PRESETS.items()} == {
            "vica3b": "llava3b", "vica7b": "llava7b", "vica13b": "llava13b",
        }
        for name, (backbone, retained, _) in SPARSE_PRESETS.items():
            sched = schedule_preset(name)
            assert sched.n_layers == MODEL_PRESETS[backbone].n_layers
            assert set(sched.frozen_vision_layers()) == retained
            assert not sched.drop_events()
            assert all(
                p.mode is PolicyMode.TEXT_ONLY
                for l, p in enumerate(sched.layers)
                if l not in retained
            )
        assert [schedule_preset(name).n_layers for name in SPARSE_PRESETS] == [32, 32, 40]

    def test_pdrop_presets(self):
        sched = schedule_preset("vica7b+pdrop")
        assert sched.drop_events() == {1: 0.75, 7: 0.75, 10: 0.75}
        assert SPARSE_PRESETS["vica7b"][2] == {1: 0.75, 7: 0.75, 10: 0.75}
        assert SPARSE_PRESETS["vica3b"][2] == {1: 0.75, 14: 0.75, 18: 0.75}
        assert SPARSE_PRESETS["vica13b"][2] == {6: 0.75, 9: 0.75, 13: 0.75}
        assert pdrop_baseline_events(32) == {8: 0.5, 16: 0.5, 24: 0.5}
        assert pdrop_baseline_events(40) == {10: 0.5, 20: 0.5, 30: 0.5}
        for name, (backbone, _, events) in SPARSE_PRESETS.items():
            sched = parse_schedule(name + "+pdrop", MODEL_PRESETS[backbone].n_layers)
            assert sched.drop_events() == events
            assert sched == schedule_preset(name + "+pdrop")
        assert parse_schedule("baseline+pdrop", 40).drop_events() == pdrop_baseline_events(40)

    def test_uniform_presets(self):
        assert UNIFORM_PRESETS == {
            "baseline": PolicyMode.BASELINE,
            "freeze": PolicyMode.FREEZE_VIS,
            "textonly": PolicyMode.TEXT_ONLY,
        }
        for name, mode in UNIFORM_PRESETS.items():
            for depth in (1, 4, 40):
                assert parse_schedule(name, depth) == PolicySchedule.uniform(depth, mode)

    def test_unknown_schedule_preset(self):
        with pytest.raises(ConfigError):
            schedule_preset("vica70b")
        # only the sparse rows have a depth of their own
        for name in ("baseline", "baseline+pdrop", "sparse:0", "vica7b+pdrop+pdrop"):
            with pytest.raises(ConfigError, match="unknown schedule preset"):
                schedule_preset(name)

    @pytest.mark.parametrize("name, match", [
        ("freeze+pdrop", "unknown schedule preset 'freeze\\+pdrop'"),
        ("textonly+pdrop", "unknown schedule preset 'textonly\\+pdrop'"),
        ("sparse:0,1+pdrop", "bad schedule 'sparse:0,1\\+pdrop'"),
        ("vica70b", "unknown schedule preset 'vica70b'"),
        ("vica7b+pdrop+pdrop", "unknown schedule preset 'vica7b\\+pdrop\\+pdrop'"),
        ("+pdrop", "unknown schedule preset '\\+pdrop'"),
        ("Baseline", "unknown schedule preset 'Baseline'"),
    ])
    def test_names_outside_the_table_are_refused(self, name, match):
        for depth in (1, 32, 40):
            with pytest.raises(ConfigError, match=match):
                parse_schedule(name, depth)

    @pytest.mark.parametrize("name", [
        "sparse:1_0", "sparse: 1", "sparse:1 ", "sparse:0,0", "sparse:0,00", "sparse:+1",
        "sparse:-1", "sparse:٣", "sparse:²", "sparse:", "sparse:0,", "sparse:x",
    ])
    def test_sparse_layers_are_distinct_ascii_digits(self, name):
        # int() reads "1_0" as 10 and " 1" as 1; the list takes [0-9]+ items only
        with pytest.raises(ConfigError, match="bad schedule"):
            parse_schedule(name, 32)

    def test_sparse_layer_list(self):
        assert parse_schedule("sparse:3,0,10", 32) == PolicySchedule.sparse_cross(32, {0, 3, 10})
        assert parse_schedule("sparse:07", 8).frozen_vision_layers() == [7]
        with pytest.raises(ConfigError, match="outside 0..7"):
            parse_schedule("sparse:0,8", 8)

    def test_spans_check_names_the_depth(self):
        with pytest.raises(ConfigError,
                           match="schedule 'vica13b\\+pdrop' spans 40 layers, model has 32"):
            parse_schedule("vica13b+pdrop", 32)

    def test_sparse_cross_validates_layers(self):
        with pytest.raises(ConfigError):
            PolicySchedule.sparse_cross(4, {0, 4})

    def test_path_parsing(self):
        assert parse_path("t2v_read@2", 4) == ("t2v_read", 2)
        # "²" and "٣" are str.isdigit() digits; a layer is ASCII digits only
        for bad in ("t2v_read", "t2v_read@9", "nonsense@0", "t2v_read@x", "t2v_read@²",
                    "t2v_read@٣"):
            with pytest.raises(ConfigError):
                parse_path(bad, 4)


class TestInitAndSerialization:
    def test_same_seed_bit_identical(self):
        a = init_model(TOY, seed=7)
        b = init_model(TOY, seed=7)
        assert np.array_equal(a.pos, b.pos)
        for la, lb in zip(a.layers, b.layers):
            for f in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
                assert np.array_equal(getattr(la, f), getattr(lb, f))
        assert np.array_equal(a.w_out, b.w_out)

    def test_different_seeds_differ(self):
        a = init_model(TOY, seed=1)
        b = init_model(TOY, seed=2)
        assert not np.array_equal(a.layers[0].wq, b.layers[0].wq)

    def test_shape_manifest(self):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, 0)
        per_layer = {
            "attn_gain": (8,), "wq": (8, 8), "wk": (8, 8), "wv": (8, 8), "wo": (8, 8),
            "ffn_gain": (8,), "w_gate": (8, 16), "w_up": (8, 16), "w_down": (16, 8),
        }
        assert (w.pos.shape, w.out_gain.shape, w.w_out.shape) == ((64, 8), (8,), (8, 13))
        assert len(w.layers) == 2
        for lw in w.layers:
            assert {k: getattr(lw, k).shape for k in lw.__dataclass_fields__} == per_layer


class TestForwardPolicies:
    def test_no_vision_baseline_equals_text_only(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(1, n=0, t=5)
        base = forward(w, ve, te, PolicySchedule.baseline(3))
        text = forward(w, ve, te, PolicySchedule.text_only(3))
        np.testing.assert_array_equal(base.logits, text.logits)

    def test_freeze_vis_never_touches_vision_rows(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(2)
        res = forward(w, ve, te, PolicySchedule.freeze_vis(3), record_trace=True)
        assert np.array_equal(res.vision_hidden, ve)
        for entry in res.trace:
            assert np.array_equal(entry.h_post_ffn[:5], ve)
            assert np.array_equal(entry.h_post_attn[:5], ve)

    def test_baseline_does_update_vision_rows(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(3)
        res = forward(w, ve, te, PolicySchedule.baseline(3))
        assert not np.array_equal(res.vision_hidden, ve)

    def test_causality_under_text_perturbation(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(4, t=6)
        for sched in (PolicySchedule.baseline(3), PolicySchedule.sparse_cross(3, {1})):
            base = forward(w, ve, te, sched)
            for i in (0, 5):
                te2 = te.copy()
                te2[i] += 1.0
                pert = forward(w, ve, te2, sched)
                np.testing.assert_array_equal(base.logits[:i], pert.logits[:i])
                assert not np.array_equal(base.logits[i], pert.logits[i])

    def test_vision_sensitivity(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(5)
        ve2 = ve + 0.5
        sparse = PolicySchedule.sparse_cross(3, {2})
        assert not np.array_equal(
            forward(w, ve, te, sparse).logits, forward(w, ve2, te, sparse).logits
        )
        blind = PolicySchedule.text_only(3)
        np.testing.assert_array_equal(
            forward(w, ve, te, blind).logits, forward(w, ve2, te, blind).logits
        )

    def test_schedule_length_must_match(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(6)
        with pytest.raises(ConfigError):
            forward(w, ve, te, PolicySchedule.baseline(4))

    def test_at_least_one_text_token(self):
        w = init_model(TOY, seed=0)
        ve, _ = toy_inputs(6)
        with pytest.raises(ConfigError):
            forward(w, ve, np.empty((0, 8)), PolicySchedule.baseline(3))

    @pytest.mark.parametrize("sched", [
        PolicySchedule.baseline(3),
        PolicySchedule.freeze_vis(3),
        PolicySchedule.sparse_cross(3, {0, 2}),
        PolicySchedule.freeze_vis(3).with_drops({1: 0.5, 2: 0.5}),
    ], ids=["baseline", "freeze", "sparse_0_2", "freeze_drops"])
    def test_system_question_split_changes_nothing(self, sched):
        # perfbench compares forward(..., layout=...) with paths that take no
        # layout, so every split of the text rows must give the same bits
        w = init_model(TOY, seed=0)
        n, t = 6, 5
        ve, te = toy_inputs(9, n=n, t=t)
        logits = [forward(w, ve, te, sched, layout=TokenLayout(n, ts, t - ts)).logits
                  for ts in (0, 1, t)]
        for other in logits[1:]:
            np.testing.assert_array_equal(other, logits[0])
        if PolicyMode.BASELINE not in (p.mode for p in sched.layers):
            kv = precompute_visual_kv(w, ve, sched)
            np.testing.assert_array_equal(forward_vica_fast(w, kv, te, sched).logits, logits[0])


class TestMaskedOracleEquivalence:
    def test_empty_disabled_set_is_baseline_bit_identical(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(8)
        a = forward(w, ve, te, PolicySchedule.baseline(3))
        b = forward_baseline_masked_oracle(w, ve, te, ())
        # the engine runs the causal kernel and the oracle its masked
        # reference, so they agree to rounding, well inside EQUIV_TOL (1e-10)
        assert np.abs(a.logits - b.logits).max() <= 1e-12
        assert np.abs(a.vision_hidden - b.vision_hidden).max() <= 1e-12

    @pytest.mark.parametrize("n,t", [(130, 70), (0, 130), (200, 129)])
    def test_baseline_engine_matches_oracle_past_one_row_block(self, n, t):
        # the engine's causal kernel splits 128+ query rows into row blocks
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=400)
        w = init_model(cfg, seed=4)
        ve, te = toy_inputs(n + t, n=n, t=t)
        engine = forward(w, ve, te, PolicySchedule.baseline(2))
        oracle = forward_baseline_masked_oracle(w, ve, te)
        assert np.abs(engine.logits - oracle.logits).max() <= 1e-12
        assert np.abs(engine.text_hidden - oracle.text_hidden).max() <= 1e-12
        assert np.abs(engine.vision_hidden - oracle.vision_hidden).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, 5, 9])
    @pytest.mark.parametrize("letters", ["BFBT", "FBTB", "TBBF"])
    def test_mixed_schedule_matches_oracle(self, letters, n):
        # layers switch between joint, frozen and text-only: a frozen layer
        # exposes the vision rows the last BASELINE layer wrote, and a
        # BASELINE layer updates rows earlier layers left untouched
        cfg = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=6)
        ve, te = toy_inputs(30 + n, n=n, t=4)
        sched = mixed_schedule(letters)
        engine = forward(w, ve, te, sched)
        oracle = forward_baseline_masked_oracle(w, ve, te, schedule_to_disabled_paths(sched))
        assert np.abs(engine.logits - oracle.logits).max() <= 1e-12
        assert np.abs(engine.vision_hidden - oracle.vision_hidden).max(initial=0.0) <= 1e-12

    def test_disabling_all_writes_equals_freeze_vis(self):
        # the central claim: freezing is exactly "no writes ever land on vision"
        w = init_model(TOY, seed=0)
        for seed in range(5):
            ve, te = toy_inputs(seed)
            disabled = [f"vis_attn_write@{l}" for l in range(3)] + [
                f"vis_ffn_write@{l}" for l in range(3)
            ]
            oracle = forward_baseline_masked_oracle(w, ve, te, disabled)
            engine = forward(w, ve, te, PolicySchedule.freeze_vis(3))
            assert np.abs(oracle.logits - engine.logits).max() <= 1e-10

    def test_disabling_reads_and_writes_equals_text_only(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(9)
        sched = PolicySchedule.text_only(3)
        oracle = forward_baseline_masked_oracle(
            w, ve, te, schedule_to_disabled_paths(sched)
        )
        engine = forward(w, ve, te, sched)
        assert np.abs(oracle.logits - engine.logits).max() <= 1e-10

    def test_sparse_schedule_equals_freeze_vis_with_masked_reads(self):
        # two layers, vision KV kept only at layer 0: identical to freezing
        # everywhere and masking the layer-1 read
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=1)
        ve, te = toy_inputs(10)
        sparse = forward(w, ve, te, PolicySchedule.sparse_cross(2, {0}))
        oracle = forward_baseline_masked_oracle(
            w, ve, te,
            ["vis_attn_write@0", "vis_ffn_write@0", "vis_attn_write@1",
             "vis_ffn_write@1", "t2v_read@1"],
        )
        assert np.abs(sparse.logits - oracle.logits).max() <= 1e-10

    def test_trace_aliases_loop_arrays_without_side_effects(self):
        w = init_model(TOY, seed=2)
        ve, te = toy_inputs(12)
        ve0, te0 = ve.copy(), te.copy()
        disabled = ["vis_ffn_write@0", "t2v_read@1"]
        traced = forward_baseline_masked_oracle(w, ve, te, disabled, record_trace=True)
        plain = forward_baseline_masked_oracle(w, ve, te, disabled)
        trace = traced.trace
        assert len(trace) == 3 and plain.trace is None
        for l in range(2):
            assert trace[l].h_post_ffn is trace[l + 1].h_pre_attn
        assert not np.shares_memory(trace[0].h_pre_attn, ve)
        assert not np.shares_memory(trace[0].h_pre_attn, te)
        np.testing.assert_array_equal(trace[0].h_pre_attn[:5], ve)
        assert np.array_equal(traced.logits, plain.logits)
        assert np.array_equal(traced.text_hidden, plain.text_hidden)
        np.testing.assert_array_equal(ve, ve0)
        np.testing.assert_array_equal(te, te0)

    def test_schedule_to_disabled_paths(self):
        sched = PolicySchedule.sparse_cross(3, {1})
        assert schedule_to_disabled_paths(sched) == frozenset(
            {
                "vis_attn_write@0", "vis_ffn_write@0", "t2v_read@0",
                "vis_attn_write@1", "vis_ffn_write@1",
                "vis_attn_write@2", "vis_ffn_write@2", "t2v_read@2",
            }
        )
        assert schedule_to_disabled_paths(PolicySchedule.baseline(2)) == frozenset()
        with pytest.raises(ConfigError):
            schedule_to_disabled_paths(
                PolicySchedule.baseline(2).with_drops({1: 0.5})
            )

    DROP_SCHEDULES = {
        "baseline+pdrop": PolicySchedule.baseline(8).with_drops(pdrop_baseline_events(8)),
        "freeze+drops": PolicySchedule.freeze_vis(8).with_drops({0: 0.75, 4: 0.5}),
        "sparse+drops": PolicySchedule.sparse_cross(8, {0, 2, 3, 6}).with_drops(
            {0: 0.75, 3: 0.5, 6: 0.5}),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", DROP_SCHEDULES)
    def test_drop_schedule_layers_match_joint_layer(self, name, seed):
        # the referee takes no drop events, so each traced engine layer is
        # rerun as the referee's joint layer from the rows entering it
        # (after the layer's cut): text rows blind to vision at TEXT_ONLY
        # layers, vision writes off at every layer but BASELINE
        cfg = ModelConfig(n_layers=8, n_heads=4, d_model=32, d_ffn=64, vocab=13, max_seq=64)
        w = init_model(cfg, seed=seed)
        ve, te = toy_inputs(40 + seed, n=16, t=6, d=32)
        sched = self.DROP_SCHEDULES[name]
        trace = forward(w, ve, te, sched, record_trace=True).trace
        assert any(e.kept is not None for e in trace)
        for e, pol in zip(trace, sched.layers):
            n, rows = e.n_vision_out, len(e.h_pre_attn)
            allowed = bottom_right_mask(rows, rows)
            if pol.mode is PolicyMode.TEXT_ONLY:
                allowed[n:, :n] = False
            writes = pol.mode is PolicyMode.BASELINE
            h_attn, h_ffn = _baseline_layer(e.h_pre_attn, w.layers[e.layer], allowed,
                                            cfg.n_heads, n, vis_attn_write=writes,
                                            vis_ffn_write=writes)
            assert np.abs(h_attn - e.h_post_attn).max() <= 1e-12
            assert np.abs(h_ffn - e.h_post_ffn).max() <= 1e-12


class TestDecoupledKv:
    def test_no_vision_gives_empty_rows(self):
        w = init_model(TOY, seed=0)
        kv = precompute_visual_kv(w, np.empty((0, 8)), PolicySchedule.sparse_cross(3, {0, 2}))
        assert kv.rows.shape == (0, 8)
        assert kv.layers() == [0, 2]
        assert all(k.shape == (0, 8) for k, _ in kv.entries.values())

    def test_preset_schedule_entry_count(self):
        cfg = ModelConfig(n_layers=32, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=0)
        ve, _ = toy_inputs(11)
        kv = precompute_visual_kv(w, ve, schedule_preset("vica7b"))
        assert len(kv.entries) == 8
        assert kv.layers() == sorted({0, 1, 7, 8, 9, 10, 11, 14})

    def test_kv_is_text_independent(self):
        w = init_model(TOY, seed=0)
        ve, _ = toy_inputs(12)
        sched = PolicySchedule.sparse_cross(3, {0, 1})
        kv_a = precompute_visual_kv(w, ve, sched)
        kv_b = precompute_visual_kv(w, ve.copy(), sched)
        for l in kv_a.entries:
            assert np.array_equal(kv_a.entries[l][0], kv_b.entries[l][0])
            assert np.array_equal(kv_a.entries[l][1], kv_b.entries[l][1])

    def test_fast_path_matches_engine(self):
        w = init_model(TOY, seed=0)
        for seed in range(6):
            ve, te = toy_inputs(seed, n=seed % 4, t=3 + seed % 3)
            sched = PolicySchedule.sparse_cross(3, {0, 2})
            kv = precompute_visual_kv(w, ve, sched)
            fast = forward_vica_fast(w, kv, te, sched)
            engine = forward(w, ve, te, sched)
            # one text layer over the same vision KV: identical bits
            np.testing.assert_array_equal(fast.logits, engine.logits)

    def test_fast_path_all_text_only_ignores_vision(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(13)
        sched = PolicySchedule.text_only(3)
        kv = precompute_visual_kv(w, ve, sched)
        assert kv.entries == {}
        fast = forward_vica_fast(w, kv, te, sched)
        engine = forward(w, ve, te, sched)
        np.testing.assert_array_equal(fast.logits, engine.logits)

    def test_fast_path_rejects_mismatched_kv(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(14)
        kv = precompute_visual_kv(w, ve, PolicySchedule.sparse_cross(3, {0}))
        with pytest.raises(ConfigError):
            forward_vica_fast(w, kv, te, PolicySchedule.sparse_cross(3, {0, 1}))

    def test_fast_path_rejects_baseline(self):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(15)
        kv = precompute_visual_kv(w, ve, PolicySchedule.sparse_cross(3, {0}))
        bad = PolicySchedule.baseline(3)
        with pytest.raises(ConfigError):
            forward_vica_fast(w, kv, te, bad)
        # the shape walker rejects what the fast path rejects
        with pytest.raises(ConfigError):
            count_forward_macs(TOY, TokenLayout(5, 0, 4), bad, "fast")

    # (letters, drops, n): chained drops, one deferred from a text-only
    # layer, drops to zero rows, and no vision rows at all
    FAST_DROPS = [
        ("FVFV", {0: 0.75, 1: 0.5, 3: 0.5}, 8),
        ("VTVF", {1: 0.5, 2: 0.5}, 8),
        ("VTTV", {1: 0.5}, 7),
        ("FVVF", {1: 0.0}, 8),
        ("VFVT", {0: 0.5, 2: 0.0}, 5),
        ("FVFV", {0: 0.5, 2: 0.5}, 0),
    ]

    DROPS_CFG = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)

    @pytest.mark.parametrize("letters,drops,n", FAST_DROPS)
    def test_fast_path_drops_match_engine(self, letters, drops, n):
        sched = mixed_schedule(letters, drops)
        for seed in range(3):
            w = init_model(self.DROPS_CFG, seed=seed)
            ve, te = toy_inputs(30 + seed, n=n, t=3 + seed)
            engine = forward(w, ve, te, sched, record_trace=True)
            fast = forward_vica_fast(w, precompute_visual_kv(w, ve, sched), te, sched)
            # the precomputed KV, and after a cut the kept rows' own, is the
            # engine's KV: identical bits
            np.testing.assert_array_equal(fast.logits, engine.logits)
            np.testing.assert_array_equal(fast.vision_hidden, engine.vision_hidden, strict=True)
        if n:
            assert engine.trace[-1].n_vision_out < n

    @pytest.mark.parametrize("letters,drops,n", FAST_DROPS)
    def test_fast_path_drops_count_the_engine_macs(self, letters, drops, n):
        sched = mixed_schedule(letters, drops)
        w = init_model(self.DROPS_CFG, seed=0)
        ve, te = toy_inputs(40, n=n, t=4)
        pre, prefill, engine = MacCounter(), MacCounter(), MacCounter()
        forward_vica_fast(w, precompute_visual_kv(w, ve, sched, counter=pre), te, sched,
                          counter=prefill)
        forward(w, ve, te, sched, counter=engine)
        layout = TokenLayout(n, 0, 4)
        assert pre.macs + prefill.macs == engine.macs
        assert engine.macs == count_forward_macs(self.DROPS_CFG, layout, sched, "fast")
        assert engine.macs == count_forward_macs(self.DROPS_CFG, layout, sched, "engine")
        assert prefill.macs == count_forward_macs(self.DROPS_CFG, layout, sched, "fast",
                                                  include_kv_precompute=False)

    @pytest.mark.parametrize("letters,drops,n", FAST_DROPS)
    def test_drop_free_kv_serves_the_drop_schedule(self, letters, drops, n):
        sched = mixed_schedule(letters, drops)
        for seed in range(3):
            w = init_model(self.DROPS_CFG, seed=seed)
            ve, te = toy_inputs(30 + seed, n=n, t=3 + seed)
            kv = precompute_visual_kv(w, ve, mixed_schedule(letters))
            np.testing.assert_array_equal(forward_vica_fast(w, kv, te, sched).logits,
                                          forward(w, ve, te, sched).logits)

    def test_fast_path_rejects_kv_outside_its_layers(self):
        w = init_model(self.DROPS_CFG, seed=0)
        ve, te = toy_inputs(41, n=8, t=3)
        sched = mixed_schedule("VTVF", {2: 0.5})
        kv = precompute_visual_kv(w, ve, mixed_schedule("VTVF"))
        assert kv.layers() == [0, 2, 3]
        forward_vica_fast(w, kv, te, sched)  # layer 3 comes after the cut, unread
        lacking = VisualKvSet(kv.rows, {0: kv.entries[0], 3: kv.entries[3]})
        extra = VisualKvSet(kv.rows, {**kv.entries, 1: kv.entries[0]})
        for bad in (lacking, extra):
            with pytest.raises(ConfigError, match="schedule needs"):
                forward_vica_fast(w, bad, te, sched)

    def test_deferred_drop_warns_once_per_fast_call(self, caplog):
        w = init_model(self.DROPS_CFG, seed=0)
        ve, te = toy_inputs(42, n=7, t=3)
        sched = mixed_schedule("VTTV", {1: 0.5})
        kv = precompute_visual_kv(w, ve, sched)
        with caplog.at_level("WARNING", logger="vica.pruning"):
            caplog.clear()
            for _ in range(2):
                forward_vica_fast(w, kv, te, sched)
        assert [r.message for r in caplog.records] == [
            "drop event at text-only layer 1 deferred to layer 3"] * 2

    def test_fast_path_checks_text_shape(self):
        w = init_model(TOY, seed=0)
        ve, _ = toy_inputs(15)
        sched = PolicySchedule.sparse_cross(3, {0})
        kv = precompute_visual_kv(w, ve, sched)
        for bad in (np.ones(8), np.ones((3, 6))):
            with pytest.raises(ShapeError):
                forward_vica_fast(w, kv, bad, sched)
        with pytest.raises(ConfigError):
            forward_vica_fast(w, kv, np.empty((0, 8)), sched)
        with pytest.raises(ConfigError, match="max_seq"):
            forward_vica_fast(w, kv, np.ones((60, 8)), sched)


class TestDropIntegration:
    def test_trace_reflects_resolved_counts(self):
        cfg = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=0)
        ve, te = toy_inputs(16, n=8, t=3)
        sched = PolicySchedule.freeze_vis(4).with_drops({1: 0.5, 3: 0.5})
        res = forward(w, ve, te, sched, record_trace=True)
        assert [e.n_vision_out for e in res.trace] == [8, 4, 4, 2]
        assert res.vision_hidden.shape == (2, 8)
        # text row count never changes
        assert all(e.h_post_ffn.shape[0] - e.n_vision_out == 3 for e in res.trace)

    def test_kept_indices_are_sorted_subsets(self):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=1)
        ve, te = toy_inputs(17, n=6, t=3)
        sched = PolicySchedule.freeze_vis(2).with_drops({1: 0.5})
        res = forward(w, ve, te, sched, record_trace=True)
        kept = res.trace[1].kept
        assert kept is not None and len(kept) == 3
        assert np.array_equal(kept, np.sort(kept))
        # surviving rows really are the selected input rows
        np.testing.assert_array_equal(res.trace[1].h_pre_attn[:3], ve[kept])

    def test_drop_on_text_only_layer_defers(self, caplog):
        cfg = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=2)
        ve, te = toy_inputs(18, n=4, t=3)
        sched = PolicySchedule.sparse_cross(3, {0, 2}).with_drops({1: 0.5})
        with caplog.at_level("WARNING", logger="vica.pruning"):
            res = forward(w, ve, te, sched, record_trace=True)
        assert [e.n_vision_out for e in res.trace] == [4, 4, 2]
        assert any("deferred" in r.message for r in caplog.records)

    def test_drop_runs_are_deterministic(self):
        cfg = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=16, vocab=13, max_seq=64)
        w = init_model(cfg, seed=3)
        ve, te = toy_inputs(19, n=8, t=3)
        sched = PolicySchedule.baseline(4).with_drops(pdrop_baseline_events(4))
        a = forward(w, ve, te, sched)
        b = forward(w, ve, te, sched)
        np.testing.assert_array_equal(a.logits, b.logits)


def full_block_kept(entry, n, lw, n_heads, keep):
    """Kept vision rows by the full-block rule: every text query against
    [vision keys; text keys] under the cross mask, one softmax per head,
    averaged over the heads, then the final row."""
    t = entry.shape[0] - n
    x = rms_norm(entry, lw.attn_gain)
    q, k = matmul(x[n:], lw.wq), matmul(x, lw.wk)
    allowed = build_cross_mask(TokenLayout(n, 0, t))
    d_head = q.shape[1] // n_heads
    weights = sum(
        row_softmax(q[:, cols] @ k[:, cols].T, allowed, 1 / math.sqrt(d_head))
        for cols in (slice(h * d_head, (h + 1) * d_head) for h in range(n_heads))
    ) / n_heads
    return select_kept_tokens(weights[-1:, :n], keep)


class TestDropScoring:
    """Kept sets scored from the layer body's last text row against the
    full-block rule, rebuilt here from public kernels."""

    CASES = [
        # drops at BASELINE layers and at a frozen one
        ("BFBT", {0: 0.75, 1: 0.5, 2: 0.5}),
        # frozen and BASELINE drops to 0 rows
        ("BFFB", {1: 0.0}),
        ("FBFB", {1: 0.0}),
        # a keep of 1.0 is a no-op, the next event still cuts
        ("FFBF", {1: 1.0, 2: 0.5}),
        ("VTVB", {0: 0.5, 2: 0.75, 3: 0.5}),
    ]

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("letters,drops", CASES)
    def test_kept_sets_match_full_block_rule(self, letters, drops, n_heads):
        cfg = ModelConfig(n_layers=4, n_heads=n_heads, d_model=8, d_ffn=12, vocab=13,
                          max_seq=64)
        w = init_model(cfg, seed=n_heads)
        ve, te = toy_inputs(28, n=8, t=5)
        res = forward(w, ve, te, mixed_schedule(letters, drops), layout=TokenLayout(8, 2, 3),
                      record_trace=True)
        entry = np.vstack([ve, _embed_text(w, te, 8)])
        cuts = 0
        for l, e in enumerate(res.trace):
            if e.n_vision_out == e.n_vision_in:
                assert e.kept is None
            else:
                expected = full_block_kept(entry, e.n_vision_in, w.layers[l], n_heads,
                                           e.n_vision_out)
                np.testing.assert_array_equal(e.kept, expected)
                cuts += 1
            entry = e.h_post_ffn
        assert cuts == sum(keep < 1.0 for keep in drops.values())

    def test_float32_drops_score_in_float32(self, monkeypatch):
        scored = []

        def spy(*args):
            out = attention_weights(*args)
            scored.append(out.dtype)
            return out

        monkeypatch.setattr(model_module, "attention_weights", spy)
        w64 = init_model(TOY, seed=0)
        ve, te = toy_inputs(29, n=8, t=4)
        sched = mixed_schedule("BFT", {0: 0.5, 1: 0.5})
        r64 = forward(w64, ve, te, sched, record_trace=True)
        r32 = forward(w64.astype(np.float32), ve.astype(np.float32), te.astype(np.float32),
                      sched, record_trace=True)
        assert scored == [np.float64] * 2 + [np.float32] * 2
        assert r32.logits.dtype == np.float32
        for e32, e64 in zip(r32.trace, r64.trace):
            assert (e32.kept is None) == (e64.kept is None)
            if e64.kept is not None:
                np.testing.assert_array_equal(e32.kept, e64.kept)


class TestKernelCalls:
    """Each layer is one call of the causal kernel; a BASELINE layer's one
    block is the [vision; text] rows it keeps, over their own keys."""

    def kernel_shapes(self, monkeypatch, sched):
        shapes = []

        def spy(q, k, v, n_heads):
            shapes.append((len(q), len(k)))
            return asymmetric_cross_attention(q, k, v, n_heads)

        monkeypatch.setattr(model_module, "asymmetric_cross_attention", spy)
        cfg = ModelConfig(n_layers=sched.n_layers, n_heads=2, d_model=8, d_ffn=16,
                          vocab=13, max_seq=64)
        ve, te = toy_inputs(30, n=8, t=5)
        res = forward(init_model(cfg, seed=3), ve, te, sched, record_trace=True)
        return shapes, res.trace

    def test_baseline_layer_is_one_joint_call(self, monkeypatch):
        shapes, _ = self.kernel_shapes(monkeypatch, PolicySchedule.baseline(3))
        assert shapes == [(8 + 5, 8 + 5)] * 3

    def test_cut_baseline_layer_runs_its_kept_rows(self, monkeypatch):
        shapes, trace = self.kernel_shapes(monkeypatch, mixed_schedule("BFBT", {1: 0.5, 2: 0.5}))
        assert [e.n_vision_out for e in trace] == [8, 4, 2, 2]
        assert shapes == [(8 + 5, 8 + 5), (5, 4 + 5), (2 + 5, 2 + 5), (5, 5)]


class TestMacCounting:
    GRID = [
        ("baseline", PolicySchedule.baseline),
        ("freeze", PolicySchedule.freeze_vis),
        ("textonly", PolicySchedule.text_only),
        ("sparse", lambda L: PolicySchedule.sparse_cross(L, {0, L - 1})),
        ("baseline+pdrop",
         lambda L: PolicySchedule.baseline(L).with_drops(pdrop_baseline_events(L))),
    ]

    @pytest.mark.parametrize("name,make", GRID)
    def test_engine_walker_matches_live_counter(self, name, make):
        for n, t, layers in [(0, 3, 2), (4, 3, 2), (6, 1, 3), (5, 4, 4)]:
            cfg = ModelConfig(n_layers=layers, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)
            w = init_model(cfg, seed=0)
            ve, te = toy_inputs(20, n=n, t=t)
            counter = MacCounter()
            forward(w, ve, te, make(layers), counter=counter)
            walked = count_forward_macs(cfg, TokenLayout(n, 0, t), make(layers), "engine")
            assert counter.macs == walked, f"{name} n={n} t={t} layers={layers}"

    def test_engine_walker_matches_with_drops(self):
        cfg = ModelConfig(n_layers=4, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)
        w = init_model(cfg, seed=0)
        ve, te = toy_inputs(21, n=8, t=3)
        for sched in [
            PolicySchedule.freeze_vis(4).with_drops({1: 0.5, 3: 0.5}),
            # drops at a BASELINE layer and at a frozen one
            mixed_schedule("BFBT", {1: 0.5, 2: 0.5}),
            # a BASELINE layer that keeps no vision row still runs both halves
            mixed_schedule("BBFB", {1: 0.0}),
            # a frozen drop to 0 rows, and drops at VICA_CROSS layers
            mixed_schedule("FFBF", {1: 0.0}),
            PolicySchedule.sparse_cross(4, {0, 2}).with_drops({0: 0.5, 2: 0.75}),
        ]:
            counter = MacCounter()
            forward(w, ve, te, sched, counter=counter)
            walked = count_forward_macs(cfg, TokenLayout(8, 0, 3), sched, "engine")
            assert counter.macs == walked, sched

    def test_fast_walker_matches_live_counter(self):
        for n, t, layers in [(0, 3, 2), (4, 3, 2), (6, 2, 4)]:
            cfg = ModelConfig(n_layers=layers, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)
            w = init_model(cfg, seed=0)
            ve, te = toy_inputs(22, n=n, t=t)
            sparse = PolicySchedule.sparse_cross(layers, {0, layers - 1})
            # drops at both retained layers; one at the middle layer, deferred
            # to the last where the middle is text-only
            for sched in (sparse, sparse.with_drops({0: 0.5, layers - 1: 0.5}),
                          sparse.with_drops({layers // 2: 0.5})):
                counter = MacCounter()
                kv = precompute_visual_kv(w, ve, sched, counter=counter)
                forward_vica_fast(w, kv, te, sched, counter=counter)
                walked = count_forward_macs(cfg, TokenLayout(n, 0, t), sched, "fast")
                assert counter.macs == walked, f"n={n} t={t} layers={layers} {sched}"

    def test_walker_validates_like_forward(self):
        cfg = ModelConfig(2, 2, 8, 12, vocab=13, max_seq=64)
        with pytest.raises(ConfigError, match="schedule covers 3 layers"):
            count_forward_macs(cfg, TokenLayout(4, 0, 3), PolicySchedule.baseline(3))
        with pytest.raises(ConfigError, match="max_seq"):
            count_forward_macs(cfg, TokenLayout(600, 0, 3), PolicySchedule.baseline(2))

    def test_oracle_run_counts_like_baseline_engine(self):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ffn=12, vocab=13, max_seq=64)
        w = init_model(cfg, seed=0)
        ve, te = toy_inputs(23, n=4, t=3)
        c1, c2 = MacCounter(), MacCounter()
        forward(w, ve, te, PolicySchedule.baseline(2), counter=c1)
        forward_baseline_masked_oracle(w, ve, te, ["t2v_read@0"], counter=c2)
        assert c1.macs == c2.macs  # masking changes no shapes


class TestFloat32:
    def test_float32_inputs_compute_in_float32(self):
        w64 = init_model(TOY, seed=0)
        w32 = w64.astype(np.float32)
        ve, te = toy_inputs(27)
        ve32, te32 = ve.astype(np.float32), te.astype(np.float32)
        sparse = PolicySchedule.sparse_cross(3, {0, 2})
        kv = precompute_visual_kv(w32, ve32, sparse)
        assert {a.dtype for pair in kv.entries.values() for a in pair} == {np.dtype(np.float32)}
        fast = forward_vica_fast(w32, kv, te32, sparse)
        oracle = forward_baseline_masked_oracle(w32, ve32, te32)
        assert fast.logits.dtype == np.float32 and oracle.logits.dtype == np.float32
        for sched in [PolicySchedule.baseline(3), mixed_schedule("BFT", {1: 0.5}), sparse]:
            r32 = forward(w32, ve32, te32, sched)
            r64 = forward(w64, ve, te, sched)
            assert r32.logits.dtype == np.float32
            assert r32.vision_hidden.dtype == np.float32
            # float32 rounding (eps 1.2e-7) through three layers at toy scale
            assert np.abs(r32.logits - r64.logits).max() <= 1e-4


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry,which",
        [("forward", "vision"), ("forward", "text"), ("oracle", "vision"),
         ("oracle", "text"), ("precompute", "vision"), ("fast", "text")],
    )
    def test_rejected_at_the_boundary(self, entry, which, bad):
        w = init_model(TOY, seed=0)
        ve, te = toy_inputs(25)
        sched = PolicySchedule.sparse_cross(3, {0, 2})
        kv = precompute_visual_kv(w, ve, sched)  # from the clean vision rows
        (ve if which == "vision" else te)[1, 3] = bad
        calls = {
            "forward": lambda: forward(w, ve, te, sched),
            "oracle": lambda: forward_baseline_masked_oracle(w, ve, te),
            "precompute": lambda: precompute_visual_kv(w, ve, sched),
            "fast": lambda: forward_vica_fast(w, kv, te, sched),
        }
        with pytest.raises(ConfigError, match=f"{which} embeddings hold NaN or inf"):
            calls[entry]()
