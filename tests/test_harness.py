"""Config grammar, CLI exit codes, artifact reproducibility, golden checks."""

import json
from dataclasses import replace
from statistics import median

import numpy as np
import pytest

import vica.cli as cli
import vica.harness as harness
from vica.cli import main
from vica.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ExperimentConfig,
    check_golden,
    parse_config,
    run_bench,
    run_diagnose,
    run_equivalence,
)
from vica.attention import TokenLayout
from vica.costmodel import (
    CostInputs,
    resolved_vision_counts,
    schedule_vision_flops,
    text_only_flops,
    total_flops,
)
from vica.model import (
    MAC_OPS,
    ConfigError,
    ModelConfig,
    PolicyMode,
    PolicySchedule,
    count_forward_macs,
    mac_table,
    mac_total,
    parse_schedule,
    schedule_preset,
)


class TestConfigGrammar:
    def test_parses_flat_keys(self):
        text = """
        # experiment setup
        preset = llava7b
        schedule = vica7b   # trailing comment
        seed=11
        golden = true
        paths = t2v_read, vis_ffn_write
        """
        values = parse_config(text)
        assert values == {
            "preset": "llava7b",
            "schedule": "vica7b",
            "seed": 11,
            "golden": True,
            "paths": ("t2v_read", "vis_ffn_write"),
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("presett = llava7b")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("seed = eleven")
        # an integer is ASCII digits with an optional "-": int() alone reads these
        for line in ("n_vision = 1_6", "seed = +1", "seed = \u0661"):
            with pytest.raises(ConfigError, match="expects an integer"):
                parse_config(line)
        assert parse_config("seed = -1\nn_vision = 016") == {"seed": -1, "n_vision": 16}
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("golden = maybe")


class TestExperimentConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="train")
        with pytest.raises(ConfigError):
            ExperimentConfig(dtype="float16")
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="llava70b")
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig(paths=("t2v_read", "bogus"))
        with pytest.raises(ConfigError, match="paths"):
            ExperimentConfig(paths=())
        with pytest.raises(ConfigError, match="paths"):
            ExperimentConfig(paths=("t2v_read", "vis_ffn_write", "t2v_read"))

    def test_zero_batch_rejected(self):
        with pytest.raises(ConfigError, match="batch"):
            ExperimentConfig(mode="diagnose", batch=0)

    def test_partial_geometry_rejected(self):
        cfg = ExperimentConfig(mode="cost", n_layers=4)
        with pytest.raises(ConfigError, match="partial geometry"):
            cfg.model_config()

    def test_cost_needs_geometry(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="cost").model_config()

    def test_mode_default_geometries(self):
        mc = ExperimentConfig(mode="diagnose").model_config()
        assert (mc.n_layers, mc.d_model) == (4, 16)
        mc = ExperimentConfig(mode="bench").model_config()
        assert (mc.n_layers, mc.d_model, mc.d_ffn) == (32, 256, 688)
        # the library and the CLI read one per-mode table, layout included
        diag = ExperimentConfig(mode="diagnose")
        assert diag.layout() == TokenLayout(16, 2, 4) and diag.model_config().max_seq == 64
        assert ExperimentConfig(mode="diagnose", n_vision=9).layout() == TokenLayout(9, 2, 4)
        for mode in ("cost", "bench"):
            assert ExperimentConfig(mode=mode).layout() == TokenLayout(576, 35, 20)

    def test_schedule_names(self):
        cfg = ExperimentConfig(mode="diagnose")
        assert all(
            p.mode is PolicyMode.BASELINE
            for p in cfg.policy_schedule(4).layers
        )
        sparse = ExperimentConfig(mode="diagnose", schedule="sparse:0,2")
        assert sparse.policy_schedule(4).frozen_vision_layers() == [0, 2]
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="diagnose", schedule="sparse:a").policy_schedule(4)
        with pytest.raises(ConfigError, match="spans"):
            ExperimentConfig(mode="diagnose", schedule="vica7b").policy_schedule(4)

    def test_desk_scale_guard(self):
        cfg = ExperimentConfig(mode="diagnose", n_layers=4, n_heads=2, d_model=2048, d_ffn=32)
        with pytest.raises(ConfigError, match="desk-scale"):
            cfg.require_desk_scale()

    def test_mode_default_schedules(self):
        # filled like the layout, so the manifest records what was computed
        assert [ExperimentConfig(mode=m).schedule for m in ExperimentConfig.MODES] == [
            "baseline", "baseline", None, "vica7b",
        ]
        assert ExperimentConfig(mode="bench", schedule="sparse:0").schedule == "sparse:0"
        # under golden the preset's schedule is the default, filled by the check
        assert ExperimentConfig(mode="cost", golden=True).schedule is None


class TestGoldenCheck:
    def test_all_presets_pass(self):
        rows = check_golden(["llava3b", "llava7b", "llava13b"])
        assert len(rows) == 26
        assert all(ok for *_, ok in rows)
        quantities = {key for _, key, *_ in rows}
        assert "pdrop_baseline_mean_tokens" in quantities

    def test_single_preset_subset(self):
        rows = check_golden(["llava7b"])
        assert {r[0] for r in rows} == {"llava7b"}
        assert all(ok for *_, ok in rows)


class TestCliCost:
    def test_golden_pass_exit_zero(self, tmp_path, capsys):
        code = main(
            ["cost", "--preset", "llava7b", "--schedule", "vica7b",
             "--golden", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.31 TFLOPs (4.1%)" in out
        assert "golden check passed" in out
        report = json.loads((tmp_path / "cost.json").read_text())
        assert report["schedule"]["retained_layers"] == [0, 1, 7, 8, 9, 10, 11, 14]
        golden = json.loads((tmp_path / "golden.json").read_text())
        assert golden["pass"] is True

    def test_golden_mismatch_exit_one(self, tmp_path, capsys, monkeypatch):
        import vica.harness as harness

        broken = {k: dict(v) for k, v in harness.GOLDEN_NUMBERS.items()}
        broken["llava7b"]["vica_vision_tflops"] = (0.99, 0.01)
        monkeypatch.setattr(harness, "GOLDEN_NUMBERS", broken)
        code = main(
            ["cost", "--preset", "llava7b", "--golden", "--out", str(tmp_path)]
        )
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--preset", "llava7b", "--n", "100", "--schedule", "baseline"],
        ["--preset", "llava7b", "--schedule", "baseline"],
        ["--preset", "llava7b", "--t-question", "19"],
        ["--schedule", "vica7b"],
        ["--layers", "2", "--heads", "2", "--d-model", "8", "--d-ffn", "16"],
    ])
    def test_golden_of_another_report_is_config_error(self, tmp_path, args):
        # the check reads each preset's vica schedule at n=576 t_s=35 t_q=20;
        # a report of anything else is refused before any file is written
        out = tmp_path / "out"
        assert main(["cost", *args, "--golden", "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_golden_schedule_defaults_to_the_presets(self, tmp_path, capsys):
        assert main(["cost", "--preset", "llava7b", "--golden", "--out", str(tmp_path)]) == EXIT_OK
        assert "schedule           vica7b" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["schedule"] == "vica7b"

    def test_full_sweep_without_preset(self, tmp_path, capsys):
        code = main(["cost", "--golden", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "26 quantities" in capsys.readouterr().out

    def test_cost_without_geometry_is_config_error(self, tmp_path):
        assert main(["cost", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_no_vision_zeroes_vision_costs(self, tmp_path, capsys):
        code = main(
            ["cost", "--preset", "llava7b", "--schedule", "vica7b",
             "--n", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "cost.json").read_text())
        assert report["baseline"]["vision_total_flops"] == 0
        assert report["schedule_costs"]["vision_flops"] == 0
        assert report["schedule_costs"]["kv_cache_fraction"] == 0.0

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = llava3b\nschedule = vica3b\nt_system = 7\n")
        code = main(
            ["cost", "--config", str(cfg), "--preset", "llava13b",
             "--schedule", "vica13b", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "cost.json").read_text())
        assert report["geometry"]["d_model"] == 5120  # CLI beat the file
        assert report["layout"]["t_system"] == 7  # file-only key kept
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["t_system"] == 7

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["cost", "--preset", "llava3b", "--out", str(out)])
        for name in ("cost.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCliDiagnose:
    def test_csv_shape_and_bounds(self, tmp_path):
        code = main(
            ["diagnose", "--out", str(tmp_path), "--seed", "5",
             "--paths", "t2v_read", "--batch", "2"]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "diagnose_t2v_read.csv").read_text().splitlines()
        assert lines[0] == "layer,kl,one_minus_cos"
        assert len(lines) == 5  # header + 4 layers
        for row in lines[1:]:
            _, kl, cos = row.split(",")
            assert float(kl) >= 0.0 and float(cos) >= 0.0
        assert (tmp_path / "diagnose_t2v_read.dat").exists()
        assert (tmp_path / "diagnose.json").exists()

    def test_reads_only_at_layer_zero(self, tmp_path):
        # constructed reachability: later read ablations are vacuous
        code = main(
            ["diagnose", "--out", str(tmp_path), "--schedule", "sparse:0",
             "--paths", "t2v_read", "--batch", "2", "--seed", "1"]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "diagnose_t2v_read.csv").read_text().splitlines()
        kls = [float(r.split(",")[1]) for r in lines[1:]]
        assert kls[0] > 0.0
        assert kls[1:] == [0.0, 0.0, 0.0]

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["diagnose", "--out", str(out), "--seed", "7"])
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_desk_scale_guard_via_cli(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["diagnose", "--layers", "4", "--heads", "2", "--d-model", "2048",
                     "--d-ffn", "32", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert "exceeds the desk-scale limit" in capsys.readouterr().err
        assert not out.exists()


class TestCliEquivalence:
    def test_grid_passes(self, tmp_path, capsys):
        code = main(["equivalence", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "equivalence.json").read_text())
        assert report["pass"] is True
        assert report["cases"] == 2160
        assert report["max_deviation"] <= 1e-10
        assert "PASS" in capsys.readouterr().out

    def test_self_test_fails_with_located_tuple(self, tmp_path, capsys):
        code = main(["equivalence", "--self-test", "--out", str(tmp_path)])
        assert code == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "equivalence.json").read_text())
        assert report["pass"] is False
        case = report["failures"][0]["case"]
        assert set(case) == {"n", "t", "d", "heads", "layers", "schedule"}
        assert case["schedule"] != "baseline"
        assert "FAIL" in capsys.readouterr().out

    def test_nan_deviation_fails(self, tmp_path, monkeypatch):
        cases = [({"schedule": "baseline"}, 0.0), ({"schedule": "sparse"}, float("nan"))]
        monkeypatch.setattr(harness, "run_equivalence_cases", lambda cfg: iter(cases))
        cfg = ExperimentConfig(mode="equivalence", out_dir=str(tmp_path))
        assert run_equivalence(cfg) == EXIT_VERIFY_FAILED

    def test_nan_fast_logits_fail(self, tmp_path, monkeypatch):
        real = harness.forward_vica_fast

        def nan_fast(*args, **kwargs):
            result = real(*args, **kwargs)
            return replace(result, logits=np.full_like(result.logits, np.nan))

        small = dict(
            harness.EQUIV_GRID, n=(0, 3), t=(1, 2), d=(8,), heads=(2,), layers=(2,)
        )
        monkeypatch.setattr(harness, "EQUIV_GRID", small)
        monkeypatch.setattr(harness, "forward_vica_fast", nan_fast)
        cfg = ExperimentConfig(mode="equivalence", out_dir=str(tmp_path))
        assert run_equivalence(cfg) == EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "equivalence.json").read_text())
        assert report["pass"] is False
        assert {f["case"]["schedule"] for f in report["failures"]} == {
            "freeze", "sparse", "textonly",
        }


class TestCliBench:
    SMOKE = [
        "bench", "--layers", "8", "--heads", "8", "--d-model", "64",
        "--d-ffn", "172", "--n", "144", "--schedule", "sparse:0,3",
        "--reps", "1", "--warmup", "0",
    ]

    @staticmethod
    def _config():
        return ExperimentConfig(mode="bench", schedule="sparse:0,3", n_layers=8, n_heads=8,
                                d_model=64, d_ffn=172, n_vision=144)

    def _textonly_macs(self):
        cfg = self._config()
        return count_forward_macs(cfg.model_config(), cfg.layout(),
                                  PolicySchedule.text_only(8), "fast")

    def test_smoke_report(self, tmp_path, capsys):
        code = main(self.SMOKE + ["--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["macs"]["vica"] < report["macs"]["baseline"]
        assert report["checks"]["macs_equal_table"] is True
        assert report["timing"]["reps"] == 1
        timing = report["timing"]
        assert len(timing["textonly_s"]) == 1
        assert timing["textonly_median_s"] == timing["textonly_s"][0] > 0
        assert timing["wall_overhead_over_textonly"] == pytest.approx(
            timing["vica_median_s"] / timing["textonly_median_s"] - 1
        )
        # the joint clock, and so its multiplies, include the KV build
        assert timing["mac_overhead_over_textonly"] == pytest.approx(
            report["macs"]["vica"] / self._textonly_macs() - 1
        )
        out = capsys.readouterr().out
        assert "ratio" in out and "textonly" in out

    def test_split_clock_readings(self, tmp_path):
        # one timed loop: each rep builds a fresh KV and prefills on it, with
        # the clock read between the two
        code = main(self.SMOKE + ["--reps", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        timing = json.loads((tmp_path / "bench.json").read_text())["timing"]
        assert "decoupled" not in timing
        for name in ("baseline", "vica", "precompute", "prefill", "textonly"):
            assert len(timing[f"{name}_s"]) == 3 and min(timing[f"{name}_s"]) > 0
            assert timing[f"{name}_median_s"] == median(timing[f"{name}_s"])
        assert timing["vica_s"] == [
            a + b for a, b in zip(timing["precompute_s"], timing["prefill_s"])
        ]
        assert timing["prefill_wall_overhead_over_textonly"] == (
            timing["prefill_median_s"] / timing["textonly_median_s"] - 1
        )
        cfg = self._config()
        fast = count_forward_macs(cfg.model_config(), cfg.layout(),
                                  cfg.policy_schedule(8), "fast", include_kv_precompute=False)
        assert timing["prefill_mac_overhead_over_textonly"] == fast / self._textonly_macs() - 1

    def test_decoupled_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(self.SMOKE + ["--decoupled", "--out", str(tmp_path)])
        assert exc.value.code == 2
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("decoupled = true\n")
        assert main(self.SMOKE + ["--config", str(cfg), "--out", str(tmp_path)]) == (
            EXIT_CONFIG_ERROR
        )

    # each exited 1 when the check compared the counts with a hand-mixed rule
    @pytest.mark.parametrize("args", [
        "--layers 2 --heads 2 --d-model 8 --d-ffn 16 --n 0 --schedule sparse:0",
        "--layers 2 --heads 1 --d-model 8 --d-ffn 8 --n 4 --t-system 0 --t-question 1 "
        "--schedule sparse:0",
        "--layers 2 --heads 1 --d-model 8 --d-ffn 8 --n 4 --schedule freeze --dtype float32",
        "--layers 32 --heads 4 --d-model 32 --d-ffn 64 --n 64 --schedule vica7b+pdrop",
    ])
    def test_counts_checked_against_the_timed_rules(self, tmp_path, capsys, args):
        code = main(["bench", *args.split(), "--reps", "1", "--warmup", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["checks"]["macs_equal_table"] is True
        assert not {"table_ratio", "ratio_rel_err"} & set(report["macs"])

    def _miscounted_run(self, tmp_path, capsys, monkeypatch, name):
        """Run the smoke bench with ``harness.<name>`` counting 1 MAC too many;
        return the FAIL lines and the checks."""
        real = getattr(harness, name)

        def miscounting(*args, counter=None, **kwargs):
            out = real(*args, counter=counter, **kwargs)
            if counter is not None:
                counter.add(1)
            return out

        monkeypatch.setattr(harness, name, miscounting)
        code = main(self.SMOKE + ["--out", str(tmp_path)])
        assert code == EXIT_VERIFY_FAILED
        fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
        return fails, json.loads((tmp_path / "bench.json").read_text())["checks"]

    def test_miscount_fails(self, tmp_path, capsys, monkeypatch):
        # the fast path runs both the vica prefill and text-only
        fails, checks = self._miscounted_run(tmp_path, capsys, monkeypatch, "forward_vica_fast")
        cfg = self._config()
        vica = count_forward_macs(cfg.model_config(), cfg.layout(), cfg.policy_schedule(8), "fast")
        assert fails == [
            f"FAIL vica counted {vica + 1:,} MACs, the table {vica:,}",
            f"FAIL textonly counted {self._textonly_macs() + 1:,} MACs, "
            f"the table {self._textonly_macs():,}",
        ]
        assert checks["macs_equal_table"] is False

    def test_baseline_miscount_fails(self, tmp_path, capsys, monkeypatch):
        fails, checks = self._miscounted_run(tmp_path, capsys, monkeypatch, "forward")
        assert len(fails) == 1 and fails[0].startswith("FAIL baseline counted ")
        assert checks["macs_equal_table"] is False

    @pytest.mark.parametrize("geometry", [
        "--layers 8 --heads 8 --d-model 64 --d-ffn 172 --n 144 --schedule sparse:0,3",
        "--layers 32 --heads 4 --d-model 64 --d-ffn 172 --n 144 --schedule vica7b+pdrop",
    ])
    def test_cost_model_and_its_named_differences(self, tmp_path, geometry):
        assert main(["bench", *geometry.split(), "--reps", "1", "--warmup", "0",
                     "--out", str(tmp_path / "bench")]) == EXIT_OK
        assert main(["cost", *geometry.split(), "--out", str(tmp_path / "cost")]) == EXIT_OK
        macs = json.loads((tmp_path / "bench" / "bench.json").read_text())["macs"]
        cost = json.loads((tmp_path / "cost" / "cost.json").read_text())
        # the cost model's ratio is the one `vica cost` reports
        assert macs["costmodel_ratio"] == cost["schedule_costs"]["relative_total"]
        # the named differences sum to the fast path's count less the model's
        args = dict(zip(geometry.split()[::2], geometry.split()[1::2]))
        mc = ModelConfig(*(int(args[k]) for k in ("--layers", "--heads", "--d-model", "--d-ffn")),
                         max_seq=int(args["--n"]) + 55)
        layout = TokenLayout(int(args["--n"]), 35, 20)
        sched = parse_schedule(args["--schedule"], mc.n_layers)
        gap = macs["vica_minus_costmodel"]
        assert set(gap) == {*MAC_OPS, "logits"}
        paper = mac_total(mac_table(sched, mc.d_model, mc.d_ffn, layout, "paper"))
        assert macs["costmodel_vica"] == paper
        assert sum(gap.values()) == count_forward_macs(mc, layout, sched, "fast") - paper
        assert sum(gap.values()) == macs["vica"] - macs["costmodel_vica"]

    def test_rerun_identical_outside_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(self.SMOKE + ["--out", str(out)])
        ra = json.loads((a / "bench.json").read_text())
        rb = json.loads((b / "bench.json").read_text())
        # the wall-clock comparison is a timing reading, not a deterministic check
        assert isinstance(ra["timing"]["vica_wall_clock_lower"], bool)
        assert "vica_wall_clock_lower" not in ra["checks"]
        ra.pop("timing"), rb.pop("timing")
        assert ra == rb
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_bench_needs_sparse_schedule(self, tmp_path):
        code = main(
            ["bench", "--layers", "8", "--heads", "8", "--d-model", "64",
             "--d-ffn", "172", "--schedule", "textonly", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG_ERROR

    def test_default_schedule_must_span_the_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bench", "--layers", "8", "--heads", "8", "--d-model", "64",
                     "--d-ffn", "172", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        assert "schedule 'vica7b' spans 32 layers, model has 8" in capsys.readouterr().err
        assert not out.exists()

    def test_drop_schedule_priced_by_the_table(self, tmp_path):
        code = main(["bench", "--layers", "32", "--heads", "4", "--d-model", "64",
                     "--d-ffn", "172", "--n", "144", "--schedule", "vica7b+pdrop",
                     "--reps", "1", "--warmup", "0", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["checks"]["macs_equal_table"] is True
        # the paper's cost of the schedule; each cut layer projects the keys/
        # values of the rows it then drops, which is named as the excess
        # over it
        ci = CostInputs(32, 64, 172, n=144)
        sched = schedule_preset("vica7b+pdrop")
        counts = resolved_vision_counts(sched, ci)
        entering = [144, *counts]
        dropped_kv = sum(2 * 2 * (entering[l] - counts[l]) * 64 * 64
                         for l in sched.frozen_vision_layers())
        model = schedule_vision_flops(sched, ci) + text_only_flops(ci)
        assert dropped_kv > 0
        assert report["macs"]["costmodel_ratio"] == model / total_flops(ci)
        assert 2 * report["macs"]["vica_minus_costmodel"]["vision_kv"] == dropped_kv


class TestManifest:
    def test_fields_and_stability(self, tmp_path):
        main(["cost", "--preset", "llava3b", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # the seed is in the config block of the modes that read one
        assert set(manifest) == {"config", "config_sha256", "versions"}
        assert "seed" not in manifest["config"]
        assert set(manifest["versions"]) == {"python", "numpy", "vica"}
        assert len(manifest["config_sha256"]) == 64
        assert manifest["config"]["preset"] == "llava3b"

    @pytest.mark.parametrize("argv, schedule", [
        (["cost", "--preset", "llava7b"], "baseline"),
        (["diagnose", "--batch", "1", "--paths", "t2v_read"], "baseline"),
        (["bench", "--layers", "32", "--heads", "4", "--d-model", "32", "--d-ffn", "64",
          "--n", "64", "--reps", "1", "--warmup", "0"], "vica7b"),
    ])
    def test_default_schedule_has_the_explicit_digest(self, tmp_path, argv, schedule):
        # one computation, one digest: the default is recorded as the schedule it is
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == EXIT_OK
        assert main([*argv, "--schedule", schedule, "--out", str(b)]) == EXIT_OK
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
        assert manifests[0] == manifests[1]
        assert manifests[0]["config"]["schedule"] == schedule

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VICA_OUT_DIR", str(tmp_path / "env"))
        code = main(["cost", "--preset", "llava3b"])
        assert code == EXIT_OK
        assert (tmp_path / "env" / "cost.json").exists()


def _exit_code(argv):
    """main's exit code, or argparse's for a flag the subcommand lacks."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestModeKeys:
    """Each mode's flags, config-file keys and manifest are the keys it reads."""

    # a base that the mode otherwise accepts, at small scale
    BASE = {
        "cost": ["--preset", "llava3b"],
        "diagnose": ["--batch", "1"],
        "equivalence": [],
        "bench": TestCliBench.SMOKE[1:],
    }

    @pytest.mark.parametrize("mode, line, flag", [
        ("cost", "seed = 5", ["--seed", "5"]),
        ("diagnose", "dtype = float32", ["--dtype", "float32"]),
        ("diagnose", "golden = true", ["--golden"]),
        ("diagnose", "preset = llava7b", ["--preset", "llava7b"]),
        ("equivalence", "n_vision = 8", ["--n", "8"]),
        ("bench", "paths = t2v_read", ["--paths", "t2v_read"]),
        ("bench", "preset = llava7b", ["--preset", "llava7b"]),
    ])
    def test_unread_key_exits_two_before_any_output(self, tmp_path, capsys, mode, line, flag):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
        cfg.write_text(line + "\n")
        for argv in (["--config", str(cfg)], flag):
            assert _exit_code([mode, *self.BASE[mode], *argv, "--out", str(out)]) == (
                EXIT_CONFIG_ERROR
            )
            assert not out.exists()
        file_err, flag_err = capsys.readouterr().err.split("usage:")
        assert f"{mode} mode reads no {line.split()[0]!r}" in file_err
        assert f"unrecognized arguments: {flag[0]}" in flag_err

    def test_library_names_the_unread_keys(self):
        with pytest.raises(ConfigError, match="equivalence mode reads no n_vision, reps"):
            ExperimentConfig(mode="equivalence", n_vision=8, reps=9)
        # a key at its default is no setting
        ExperimentConfig(mode="cost", seed=0, dtype="float64")

    def test_flags_are_the_table(self):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        for mode, (*_, keys) in ExperimentConfig.MODE_DEFAULTS.items():
            dests = {a.dest for a in subparsers[mode]._actions} - {"help"}
            assert dests == {"config", "out_dir", *keys}
            # argparse reads no value: the config file's reader does
            assert all(a.type is None and a.choices is None for a in subparsers[mode]._actions)

    def test_manifest_holds_the_read_keys(self, tmp_path, monkeypatch):
        small = dict(harness.EQUIV_GRID, n=(0, 3), t=(1,), d=(8,), heads=(1,), layers=(1,))
        monkeypatch.setattr(harness, "EQUIV_GRID", small)
        assert main(["equivalence", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"mode": "equivalence", "seed": 3, "self_test": False}

    def test_mode_line_names_the_subcommand(self, tmp_path):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
        cfg.write_text("mode = cost\n")
        assert main(["equivalence", "--config", str(cfg), "--out", str(out)]) == (
            EXIT_CONFIG_ERROR
        )
        assert not out.exists()
        assert parse_config("mode = cost\npreset = llava3b", "cost") == {
            "mode": "cost", "preset": "llava3b",
        }
        with pytest.raises(ConfigError, match="line 1: mode 'bench'"):
            parse_config("mode = bench", "cost")

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--config"],
        ["cost", "--preset", "llava7b", "--config"],
        ["diagnose", "--schedule", ""],
        ["cost", "--preset", "llava7b", "--schedule", ""],
    ])
    def test_empty_schedule_exits_two(self, tmp_path, capsys, argv):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
        cfg.write_text("schedule =\n")
        if argv[-1] == "--config":
            argv = [*argv, str(cfg)]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert "schedule must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("golden", [[], ["--golden"]])
    def test_partial_geometry_is_named(self, tmp_path, capsys, golden):
        out = tmp_path / "out"
        assert main(["cost", "--layers", "4", *golden, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert ("--golden needs a preset geometry" if golden else "partial geometry") in err
        assert not out.exists()


class TestOneValueParser:
    """A flag's text is read by the config file's value reader."""

    @pytest.mark.parametrize("argv, message", [
        (["cost", "--layers", "3_2", "--heads", "4", "--d-model", "64", "--d-ffn", "128"],
         "n_layers expects an integer, got '3_2'"),
        (["cost", "--preset", "llava7b", "--n", "\u0661\u0666"],
         "n_vision expects an integer, got '\u0661\u0666'"),
        (["diagnose", "--seed", "0x10"], "seed expects an integer, got '0x10'"),
        (["bench", "--dtype", "float16"], "dtype must be float64 or float32, got 'float16'"),
        (["diagnose", "--seed", "-1"], "seed must be at least 0"),
    ])
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ExperimentConfig.MODES)
    def test_file_line_and_flag_read_alike(self, tmp_path, capsys, mode):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
        int_keys = [k for k in ExperimentConfig.MODE_DEFAULTS[mode][-1]
                    if harness._FIELD_TYPES[k] in ("int", "int | None")]
        assert int_keys
        for key in int_keys:
            for raw in ("3_2", "+3", "\u0663", "3.0", "0x10", ""):
                cfg.write_text(f"{key} = {raw}\n")
                for argv in (["--config", str(cfg)], [cli.FLAGS[key][0], raw]):
                    code = main([mode, *TestModeKeys.BASE[mode], *argv, "--out", str(out)])
                    assert code == EXIT_CONFIG_ERROR
                    assert not out.exists()
                file_err, flag_err = capsys.readouterr().err.splitlines()
                message = f"config error: {key} expects an integer, got {raw!r}"
                assert file_err == flag_err == message

    @pytest.mark.parametrize("golden", [[], ["--golden"]])
    @pytest.mark.parametrize("geometry", [
        ["--layers", "4"],
        ["--layers", "32", "--heads", "32", "--d-model", "4096", "--d-ffn", "11008"],
    ])
    def test_preset_excludes_geometry(self, tmp_path, capsys, golden, geometry):
        # the report was the preset's while the manifest recorded the geometry
        out = tmp_path / "out"
        argv = ["cost", "--preset", "llava7b", *geometry, *golden, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "preset llava7b excludes n_layers/n_heads/d_model/d_ffn" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        with pytest.raises(ConfigError, match="excludes"):
            ExperimentConfig(preset="llava7b", d_ffn=11008).model_config()


class TestCliPlumbing:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR
        out = capsys.readouterr().out
        assert out.startswith("usage: vica")
        assert "{cost,diagnose,equivalence,bench,presets}" in out

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "llava7b" in out and "vica13b" in out
        assert "sparse:<layer>,<layer>,..." in out

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--bogus"])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["cost", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG_ERROR

    def test_config_path_is_directory(self, tmp_path):
        code = main(["cost", "--config", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR

    def test_diagnose_zero_batch(self, tmp_path):
        code = main(["diagnose", "--batch", "0", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR

    def test_diagnose_empty_or_repeated_paths(self, tmp_path):
        cfg, trailing = tmp_path / "empty.cfg", tmp_path / "trailing.cfg"
        cfg.write_text("paths =\n")
        trailing.write_text("paths = t2v_read,\n")
        out = tmp_path / "out"
        # one parser for both: an empty item exits 2 from a file and a flag alike
        for argv in (["--config", str(cfg)], ["--paths", "t2v_read,t2v_read"],
                     ["--config", str(trailing)], ["--paths", "t2v_read,"]):
            assert main(["diagnose", *argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["cost", "--preset", "llava7b", "--schedule", "nope"],
        ["diagnose", "--schedule", "sparse:x"],
        # parses, but the sweep's referee takes no drop events
        ["diagnose", "--schedule", "baseline+pdrop"],
        ["diagnose", "--schedule", "freezevis"],
    ])
    def test_bad_schedule_creates_no_out_dir(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_crash_exits_internal_error(self, tmp_path, monkeypatch, capsys):
        def crash(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.RUNNERS, "cost", crash)
        code = main(["cost", "--preset", "llava3b", "--out", str(tmp_path)])
        assert code == EXIT_INTERNAL_ERROR
        assert code not in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_CONFIG_ERROR)
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err
