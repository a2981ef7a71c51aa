"""Config grammar, CLI exit codes, artifact reproducibility, golden checks."""

import json
from dataclasses import replace

import numpy as np
import pytest

import vica.harness as harness
from vica.cli import main
from vica.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ExperimentConfig,
    check_golden,
    load_config,
    parse_config,
    run_bench,
    run_diagnose,
    run_equivalence,
)
from vica.model import ConfigError, PolicyMode


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
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("golden = maybe")

    def test_load_with_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("preset = llava3b\nseed = 4\n")
        cfg = load_config(p, {"seed": 9})
        assert cfg.preset == "llava3b" and cfg.seed == 9


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
        cfg = ExperimentConfig(mode="diagnose", preset="llava7b")
        with pytest.raises(ConfigError, match="desk-scale"):
            cfg.require_desk_scale()


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
        cfg.write_text("preset = llava3b\nschedule = vica3b\n")
        code = main(
            ["cost", "--config", str(cfg), "--preset", "llava13b",
             "--schedule", "vica13b", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "cost.json").read_text())
        assert report["geometry"]["d_model"] == 5120  # CLI beat the file

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

    def test_desk_scale_guard_via_cli(self, tmp_path):
        code = main(["diagnose", "--preset", "llava7b", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR


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

    def test_smoke_report(self, tmp_path, capsys):
        code = main(self.SMOKE + ["--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["macs"]["vica"] < report["macs"]["baseline"]
        assert report["checks"]["mac_ratio_within_5pct"] is True
        assert report["timing"]["reps"] == 1
        assert "ratio" in capsys.readouterr().out

    def test_decoupled_flag_recorded(self, tmp_path):
        code = main(self.SMOKE + ["--decoupled", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["timing"]["decoupled"] is True

    def test_rerun_identical_outside_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(self.SMOKE + ["--out", str(out)])
        ra = json.loads((a / "bench.json").read_text())
        rb = json.loads((b / "bench.json").read_text())
        ra.pop("timing"), rb.pop("timing")
        assert ra == rb
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_bench_needs_sparse_schedule(self, tmp_path):
        code = main(
            ["bench", "--layers", "8", "--heads", "8", "--d-model", "64",
             "--d-ffn", "172", "--schedule", "textonly", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG_ERROR


class TestManifest:
    def test_fields_and_stability(self, tmp_path):
        main(["cost", "--preset", "llava3b", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {"config", "config_sha256", "seed", "versions"}
        assert set(manifest["versions"]) == {"python", "numpy", "vica"}
        assert len(manifest["config_sha256"]) == 64
        assert manifest["config"]["preset"] == "llava3b"

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VICA_OUT_DIR", str(tmp_path / "env"))
        code = main(["cost", "--preset", "llava3b"])
        assert code == EXIT_OK
        assert (tmp_path / "env" / "cost.json").exists()


class TestCliPlumbing:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR
        assert "subcommand" in capsys.readouterr().out or True

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "llava7b" in out and "vica13b" in out

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
