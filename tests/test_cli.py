import hashlib
import json
import os
import re
import shlex
import types

import numpy as np
import pytest

from fhtsurv import cli
from fhtsurv.cli import _model_config, build_parser, main
from fhtsurv.data import NonPhConfig, apply_preprocess, generate_nonph, load_csv, write_csv
from fhtsurv.interpret import risk_grid
from fhtsurv.modelio import read_json
from fhtsurv.training import FittedModel


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    data = generate_nonph(NonPhConfig(seed=3, n_raw=600, n_keep=240))
    write_csv(data, str(path))
    return str(path)


@pytest.fixture(scope="module")
def quick_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "model.json"
    path.write_text(json.dumps({
        "hidden_sizes": [8],
        "epochs": 4,
        "batch_size": 64,
        "learning_rate": 0.005,
    }))
    return str(path)


@pytest.fixture(scope="module")
def trained_model(small_csv, quick_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(["train", "--data", small_csv, "--config", quick_cfg,
               "--out", str(out), "--seed", "5"])
    assert rc == 0
    return str(out)


class TestGenerate:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "nonph.csv"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 160}))
        rc = main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "1"])
        assert rc == 0
        assert out.exists()
        manifest = read_json(str(out) + ".manifest.json")
        assert manifest["command"] == "generate"
        assert manifest["outputs"] == [str(out)]
        assert manifest["config_snapshot"] == {"n_raw": 400, "n_keep": 160}
        assert manifest["args"]["seed"] == 1
        assert "wall_clock_s" in manifest and "package_version" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "nonph.csv"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 160}))
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "2"]) == 0
        first = sha(out)
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
        assert sha(out) == first

    def test_rerun_refuses_changed_config(self, tmp_path, capsys):
        out = tmp_path / "nonph.csv"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 160}))
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "2"]) == 0
        first = sha(out)
        cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 120}))
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 1
        assert str(cfg) in capsys.readouterr().err
        assert sha(out) == first

    def test_rerun_times_the_command(self, tmp_path, monkeypatch):
        out = tmp_path / "nonph.csv"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 160}))
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "2"]) == 0
        clock = [1000.0]
        generate = cli._COMMANDS["generate"]

        def slow_generate(args):
            clock[0] += 5.0
            return generate(args)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: clock[0]))
        monkeypatch.setitem(cli._COMMANDS, "generate", slow_generate)
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
        assert read_json(str(out) + ".manifest.json")["wall_clock_s"] == 5.0


class TestTrainEval:
    def test_train_writes_model_with_recipe(self, trained_model):
        obj = read_json(trained_model)
        assert obj["kind"] == "levy"
        assert obj["recipe"] is not None
        assert len(obj["loss_trace"]) == 4

    def test_train_rerun_byte_identical(self, small_csv, quick_cfg, tmp_path):
        out = tmp_path / "m.json"
        assert main(["train", "--data", small_csv, "--config", quick_cfg,
                     "--out", str(out), "--seed", "9"]) == 0
        first = sha(out)
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
        assert sha(out) == first

    def test_eval_report(self, trained_model, small_csv, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["eval", "--model", trained_model, "--data", small_csv,
                   "--out", str(out), "--bootstrap", "5", "--seed", "3"])
        assert rc == 0
        rep = read_json(str(out))
        assert 0.0 <= rep["c_index"] <= 1.0
        assert rep["c_index_bootstrap"]["std"] >= 0.0
        assert rep["n_bootstrap"] == 5

    def test_eval_schema_mismatch_nonzero_exit(self, trained_model, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,time,event\n1,2,1.0,1\n3,4,2.0,0\n")
        out = tmp_path / "r.json"
        rc = main(["eval", "--model", trained_model, "--data", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "x1" in err  # names the missing column

    def test_invgauss_distribution_flag(self, small_csv, quick_cfg, tmp_path):
        out = tmp_path / "ig.json"
        rc = main(["train", "--data", small_csv, "--config", quick_cfg,
                   "--distribution", "invgauss", "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert read_json(str(out))["kind"] == "invgauss"


class TestCompare:
    def test_side_by_side_report(self, small_csv, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "levy": {"hidden_sizes": [8], "epochs": 3, "batch_size": 64, "learning_rate": 0.005},
            "invgauss": {"hidden_sizes": [8], "epochs": 3, "batch_size": 64, "learning_rate": 0.005},
        }))
        out = tmp_path / "compare.json"
        rc = main(["compare", "--data", small_csv, "--config", str(cfg),
                   "--out", str(out), "--bootstrap", "4", "--seed", "11"])
        assert rc == 0
        rep = read_json(str(out))
        assert set(rep["models"]) == {"levy", "invgauss", "cox"}
        for entry in rep["models"].values():
            assert "c_index_bootstrap" in entry and "ibs_bootstrap" in entry
            assert entry["c_index_bootstrap"]["std"] >= 0.0

    def test_cv_scores_when_folds_requested(self, small_csv, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "levy": {"hidden_sizes": [8], "epochs": 2, "batch_size": 64, "learning_rate": 0.005},
            "invgauss": {"hidden_sizes": [8], "epochs": 2, "batch_size": 64, "learning_rate": 0.005},
        }))
        out = tmp_path / "compare.json"
        rc = main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out),
                   "--bootstrap", "3", "--folds", "3", "--seed", "1"])
        assert rc == 0
        rep = read_json(str(out))
        assert len(rep["models"]["levy"]["cv_c_index"]) == 3

    def test_study_config_is_a_valid_compare_config(self):
        path = os.path.join(os.path.dirname(__file__), "..", "scripts", "nonph_compare.json")
        sections = read_json(path)
        assert set(sections) <= {"levy", "invgauss"}
        resolved = {k: _model_config(None, v) for k, v in sections.items()}
        assert resolved["invgauss"]["epochs"] == 200
        assert resolved["invgauss"]["batch_size"] == 64
        assert resolved["invgauss"]["learning_rate"] == 0.0028


class TestRiskmap:
    def test_grid_and_overlay_written(self, trained_model, small_csv, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["riskmap", "--model", trained_model, "--data", small_csv,
                   "--out", str(out), "--resolution", "12"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[3].split(",")[2] == "time"
        assert len(lines) == 4 + 12 * 12
        overlay = tmp_path / "grid.overlay.csv"
        assert overlay.exists()
        overlay_lines = overlay.read_text().splitlines()
        assert len(overlay_lines) == 1 + 240

        # every cell is a plain float literal, and the grid round-trips exactly
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[4:]])
        overlay_cells = np.array([[float(v) for v in line.split(",")] for line in overlay_lines[1:]])
        assert overlay_cells.shape == (240, 4)
        model = FittedModel.load(trained_model)
        data = apply_preprocess(model.recipe, load_csv(small_csv))
        rmap = risk_grid(model, data, resolution=12)
        assert np.array_equal(cells[:, 2], rmap.grid.ravel())


class TestSimulate:
    def test_summary_against_closed_form(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--distribution", "levy", "--x0", "1.0", "--diffusion", "1.0",
                   "--paths", "4000", "--dt", "0.005", "--tmax", "1.0",
                   "--out", str(out), "--seed", "4"])
        assert rc == 0
        rep = read_json(str(out))
        assert rep["kind"] == "levy"
        assert all(abs(row["z"]) < 4.0 for row in rep["comparison"])

    def test_samples_dump_and_rerun(self, tmp_path):
        out = tmp_path / "sim.json"
        csv_out = tmp_path / "samples.csv"
        args = ["simulate", "--distribution", "invgauss", "--x0", "1.0", "--drift", "-1.0",
                "--paths", "500", "--dt", "0.01", "--tmax", "2.0",
                "--out", str(out), "--samples-out", str(csv_out), "--seed", "8"]
        assert main(args) == 0
        h1, h2 = sha(out), sha(csv_out)
        assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
        assert sha(out) == h1 and sha(csv_out) == h2

    def test_missing_param_errors(self, tmp_path, capsys):
        rc = main(["simulate", "--distribution", "levy", "--x0", "1.0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "diffusion" in capsys.readouterr().err


def test_unknown_config_key_rejected(small_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hidden": [8]}))
    rc = main(["train", "--data", small_csv, "--config", str(cfg),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "unknown model config keys" in capsys.readouterr().err


def test_optimizer_other_than_adam_rejected(small_csv, tmp_path, capsys):
    cfg = tmp_path / "sgd.json"
    cfg.write_text(json.dumps({"hidden_sizes": [8], "epochs": 1, "optimizer": "sgd"}))
    out = tmp_path / "m.json"
    rc = main(["train", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'optimizer'" in err and "'sgd'" in err
    assert not out.exists()


def test_optimizer_adam_still_loads(small_csv, quick_cfg, trained_model, tmp_path):
    cfg = tmp_path / "adam.json"
    cfg.write_text(json.dumps(dict(read_json(quick_cfg), optimizer="adam")))
    out = tmp_path / "m.json"
    assert main(["train", "--data", small_csv, "--config", str(cfg),
                 "--out", str(out), "--seed", "5"]) == 0
    assert sha(out) == sha(trained_model)


class TestReadme:
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def readme_lines(self):
        with open(os.path.join(self.ROOT, "README.md"), encoding="utf-8") as fh:
            return fh.read().replace("\\\n", " ").splitlines()

    def test_every_command_parses(self):
        commands = [ln.strip() for ln in self.readme_lines() if ln.strip().startswith("fhtsurv ")]
        assert len(commands) >= 8
        parser = build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_named_scripts_exist(self):
        paths = set(re.findall(r"scripts/[\w./-]*\w", "\n".join(self.readme_lines())))
        assert paths
        for path in sorted(paths):
            assert os.path.exists(os.path.join(self.ROOT, path)), path
