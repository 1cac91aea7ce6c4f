import argparse
import ast
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest

from fhtsurv import cli
from fhtsurv.cli import _model_config, build_parser, main
from fhtsurv.cox import CoxModel, fit_cox
from fhtsurv.data import (
    NonPhConfig,
    SurvivalData,
    apply_preprocess,
    fit_preprocess,
    generate_nonph,
    load_csv,
    write_csv,
)
from fhtsurv.interpret import risk_grid
from fhtsurv.metrics import evaluate
from fhtsurv.modelio import encode_array, read_json
from fhtsurv.training import FittedModel, ModelConfig


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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
    def test_default_run_peak_rss(self, tmp_path):
        # the whole-matrix sampler took a fresh process to about 206 MB of
        # peak RSS, the row-blocked one to about 46 MB (about 31 MB of it
        # is importing the package).  The peak is read from VmHWM, which
        # exec resets: ru_maxrss keeps the forking test process's peak.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("import sys\n"
                "from fhtsurv.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(open('/proc/self/status').read())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-c", code, "generate", "--out", str(tmp_path / "nonph.csv")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        peak_kb = int(re.search(r"^VmHWM:\s*(\d+) kB$", proc.stdout, re.M).group(1))
        assert peak_kb < 100_000

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


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    out = tmp_path / "nonph.csv"
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_raw": 400, "n_keep": 160}))
    argv = ["generate", "--out", str(out), "--config", str(cfg), "--seed", "2"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert main(["rerun", "--manifest", str(out) + ".manifest.json"]) == 0
    assert built == []


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
        assert resolved["invgauss"].epochs == 200
        assert resolved["invgauss"].batch_size == 64
        assert resolved["invgauss"].learning_rate == 0.0028


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


    def test_overlay_lists_the_overlay_file(self, trained_model, small_csv, tmp_path):
        overlay_csv = tmp_path / "overlay-records.csv"
        write_csv(generate_nonph(NonPhConfig(seed=4, n_raw=300, n_keep=50)), str(overlay_csv))
        out = tmp_path / "grid.csv"
        rc = main(["riskmap", "--model", trained_model, "--data", small_csv,
                   "--overlay-data", str(overlay_csv), "--out", str(out), "--resolution", "8"])
        assert rc == 0
        lines = (tmp_path / "grid.overlay.csv").read_text().splitlines()
        assert len(lines) == 1 + 50
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        model = FittedModel.load(trained_model)
        records = apply_preprocess(model.recipe, load_csv(str(overlay_csv)))
        assert np.array_equal(cells[:, :2], model.params_for(records.x))
        assert np.array_equal(cells[:, 2], records.time)
        assert np.array_equal(cells[:, 3], records.delta)


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

    @pytest.mark.parametrize("kind, own, other", [
        ("levy", ["--diffusion", "1.0"], ["--drift", "-0.5"]),
        ("invgauss", ["--drift", "-0.5"], ["--diffusion", "3.0"]),
    ])
    def test_other_kinds_parameter_refused(self, kind, own, other, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "simulate_fpt", _must_not_run)
        out = tmp_path / "x.json"
        assert main(["simulate", "--distribution", kind, "--x0", "1.0", *own, *other,
                     "--out", str(out)]) == 1
        assert (f"{kind} simulation takes no {other[0]}; give {own[0]}"
                in capsys.readouterr().err)
        assert not out.exists()


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
    assert "unknown model config keys: ['optimizer']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("optimizer", "adam"), ("eval_time_cap", 256)])
def test_retired_config_key_refused_at_its_former_value(small_csv, tmp_path, capsys,
                                                        monkeypatch, key, value):
    # each used to load at this value, the only one training has
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    cfg = tmp_path / "retired.json"
    out = tmp_path / "m.json"
    for command, body in (("train", {"epochs": 1, key: value}),
                          ("compare", {"levy": {"epochs": 1, key: value}})):
        cfg.write_text(json.dumps(body))
        rc = main([command, "--data", small_csv, "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert f"unknown model config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("activation", "tanh", "model config key 'activation' must be 'relu', got 'tanh'"),
    ("dropout", 0.3, "model config key 'dropout' must be 0.0, got 0.3"),
    ("eval_time_cap", 128, "unknown model config keys: ['eval_time_cap']"),
], ids=["activation-tanh", "dropout-0.3", "eval_time_cap-128"])
def test_fixed_config_key_other_value_rejected(small_csv, tmp_path, capsys, key, value,
                                               message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hidden_sizes": [8], "epochs": 1, key: value}))
    out = tmp_path / "m.json"
    rc = main(["train", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(json.dumps({"levy": {"hidden_sizes": [8], "epochs": 1, key: value}}))
    rc = main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("hidden_sizes", [8.9, 2.2]), ("epochs", 2.5),
                                       ("batch_size", True)])
def test_integer_config_key_other_type_rejected(small_csv, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hidden_sizes": [8], "epochs": 1, key: value}))
    out = tmp_path / "m.json"
    rc = main(["train", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"model config key '{key}' must be" in err and repr(value) in err
    assert not out.exists()
    cfg.write_text(json.dumps({"levy": {"hidden_sizes": [8], "epochs": 1, key: value}}))
    rc = main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert f"model config key '{key}' must be" in capsys.readouterr().err
    assert not out.exists()


def test_compare_checks_both_sections_before_training(small_csv, tmp_path, capsys,
                                                      monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("compare trained a model before checking its config")

    monkeypatch.setattr(cli, "fit", must_not_run)
    monkeypatch.setattr(cli, "load_csv", must_not_run)
    prefix = "model config key "
    cases = [
        ({"epochs": 2.5}, "'epochs' must be an integer, got 2.5"),
        ({"epochs": -1}, "'epochs' must be >= 0, got -1"),
        ({"batch_size": 0}, "'batch_size' must be >= 1, got 0"),
        ({"hidden_sizes": [0]}, "'hidden_sizes' must hold widths >= 1, got [0]"),
        ({"learning_rate": 0}, "'learning_rate' must be a finite number > 0, got 0"),
        ({"learning_rate": True}, "'learning_rate' must be a finite number > 0, got True"),
        ({"learning_rate": "0.01"}, "'learning_rate' must be a finite number > 0, got '0.01'"),
        ({"learning_rate": float("inf")}, "'learning_rate' must be a finite number > 0, got inf"),
        ({"learning_rate": float("nan")}, "'learning_rate' must be a finite number > 0, got nan"),
    ]
    cfg = tmp_path / "bad.json"
    out = tmp_path / "compare.json"
    for section, message in cases:
        cfg.write_text(json.dumps({"levy": {"epochs": 1}, "invgauss": section}))
        rc = main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out)])
        assert rc == 1, section
        assert prefix + message in capsys.readouterr().err
        assert not out.exists()


# the generator's shape is fixed: these keys are refused at any value, also
# at the one each used to default to
RETIRED_GENERATE_KEYS = {"n_features": 20, "n_intervals": 16, "beta": 16.0, "horizon": 10.0,
                         "n_subintervals": 1000, "target_censoring": 0.25}


@pytest.mark.parametrize("overrides, message", [
    ({"beta": float("nan")}, "generate config has an unknown key 'beta'"),
    ({"beta": float("inf")}, "generate config has an unknown key 'beta'"),
    ({"beta": True}, "generate config has an unknown key 'beta'"),
    ({"horizon": float("inf")}, "generate config has an unknown key 'horizon'"),
    ({"n_keep": 2.5}, "n_keep must be an integer, got 2.5"),
    ({"n_raw": 1000.0}, "n_raw must be an integer, got 1000.0"),
    ({"n_intervals": "16"}, "generate config has an unknown key 'n_intervals'"),
    ({"n_features": True}, "generate config has an unknown key 'n_features'"),
    ({"n_subintervals": 0}, "generate config has an unknown key 'n_subintervals'"),
    ({"target_censoring": "0.25"}, "generate config has an unknown key 'target_censoring'"),
    *(({key: value}, f"generate config has an unknown key '{key}'")
      for key, value in RETIRED_GENERATE_KEYS.items()),
    ({"n_raw": 600, "bta": 16.0}, "generate config has an unknown key 'bta'"),
    ({"n_keep": 0}, "n_keep must be >= 1, got 0"),
], ids=["beta-nan", "beta-infinite", "beta-bool", "horizon-infinite", "n_keep-fraction",
        "n_raw-float", "n_intervals-text", "n_features-bool", "n_subintervals-zero",
        "censoring-text", *(f"{key}-former-default" for key in RETIRED_GENERATE_KEYS),
        "misspelt-key", "n_keep-zero"])
def test_generate_names_the_config_field_it_rejects(overrides, message, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "generate_nonph", _must_not_run)
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "nonph.csv"
    assert main(["generate", "--out", str(out), "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command did work before checking its options")


def test_train_checks_the_distribution_before_reading_data(small_csv, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"distribution": "gamma", "epochs": 1}))
    out = tmp_path / "m.json"
    assert main(["train", "--data", small_csv, "--config", str(cfg), "--out", str(out)]) == 1
    assert ("model config key 'distribution' must be one of ['levy', 'invgauss'], got 'gamma'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_batch_of_one_with_hidden_layers_rejected_before_reading_data(small_csv, tmp_path,
                                                                      capsys, monkeypatch):
    # batch normalization skips one-row batches, so this would train nothing
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"batch_size": 1, "epochs": 3, "hidden_sizes": [4]}))
    out = tmp_path / "m.json"
    assert main(["train", "--data", small_csv, "--config", str(cfg), "--out", str(out)]) == 1
    assert ("model config key 'batch_size' must be >= 2 when 'hidden_sizes' is not empty"
            in capsys.readouterr().err)
    assert not out.exists()


def test_generate_refuses_a_seed_in_its_config(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"seed": 9, "n_raw": 500, "n_keep": 100}))
    out = tmp_path / "nonph.csv"
    assert main(["generate", "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "'seed'" in err and "use --seed" in err
    assert not out.exists()


def test_compare_refuses_a_section_of_another_distribution(small_csv, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"levy": {"distribution": "invgauss", "epochs": 1}}))
    out = tmp_path / "compare.json"
    assert main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out)]) == 1
    assert ("compare config section 'levy' sets 'distribution' to 'invgauss'; leave it out, "
            "the section's name sets it" in capsys.readouterr().err)
    assert not out.exists()


def test_eval_refuses_another_model_file_version(trained_model, small_csv, tmp_path, capsys,
                                                 monkeypatch):
    model = tmp_path / "v99.json"
    model.write_text(json.dumps(dict(read_json(trained_model), version=99)))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert "unsupported model file version 99" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["compare", "--folds", "1"], "--folds must be 0 (no cross-validation) or >= 2, got 1"),
    (["compare", "--folds", "-3"], "--folds must be 0 (no cross-validation) or >= 2, got -3"),
    (["compare", "--bootstrap", "1"], "--bootstrap must be >= 2, got 1"),
    (["eval", "--model", "absent.json", "--bootstrap", "1"], "--bootstrap must be >= 2, got 1"),
], ids=["compare-folds-1", "compare-folds-negative", "compare-bootstrap-1", "eval-bootstrap-1"])
def test_resample_and_fold_counts_checked_before_any_work(argv, message, small_csv, tmp_path,
                                                          capsys, monkeypatch):
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "out.json"
    assert main(argv + ["--data", small_csv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_checks_the_recipe_before_reading_data(trained_model, small_csv, tmp_path,
                                                    capsys, monkeypatch):
    obj = read_json(trained_model)
    obj["recipe"] = None
    model = tmp_path / "no-recipe.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "out.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert "model file carries no preprocessing recipe" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_checks_the_recorded_counts(small_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "compare.json"
    manifest = tmp_path / "compare.json.manifest.json"
    manifest.write_text(json.dumps({
        "format": "fhtsurv-manifest", "version": 1, "command": "compare",
        "args": {"data": small_csv, "config": None, "out": str(out), "bootstrap": 100,
                 "folds": 1, "seed": 0},
    }))
    assert main(["rerun", "--manifest", str(manifest)]) == 1
    assert "--folds must be 0 (no cross-validation) or >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare_names_the_file_row_of_a_bad_test_cell(tmp_path, capsys, monkeypatch):
    # the column is numeric on the training rows; its one text cell, in file
    # row 5, falls in the test split
    rows = [f"{v},{t},1" for t, v in enumerate(["1", "2", "3", "oops", "5", "6", "7", "8"], 1)]
    path = tmp_path / "d.csv"
    path.write_text("v,time,event\n" + "\n".join(rows) + "\n")
    split = (np.array([0, 1, 2, 4, 5, 7]), np.array([3, 6]))
    monkeypatch.setattr(cli, "stratified_split_indices", lambda *args, **kwargs: split)
    monkeypatch.setattr(cli, "fit", _must_not_run)
    out = tmp_path / "compare.json"
    assert main(["compare", "--data", str(path), "--out", str(out)]) == 1
    assert "column 'v', row 5: expected a number, got 'oops'" in capsys.readouterr().err
    assert not out.exists()


def test_fixed_config_keys_at_their_value_still_load(small_csv, quick_cfg, trained_model,
                                                     tmp_path):
    cfg = tmp_path / "fixed.json"
    fixed = {"activation": "relu", "dropout": 0.0}
    cfg.write_text(json.dumps(dict(read_json(quick_cfg), **fixed)))
    out = tmp_path / "m.json"
    assert main(["train", "--data", small_csv, "--config", str(cfg),
                 "--out", str(out), "--seed", "5"]) == 0
    assert sha(out) == sha(trained_model)


@pytest.mark.parametrize("command", ["train", "generate", "eval", "riskmap", "rerun"])
def test_json_input_must_be_an_object(command, small_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    out = tmp_path / "out.json"
    flag = {"train": "--config", "generate": "--config", "eval": "--model",
            "riskmap": "--model", "rerun": "--manifest"}[command]
    data = [] if command in ("generate", "rerun") else ["--data", small_csv]
    output = [] if command == "rerun" else ["--out", str(out)]
    assert main([command, flag, str(path), *data, *output]) == 1
    assert f"{path} holds a JSON list, not an object" in capsys.readouterr().err
    assert not out.exists()


def test_compare_section_must_be_an_object(small_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "fit", _must_not_run)
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"levy": [1]}))
    out = tmp_path / "compare.json"
    assert main(["compare", "--data", small_csv, "--config", str(cfg), "--out", str(out)]) == 1
    assert "compare config section 'levy' must be a JSON object, got [1]" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_data_without_a_feature_column(tmp_path, capsys):
    # the only feature is constant, so preprocessing drops it
    path = tmp_path / "d.csv"
    path.write_text("c,time,event\n" + "".join(f"1,{t},{t % 2}\n" for t in range(1, 9)))
    out = tmp_path / "m.json"
    with pytest.warns(UserWarning, match="dropping constant column 'c'"):
        assert main(["train", "--data", str(path), "--out", str(out)]) == 1
    assert "training data has no feature column" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_another_recipe_version(trained_model, small_csv, tmp_path, capsys,
                                             monkeypatch):
    obj = read_json(trained_model)
    obj["recipe"]["version"] = 99
    model = tmp_path / "recipe99.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert ("model file key 'recipe': unsupported recipe version 99"
            in capsys.readouterr().err)
    assert not out.exists()


def _declare_width_9(payload):
    payload["hidden"][0]["width"] = 9


def _drop_gamma(payload):
    del payload["arrays"]["h0.gamma"]


def _declare_no_layer(payload):
    payload["hidden"] = []


def _add_an_array(payload):
    payload["arrays"]["out.scale"] = payload["arrays"]["out.b"]


def _declare_another_input_width(payload):
    payload["input_dim"] += 1


@pytest.mark.parametrize("edit, message", [
    (_declare_width_9, r"declares input then hidden widths \[\d+, 9\], but its arrays have "
                       r"\[\d+, 8\]"),
    (_drop_gamma, "missing array 'h0.gamma'"),
    (_declare_no_layer, r"declares input then hidden widths \[\d+\], but its arrays have "
                        r"\[\d+, 8\]"),
    (_add_an_array, "unexpected array 'out.scale'"),
    (_declare_another_input_width, r"declares input then hidden widths \[(\d+), 8\], but its "
                                   r"arrays have \[(?!\1\b)\d+, 8\]"),
], ids=["declared-width", "missing-array", "declared-no-layer", "extra-array",
        "declared-input-width"])
def test_eval_refuses_a_network_its_arrays_contradict(edit, message, trained_model, small_csv,
                                                     tmp_path, capsys, monkeypatch):
    obj = read_json(trained_model)
    edit(obj["payload"])
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def _set(path, value):
    """An edit that sets the model-file entry at ``path`` (a key sequence)."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _drop(path):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
    return edit


def _cut_data(obj):
    entry = obj["payload"]["arrays"]["h0.b"]
    entry["data"] = entry["data"][:8]


# faults in the envelope every model file shares, with the message naming the key
ENVELOPE_FAULTS = [
    pytest.param(_set(("loss_trace",), 5), "model file key 'loss_trace' must be a list, got 5",
                 id="trace-int"),
    pytest.param(_set(("loss_trace",), "abc"),
                 "model file key 'loss_trace' must be a list, got 'abc'", id="trace-string"),
    pytest.param(_set(("loss_trace",), [0.5, "x"]),
                 "model file key 'loss_trace' entry 1 must be a finite number, got 'x'",
                 id="trace-non-number"),
    pytest.param(_set(("loss_trace",), [True]),
                 "model file key 'loss_trace' entry 0 must be a finite number, got True",
                 id="trace-bool"),
    pytest.param(_set(("loss_trace",), [float("nan")]),
                 "model file key 'loss_trace' entry 0 must be a finite number, got nan",
                 id="trace-nan"),
    pytest.param(_set(("loss_trace",), [0.5, float("inf")]),
                 "model file key 'loss_trace' entry 1 must be a finite number, got inf",
                 id="trace-inf"),
    pytest.param(_set(("recipe",), 5), "model file key 'recipe' must be an object or null, got 5",
                 id="recipe-int"),
    pytest.param(_set(("recipe",), []),
                 r"model file key 'recipe' must be an object or null, got \[\]",
                 id="recipe-list"),
    pytest.param(_set(("recipe",), {}), "model file key 'recipe': not a recipe",
                 id="recipe-empty"),
    pytest.param(_set(("recipe", "version"), 2),
                 "model file key 'recipe': unsupported recipe version 2", id="recipe-version"),
    pytest.param(_set(("payload",), 5), "model file key 'payload' must be an object, got 5",
                 id="payload-int"),
    pytest.param(_set(("loss_trce",), [1.0]), "model file has an unknown key 'loss_trce'",
                 id="envelope-unknown-key"),
]


@pytest.mark.parametrize("edit, message", [
    (_set(("payload", "arrays", "h0.w", "dtype"), "int64"),
     "array 'h0.w' key 'dtype' must be 'float64', got 'int64'"),
    (_drop(("payload", "arrays", "h0.w", "shape")), "array 'h0.w' has no key 'shape'"),
    (_set(("payload", "arrays", "h0.b", "shape"), [-8]),
     r"array 'h0.b' key 'shape' must be a list of integers >= 0, got \[-8\]"),
    (_cut_data, "array 'h0.b' key 'data' is not the base64 of 8 float64 values"),
    (_drop(("payload", "arrays", "out.b", "data")), "array 'out.b' has no key 'data'"),
    (_drop(("payload",)), "model file has no key 'payload'"),
    (_drop(("payload", "arrays")), "model file key 'payload': network file has no key 'arrays'"),
    (_set(("payload", "hidden"), [4]),
     "model file key 'payload': network file key 'hidden': layer 0 is not an object: 4"),
    (_set(("payload", "format"), "x"), "model file key 'payload': not a network file"),
    (_set(("payload", "version"), 2),
     "model file key 'payload': unsupported network version 2"),
    (_set(("payload", "extra"), 1),
     "model file key 'payload': network file has an unknown key 'extra'"),
    *ENVELOPE_FAULTS,
], ids=["dtype-int64", "no-shape", "negative-shape", "short-data", "no-data", "no-payload",
        "no-arrays", "hidden-not-objects", "payload-format", "payload-version",
        "payload-unknown-key", *(p.id for p in ENVELOPE_FAULTS)])
def test_eval_names_the_model_file_array_or_key_at_fault(edit, message, trained_model,
                                                         small_csv, tmp_path, capsys,
                                                         monkeypatch):
    obj = read_json(trained_model)
    edit(obj)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture(scope="module")
def cox_model(small_csv, tmp_path_factory):
    raw = load_csv(small_csv)
    recipe = fit_preprocess(raw)
    model = fit_cox(apply_preprocess(recipe, raw), tol=1e-6)
    model.recipe = recipe
    out = tmp_path_factory.mktemp("cox") / "cox.json"
    model.save(str(out))
    return str(out)


def _first_column(obj):
    return obj["recipe"]["columns"][0]


def _bogus_kind(obj):
    _first_column(obj)["kind"] = "ordinal"


def _extra_mean(obj):
    _first_column(obj)["means"].append(0.0)


def _zero_std(obj):
    _first_column(obj)["stds"][0] = 0.0


def _boolean_std(obj):
    _first_column(obj)["stds"][0] = True


@pytest.mark.parametrize("edit, message", [
    (_bogus_kind, r"recipe column 0 'x\d+': key 'kind' must be 'numeric' or 'categorical', "
                  "got 'ordinal'"),
    (_extra_mean, r"recipe column 0 'x\d+': key 'means' has 2 entries, but the numeric "
                  "encoding makes 1 outputs"),
    (_zero_std, r"recipe column 0 'x\d+': key 'stds' entry 0 must be a finite number > 0, "
                "got 0.0"),
    (_boolean_std, r"recipe column 0 'x\d+': key 'stds' entry 0 must be a finite number > 0, "
                   "got True"),
], ids=["kind", "unequal-lengths", "zero-std", "boolean-std"])
@pytest.mark.parametrize("which", ["network", "cox"])
def test_eval_refuses_a_recipe_column_it_cannot_apply(edit, message, which, trained_model,
                                                      cox_model, small_csv, tmp_path, capsys,
                                                      monkeypatch):
    obj = read_json(trained_model if which == "network" else cox_model)
    edit(obj)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def _unknown_key(obj):
    _first_column(obj)["scale"] = 1.0


def _no_impute(obj):
    del _first_column(obj)["impute"]


def _column_not_an_object(obj):
    obj["recipe"]["columns"][1] = 5


@pytest.mark.parametrize("edit, message", [
    (_unknown_key, r"recipe column 0 'x\d+' has an unknown key 'scale'"),
    (_no_impute, r"recipe column 0 'x\d+' has no key 'impute'"),
    (_column_not_an_object, "recipe column 1 must be an object, got 5"),
], ids=["unknown-key", "missing-key", "not-an-object"])
@pytest.mark.parametrize("which", ["network", "cox"])
def test_eval_names_the_recipe_column_whose_keys_are_wrong(edit, message, which, trained_model,
                                                          cox_model, small_csv, tmp_path,
                                                          capsys, monkeypatch):
    obj = read_json(trained_model if which == "network" else cox_model)
    edit(obj)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("which, array, index, value", [
    ("network", "h0.w", (2, 3), np.nan),
    ("network", "out.b", (1,), -np.inf),
    ("cox", "beta", (4,), np.inf),
])
@pytest.mark.parametrize("command", ["eval", "riskmap"])
def test_model_file_with_a_non_finite_array_refused(command, which, array, index, value,
                                                    trained_model, cox_model, small_csv,
                                                    tmp_path, capsys, monkeypatch):
    obj = read_json(trained_model if which == "network" else cox_model)
    payload = obj["payload"]["arrays"] if which == "network" else obj["payload"]
    weights = np.array(FittedModel.load(trained_model).network.weights[array]
                       if which == "network" else CoxModel.from_dict(obj).beta)
    weights[index] = value
    payload[array] = encode_array(weights)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "out.csv"
    assert main([command, "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (f"array '{array}' holds {value} at index {list(index)}; model arrays must be finite"
            in err)
    assert not out.exists()


def test_eval_refuses_a_cox_beta_the_recipe_contradicts(cox_model, small_csv, tmp_path,
                                                        capsys, monkeypatch):
    obj = read_json(cox_model)
    beta = obj["payload"]["beta"]
    width = beta["shape"][0]
    beta.update(encode_array(np.zeros(width - 1)))
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert (f"cox payload array 'beta' has shape ({width - 1},), but the recipe makes {width} "
            "feature columns" in capsys.readouterr().err)
    assert not out.exists()


def test_eval_names_a_missing_cox_payload_key(cox_model, small_csv, tmp_path, capsys,
                                              monkeypatch):
    obj = read_json(cox_model)
    del obj["payload"]["baseline_cumhaz"]
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert "cox payload has no key 'baseline_cumhaz'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    *ENVELOPE_FAULTS,
    pytest.param(_set(("payload", "n_iter"), "x"),
                 "cox payload key 'n_iter' must be an integer >= 0, got 'x'", id="n_iter-string"),
    pytest.param(_set(("payload", "n_iter"), 2.5),
                 "cox payload key 'n_iter' must be an integer >= 0, got 2.5", id="n_iter-float"),
    pytest.param(_set(("payload", "n_iter"), -1),
                 "cox payload key 'n_iter' must be an integer >= 0, got -1", id="n_iter-negative"),
    pytest.param(_set(("payload", "n_iter"), True),
                 "cox payload key 'n_iter' must be an integer >= 0, got True", id="n_iter-bool"),
    pytest.param(_set(("payload", "grad_norm"), None),
                 "cox payload key 'grad_norm' must be a finite number, got None",
                 id="grad_norm-null"),
    pytest.param(_set(("payload", "grad_norm"), float("inf")),
                 "cox payload key 'grad_norm' must be a finite number, got inf",
                 id="grad_norm-inf"),
    pytest.param(_set(("payload", "log_likelihood"), None),
                 "cox payload key 'log_likelihood' must be a finite number, got None",
                 id="log_likelihood-null"),
    pytest.param(_set(("payload", "log_likelihood"), "-3.5"),
                 "cox payload key 'log_likelihood' must be a finite number, got '-3.5'",
                 id="log_likelihood-string"),
    pytest.param(_set(("payload", "log_likelihood"), float("nan")),
                 "cox payload key 'log_likelihood' must be a finite number, got nan",
                 id="log_likelihood-nan"),
    pytest.param(_drop(("payload", "n_iter")), "cox payload has no key 'n_iter'",
                 id="no-n_iter"),
    pytest.param(_set(("payload", "extra"), 1), "cox payload has an unknown key 'extra'",
                 id="payload-unknown-key"),
])
def test_eval_names_the_cox_file_key_at_fault(edit, message, cox_model, small_csv, tmp_path,
                                              capsys, monkeypatch):
    obj = read_json(cox_model)
    edit(obj)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    out = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_eval_reads_a_cox_file_that_carries_converged(cox_model, small_csv, tmp_path):
    obj = read_json(cox_model)
    obj["payload"]["converged"] = True
    older = tmp_path / "older.json"
    older.write_text(json.dumps(obj))
    reports = []
    for model in (cox_model, str(older)):
        out = tmp_path / f"report-{len(reports)}.json"
        assert main(["eval", "--model", model, "--data", small_csv, "--out", str(out),
                     "--bootstrap", "3"]) == 0
        reports.append(sha(out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("edit, message", [
    (_set(("args",), [1]), "key 'args' must be an object, got [1]"),
    (_drop(("command",)), "key 'command' must be one of ['compare', 'eval', 'generate', "
                          "'riskmap', 'simulate', 'train'], got None"),
    (_set(("command",), "bogus"), "key 'command' must be one of ['compare', 'eval', "
                                  "'generate', 'riskmap', 'simulate', 'train'], got 'bogus'"),
    (_drop(("args", "bootstrap")), "key 'args' lacks the eval options ['bootstrap']"),
    (_set(("version",), 2), "key 'version' must be 1, got 2"),
    (_set(("version",), "junk"), "key 'version' must be 1, got 'junk'"),
    (_drop(("version",)), "key 'version' must be 1, got None"),
    (_set(("extra",), 1), "has an unknown key 'extra'"),
    (_set(("args", "extra"), 1), "key 'args' has an unknown key 'extra'"),
    (_set(("args", "seed"), True), "key 'args' option 'seed' must be an integer, got True"),
    (_set(("args", "seed"), "1"), "key 'args' option 'seed' must be an integer, got '1'"),
    (_set(("args", "bootstrap"), None),
     "key 'args' option 'bootstrap' must be an integer, got None"),
    (_set(("args", "model"), None), "key 'args' option 'model' must be a string, got None"),
], ids=["args-not-an-object", "no-command", "unknown-command", "missing-option",
        "version-2", "version-text", "no-version", "unknown-key", "unknown-option",
        "bool-seed", "text-seed", "null-int", "null-required"])
def test_rerun_checks_the_manifest_before_running(edit, message, trained_model, small_csv,
                                                  tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    manifest = tmp_path / "report.json.manifest.json"
    obj = {"format": "fhtsurv-manifest", "version": 1, "command": "eval",
           "args": {"model": trained_model, "data": small_csv, "out": str(out),
                    "bootstrap": 3, "seed": 0}}
    edit(obj)
    manifest.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "load_csv", _must_not_run)
    assert main(["rerun", "--manifest", str(manifest)]) == 1
    assert f"manifest {manifest} {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("distribution", "gamma", "must be one of ['levy', 'invgauss'], got 'gamma'"),
    ("bridge", 1, "must be true or false, got 1"),
    ("bridge", None, "must be true or false, got None"),
    ("x0", "1.0", "must be a finite number, got '1.0'"),
    ("x0", None, "must be a finite number, got None"),
    ("drift", True, "must be a finite number or null, got True"),
    ("samples_out", 3, "must be a string or null, got 3"),
], ids=["unlisted-choice", "number-flag", "null-flag", "text-float", "null-required-float",
        "bool-optional-float", "number-optional-path"])
def test_rerun_checks_each_recorded_option(key, value, message, tmp_path, capsys,
                                           monkeypatch):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--distribution", "levy", "--x0", "1.0", "--diffusion", "1.0",
                 "--paths", "50", "--dt", "0.01", "--tmax", "0.5", "--out", str(out)]) == 0
    manifest = tmp_path / "sim.json.manifest.json"
    obj = read_json(str(manifest))
    obj["args"][key] = value
    manifest.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "simulate_fpt", _must_not_run)
    assert main(["rerun", "--manifest", str(manifest)]) == 1
    assert f"manifest {manifest} key 'args' option '{key}' {message}" in capsys.readouterr().err


def test_compare_names_the_fold_without_comparable_pairs(tmp_path, capsys):
    # 80 records leave a 64-row training split, so 50 folds hold one or two rows each
    path = tmp_path / "d.csv"
    write_csv(generate_nonph(NonPhConfig(seed=3, n_raw=600, n_keep=80)), str(path))
    section = {"epochs": 1, "hidden_sizes": []}
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"levy": section, "invgauss": section}))
    out = tmp_path / "compare.json"
    assert main(["compare", "--data", str(path), "--config", str(cfg), "--out", str(out),
                 "--folds", "50", "--bootstrap", "2"]) == 1
    assert re.search(r"cross-validation fold \d+ of --folds 50 \(\d validation rows\): "
                     "no comparable pairs", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("times, events, message", [
    # one comparable pair, (1, 2), which the second resample does not draw
    ([1.0, 0.5, 2.0], [1, 0, 0], "error: bootstrap resample 2 of 5 has no comparable pairs"),
    # the only event is the last time, so no pair is comparable
    ([2.0, 0.5, 1.0], [1, 0, 0], "error: no comparable pairs"),
], ids=["resample", "data"])
def test_eval_names_the_bootstrap_resample_without_comparable_pairs(times, events, message,
                                                                    cox_model, tmp_path, capsys):
    # three records with the features of small_csv, which the cox model's recipe reads
    data = generate_nonph(NonPhConfig(seed=3, n_raw=600, n_keep=240))
    path = tmp_path / "three.csv"
    write_csv(SurvivalData(x=data.x[:3], time=times, delta=events,
                           feature_names=data.feature_names), str(path))
    out = tmp_path / "eval.json"
    assert main(["eval", "--model", cox_model, "--data", str(path), "--out", str(out),
                 "--bootstrap", "5"]) == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


# each subcommand's options in order: option strings, whether required, default
PARSER_TABLE = {
    "generate": [("--out", True, None), ("--config", False, None), ("--seed", False, 0)],
    "train": [("--data", True, None), ("--config", False, None),
              ("--distribution", False, None), ("--out", True, None), ("--seed", False, 0)],
    "eval": [("--model", True, None), ("--data", True, None), ("--out", True, None),
             ("--bootstrap", False, 100), ("--seed", False, 0)],
    "compare": [("--data", True, None), ("--config", False, None), ("--out", True, None),
                ("--bootstrap", False, 100), ("--folds", False, 0), ("--seed", False, 0)],
    "riskmap": [("--model", True, None), ("--data", True, None),
                ("--overlay-data", False, None), ("--out", True, None),
                ("--resolution", False, 200)],
    "simulate": [("--distribution", True, None), ("--x0", True, None),
                 ("--diffusion", False, None), ("--drift", False, None),
                 ("--paths", False, 100000), ("--dt", False, 1e-4), ("--tmax", False, 5.0),
                 ("--bridge/--no-bridge", False, True), ("--jobs", False, 1),
                 ("--out", True, None), ("--samples-out", False, None), ("--seed", False, 0)],
    "rerun": [("--manifest", True, None)],
}
# the options that take one of a list of values, and the values
PARSER_CHOICES = {("train", "--distribution"): ["levy", "invgauss"],
                  ("simulate", "--distribution"): ["levy", "invgauss"]}


def test_parser_options_match_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found, choices = {}, {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            option = "/".join(action.option_strings)
            found.setdefault(command, []).append((option, action.required, action.default))
            if action.choices is not None:
                choices[command, option] = list(action.choices)
    assert found == PARSER_TABLE
    assert choices == PARSER_CHOICES


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

    def test_config_block_matches_defaults(self):
        text = "\n".join(self.readme_lines())
        start = text.index("### Model config")
        block = re.search(r"```json\n(.*?)```", text[start:], re.S).group(1)
        assert json.loads(block) == json.loads(json.dumps(dataclasses.asdict(ModelConfig())))

    def test_library_sketch_binds(self):
        # every call of an imported fhtsurv name matches its current signature
        text = "\n".join(self.readme_lines())
        tree = ast.parse(re.search(r"```python\n(.*?)```", text, re.S).group(1))
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        namespace = {}
        exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), namespace)

        def resolve(node):
            if isinstance(node, ast.Name):
                return namespace.get(node.id)
            if isinstance(node, ast.Attribute):
                return getattr(resolve(node.value), node.attr, None)
            return None

        bound = set()
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = resolve(call.func)
            if not (getattr(func, "__module__", None) or "").startswith("fhtsurv"):
                continue
            args = [None] * len(call.args)
            kwargs = {kw.arg: None for kw in call.keywords}
            try:
                inspect.signature(func).bind(*args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"README line {call.lineno}: {ast.unparse(call)}: {exc}")
            bound.add(func.__name__)
        assert {"fit", "evaluate", "ModelConfig"} <= bound

    def test_report_keys_match_the_evaluation_reports_entry(self):
        text = " ".join(self.readme_lines())
        entry = re.search(r"\*\*Evaluation reports\*\*.*?JSON with the keys (.*?)\.", text).group(1)
        d = SurvivalData(np.zeros((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 1, 1]),
                         ["f"])
        rep = evaluate(lambda x, ts: np.full((x.shape[0], ts.size), 0.5), d, n_resamples=2)
        assert re.findall(r"`(\w+)`", entry) == list(rep)

    def test_named_scripts_exist(self):
        paths = set(re.findall(r"scripts/[\w./-]*\w", "\n".join(self.readme_lines())))
        assert paths
        for path in sorted(paths):
            assert os.path.exists(os.path.join(self.ROOT, path)), path
