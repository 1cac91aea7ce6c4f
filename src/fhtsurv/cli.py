"""Command-line pipeline: generate, train, eval, compare, riskmap, simulate.

Every command validates its inputs, derives all randomness from a single
``--seed``, writes its outputs deterministically, and drops a JSON run
manifest next to the main output (``<out>.manifest.json``).  ``fhtsurv
rerun --manifest <path>`` re-executes the recorded command and reproduces
the outputs byte for byte.

Model configuration files are JSON with the keys ``distribution``
(``levy`` or ``invgauss``), ``hidden_sizes``, ``activation``, ``dropout``,
``epochs``, ``batch_size``, ``learning_rate``, and optionally
``eval_time_cap`` and ``optimizer`` (training always uses Adam; the key
accepts only ``"adam"`` so older files still load).  Defaults mirror the
synthetic-benchmark configuration (hidden 16,16, relu, no dropout, 450
epochs, batch 256, learning rate 0.0039, driftless kind).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, fht
from .cox import CoxModel, fit_cox
from .data import (
    NonPhConfig,
    apply_preprocess,
    cv_folds,
    fit_preprocess,
    generate_nonph,
    load_csv,
    stratified_split_indices,
    write_csv,
)
from .interpret import risk_grid
from .metrics import concordance, evaluate
from .modelio import read_json, write_json_atomic
from .network import LayerSpec, NetworkSpec
from .simulate import SimConfig, empirical_survival, simulate_fpt, write_samples_csv
from .training import FittedModel, TrainConfig, fit

DEFAULT_MODEL_CONFIG = {
    "distribution": "levy",
    "hidden_sizes": [16, 16],
    "activation": "relu",
    "dropout": 0.0,
    "epochs": 450,
    "batch_size": 256,
    "learning_rate": 0.0039,
    "optimizer": "adam",
    "eval_time_cap": 256,
}


def _manifest_path(out_path):
    return str(out_path) + ".manifest.json"


def _write_manifest(command, args_dict, outputs, started):
    out = outputs[0]
    snapshot = None
    if args_dict.get("config"):
        try:
            snapshot = read_json(args_dict["config"])
        except (OSError, ValueError):
            snapshot = None
    write_json_atomic(
        _manifest_path(out),
        {
            "format": "fhtsurv-manifest",
            "version": 1,
            "command": command,
            "args": args_dict,
            "config_snapshot": snapshot,
            "outputs": [str(o) for o in outputs],
            "package_version": __version__,
            "wall_clock_s": time.time() - started,
        },
    )


def _model_config(path_or_none, overrides=None):
    cfg = dict(DEFAULT_MODEL_CONFIG)
    if path_or_none:
        cfg.update(read_json(path_or_none))
    cfg.update(overrides or {})
    unknown = set(cfg) - set(DEFAULT_MODEL_CONFIG)
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    return cfg


def _net_spec(cfg, input_dim):
    layers = tuple(
        LayerSpec(int(w), cfg["activation"], float(cfg["dropout"])) for w in cfg["hidden_sizes"]
    )
    return NetworkSpec(input_dim, layers, fht.DistKind(cfg["distribution"]))


def _train_config(cfg, seed):
    if cfg["optimizer"] != "adam":
        raise ValueError(
            f"model config key 'optimizer' must be \"adam\", got {cfg['optimizer']!r}"
        )
    return TrainConfig(
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        learning_rate=float(cfg["learning_rate"]),
        seed=seed,
        eval_time_cap=cfg["eval_time_cap"],
    )


def _load_any_model(path):
    obj = read_json(path)
    if obj.get("kind") == "cox":
        return CoxModel.from_dict(obj)
    return FittedModel.from_dict(obj)


# ----------------------------------------------------------------------
# commands (each returns the list of output paths it wrote)


def cmd_generate(args):
    overrides = read_json(args.config) if args.config else {}
    cfg = NonPhConfig(**{**overrides, "seed": args.seed})
    data = generate_nonph(cfg)
    write_csv(data, args.out)
    return [args.out]


def cmd_train(args):
    cfg = _model_config(args.config, {"distribution": args.distribution} if args.distribution else None)
    raw = load_csv(args.data)
    recipe = fit_preprocess(raw)
    data = apply_preprocess(recipe, raw)
    spec = _net_spec(cfg, data.x.shape[1])
    model = fit(data, spec.kind, spec, _train_config(cfg, args.seed), recipe=recipe)
    model.save(args.out)
    return [args.out]


def cmd_eval(args):
    model = _load_any_model(args.model)
    raw = load_csv(args.data)
    if model.recipe is None:
        raise ValueError("model file carries no preprocessing recipe")
    data = apply_preprocess(model.recipe, raw)
    report = evaluate(model.survival_matrix, data, n_resamples=args.bootstrap, seed=args.seed)
    write_json_atomic(args.out, report.to_dict())
    return [args.out]


def _cv_scores(data, spec, tcfg, folds, seed):
    scores = []
    fold_idx = cv_folds(data, k=folds, seed=seed)
    for i, val_idx in enumerate(fold_idx):
        mask = np.ones(len(data), dtype=bool)
        mask[val_idx] = False
        model = fit(data[np.flatnonzero(mask)], spec.kind, spec, tcfg)
        val = data[val_idx]
        times = np.unique(val.time[val.delta == 1])
        scores.append(concordance(model.survival_matrix(val.x, times), times, val)[0])
    return scores


def cmd_compare(args):
    raw = load_csv(args.data)
    seq = np.random.SeedSequence(args.seed).spawn(4)
    split_seed, levy_seed, ig_seed, boot_seed = (int(s.generate_state(1)[0]) for s in seq)

    full_cfg = read_json(args.config) if args.config else {}
    unknown = set(full_cfg) - {"levy", "invgauss"}
    if unknown:
        raise ValueError(f"compare config sections must be 'levy'/'invgauss', got {sorted(unknown)}")
    report = {"n_records": len(raw), "seed": args.seed, "bootstrap": args.bootstrap, "models": {}}

    # shared split; the recipe is fitted on the training rows only
    tr_rows, te_rows = stratified_split_indices(raw.delta, test_frac=0.2, seed=split_seed)
    recipe = fit_preprocess(raw.subset(tr_rows))
    train = apply_preprocess(recipe, raw.subset(tr_rows))
    test = apply_preprocess(recipe, raw.subset(te_rows))

    for kind_name, kind_seed in (("levy", levy_seed), ("invgauss", ig_seed)):
        cfg = _model_config(None, full_cfg.get(kind_name, {}))
        cfg["distribution"] = kind_name
        spec = _net_spec(cfg, train.x.shape[1])
        tcfg = _train_config(cfg, kind_seed)
        model = fit(train, spec.kind, spec, tcfg, recipe=recipe)
        rep = evaluate(model.survival_matrix, test, n_resamples=args.bootstrap, seed=boot_seed)
        entry = rep.to_dict()
        if args.folds:
            entry["cv_c_index"] = _cv_scores(train, spec, tcfg, args.folds, kind_seed)
        report["models"][kind_name] = entry

    cox = fit_cox(train, tol=1e-6)
    rep = evaluate(cox.survival_matrix, test, n_resamples=args.bootstrap, seed=boot_seed)
    report["models"]["cox"] = rep.to_dict()
    write_json_atomic(args.out, report)
    return [args.out]


def cmd_riskmap(args):
    model = _load_any_model(args.model)
    if isinstance(model, CoxModel):
        raise ValueError("risk maps need a diffusion-parameter model, not cox")
    if model.recipe is None:
        raise ValueError("model file carries no preprocessing recipe")
    raw = load_csv(args.data)
    data = apply_preprocess(model.recipe, raw)
    overlay = None
    if args.overlay_data:
        overlay = apply_preprocess(model.recipe, load_csv(args.overlay_data))
    rmap = risk_grid(model, data, resolution=args.resolution, overlay_data=overlay)
    overlay_path = os.path.splitext(args.out)[0] + ".overlay.csv"
    rmap.write_csv(args.out, overlay_path)
    return [args.out, overlay_path]


def cmd_simulate(args):
    kind = fht.DistKind(args.distribution)
    name = fht.param_names(kind)[1]
    second = getattr(args, name)
    if second is None:
        raise ValueError(f"{kind.value} simulation needs --{name}")
    params = fht.make_params(kind, args.x0, second)
    cfg = SimConfig(
        n_paths=args.paths,
        dt=args.dt,
        t_max=args.tmax,
        seed=args.seed,
        bridge_correction=args.bridge,
        n_jobs=args.jobs,
    )
    samples = simulate_fpt(kind, params, cfg)
    t_grid = np.linspace(args.tmax / 10.0, args.tmax, 10)
    emp = empirical_survival(samples, t_grid)
    closed = np.asarray(fht.survival(kind, params, t_grid), dtype=np.float64)
    se = np.sqrt(np.maximum(closed * (1.0 - closed), 1e-300) / cfg.n_paths)
    summary = {
        "kind": kind.value,
        "params": {"x0": args.x0, name: second},
        "n_paths": cfg.n_paths,
        "dt": cfg.dt,
        "t_max": cfg.t_max,
        "bridge_correction": cfg.bridge_correction,
        "fraction_absorbed": float(np.isfinite(samples.hit_times).mean()),
        "comparison": [
            {
                "t": float(t),
                "empirical": float(e),
                "closed_form": float(c),
                "z": float((e - c) / s) if s > 0 else 0.0,
            }
            for t, e, c, s in zip(t_grid, emp, closed, se)
        ],
    }
    write_json_atomic(args.out, summary)
    outputs = [args.out]
    if args.samples_out:
        write_samples_csv(samples, args.samples_out)
        outputs.append(args.samples_out)
    return outputs


def cmd_rerun(args):
    started = time.time()
    manifest = read_json(args.manifest)
    if manifest.get("format") != "fhtsurv-manifest":
        raise ValueError("not a manifest file")
    command = manifest["command"]
    config = manifest["args"].get("config")
    if config and read_json(config) != manifest["config_snapshot"]:
        raise ValueError(f"config file {config} has changed since the manifest was written")
    ns = argparse.Namespace(**manifest["args"])
    outputs = _COMMANDS[command](ns)
    _write_manifest(command, manifest["args"], outputs, started)
    return outputs


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "riskmap": cmd_riskmap,
    "simulate": cmd_simulate,
}


def build_parser():
    p = argparse.ArgumentParser(prog="fhtsurv", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic NonPH benchmark CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--config", help="JSON overriding generator fields")
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="preprocess, train, and serialize a model")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="model config JSON")
    t.add_argument("--distribution", choices=["levy", "invgauss"])
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("eval", help="evaluate a model file on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--bootstrap", type=int, default=100)
    e.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("compare", help="train both diffusion kinds and cox on a shared split")
    c.add_argument("--data", required=True)
    c.add_argument("--config", help="JSON with per-kind model config sections")
    c.add_argument("--out", required=True)
    c.add_argument("--bootstrap", type=int, default=100)
    c.add_argument("--folds", type=int, default=0, help="also report k-fold CV scores")
    c.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("riskmap", help="export an interpolated event-time grid")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True, help="training data (interpolation sources)")
    r.add_argument("--overlay-data", dest="overlay_data", help="records for the overlay CSV")
    r.add_argument("--out", required=True)
    r.add_argument("--resolution", type=int, default=200)

    s = sub.add_parser("simulate", help="Monte Carlo first-passage check against closed forms")
    s.add_argument("--distribution", choices=["levy", "invgauss"], required=True)
    s.add_argument("--x0", type=float, required=True)
    s.add_argument("--diffusion", type=float)
    s.add_argument("--drift", type=float)
    s.add_argument("--paths", type=int, default=100000)
    s.add_argument("--dt", type=float, default=1e-4)
    s.add_argument("--tmax", type=float, default=5.0)
    s.add_argument("--bridge", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", required=True)
    s.add_argument("--samples-out", dest="samples_out")
    s.add_argument("--seed", type=int, default=0)

    rr = sub.add_parser("rerun", help="re-execute a command from its manifest")
    rr.add_argument("--manifest", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if args.command == "rerun":
            cmd_rerun(args)
            return 0
        outputs = _COMMANDS[args.command](args)
        args_dict = {k: v for k, v in vars(args).items() if k != "command"}
        _write_manifest(args.command, args_dict, outputs, started)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
