"""Command-line pipeline: generate, train, eval, compare, riskmap, simulate.

Every command validates its inputs, derives all randomness from a single
``--seed``, writes its outputs deterministically, and drops a JSON run
manifest next to the main output (``<out>.manifest.json``).  ``fhtsurv
rerun --manifest <path>`` checks the manifest, then takes the direct command's
path, manifest included, and reproduces the outputs byte for byte.

A ``generate`` config file may set ``n_raw`` and ``n_keep``, the fields of
``data.NonPhConfig`` other than the seed; the benchmark's shape is fixed.
Model configuration files are JSON whose keys are the fields of
``training.ModelConfig``, which states their defaults and checks their
values.  The keys ``activation`` and ``dropout`` are accepted so older files
still load, but each takes only the one value training uses
(``FIXED_CONFIG``): hidden layers are ReLU without dropout.  Every config
key is checked, and an unknown one refused by name, before any data is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .metrics import MetricUndefinedError, concordance, evaluate
from .modelio import is_finite, is_int, read_json, refuse_unknown, require, write_json_atomic
from .simulate import SimConfig, empirical_survival, simulate_fpt, write_samples_csv
from .training import FittedModel, ModelConfig, fit

# keys kept so older config files load, each with the one value training uses
FIXED_CONFIG = {"activation": "relu", "dropout": 0.0}
SECOND_PARAM = {kind: fht.param_names(kind)[1] for kind in fht.KINDS}
# the keys _write_manifest writes
MANIFEST_KEYS = ("format", "version", "command", "args", "config_snapshot", "outputs",
                 "package_version", "wall_clock_s")


def _write_manifest(command, args_dict, outputs, started):
    snapshot = None
    if args_dict.get("config"):
        try:
            snapshot = read_json(args_dict["config"])
        except (OSError, ValueError):
            snapshot = None
    write_json_atomic(
        f"{outputs[0]}.manifest.json",
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
    """The ``ModelConfig`` of a config file, or of the defaults, with
    ``overrides`` applied."""
    cfg = {**(read_json(path_or_none) if path_or_none else {}), **(overrides or {})}
    unknown = set(cfg) - {f.name for f in dataclasses.fields(ModelConfig)} - set(FIXED_CONFIG)
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    for key, want in FIXED_CONFIG.items():
        got = cfg.pop(key, want)
        if got != want:
            raise ValueError(f"model config key '{key}' must be {want!r}, got {got!r}")
    try:
        return ModelConfig(**cfg)
    except ValueError as exc:
        raise ValueError(f"model config key {exc}") from None


def _load_any_model(path):
    obj = read_json(path)
    model = CoxModel.from_dict(obj) if obj.get("kind") == "cox" else FittedModel.from_dict(obj)
    if model.recipe is None:
        raise ValueError("model file carries no preprocessing recipe")
    return model


# ----------------------------------------------------------------------
# commands (each returns the list of output paths it wrote)


def cmd_generate(args):
    overrides = read_json(args.config) if args.config else {}
    if "seed" in overrides:
        raise ValueError("generate config key 'seed' is not allowed; use --seed")
    refuse_unknown(overrides, [f.name for f in dataclasses.fields(NonPhConfig)],
                   "generate config")
    cfg = NonPhConfig(**overrides, seed=args.seed)
    data = generate_nonph(cfg)
    write_csv(data, args.out)
    return [args.out]


def cmd_train(args):
    cfg = _model_config(args.config, {"distribution": args.distribution} if args.distribution else None)
    raw = load_csv(args.data)
    recipe = fit_preprocess(raw)
    model = fit(apply_preprocess(recipe, raw), cfg, args.seed, recipe=recipe)
    model.save(args.out)
    return [args.out]


def _check_bootstrap(args):
    if args.bootstrap < 2:
        raise ValueError(f"--bootstrap must be >= 2, got {args.bootstrap}")


def cmd_eval(args):
    _check_bootstrap(args)
    model = _load_any_model(args.model)
    data = apply_preprocess(model.recipe, load_csv(args.data))
    write_json_atomic(args.out, evaluate(model.survival_matrix, data,
                                         n_resamples=args.bootstrap, seed=args.seed))
    return [args.out]


def _cv_scores(data, cfg, folds, seed):
    scores = []
    for i, val_idx in enumerate(cv_folds(data, k=folds, seed=seed)):
        mask = np.ones(len(data), dtype=bool)
        mask[val_idx] = False
        model = fit(data[np.flatnonzero(mask)], cfg, seed)
        try:
            scores.append(concordance(model.survival_matrix, data[val_idx])[0])
        except MetricUndefinedError as exc:
            raise ValueError(f"cross-validation fold {i + 1} of --folds {folds} "
                             f"({val_idx.size} validation rows): {exc}") from None
    return scores


def cmd_compare(args):
    _check_bootstrap(args)
    if args.folds and args.folds < 2:
        raise ValueError(f"--folds must be 0 (no cross-validation) or >= 2, got {args.folds}")
    seq = np.random.SeedSequence(args.seed).spawn(len(fht.KINDS) + 2)
    split_seed, *kind_seeds, boot_seed = (int(s.generate_state(1)[0]) for s in seq)

    full_cfg = read_json(args.config) if args.config else {}
    unknown = set(full_cfg) - set(fht.KINDS)
    if unknown:
        raise ValueError(f"compare config sections must be "
                         f"{'/'.join(map(repr, fht.KINDS))}, got {sorted(unknown)}")
    # every section is checked before any data is read or model trained
    cfgs = {}
    for kind in fht.KINDS:
        section = full_cfg.get(kind, {})
        if not isinstance(section, dict):
            raise ValueError(f"compare config section '{kind}' must be a JSON object, "
                             f"got {section!r}")
        if section.get("distribution", kind) != kind:
            raise ValueError(
                f"compare config section '{kind}' sets 'distribution' to "
                f"{section['distribution']!r}; leave it out, the section's name sets it"
            )
        cfgs[kind] = _model_config(None, {**section, "distribution": kind})
    raw = load_csv(args.data)
    report = {"n_records": len(raw), "seed": args.seed, "bootstrap": args.bootstrap, "models": {}}

    # shared split; the recipe is fitted on the training rows only
    tr_rows, te_rows = stratified_split_indices(raw.delta, test_frac=0.2, seed=split_seed)
    recipe = fit_preprocess(raw.subset(tr_rows))
    train = apply_preprocess(recipe, raw.subset(tr_rows))
    test = apply_preprocess(recipe, raw.subset(te_rows))

    for kind, kind_seed in zip(fht.KINDS, kind_seeds):
        model = fit(train, cfgs[kind], kind_seed, recipe=recipe)
        entry = evaluate(model.survival_matrix, test, n_resamples=args.bootstrap, seed=boot_seed)
        if args.folds:
            entry["cv_c_index"] = _cv_scores(train, cfgs[kind], args.folds, kind_seed)
        report["models"][kind] = entry

    cox = fit_cox(train, tol=1e-6)
    report["models"]["cox"] = evaluate(cox.survival_matrix, test,
                                       n_resamples=args.bootstrap, seed=boot_seed)
    write_json_atomic(args.out, report)
    return [args.out]


def cmd_riskmap(args):
    model = _load_any_model(args.model)
    if isinstance(model, CoxModel):
        raise ValueError("risk maps need a diffusion-parameter model, not cox")
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
    name = SECOND_PARAM[kind.value]
    for other in set(SECOND_PARAM.values()) - {name}:
        if getattr(args, other) is not None:
            raise ValueError(f"{kind.value} simulation takes no --{other}; give --{name}")
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
    hit_times = simulate_fpt(params, cfg)
    t_grid = np.linspace(args.tmax / 10.0, args.tmax, 10)
    emp = empirical_survival(hit_times, t_grid)
    closed = np.asarray(params.survival(t_grid), dtype=np.float64)
    se = np.sqrt(np.maximum(closed * (1.0 - closed), 1e-300) / cfg.n_paths)
    summary = {
        "kind": kind.value,
        "params": {"x0": args.x0, name: second},
        "n_paths": cfg.n_paths,
        "dt": cfg.dt,
        "t_max": cfg.t_max,
        "bridge_correction": cfg.bridge_correction,
        "fraction_absorbed": float(np.isfinite(hit_times).mean()),
        "comparison": [
            {
                "t": float(t),
                "empirical": float(e),
                "closed_form": float(c),
                "z": float((e - c) / s),
            }
            for t, e, c, s in zip(t_grid, emp, closed, se)
        ],
    }
    write_json_atomic(args.out, summary)
    outputs = [args.out]
    if args.samples_out:
        write_samples_csv(hit_times, args.samples_out)
        outputs.append(args.samples_out)
    return outputs


def _check_recorded(option, value, where):
    """Refuse a manifest's recorded ``value`` of ``option`` unless the option
    could have parsed to it: one of its choices, true or false for a
    ``--x/--no-x`` flag, an integer (not a bool) or a finite number for an
    ``int`` or ``float`` type, a string otherwise, and null only where the
    option is optional and its default is null."""
    if option.choices is not None:
        ok, want = value in option.choices, f"one of {list(option.choices)}"
    elif isinstance(option, argparse.BooleanOptionalAction):
        ok, want = isinstance(value, bool), "true or false"
    elif option.type is int:
        ok, want = is_int(value), "an integer"
    elif option.type is float:
        ok, want = is_finite(value), "a finite number"
    else:
        ok, want = isinstance(value, str), "a string"
    if option.default is None and not option.required:
        ok, want = ok or value is None, f"{want} or null"
    if not ok:
        raise ValueError(f"{where} key 'args' option '{option.dest}' must be {want}, "
                         f"got {value!r}")


def _read_manifest(path):
    """The command and options a manifest records, each checked as parsed."""
    manifest = read_json(path)
    if manifest.get("format") != "fhtsurv-manifest":
        raise ValueError("not a manifest file")
    where = f"manifest {path}"
    refuse_unknown(manifest, MANIFEST_KEYS, where)
    if manifest.get("version") != 1:
        raise ValueError(f"{where} key 'version' must be 1, got {manifest.get('version')!r}")
    command = manifest.get("command")
    if command not in sorted(_COMMANDS):  # a list: `in` takes an unhashable value too
        raise ValueError(f"{where} key 'command' must be one of {sorted(_COMMANDS)}, "
                         f"got {command!r}")
    recorded = require(manifest, "args", where, dict)
    # the options of the command, by the names main records them under
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}
    refuse_unknown(recorded, options, f"{where} key 'args'")
    missing = set(options) - set(recorded)
    if missing:
        raise ValueError(f"{where} key 'args' lacks the {command} options {sorted(missing)}")
    for option in options.values():
        _check_recorded(option, recorded[option.dest], where)
    config = recorded.get("config")
    if config and read_json(config) != manifest.get("config_snapshot"):
        raise ValueError(f"config file {config} has changed since the manifest was written")
    return command, recorded


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "riskmap": cmd_riskmap,
    "simulate": cmd_simulate,
}


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="fhtsurv", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic NonPH benchmark CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--config", help="JSON setting n_raw and/or n_keep")
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="preprocess, train, and serialize a model")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="model config JSON")
    t.add_argument("--distribution", choices=fht.KINDS)
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
    s.add_argument("--distribution", choices=fht.KINDS, required=True)
    s.add_argument("--x0", type=float, required=True)
    for name in SECOND_PARAM.values():
        s.add_argument(f"--{name}", type=float)
    s.add_argument("--paths", type=int, default=100000)
    s.add_argument("--dt", type=float, default=SimConfig.dt)
    s.add_argument("--tmax", type=float, default=SimConfig.t_max)
    s.add_argument("--bridge", action=argparse.BooleanOptionalAction,
                   default=SimConfig.bridge_correction)
    s.add_argument("--jobs", type=int, default=SimConfig.n_jobs)
    s.add_argument("--out", required=True)
    s.add_argument("--samples-out", dest="samples_out")
    s.add_argument("--seed", type=int, default=0)

    rr = sub.add_parser("rerun", help="re-execute a command from its manifest")
    rr.add_argument("--manifest", required=True)
    return p


def main(argv=None) -> int:
    args_dict = vars(build_parser().parse_args(argv))
    command = args_dict.pop("command")
    started = time.time()
    try:
        if command == "rerun":
            command, args_dict = _read_manifest(args_dict["manifest"])
        outputs = _COMMANDS[command](argparse.Namespace(**args_dict))
        _write_manifest(command, args_dict, outputs, started)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
