"""fhtsurv benchmark: train, evaluate and montecarlo workloads through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload train|evaluate|montecarlo|all \
        [--seed 1234] [--seconds 35] [--trace 0|1]

One client drives the in-process CLI, ``fhtsurv.cli.main(argv)``, in a
closed loop: each command starts after the previous one has returned and
its output has been checked.  The risk map is the exception: it runs the
``riskmap`` command's steps in process and checks the map in memory,
because the command's CSV writer is broken under numpy 2.  The workload seed makes the NonPH data
(``NonPhConfig(seed=...)``, split seed 7); the program only sees the
generated CSV and config files.  Commands are grouped in cycles that run
until ``--seconds`` is spent; timings are medians over cycles.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
traced run instead: set-up under the outside-in tracer
(``layertrace.py``), a warm-up cycle, one untraced and one traced cycle
(their ratio is the tracing overhead), the Baseline probes under the
tracer, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it holds inputs,
machine facts, per-workload metrics under the names of ``DESIGN.md`` and
the reasons for any per-layer metric reported as 0.  ``--workload all``
runs the three workloads one after another, each in its own process.
"""

import os

# one closed-loop client and no helper threads: BLAS must not fan out
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train", "evaluate", "montecarlo")

DEFAULT_SEED = 1234
SPLIT_SEED = 7
# set-up runs at least this often and for at least this long; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# the two configurations of scripts/run_nonph_benchmark.py, short runs
MODEL_CONFIGS = {
    "levy": {"distribution": "levy", "hidden_sizes": [16, 16], "activation": "relu",
             "dropout": 0.0, "batch_size": 256, "learning_rate": 0.0039},
    "invgauss": {"distribution": "invgauss", "hidden_sizes": [16, 16], "activation": "relu",
                 "dropout": 0.0, "batch_size": 64, "learning_rate": 0.0028},
}
TRAIN_EPOCHS = {"levy": 6, "invgauss": 3}
EVAL_MODEL_EPOCHS = {"levy": 1, "invgauss": 1}
BOOTSTRAP = 4
CLI_DEFAULT_BOOTSTRAP = 100
RISKMAP_RESOLUTION = 100
SIM_PATHS = 2048
SIM_SPEEDUP_PATHS = 16384  # two simulator blocks, so --jobs 2 has work for both
SIM_SETTINGS = (("levy", 1.0, 1.0), ("levy", 2.0, 0.5),
                ("invgauss", 1.0, -0.5), ("invgauss", 2.0, -1.0))


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import fhtsurv from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fhtsurv", "__init__.py")):
        _fail(f"no fhtsurv sources under {SRC}")
    sys.path.insert(0, SRC)
    import fhtsurv

    if not os.path.abspath(fhtsurv.__file__).startswith(SRC + os.sep):
        _fail(f"imported fhtsurv from {fhtsurv.__file__}, not from {SRC}")


class Workload:
    """Inputs, set-up and per-cycle commands of one workload."""

    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, work
        self.facts = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def write_config(self, kind, epochs, batch_size=None):
        cfg = dict(MODEL_CONFIGS[kind], epochs=epochs)
        if batch_size is not None:
            cfg["batch_size"] = batch_size
        name = f"{kind}-e{epochs}-b{cfg['batch_size']}.json"
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return self.path(name)

    def setup(self):
        from fhtsurv import cli, cox, data

        full = data.generate_nonph(data.NonPhConfig(seed=self.seed))
        train_idx, test_idx = data.stratified_split_indices(full.delta, test_frac=0.2,
                                                            seed=SPLIT_SEED)
        data.write_csv(full[train_idx], self.path("train.csv"))
        data.write_csv(full[test_idx], self.path("test.csv"))
        self.facts.update(rows_train=int(train_idx.size), rows_test=int(test_idx.size))
        if self.name == "train":
            self.configs = {k: self.write_config(k, TRAIN_EPOCHS[k]) for k in TRAIN_EPOCHS}
            self.facts.update(epochs=TRAIN_EPOCHS, batch_size={
                k: MODEL_CONFIGS[k]["batch_size"] for k in MODEL_CONFIGS})
        elif self.name == "evaluate":
            for kind, epochs in EVAL_MODEL_EPOCHS.items():
                argv = ["train", "--data", self.path("train.csv"),
                        "--config", self.write_config(kind, epochs),
                        "--out", self.path(f"{kind}.model.json"), "--seed", str(self.seed)]
                if cli.main(argv) != 0:
                    raise RuntimeError(f"set-up command failed: fhtsurv {' '.join(argv)}")
            raw = data.load_csv(self.path("train.csv"))
            recipe = data.fit_preprocess(raw)
            model = cox.fit_cox(data.apply_preprocess(recipe, raw), tol=1e-6)
            model.recipe = recipe
            model.save(self.path("cox.model.json"))
            self.facts.update(model_epochs=EVAL_MODEL_EPOCHS, bootstrap=BOOTSTRAP,
                              riskmap_resolution=RISKMAP_RESOLUTION)
        else:
            self.facts.update(paths=SIM_PATHS, dt=1e-4, t_max=5.0, bridge=True, jobs=1,
                              settings=[list(s) for s in SIM_SETTINGS])

    def cycle(self, c):
        """The commands of cycle ``c``: (label, kind, argv, check) tuples."""
        import checks

        seed = str(self.seed + c)
        if self.name == "train":
            return [self.train_op(kind, self.configs[kind], TRAIN_EPOCHS[kind], seed)
                    for kind in TRAIN_EPOCHS]
        if self.name == "evaluate":
            ops = [self.eval_op(kind, seed, BOOTSTRAP) for kind in ("levy", "invgauss", "cox")]
            return ops + [self.riskmap_op()]
        return [self.simulate_op(kind, x0, second, SIM_PATHS, 1,
                                 str(self.seed * 1000 + 4 * c + j))
                for j, (kind, x0, second) in enumerate(SIM_SETTINGS)]

    def train_op(self, kind, config, epochs, seed):
        import checks

        out = self.path(f"{kind}.model.json")
        argv = ["train", "--data", self.path("train.csv"), "--config", config,
                "--out", out, "--seed", seed]
        return f"train.{kind}", kind, _cli(argv), lambda: checks.check_train(out, epochs)

    def eval_op(self, kind, seed, bootstrap):
        import checks

        model, out = self.path(f"{kind}.model.json"), self.path(f"{kind}.report.json")
        argv = ["eval", "--model", model, "--data", self.path("test.csv"), "--out", out,
                "--seed", seed]
        if bootstrap != CLI_DEFAULT_BOOTSTRAP:
            argv += ["--bootstrap", str(bootstrap)]
        return (f"eval.{kind}", kind, _cli(argv),
                lambda: checks.check_report(out, model, self.path("test.csv"), bootstrap))

    def riskmap_op(self):
        """``fhtsurv riskmap`` for the Levy model, run in process up to but not
        including its CSV writer, which writes ``np.float64(...)`` cells under
        numpy 2 (see DESIGN.md).  It uses the CLI module's own bindings, as
        the command does, so the tracer sees the same spans."""
        import checks

        model_path, train_path = self.path("levy.model.json"), self.path("train.csv")
        result = {}

        def run():
            from fhtsurv import cli
            from fhtsurv.training import FittedModel

            model = FittedModel.load(model_path)
            data = cli.apply_preprocess(model.recipe, cli.load_csv(train_path))
            result["map"] = cli.risk_grid(model, data, resolution=RISKMAP_RESOLUTION)
            return 0

        return ("riskmap.levy", "riskmap", run,
                lambda: checks.check_risk_map(result["map"], train_path, RISKMAP_RESOLUTION))

    def simulate_op(self, kind, x0, second, paths, jobs, seed):
        import checks

        out = self.path(f"sim-{kind}-{x0}.json")
        argv = ["simulate", "--distribution", kind, "--x0", repr(x0),
                "--diffusion" if kind == "levy" else "--drift", repr(second),
                "--paths", str(paths), "--dt", "1e-4", "--tmax", "5", "--bridge",
                "--jobs", str(jobs), "--out", out, "--seed", seed]
        return (f"simulate.{kind}_{x0:g}_{second:g}", kind, _cli(argv),
                lambda: checks.check_simulate(out, paths))


def _cli(argv):
    """An op's body: one in-process ``fhtsurv`` command, returning its exit code."""
    from fhtsurv import cli

    return lambda: cli.main(argv)


def run_op(op, tracer=None, probe=False):
    """Run one command; returns (seconds, error or None, facts)."""
    label, kind, body, check = op
    with tracer.op(label, kind, probe) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            code = body()
        except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
            return (time.perf_counter() - start,
                    f"{label}: raised {traceback.format_exc(limit=2)}", {})
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"{label}: exit code {code}", {}
    try:
        error, facts = check()
    except Exception:  # noqa: BLE001 - a failing check is a failed op, not a crash
        return seconds, f"{label}: check raised {traceback.format_exc(limit=2)}", {}
    return seconds, (f"{label}: {error}" if error else None), facts


def run_cycles(workload, seconds, tracer=None, max_cycles=None):
    """Closed loop over cycles until another cycle would pass ``seconds``."""
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append([(op[0], op[1], *run_op(op, tracer))
                       for op in workload.cycle(len(cycles))])
        elapsed = time.perf_counter() - start
        if max_cycles is not None and len(cycles) >= max_cycles:
            break
        if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            break
    return cycles


def summarize(cycles):
    """Median over cycles of the mean seconds per kind, per label and per cycle."""
    per_kind, per_label = {}, {}
    for cycle in cycles:
        kinds = {}
        for label, kind, secs, _, _ in cycle:
            kinds.setdefault(kind, []).append(secs)
            per_label.setdefault(label, []).append(secs)
        for kind, values in kinds.items():
            per_kind.setdefault(kind, []).append(statistics.fmean(values))
    return ({k: statistics.median(v) for k, v in per_kind.items()},
            {k: statistics.median(v) for k, v in per_label.items()},
            statistics.median(sum(op[2] for op in cycle) for cycle in cycles))


def named_metrics(workload, per_kind, per_label):
    """The workload's end-to-end figures under their per-workload names."""
    if workload.name == "train":
        rows = workload.facts["rows_train"]
        return {f"train.{k}_rows_per_s": (rows * TRAIN_EPOCHS[k] / per_kind[k], "rows/s")
                for k in TRAIN_EPOCHS}
    if workload.name == "evaluate":
        return {"evaluate.levy_report_s": (per_label["eval.levy"], "s"),
                "evaluate.invgauss_report_s": (per_label["eval.invgauss"], "s"),
                "evaluate.cox_report_s": (per_label["eval.cox"], "s"),
                "evaluate.riskmap_s": (per_label["riskmap.levy"], "s")}
    return {f"montecarlo.{k}_paths_per_s": (SIM_PATHS / per_kind[k], "paths/s")
            for k in ("levy", "invgauss")}


def machine_facts():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def special_accuracy():
    """Worst erf error in ulp and worst erfc relative error against libm."""
    import math

    import numpy as np

    from fhtsurv import special

    x = np.linspace(-6.0, 6.0, 120001)
    ref = np.array([math.erf(v) for v in x])
    ulp = np.array([math.ulp(v) for v in ref])
    erf_ulp = float(np.max(np.abs(special.erf(x) - ref)[ref != 0] / ulp[ref != 0]))
    x = np.linspace(-6.0, 26.0, 160001)
    ref = np.array([math.erfc(v) for v in x])
    erfc_rel = float(np.max(np.abs(special.erfc(x) - ref) / ref))
    return erf_ulp, erfc_rel


def cindex_peak_mb(workload):
    """tracemalloc peak of one concordance computation on the test split."""
    from fhtsurv import data, metrics
    from fhtsurv.training import FittedModel

    model = FittedModel.load(workload.path("levy.model.json"))
    test = data.apply_preprocess(model.recipe, data.load_csv(workload.path("test.csv")))
    tracemalloc.start()
    try:
        metrics.cindex_details(model.survival_matrix, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _probe(metrics, absent, names, fn):
    """Fill ``names`` from ``fn()``; a renamed package function marks them absent."""
    try:
        values = fn()
    except AttributeError as exc:
        values = (0.0,) * len(names)
        absent.update(dict.fromkeys(names, repr(exc)))
    metrics.update(zip(names, values))


def timed_run(workload, seconds):
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    cycles = run_cycles(workload, seconds)
    per_kind, per_label, cycle_s = summarize(cycles)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "levy_cmd_s": per_kind["levy"],
        "invgauss_cmd_s": per_kind["invgauss"],
        "cycle_s": cycle_s,
    }
    named = named_metrics(workload, per_kind, per_label)
    named.update(setup_s=(metrics["setup_s"], "s"), peak_rss_mb=(metrics["peak_rss_mb"], "MB"))
    return metrics, cycles, {"named_metrics": named, "cycle_seconds": [
        {op[0]: op[2] for op in cycle} for cycle in cycles]}


def traced_run(workload, seconds):
    import layers
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.op("setup", "setup"):
        workload.setup()
    tracer.uninstall()
    # the first cycle after set-up pays first-touch costs; compare warm cycles
    warmup = run_cycles(workload, seconds, max_cycles=1)
    plain = run_cycles(workload, seconds, max_cycles=1)
    tracer.install()
    traced = run_cycles(workload, seconds, tracer=tracer, max_cycles=1)
    # Baseline probes: inverse-Gaussian training at 256-row batches, a report
    # at the CLI's default resample count, the simulator at --jobs 1 and 2
    if workload.name == "train":
        cfg = workload.write_config("invgauss", 2, batch_size=256)
        probes = [workload.train_op("invgauss", cfg, 2, str(workload.seed))]
    elif workload.name == "evaluate":
        probes = [workload.eval_op("levy", str(workload.seed), CLI_DEFAULT_BOOTSTRAP)]
    else:
        probes = [workload.simulate_op("levy", 1.0, 1.0, SIM_SPEEDUP_PATHS, jobs,
                                       str(workload.seed)) for jobs in (1, 2)]
    probe_results = [(op[0], op[1], *run_op(op, tracer, probe=True)) for op in probes]
    tracer.uninstall()

    metrics, absent = layers.layer_metrics(tracer)
    cmd_seconds = lambda cycles: sum(op[2] for cycle in cycles for op in cycle)  # noqa: E731
    metrics["trace.overhead_frac"] = cmd_seconds(traced) / cmd_seconds(plain) - 1.0
    _probe(metrics, absent, ("special.erf.max_ulp", "special.erfc.max_rel_err"), special_accuracy)
    _probe(metrics, absent, ("metrics.cindex_details.peak_mb",),
           lambda: (cindex_peak_mb(workload) if workload.name == "evaluate" else 0.0,))
    z = [op[4]["max_abs_z"] for cycle in warmup + plain + traced for op in cycle
         if "max_abs_z" in op[4]]
    metrics["simulate.max_abs_z"] = max(z, default=0.0)
    metrics["simulate.jobs2_speedup"] = (probe_results[0][2] / probe_results[1][2]
                                         if workload.name == "montecarlo" else 0.0)
    for name, value in metrics.items():
        if value == 0 and name not in absent:
            absent[name] = "layer not exercised on this workload"
    os.makedirs(WORK_ROOT, exist_ok=True)
    spans_path = os.path.join(WORK_ROOT, f"trace-{workload.name}-seed{workload.seed}.jsonl")
    tracer.write(spans_path)
    return metrics, warmup + plain + traced + [probe_results], {
        "spans": os.path.relpath(spans_path, ROOT), "absent": absent,
        "probe_seconds": {op[0]: op[2] for op in probe_results}}


def run_all(args):
    """Run every workload in its own process and print the named metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            _fail(f"workload {name} exited with {proc.returncode}")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        shown = (detail["named_metrics"] if not args.trace else
                 {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
        for metric, (value, unit) in shown.items():
            key = metric if metric.startswith(f"{name}.") else f"{name}.{metric}"
            combined["metrics"][key] = {"value": value, "unit": unit}
            print(f"{name:10s} {metric:48s} {value:14.6g} {unit}")
        print(f"{name:10s} ops attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(combined))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_package()
    if args.workload == "all":
        run_all(args)
        return 0

    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = Workload(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        values, cycles, detail = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [op[3] for cycle in cycles for op in cycle if op[3]]
    for error in errors:
        print(f"perfbench: failed op {error}", file=sys.stderr)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, inputs=workload.facts, machine=machine_facts(),
                  errors=errors)
    print(json.dumps(detail, default=float))
    attempted = sum(len(cycle) for cycle in cycles)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
