"""Outside-in span tracer for the fhtsurv package.

The tracer replaces package callables with timing wrappers at the place
their callers look them up (a module global such as ``fhtsurv.fht.erf``,
which the closed forms call, or a class attribute such as
``Network.forward``), so the package itself carries no tracing code.
Spans are kept in memory as ``[name, start, end, parent, op, counts]``
and written out as JSON lines when the run ends.

A target that no longer exists (a refactor renamed or fused it) is
recorded in ``absent`` with a reason instead of raising, so the benchmark
keeps working across such changes and reports which layer numbers it
could not take.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np


def _elems_of_arg(i):
    return lambda args, kwargs, result: {"elems": int(np.size(args[i]))}


def _rows_of_arg(i):
    # for methods args[0] is self
    return lambda args, kwargs, result: {"rows": int(np.shape(args[i])[0])}


def _elems_result(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _elems_result0(args, kwargs, result):
    return {"elems": int(np.size(result[0]))}


def _kernel_counts(args, kwargs, result):
    # survival_and_grads(kind, param_cols, times)
    return {"rows": int(np.shape(args[1])[0]), "elems": int(np.size(result[0]))}


def _rows_result(args, kwargs, result):
    return {"rows": len(result)}


def _report_shape(args, kwargs, result):
    # evaluate(surv_fn, data, ...): entries a report needs at minimum are
    # one survival value per test row and unique event time
    data = args[1]
    n_times = np.unique(data.time[data.delta == 1]).size
    return {"useful": len(data) * n_times}


def _newton_iters(args, kwargs, result):
    return {"iters": int(result.n_iter)}


def _idw_pairs(args, kwargs, result):
    return {"pairs": int(np.atleast_2d(args[0]).shape[0] * np.atleast_2d(args[1]).shape[0])}


def _path_steps(args, kwargs, result):
    # simulate_fpt(kind, params, cfg): each path walks min(hit, t_max) / dt steps
    cfg = args[2]
    hits = result.hit_times
    return {
        "steps": float(np.minimum(hits, cfg.t_max).sum() / cfg.dt),
        "paths": int(hits.size),
        "absorbed": int(np.isfinite(hits).sum()),
    }


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "network.forward_train" if train else "network.forward_eval"


# (module, class or None, attribute, span name, counter).  Each entry names
# the binding the package's callers actually use, e.g. the CLI's own
# ``evaluate`` import rather than ``fhtsurv.metrics.evaluate``.
TARGETS = [
    ("fhtsurv.cli", None, "main", "cli.main", None),
    ("fhtsurv.fht", None, "erf", "special.erf", _elems_of_arg(0)),
    ("fhtsurv.fht", None, "norm_cdf", "special.norm_cdf", _elems_of_arg(0)),
    ("fhtsurv.fht", None, "log_norm_cdf", "special.log_norm_cdf", _elems_of_arg(0)),
    ("fhtsurv.fht", None, "norm_pdf", "special.norm_pdf", _elems_of_arg(0)),
    ("fhtsurv.fht", None, "make_params", "fht.make_params", None),
    ("fhtsurv.fht", None, "survival", "fht.survival", _elems_result),
    ("fhtsurv.fht", None, "survival_grad", "fht.survival_grad", _elems_result0),
    ("fhtsurv.training", None, "survival_and_grads", "training.survival_and_grads", _kernel_counts),
    ("fhtsurv.training", None, "brier_terms", "training.brier_terms", _rows_of_arg(0)),
    ("fhtsurv.cli", None, "fit", "training.fit", None),
    ("fhtsurv.network", "Network", "forward", _forward_name, _rows_of_arg(1)),
    ("fhtsurv.network", "Network", "backward", "network.backward", _rows_of_arg(2)),
    ("fhtsurv.training", "FittedModel", "survival_matrix", "training.survival_matrix",
     _elems_result),
    ("fhtsurv.cox", "CoxModel", "survival_matrix", "cox.survival_matrix", _elems_result),
    ("fhtsurv.cli", None, "evaluate", "metrics.evaluate", _report_shape),
    ("fhtsurv.metrics", None, "cindex_details", "metrics.cindex_details", None),
    ("fhtsurv.metrics", None, "brier_curve", "metrics.brier_curve", None),
    ("fhtsurv.metrics", None, "bootstrap", "metrics.bootstrap", None),
    ("fhtsurv.cox", None, "fit_cox", "cox.fit_cox", _newton_iters),
    ("fhtsurv.cli", None, "risk_grid", "interpret.risk_grid", None),
    ("fhtsurv.interpret", None, "idw_time", "interpret.idw_time", _idw_pairs),
    ("fhtsurv.cli", None, "simulate_fpt", "simulate.simulate_fpt", _path_steps),
    ("fhtsurv.cli", None, "load_csv", "data.load_csv", _rows_result),
    ("fhtsurv.cli", None, "apply_preprocess", "data.apply_preprocess", None),
] + [
    (mod, None, attr, f"modelio.{attr}", counter)
    for mod in ("fhtsurv.cli", "fhtsurv.training", "fhtsurv.cox")
    for attr, counter in (("read_json", None), ("write_json_atomic", _bytes_written))
]


class Tracer:
    """Records spans of wrapped callables while an op is open."""

    def __init__(self):
        self.spans = []
        self.ops = []
        self.absent = {}
        self._stack = []
        self._patches = []
        self._op = None

    def install(self, targets=TARGETS):
        for module_name, class_name, attr, name, counter in targets:
            label = name if isinstance(name, str) else f"{module_name.rsplit('.', 1)[1]}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[label] = f"cannot import {module_name}: {exc}"
                continue
            where = module_name
            if class_name is not None:
                owner = getattr(owner, class_name, None)
                where = f"{module_name}.{class_name}"
                if owner is None:
                    self.absent[label] = f"{where} not found"
                    continue
            original = getattr(owner, attr, None)
            if original is None:
                self.absent[label] = f"{where}.{attr} not found"
                continue
            setattr(owner, attr, self._wrapper(original, name, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = [span_name, time.perf_counter(), None, parent, tracer._op, None]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                # a refactor may change an argument or result shape; that
                # loses one count, never the traced command itself
                try:
                    record[5] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                        OSError) as exc:
                    tracer.absent.setdefault(f"{span_name} counts", repr(exc))
            return result

        return traced

    @contextmanager
    def op(self, label, kind, probe=False):
        """Attribute the spans opened inside to one op (one CLI command)."""
        self.ops.append({"label": label, "kind": kind, "probe": probe})
        self._op = len(self.ops) - 1
        try:
            yield
        finally:
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "op_label": self.ops[op]["label"], "counts": counts,
                }) + "\n")
