"""Output checks for every benchmark command.

Each check returns ``(error, facts)``: ``error`` is ``None`` when the output
is correct and a one-line reason otherwise; ``facts`` holds values the run
reports (such as the largest Monte Carlo z score).  The concordance check is
an independent brute-force enumeration of comparable pairs; it shares only
the model's survival matrix with the package.
"""

from __future__ import annotations

import bisect
import csv
import json
import math

import numpy as np

from fhtsurv.cox import CoxModel
from fhtsurv.data import apply_preprocess, load_csv
from fhtsurv.training import FittedModel

# |z| of an empirical survival fraction against the closed form.  The rarest
# outcome checked is Levy (x0=2, D=0.5) at t=0.5, 1 - S = 0.0047, about 10
# absorbed paths of 2048; the Poisson tail beyond 8 standard errors there is
# 2e-10, and every other point is closer to normal.  Over thousands of z
# values per benchmark campaign a correct simulator fails with probability
# below 1e-6.
Z_BOUND = 8.0
CINDEX_TOL = 1e-9


def _load_model(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return CoxModel.from_dict(obj) if obj.get("kind") == "cox" else FittedModel.from_dict(obj)


def check_train(model_path, epochs):
    model = FittedModel.load(model_path)
    trace = np.asarray(model.loss_trace, dtype=np.float64)
    if trace.size != epochs:
        return f"loss_trace has {trace.size} entries, expected {epochs}", {}
    if not np.all(np.isfinite(trace)):
        return "loss_trace is not finite", {}
    if not trace[-1] < trace[0]:
        return f"loss did not decrease: first {trace[0]!r}, last {trace[-1]!r}", {}
    return None, {}


def _censoring_left_limit(time_obs, delta):
    """G(t-), the censoring survival just before t, as a direct product over
    the distinct censoring times."""
    cens_times = sorted(set(time_obs[delta == 0].tolist()))
    g, values = 1.0, []
    for s in cens_times:
        at_risk = np.count_nonzero(time_obs >= s)
        censored = np.count_nonzero((time_obs == s) & (delta == 0))
        g *= 1.0 - censored / at_risk
        values.append(g)

    def g_left(t):
        k = bisect.bisect_left(cens_times, t)
        return 1.0 if k == 0 else values[k - 1]

    return g_left


def brute_force_cindex(surv, time_obs, delta):
    """IPCW concordance by enumerating, for each event anchor i, every
    subject j with T_j > T_i.  ``surv[:, k]`` is survival at the k-th event
    time (event rows in file order).  Returns (value, n_comparable)."""
    g_left = _censoring_left_limit(time_obs, delta)
    num = den = 0.0
    n_comparable = 0
    for k, i in enumerate(np.flatnonzero(delta == 1)):
        g = g_left(time_obs[i])
        if g <= 0.0:
            continue
        later = time_obs > time_obs[i]
        partners = surv[later, k]
        own = surv[i, k]
        pairs = int(later.sum())
        concordant = np.count_nonzero(partners > own) + 0.5 * np.count_nonzero(partners == own)
        num += concordant / g**2
        den += pairs / g**2
        n_comparable += pairs
    return num / den, n_comparable


def check_report(report_path, model_path, data_path, n_bootstrap):
    with open(report_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    c, ibs = rep["c_index"], rep["ibs"]
    if not (math.isfinite(c) and 0.0 <= c <= 1.0):
        return f"c_index {c!r} outside [0, 1]", {}
    if not (math.isfinite(ibs) and 0.0 <= ibs <= 1.0):
        return f"ibs {ibs!r} outside [0, 1]", {}
    for key in ("c_index_bootstrap", "ibs_bootstrap"):
        if not all(math.isfinite(v) for v in rep[key].values()):
            return f"{key} is not finite", {}
    if rep["n_bootstrap"] != n_bootstrap:
        return f"n_bootstrap {rep['n_bootstrap']} != {n_bootstrap}", {}
    model = _load_model(model_path)
    data = apply_preprocess(model.recipe, load_csv(data_path))
    surv = model.survival_matrix(data.x, data.time[data.delta == 1])
    c_bf, n_bf = brute_force_cindex(surv, data.time, data.delta)
    if rep["n_comparable_pairs"] != n_bf:
        return f"n_comparable_pairs {rep['n_comparable_pairs']} != brute force {n_bf}", {}
    if abs(c - c_bf) > CINDEX_TOL:
        return f"c_index {c!r} != brute force {c_bf!r}", {}
    return None, {}


def check_risk_map(rmap, train_path, resolution):
    """IDW values are convex combinations of the uncensored training times."""
    with open(train_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    src = np.array([float(r["time"]) for r in rows if r["event"] == "1"])
    grid = np.asarray(rmap.grid, dtype=np.float64)
    if grid.shape != (resolution, resolution):
        return f"grid has shape {grid.shape}, expected {(resolution, resolution)}", {}
    if rmap.n_sources != src.size:
        return f"n_sources {rmap.n_sources} != {src.size} uncensored training rows", {}
    slack = 1e-9 * src.max()
    if not (np.all(np.isfinite(grid)) and grid.min() >= src.min() - slack
            and grid.max() <= src.max() + slack):
        return "grid value outside the range of the source event times", {}
    overlay = np.asarray(rmap.overlay_params, dtype=np.float64)
    if overlay.shape != (len(rows), 2) or not np.all(np.isfinite(overlay)):
        return f"overlay has shape {overlay.shape}, expected {(len(rows), 2)}, all finite", {}
    return None, {}


def check_simulate(summary_path, n_paths):
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary["n_paths"] != n_paths:
        return f"n_paths {summary['n_paths']} != {n_paths}", {}
    if not 0.0 <= summary["fraction_absorbed"] <= 1.0:
        return "fraction_absorbed outside [0, 1]", {}
    z = [row["z"] for row in summary["comparison"]]
    max_abs_z = max(abs(v) for v in z)
    if len(z) != 10 or not math.isfinite(max_abs_z) or max_abs_z > Z_BOUND:
        return f"simulate z out of bounds: max |z| = {max_abs_z!r}", {"max_abs_z": max_abs_z}
    return None, {"max_abs_z": max_abs_z}
