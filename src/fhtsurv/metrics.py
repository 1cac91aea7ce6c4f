"""Censoring-aware evaluation: Kaplan-Meier, time-dependent concordance,
Brier curves, integrated Brier score, and stratified bootstrap summaries.

Every estimator reads predictions from one precomputed survival matrix:
``surv[i, k]`` is subject i's predicted survival at ``times[k]``, where
``times`` is sorted.  ``evaluate`` builds that matrix by calling the model
once, as ``surv_fn(data.x, U)`` with ``U`` the sorted unique event times of
``data`` (both the network models and the Cox baseline expose
``survival_matrix`` with this signature); every bootstrap resample's rows
and event times are a subset of the full data's, so the resamples index
into the same matrix instead of calling the model again.

IPCW conventions (the weighting itself is standard, the exponents are a
documented choice): concordance pairs anchored at event time ``T_i`` carry
weight ``1 / G(T_i-)^2`` where ``G`` is the Kaplan-Meier estimate of the
censoring survival; the Brier decomposition weights past events by
``1 / G(T_i-)`` and still-at-risk subjects by ``1 / G(t)``.  Terms whose
weight is undefined because ``G`` has reached zero are excluded and
counted.  ``concordance`` and ``brier_curve`` accept ``weighted=False`` for
unweighted sensitivity checks; ``evaluate`` always weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MetricUndefinedError(ValueError):
    pass


@dataclass(frozen=True)
class KmCurve:
    """Right-continuous product-limit step function starting at 1."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    n: int

    def eval(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.times.size == 0:
            return np.ones_like(t)
        idx = np.searchsorted(self.times, t, side="right") - 1
        return np.where(idx < 0, 1.0, self.survival[np.maximum(idx, 0)])

    def eval_left(self, t):
        """Left limit, the value just before t."""
        t = np.asarray(t, dtype=np.float64)
        if self.times.size == 0:
            return np.ones_like(t)
        idx = np.searchsorted(self.times, t, side="left") - 1
        return np.where(idx < 0, 1.0, self.survival[np.maximum(idx, 0)])


def kaplan_meier(time_obs, flag) -> KmCurve:
    """Product-limit estimator of P(time > t) for the flagged event type.

    ``flag`` marks which observations count as events; the rest are treated
    as censored for this curve.  Tied times are grouped.
    """
    time_obs = np.asarray(time_obs, dtype=np.float64)
    flag = np.asarray(flag)
    if time_obs.size == 0:
        raise MetricUndefinedError("no records")
    order = np.argsort(time_obs, kind="stable")
    ts, fs = time_obs[order], flag[order]
    uniq, start = np.unique(ts, return_index=True)
    n = ts.size
    at_risk_all = n - start
    d = np.add.reduceat(fs.astype(np.int64), start)
    keep = d > 0
    factors = 1.0 - d[keep] / at_risk_all[keep]
    return KmCurve(
        times=uniq[keep],
        survival=np.cumprod(factors),
        at_risk=at_risk_all[keep],
        n=n,
    )


def km_censoring(data) -> KmCurve:
    """Kaplan-Meier of the censoring distribution (event indicator flipped)."""
    return kaplan_meier(data.time, 1 - data.delta)


def _columns(times, wanted) -> np.ndarray:
    """Column of each ``wanted`` time in the sorted ``times`` of a survival
    matrix; a wanted time with no column is an error naming that time."""
    times = np.asarray(times, dtype=np.float64)
    wanted = np.asarray(wanted, dtype=np.float64)
    cols = np.searchsorted(times, wanted)
    found = cols < times.size
    found[found] = times[cols[found]] == wanted[found]
    if not found.all():
        missing = float(wanted[~found][0])
        raise ValueError(f"survival matrix has no column for event time {missing!r}")
    return cols


def concordance(surv, times, data, weighted=True):
    """Time-dependent concordance with tie and exclusion accounting.

    Returns ``(value, n_comparable, n_excluded_pairs)``.  A pair (i, j) is
    comparable when ``T_i < T_j`` and subject i had the event; it is
    concordant when i's predicted survival at ``T_i`` is below j's.  Tied
    predictions count one half.  Pairs whose anchor time has no censoring
    mass left (``G(T_i-) = 0``) are excluded from both sums.  ``times``
    must hold every event time of ``data``.
    """
    time_obs, delta = data.time, data.delta
    ev = np.flatnonzero(delta == 1)
    if ev.size == 0:
        raise MetricUndefinedError("no events, concordance undefined")
    t_ev = time_obs[ev]
    surv = np.take(np.asarray(surv, dtype=np.float64), _columns(times, t_ev), axis=1)
    s_own = surv[ev, np.arange(ev.size)]
    comparable = time_obs[:, None] > t_ev[None, :]
    n_comp = comparable.sum(axis=0)
    conc = ((surv > s_own[None, :]) & comparable).sum(axis=0)
    tied = ((surv == s_own[None, :]) & comparable).sum(axis=0)
    if weighted:
        g_left = km_censoring(data).eval_left(t_ev)
        valid = g_left > 0.0
        w = np.zeros(ev.size)
        w[valid] = 1.0 / g_left[valid] ** 2
    else:
        valid = np.ones(ev.size, dtype=bool)
        w = np.ones(ev.size)
    den = float((w * n_comp)[valid].sum())
    if den == 0.0:
        raise MetricUndefinedError("no comparable pairs")
    num = float((w * (conc + 0.5 * tied))[valid].sum())
    n_excluded = int(n_comp[~valid].sum())
    return num / den, int(n_comp[valid].sum()), n_excluded


@dataclass(frozen=True)
class BrierCurve:
    times: np.ndarray
    values: np.ndarray
    n_excluded: int = 0


def brier_curve(surv, times, data, weighted=True) -> BrierCurve:
    """IPCW-weighted time-dependent Brier score at each of ``times``.

    B(t) = mean_i [ 1(T_i <= t, event) S(t|x_i)^2 / G(T_i-)
                    + 1(T_i > t) (1 - S(t|x_i))^2 / G(t) ].
    """
    t_grid = np.atleast_1d(np.asarray(times, dtype=np.float64))
    time_obs, delta = data.time, data.delta
    n = len(data)
    surv = np.asarray(surv, dtype=np.float64)
    past_event = (time_obs[:, None] <= t_grid[None, :]) & (delta[:, None] == 1)
    at_risk = time_obs[:, None] > t_grid[None, :]
    if weighted:
        g = km_censoring(data)
        g_subj = g.eval_left(time_obs)
        g_grid = g.eval(t_grid)
    else:
        g_subj = np.ones(n)
        g_grid = np.ones(t_grid.size)
    w_subj = np.where(g_subj > 0.0, 1.0 / np.where(g_subj > 0.0, g_subj, 1.0), 0.0)
    w_grid = np.where(g_grid > 0.0, 1.0 / np.where(g_grid > 0.0, g_grid, 1.0), 0.0)
    term_event = past_event * surv**2 * w_subj[:, None]
    term_risk = at_risk * (1.0 - surv) ** 2 * w_grid[None, :]
    values = (term_event + term_risk).sum(axis=0) / n
    n_excluded = int((past_event & (g_subj[:, None] == 0.0)).sum())
    n_excluded += int((at_risk & (g_grid[None, :] == 0.0)).sum())
    return BrierCurve(times=t_grid, values=values, n_excluded=n_excluded)


def ibs(curve: BrierCurve, t0=None, tmax=None) -> float:
    """Window-normalized trapezoidal integral of the Brier curve.

    The curve is interpolated linearly between grid points and extended
    constantly beyond them when the window is wider than the grid.
    """
    t0 = float(curve.times[0]) if t0 is None else float(t0)
    tmax = float(curve.times[-1]) if tmax is None else float(tmax)
    if not tmax > t0:
        raise ValueError("tmax must exceed t0")
    inner = curve.times[(curve.times > t0) & (curve.times < tmax)]
    knots = np.concatenate([[t0], inner, [tmax]])
    vals = np.interp(knots, curve.times, curve.values)
    return float(np.trapezoid(vals, knots) / (tmax - t0))


class BootstrapResult(NamedTuple):
    mean: float
    std: float


def bootstrap(metric_fn, data, n_resamples=100, seed=0) -> BootstrapResult:
    """Mean/std of a metric over censoring-ratio-preserving resamples.

    Each resample draws, with replacement, exactly the original number of
    censored and of uncensored records, so the censoring ratio is preserved
    by construction.  ``metric_fn`` receives each resample's row indices
    into ``data``.  ``std`` is the sample standard deviation.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")
    rng = np.random.default_rng(seed)
    idx_cens = np.flatnonzero(data.delta == 0)
    idx_ev = np.flatnonzero(data.delta == 1)
    values = np.empty(n_resamples)
    for b in range(n_resamples):
        parts = []
        if idx_cens.size:
            parts.append(rng.choice(idx_cens, size=idx_cens.size, replace=True))
        if idx_ev.size:
            parts.append(rng.choice(idx_ev, size=idx_ev.size, replace=True))
        sel = np.concatenate(parts)
        values[b] = metric_fn(sel)
    return BootstrapResult(mean=float(values.mean()), std=float(values.std(ddof=1)))


@dataclass
class EvalReport:
    """Headline metrics plus bootstrap spread, serializable to JSON."""

    c_index: float
    ibs: float
    brier_times: np.ndarray
    brier_values: np.ndarray
    c_index_bootstrap: BootstrapResult
    ibs_bootstrap: BootstrapResult
    n_comparable_pairs: int = 0
    n_excluded_pairs: int = 0
    n_bootstrap: int = 0

    def to_dict(self) -> dict:
        return {
            "c_index": self.c_index,
            "c_index_bootstrap": {"mean": self.c_index_bootstrap.mean,
                                  "std": self.c_index_bootstrap.std},
            "ibs": self.ibs,
            "ibs_bootstrap": {"mean": self.ibs_bootstrap.mean,
                              "std": self.ibs_bootstrap.std},
            "brier_curve": [[float(t), float(v)]
                            for t, v in zip(self.brier_times, self.brier_values)],
            "n_comparable_pairs": self.n_comparable_pairs,
            "n_excluded_pairs": self.n_excluded_pairs,
            "n_bootstrap": self.n_bootstrap,
        }


def evaluate(surv_fn, data, n_resamples=100, seed=0) -> EvalReport:
    """Standard evaluation: concordance, Brier curve on the event-time grid,
    integrated Brier score over [0, last event time], and bootstrap spread
    for both headline metrics.

    The model runs once, as ``surv_fn(data.x, U)`` with ``U`` the sorted
    unique event times; every estimate below reads from that matrix.
    """
    times = np.unique(data.time[data.delta == 1])
    surv = np.asarray(surv_fn(data.x, times), dtype=np.float64)
    c_val, n_comp, n_excl = concordance(surv, times, data)
    curve = brier_curve(surv, times, data)
    ibs_val = ibs(curve, t0=0.0, tmax=float(times[-1]))

    def c_metric(sel):
        return concordance(surv[sel], times, data[sel])[0]

    def ibs_metric(sel):
        d = data[sel]
        g = np.unique(d.time[d.delta == 1])
        s = np.take(surv[sel], _columns(times, g), axis=1)
        return ibs(brier_curve(s, g, d), t0=0.0, tmax=float(g[-1]))

    seq = np.random.SeedSequence(seed).spawn(2)
    c_boot = bootstrap(c_metric, data, n_resamples=n_resamples, seed=seq[0])
    i_boot = bootstrap(ibs_metric, data, n_resamples=n_resamples, seed=seq[1])
    return EvalReport(
        c_index=c_val,
        ibs=ibs_val,
        brier_times=curve.times,
        brier_values=curve.values,
        c_index_bootstrap=c_boot,
        ibs_bootstrap=i_boot,
        n_comparable_pairs=n_comp,
        n_excluded_pairs=n_excl,
        n_bootstrap=n_resamples,
    )
