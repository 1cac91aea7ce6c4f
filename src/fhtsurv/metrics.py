"""Censoring-aware evaluation: Kaplan-Meier, time-dependent concordance,
Brier curves, integrated Brier score, and stratified bootstrap summaries.

One pass.  ``concordance`` and ``evaluate`` score the model in one pass over
a matrix of row counts, each row a weighting of the records: row 0 counts
each record once, the data as given, and any further row is a bootstrap
resample, the number of times it drew each record (``bootstrap``), so no
resample's rows are ever copied.  The pass sorts the records by time once,
and every later step reads that order.  It fits one censoring curve per
count row (``km_censoring``) and asks the model for survival one block of
event-time columns at a time, as ``surv_fn(x, U[block])`` with ``x`` the rows
of ``data.x`` in time order and ``U`` the sorted unique event times (both the
network models and the Cox baseline expose ``survival_matrix`` with this
signature), so a model must be a function of each row of ``x``.  Where times
are distinct, the point estimates do not depend on the file's row order.
A block holds at most ``_BLOCK_ELEMS`` survival values, so a 480-record test split with
301 event times is one block; ``FittedModel.survival_matrix`` forms each
block in row tiles of at most 2^15 values.  Each block adds every count row's concordant
pairs at the block's anchors and its Brier values at the block's times, as
products of the count matrix with per-record pair and term matrices, both
weighted by that one censoring curve.  Each resample's Brier curve is read
on its own event-time grid, the times at which it drew an event.  No
(n x |U|) or (n x events) array exists: the working memory is a few
(n x block) arrays plus O(resamples x n) sums, linear in n.

IPCW conventions (the weighting itself is standard, the exponents are a
documented choice): concordance pairs anchored at event time ``T_i`` carry
weight ``1 / G(T_i-)^2`` where ``G`` is the Kaplan-Meier estimate of the
censoring survival; the Brier decomposition weights past events by
``1 / G(T_i-)`` and still-at-risk subjects by ``1 / G(t)``.  Terms whose
weight is undefined because ``G`` has reached zero get weight 0.  No
concordance pair is lost that way: an event record is at risk at every
censoring time before its own, so ``G(T_i-) > 0`` at every anchor a
resample counts.  Without censoring ``G`` is 1 everywhere, so both reduce to
their unweighted forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# survival values per column block of ``evaluate`` (2 MB of float64)
_BLOCK_ELEMS = 1 << 18


class MetricUndefinedError(ValueError):
    pass


@dataclass(frozen=True)
class KmCurve:
    """Right-continuous product-limit step function starting at 1.

    ``survival`` holds one value per step time, or one row of them per
    row of counts the curve was estimated from.
    """

    times: np.ndarray
    survival: np.ndarray

    def eval(self, t):
        return self._after(np.searchsorted(self.times, np.asarray(t, dtype=np.float64),
                                           side="right"))

    def eval_left(self, t):
        """Left limit, the value just before t."""
        return self._after(np.searchsorted(self.times, np.asarray(t, dtype=np.float64),
                                           side="left"))

    def _after(self, n_steps):
        """The value after the first ``n_steps`` steps."""
        start = np.ones(self.survival.shape[:-1] + (1,))
        return np.concatenate([start, self.survival], axis=-1)[..., n_steps]


def kaplan_meier(time_obs, flag, counts=None) -> KmCurve:
    """Product-limit estimator of P(time > t) for the flagged event type.

    ``flag`` marks which observations count as events; the rest are treated
    as censored for this curve.  Tied times are grouped.  ``counts`` is how
    many times each observation is counted (default once); a matrix of them
    gives one curve per row, all on the step times where any row has an
    event, and a row with no event at a step time keeps its value there.
    """
    time_obs = np.asarray(time_obs, dtype=np.float64)
    if time_obs.size == 0:
        raise MetricUndefinedError("no records")
    c = np.ones(time_obs.size) if counts is None else np.asarray(counts, dtype=np.float64)
    order = np.argsort(time_obs, kind="stable")
    uniq, start = np.unique(time_obs[order], return_index=True)
    c = c[..., order]
    at_risk = np.cumsum(c[..., ::-1], axis=-1)[..., ::-1][..., start]
    d = np.add.reduceat(c * np.asarray(flag)[order], start, axis=-1)
    keep = (d > 0).reshape(-1, uniq.size).any(axis=0)
    d, at_risk = d[..., keep], at_risk[..., keep]
    factors = 1.0 - d / np.where(at_risk > 0, at_risk, 1.0)
    return KmCurve(times=uniq[keep], survival=np.cumprod(factors, axis=-1))


def km_censoring(data, counts=None) -> KmCurve:
    """Kaplan-Meier of the censoring distribution (event indicator flipped)."""
    return kaplan_meier(data.time, 1 - data.delta, counts)


def _inverse(g) -> np.ndarray:
    """1 / g, and 0 where g is 0."""
    return np.where(g > 0.0, 1.0 / np.where(g > 0.0, g, 1.0), 0.0)


def _block_width(n) -> int:
    """Columns of an (n x columns) block of at most ``_BLOCK_ELEMS`` values."""
    return max(1, _BLOCK_ELEMS // n)


def _concordant_pairs(surv, times, time, counts, anchors) -> np.ndarray:
    """(rows x anchors) counted concordant pairs of each event record a at
    the given positions, records in the order of the sorted ``time``: the sum
    of ``counts[r, j]`` over the records j with ``T_j > T_a``, each scored 1
    when ``S_j(T_a) > S_a(T_a)`` and 1/2 when equal.  ``times`` are the
    sorted columns of ``surv`` and hold every anchor's time.  Anchors are
    taken a block width at a time, and each such part reads only the records
    after its earliest anchor, so tied event times never widen the working
    set past one block."""
    t_a = time[anchors]
    cols = np.searchsorted(times, t_a)
    out = np.empty((counts.shape[0], anchors.size))
    step = _block_width(time.size)
    for lo in range(0, anchors.size, step):
        part = slice(lo, lo + step)
        after = np.searchsorted(time, t_a[lo], side="right")
        s = surv[after:, cols[part]]
        own = surv[anchors[part], cols[part]]
        score = (s > own) + 0.5 * (s == own)
        score *= time[after:, None] > t_a[part]
        out[:, part] = counts[:, after:] @ score
    return out


def _concordance_from_pairs(pairs, time, counts, anchors, g: KmCurve):
    """Per count row: IPCW concordance and comparable pairs, from
    ``_concordant_pairs`` at every anchor and the censoring curve ``g`` of
    each count row, records in the order of the sorted ``time``."""
    t_a = time[anchors]
    tail = np.zeros(counts.shape[:-1] + (time.size + 1,))
    tail[:, :-1] = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    comparable = counts[:, anchors] * tail[:, np.searchsorted(time, t_a, side="right")]
    # G is 0 only at an anchor the count row did not draw, whose pairs count 0
    w = _inverse(g.eval_left(t_a) ** 2)
    den = (w * comparable).sum(axis=1)
    empty = np.flatnonzero(den == 0.0)
    if empty.size:  # row 0 counts the data as given, any further row a resample
        where = f"bootstrap resample {empty[0]} of {den.size - 1} has " if empty[0] else ""
        raise MetricUndefinedError(f"{where}no comparable pairs")
    num = (w * counts[:, anchors] * pairs).sum(axis=1)
    return num / den, comparable.sum(axis=1).astype(np.int64)


def _brier_values(surv, times, time, counts, event_w, g) -> np.ndarray:
    """(rows x times) IPCW-weighted Brier values, one row per count row:

    B(t) = mean_i [ 1(T_i <= t, event) S(t|x_i)^2 / G(T_i-)
                    + 1(T_i > t) (1 - S(t|x_i))^2 / G(t) ],

    the mean counting each record as often as its count.  ``event_w`` is
    each record's count over ``G(T_i-)``, 0 for censored records."""
    past = time[:, None] <= times[None, :]
    term_event = event_w @ (past * surv**2)
    term_risk = counts @ (~past * (1.0 - surv) ** 2)
    return (term_event + term_risk * _inverse(g.eval(times))) / counts.sum(axis=1)[:, None]


def ibs(times, values) -> float:
    """Trapezoidal integral of the Brier curve ``values`` at the sorted
    ``times`` over [0, last time], divided by that time.

    The curve is linear between grid points and constant, at its first
    value, from 0 to the first grid time.
    """
    knots = np.concatenate([[0.0], times])
    vals = np.concatenate([values[:1], values])
    return float(np.trapezoid(vals, knots) / times[-1])


def _scores(surv_fn, data, counts):
    """The one pass behind every estimate: per row of the (rows x n)
    ``counts``, the concordance, comparable pairs, Brier curve on the
    sorted unique event times ``U`` of ``data``, and integrated Brier score.
    Returns ``(concordance, comparable, U, brier, ibs)``, each but ``U``
    with one entry or row per count row.  The records and the columns of
    ``counts`` are sorted by time once, and every later step, the model call
    on the rows of ``x`` included, reads that order, so the model must be a
    function of each row of ``x`` and, where times are distinct, the point
    estimates do not depend on the file's row order.  Data without events
    are rejected before the model runs."""
    order = np.argsort(data.time, kind="stable")
    data, counts = data[order], counts[:, order]
    anchors = np.flatnonzero(data.delta == 1)
    if anchors.size == 0:
        raise MetricUndefinedError("no events, concordance undefined")
    times, first = np.unique(data.time[anchors], return_index=True)
    g = km_censoring(data, counts)
    event_w = counts * (data.delta == 1) * _inverse(g.eval_left(data.time))
    ends = np.append(first, anchors.size)
    width = _block_width(len(data))
    pairs = np.empty((counts.shape[0], anchors.size))
    brier = np.empty((counts.shape[0], times.size))
    for lo in range(0, times.size, width):
        cols = slice(lo, min(lo + width, times.size))
        here = slice(ends[cols.start], ends[cols.stop])
        surv = np.asarray(surv_fn(data.x, times[cols]), dtype=np.float64)
        pairs[:, here] = _concordant_pairs(surv, times[cols], data.time, counts, anchors[here])
        brier[:, cols] = _brier_values(surv, times[cols], data.time, counts, event_w, g)
    c_vals, n_comp = _concordance_from_pairs(pairs, data.time, counts, anchors, g)
    # each count row's Brier curve lies on its own grid, the times it drew an event at
    drawn = np.add.reduceat(counts[:, anchors], first, axis=1) > 0
    ibs_vals = np.array([ibs(times[on], values[on]) for on, values in zip(drawn, brier)])
    return c_vals, n_comp, times, brier, ibs_vals


def concordance(surv_fn, data):
    """Time-dependent IPCW concordance of the model ``surv_fn`` on ``data``.

    Returns ``(value, n_comparable)``.  A pair (i, j) is comparable when
    ``T_i < T_j`` and subject i had the event; it is concordant when i's
    predicted survival at ``T_i`` is below j's.  Tied predictions count one
    half.  This is ``evaluate``'s pass on the data as given alone.
    """
    c_vals, n_comp, *_ = _scores(surv_fn, data, np.ones((1, len(data))))
    return float(c_vals[0]), int(n_comp[0])


def bootstrap(data, n_resamples=100, seed=0) -> np.ndarray:
    """Row counts of censoring-ratio-preserving resamples.

    Each resample draws, with replacement, exactly the original number of
    censored and of uncensored records, so the censoring ratio is preserved
    by construction.  Entry ``[b, i]`` of the (n_resamples x n) result is
    how many times resample b drew record i.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")
    rng = np.random.default_rng(seed)
    n = len(data)
    strata = [idx for idx in (np.flatnonzero(data.delta == 0), np.flatnonzero(data.delta == 1))
              if idx.size]
    counts = np.zeros((n_resamples, n), dtype=np.int64)
    for row in counts:
        for idx in strata:
            # the draws of rng.choice(idx, size=idx.size), without its per-call checks
            row[idx] += np.bincount(rng.integers(0, idx.size, size=idx.size), minlength=idx.size)
    return counts


def _spread(values) -> dict:
    """Mean and sample standard deviation of the resample values."""
    return {"mean": float(values.mean()), "std": float(values.std(ddof=1))}


def evaluate(surv_fn, data, n_resamples=100, seed=0) -> dict:
    """Standard evaluation: concordance, Brier curve on the event-time grid,
    integrated Brier score over [0, last event time], and bootstrap spread
    for both headline metrics, returned as the JSON object ``eval`` writes.

    Both spreads read one set of ``n_resamples`` resamples, drawn from the
    first child of ``SeedSequence(seed)``.  The records are sorted by time
    once, and the model runs once per column block of the sorted unique
    event times ``U``, as ``surv_fn(x, U[block])`` with ``x`` the rows of
    ``data.x`` in time order, so it must be a function of each row of
    ``x``; the point estimate and every resample read each block once,
    through their row counts.  Where times are distinct, the point
    estimates do not depend on the file's row order.  ``bootstrap`` rejects
    ``n_resamples < 2``, and data without events are rejected, before the
    model runs.
    """
    (stream,) = np.random.SeedSequence(seed).spawn(1)
    # row 0 is the data as given, the point estimate
    counts = np.vstack([np.ones(len(data)), bootstrap(data, n_resamples, stream)])
    c_vals, n_comp, times, brier, ibs_vals = _scores(surv_fn, data, counts)
    return {
        "c_index": float(c_vals[0]),
        "c_index_bootstrap": _spread(c_vals[1:]),
        "ibs": float(ibs_vals[0]),
        "ibs_bootstrap": _spread(ibs_vals[1:]),
        "brier_curve": [[float(t), float(v)] for t, v in zip(times, brier[0])],
        "n_comparable_pairs": int(n_comp[0]),
        "n_bootstrap": n_resamples,
    }
