"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the package's own numerics: the error
function comes from the C standard library via ``math`` and the log normal
CDF from scipy's ``log_ndtr``, integrals from scipy's adaptive quadrature,
and the concordance/Brier oracles are direct pair enumerations in pure
Python.

The former CSV loader and preprocessing, which parsed each cell as text in
every step, are kept verbatim at the end as the reference that the
column-wise loader must reproduce; after them the former evaluation, which
rebuilt every bootstrap resample from its rows, is kept verbatim as the
reference for the count-weighted, column-blocked one.  The former
point-query risk map, which formed every query point's own offsets to every
source, is kept as the bit-for-bit reference for the grid evaluation.
Last come the former training-step pieces, verbatim: the per-array Adam
loop, the batch-norm passes through ``np.mean``/``np.var`` and the two-mask
Brier terms, the references for the flat-buffer and single-mask forms.
The former NonPH sampler, which formed every record's sub-interval masses,
their cumulative sums and the comparison with its uniform at once, ends the
file verbatim as the reference for the row-blocked one.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from fhtsurv.data import (
    HORIZON,
    N_FEATURES,
    N_INTERVALS,
    N_SUBINTERVALS,
    TARGET_CENSORING,
    ColumnTransform,
    LoadError,
    PreprocessError,
    PreprocessRecipe,
    SurvivalData,
    interval_probs,
)
from fhtsurv.metrics import MetricUndefinedError
from fhtsurv.network import BN_EPS, BN_MOMENTUM, Network, link_backward, link_forward
from fhtsurv.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def norm_cdf_ref(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def levy_survival_ref(x0, d, t):
    return math.erf(x0 / math.sqrt(4.0 * d * t))


def ig_survival_ref(x0, mu, t):
    a = (x0 + mu * t) / math.sqrt(2.0 * t)
    b = (mu * t - x0) / math.sqrt(2.0 * t)
    return norm_cdf_ref(a) - math.exp(-mu * x0) * norm_cdf_ref(b)


def ig_survival_logspace_ref(x0, mu, t):
    """The same law with the image term exp(-mu x0) Phi(b) formed in log
    space through scipy's ``log_ndtr``, so it stays finite where
    ``exp(-mu x0)`` alone overflows."""
    a = (x0 + mu * t) / math.sqrt(2.0 * t)
    b = (mu * t - x0) / math.sqrt(2.0 * t)
    return norm_cdf_ref(a) - math.exp(-mu * x0 + float(special.log_ndtr(b)))


def ig_density_ref(x0, mu, t):
    return x0 / math.sqrt(4.0 * math.pi * t**3) * math.exp(-((x0 + mu * t) ** 2) / (4.0 * t))


def sample_levy(x0, d, rng):
    """Exact Levy hitting times: T = x0^2 / (2 D Z^2) with Z standard normal,
    since P(T > t) = P(|Z| < x0 / sqrt(2 D t)) = erf(x0 / sqrt(4 D t)).
    ``x0`` and ``d`` broadcast; one draw per element."""
    z = rng.standard_normal(np.broadcast(x0, d).shape)
    return np.square(x0) / (2.0 * np.asarray(d) * z * z)


def sample_invgauss(x0, mu, rng):
    """Exact hitting times of drift ``mu < 0`` and D = 1 (variance 2 per unit
    time), as in ``fht``: inverse Gaussian with mean x0/|mu| and shape
    x0^2/2.  ``x0`` and ``mu`` broadcast; one draw per element."""
    return rng.wald(np.asarray(x0) / np.abs(mu), np.square(x0) / 2.0)


def quad(f, lo, hi, **kw):
    value, _ = integrate.quad(f, lo, hi, **kw)
    return value


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def km_censoring_ref(times, deltas):
    """Plain product-limit estimator of the censoring survival, as a sorted
    list of (time, value) steps; evaluation helpers below."""
    times = list(times)
    n = len(times)
    steps = []
    value = 1.0
    for t in sorted(set(times)):
        at_risk = sum(1 for u in times if u >= t)
        d = sum(1 for u, dl in zip(times, deltas) if u == t and dl == 0)
        if d:
            value *= 1.0 - d / at_risk
            steps.append((t, value))
    return steps


def km_eval_left(steps, t):
    out = 1.0
    for st, v in steps:
        if st < t:
            out = v
        else:
            break
    return out


def km_eval(steps, t):
    out = 1.0
    for st, v in steps:
        if st <= t:
            out = v
        else:
            break
    return out


def cindex_bruteforce(surv_lookup, times, deltas):
    """Direct enumeration of Antolini's time-dependent concordance.

    ``surv_lookup(j, t)`` returns subject j's predicted survival at time t.
    Pairs are (i, j) with T_i < T_j and subject i uncensored; prediction
    ties count one half; anchor times with no censoring mass left are
    skipped.  Returns None when no comparable pair remains.
    """
    n = len(times)
    steps = km_censoring_ref(times, deltas)
    num = 0.0
    den = 0.0
    for i in range(n):
        if deltas[i] != 1:
            continue
        g = km_eval_left(steps, times[i])
        if g <= 0.0:
            continue
        w = 1.0 / g**2
        s_i = surv_lookup(i, times[i])
        for j in range(n):
            if times[j] <= times[i]:
                continue
            den += w
            s_j = surv_lookup(j, times[i])
            if s_i < s_j:
                num += w
            elif s_i == s_j:
                num += 0.5 * w
    if den == 0.0:
        return None
    return num / den


def brier_ref(surv_lookup, times, deltas, t):
    """Direct evaluation of the IPCW Brier score at one time point."""
    n = len(times)
    steps = km_censoring_ref(times, deltas)
    total = 0.0
    for i in range(n):
        s = surv_lookup(i, t)
        if times[i] <= t and deltas[i] == 1:
            g = km_eval_left(steps, times[i])
            if g > 0.0:
                total += s * s / g
        elif times[i] > t:
            g = km_eval(steps, t)
            if g > 0.0:
                total += (1.0 - s) ** 2 / g
    return total / n


def idw_ref(query, points, times, transform=None):
    """Scalar re-evaluation of the inverse-distance time interpolation; a
    query within 1e-12 of one or more sources takes the mean of their times."""
    q = list(query)
    if transform:
        q = transform(q)
    num = 0.0
    den = 0.0
    coincident = []
    for p, t in zip(points, times):
        pp = transform(list(p)) if transform else list(p)
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, pp)))
        if d < 1e-12:
            coincident.append(t)
            continue
        w = 1.0 / math.sqrt(d)
        num += w * t
        den += w
    if coincident:
        return sum(coincident) / len(coincident)
    return num / den


def idw_points(query, source_params, source_times, block=128):
    """The former point-query inverse-distance interpolation, kept verbatim as
    the bit-for-bit reference for the grid evaluation: each query point and
    each source form their own ``(qx - sx)^2`` and ``(qy - sy)^2``, ``block``
    query rows at a time."""
    source_params = np.atleast_2d(np.asarray(source_params, dtype=np.float64))
    source_times = np.asarray(source_times, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    scalar = query.ndim == 1
    queries = np.atleast_2d(query)
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], block):
        q = queries[start : start + block]
        rows = out[start : start + block]
        sq = q[:, 0:1] - source_params[:, 0]
        sq *= sq
        dy = q[:, 1:2] - source_params[:, 1]
        dy *= dy
        sq += dy
        dist = np.sqrt(sq, out=sq)
        hit = dist.min(axis=1) < 1e-12
        for i in np.flatnonzero(hit):
            rows[i] = source_times[dist[i] < 1e-12].mean()
        w = dist[~hit] if hit.any() else dist
        np.sqrt(w, out=w)
        np.divide(1.0, w, out=w)
        rows[~hit] = (w @ source_times) / w.sum(axis=1)
    return float(out[0]) if scalar else out


def idw_grid_points(xs, ys, source_params, source_times):
    """The product grid of ``xs`` and ``ys`` as the former risk map built it:
    a meshgrid of query points through ``idw_points``, shape (ys, xs)."""
    qx, qy = np.meshgrid(xs, ys)
    queries = np.stack([qx.ravel(), qy.ravel()], axis=1)
    return idw_points(queries, source_params, source_times).reshape(qx.shape)


def risk_grid_points(model, train_data, resolution):
    """The former ``risk_grid`` map: every query point of the meshgrid of the
    axes' raw grids mapped to metric coordinates (log on a log axis) one
    column at a time, then ``idw_points``."""
    from fhtsurv.interpret import default_axes

    def metric(points, axes):
        return np.stack([np.log(points[:, j]) if ax.scale == "log" else points[:, j]
                         for j, ax in enumerate(axes)], axis=1)

    params = model.params_for(train_data.x)
    uncensored = train_data.delta == 1
    axes = default_axes(model.kind, params, resolution=resolution)
    qx, qy = np.meshgrid(axes[0].grid(), axes[1].grid())
    queries = metric(np.stack([qx.ravel(), qy.ravel()], axis=1), axes)
    src = metric(params[uncensored], axes)
    return idw_points(queries, src, train_data.time[uncensored]).reshape(qx.shape)


def cox_neg_loglik_ref(beta, x, times, deltas):
    """Minus the Breslow log partial likelihood and its gradient, as a loop
    over the distinct event times: at each time ``t`` the ``d`` subjects with
    an event at ``t`` score against the risk set of subjects with time >= t,
    ``sum_events (eta_i - log sum_risk exp(eta))``."""
    eta = x @ beta
    ll = 0.0
    grad = np.zeros(x.shape[1])
    for t in sorted(set(times[deltas == 1].tolist())):
        events = (times == t) & (deltas == 1)
        risk = times >= t
        r = np.exp(eta[risk])
        d = int(events.sum())
        ll += eta[events].sum() - d * math.log(r.sum())
        grad += x[events].sum(axis=0) - d * (r @ x[risk]) / r.sum()
    return -ll, -grad


def cox_beta_ref(x, times, deltas):
    """The Breslow partial-likelihood estimate, ``cox_neg_loglik_ref``
    minimised by scipy's BFGS from zero.  BFGS may stop on precision loss
    once its line search cannot lower a log-likelihood in the hundreds, so
    the caller checks the result, not ``success``."""
    return optimize.minimize(cox_neg_loglik_ref, np.zeros(x.shape[1]), args=(x, times, deltas),
                             jac=True, method="BFGS", options={"gtol": 1e-10}).x


def breslow_cumhaz_ref(beta, x, times, deltas):
    """The Breslow baseline cumulative hazard at each distinct event time, as
    a loop summing the increments ``d_j / sum_{R_j} exp(eta)``."""
    eta = x @ beta
    event_times, cumhaz, total = [], [], 0.0
    for t in sorted(set(times[deltas == 1].tolist())):
        d = int(((times == t) & (deltas == 1)).sum())
        total += d / math.fsum(math.exp(e) for e in eta[times >= t])
        event_times.append(t)
        cumhaz.append(total)
    return np.array(event_times), np.array(cumhaz)


def fine_fpt_reference(n_block, seed_seq, x0, mu, diff, dt, n_steps, bridge):
    """The simulator's former block kernel: one Gaussian step per ``dt``.

    Takes the same arguments as ``fhtsurv.simulate._run_block`` and returns
    hit times (``inf`` for survivors).  Each path is advanced on the ``dt``
    grid and absorbed at the first grid point at or below zero or, with
    ``bridge``, at the first step whose Brownian-bridge crossing test
    ``exp(-a b / (D dt))`` fires.  Kept as the reference law that the
    coarse-step sampler must reproduce.
    """
    chunk_steps = 256
    rng = np.random.Generator(np.random.Philox(seed_seq))
    sigma = np.sqrt(2.0 * diff * dt)
    bridge_scale = diff * dt
    thresh = 40.0 * bridge_scale
    # A path whose previous position and whole chunk stay above this level
    # cannot produce any pair product below thresh, so it needs no checks.
    guard = np.sqrt(thresh) + 1e-4 if bridge else 1e-4

    hit = np.full(n_block, np.inf)
    alive_idx = np.arange(n_block)
    pos = np.full(n_block, x0, dtype=np.float64)
    buf = np.empty(n_block * chunk_steps, dtype=np.float32)
    step = 0
    while step < n_steps and alive_idx.size:
        k = min(chunk_steps, n_steps - step)
        n_alive = alive_idx.size
        walk = buf[: n_alive * k].reshape(n_alive, k)
        rng.standard_normal(dtype=np.float32, out=walk)
        np.cumsum(walk, axis=1, out=walk)
        drift_floor = min(mu * dt * k, 0.0)
        floor = pos + sigma * walk.min(axis=1).astype(np.float64) + drift_floor
        cand = (floor < guard) | (pos < guard)

        absorbed_rows = np.zeros(n_alive, dtype=bool)
        first_step = np.zeros(n_alive, dtype=np.int64)
        if cand.any():
            sub = np.flatnonzero(cand)
            p_sub = sigma * walk[sub].astype(np.float64)
            p_sub += pos[sub, None]
            if mu != 0.0:
                p_sub += mu * dt * np.arange(1, k + 1)
            if bridge:
                ab = np.empty_like(p_sub)
                ab[:, 0] = pos[sub] * p_sub[:, 0]
                np.multiply(p_sub[:, :-1], p_sub[:, 1:], out=ab[:, 1:])
                mask = ab < thresh
                crossed = np.zeros_like(mask)
                n_draw = int(mask.sum())
                if n_draw:
                    exp_draws = rng.standard_exponential(n_draw)
                    crossed[mask] = ab[mask] < bridge_scale * exp_draws
            else:
                crossed = p_sub <= 0.0
            row_hit = crossed.any(axis=1)
            absorbed_rows[sub] = row_hit
            first_step[sub] = crossed.argmax(axis=1)

        if absorbed_rows.any():
            rows = np.flatnonzero(absorbed_rows)
            hit[alive_idx[rows]] = (step + first_step[rows] + 1) * dt
            keep = ~absorbed_rows
            alive_idx = alive_idx[keep]
            pos = pos[keep] + sigma * walk[keep, -1].astype(np.float64) + mu * dt * k
        else:
            pos += sigma * walk[:, -1].astype(np.float64) + mu * dt * k
        step += k
    return hit


def dyadic_first_crossings(rng, left, right, diff, dt, n_fine, bridge):
    """The simulator's former in-step kernel: refine coarse steps onto the dt grid.

    Each coarse step from ``left`` to ``right`` (> 0) over ``n_fine`` dt
    steps (a power of two) gets its interior dt points as dyadic
    Brownian-bridge midpoints: a sub-interval of ``h`` dt steps gets mean
    ``(left + right) / 2`` and variance ``D h dt / 2``.  A dt step from ``a``
    to ``b`` then crosses if ``b <= 0`` or, with ``bridge``, if ``a b <= D dt
    E`` for ``E ~ Exp(1)``.  Returns, per coarse step, the 1-based index of
    its first crossed dt step, 0 if none.  Kept as the reference law of the
    simulator's exact in-step hit sampler.
    """
    first = np.zeros(left.size, dtype=np.int64)
    scale = diff * dt
    for lo in range(0, left.size, 8192):
        hi = min(lo + 8192, left.size)
        fine = np.empty((n_fine + 1, hi - lo))
        fine[0] = left[lo:hi]
        fine[-1] = right[lo:hi]
        h = n_fine
        while h > 1:
            mid = fine[h // 2 :: h]
            np.add(fine[:-1:h], fine[h::h], out=mid)
            mid *= 0.5
            noise = rng.standard_normal(mid.shape, dtype=np.float32)
            noise *= np.float32(np.sqrt(scale * h / 2.0))
            mid += noise
            h //= 2
        if bridge:
            ab = fine[:-1] * fine[1:]
            mask = ab < 40.0 * scale
            crossed = np.zeros_like(mask)
            crossed[mask] = ab[mask] <= scale * rng.standard_exponential(np.count_nonzero(mask))
        else:
            crossed = fine[1:] <= 0.0
        first[lo:hi] = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, 0)
    return first


# ----------------------------------------------------------------------
# the former loader and preprocessing, verbatim

MISSING_MARKERS = {"", "na", "nan", "n/a", "?", "null", "none"}


@dataclass
class RawDataset:
    """Parsed time/event plus raw (string) feature columns."""

    time: np.ndarray
    delta: np.ndarray
    features: dict
    feature_names: list

    def __len__(self):
        return self.time.size

    def subset(self, idx) -> "RawDataset":
        idx = np.asarray(idx)
        return RawDataset(
            time=self.time[idx],
            delta=self.delta[idx],
            features={c: [self.features[c][i] for i in idx] for c in self.feature_names},
            feature_names=list(self.feature_names),
        )


def _clean_cell(value):
    if value is None or value.strip().lower() in MISSING_MARKERS:
        return None
    return value.strip()


def load_csv(path) -> RawDataset:
    """Read a survival CSV; raises LoadError naming the offending row/column.

    The ``time`` and ``event`` columns are mandatory; every other column is
    a feature.
    """
    time_col, event_col = "time", "event"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in (time_col, event_col):
            if col not in header:
                raise LoadError(f"{path}: missing mandatory column '{col}'")
        feature_names = [h for h in header if h not in (time_col, event_col)]
        pos = {h: i for i, h in enumerate(header)}
        times, deltas = [], []
        features = {c: [] for c in feature_names}
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise LoadError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            raw_t = _clean_cell(row[pos[time_col]])
            if raw_t is None:
                raise LoadError(f"{path}: row {row_no}, column '{time_col}' is missing")
            try:
                t = float(raw_t)
            except ValueError:
                raise LoadError(
                    f"{path}: row {row_no}, column '{time_col}': unparseable time {raw_t!r}"
                ) from None
            if not np.isfinite(t) or t <= 0.0:
                raise LoadError(f"{path}: row {row_no}, column '{time_col}': time must be > 0")
            raw_e = _clean_cell(row[pos[event_col]])
            if raw_e is None:
                raise LoadError(f"{path}: row {row_no}, column '{event_col}' is missing")
            try:
                e = float(raw_e)
            except ValueError:
                raise LoadError(
                    f"{path}: row {row_no}, column '{event_col}': unparseable event {raw_e!r}"
                ) from None
            if e not in (0.0, 1.0):
                raise LoadError(
                    f"{path}: row {row_no}, column '{event_col}': event must be 0 or 1, got {raw_e!r}"
                )
            times.append(t)
            deltas.append(int(e))
            for c in feature_names:
                features[c].append(_clean_cell(row[pos[c]]))
    if not times:
        raise LoadError(f"{path}: no data rows")
    return RawDataset(
        time=np.asarray(times),
        delta=np.asarray(deltas, dtype=np.int64),
        features=features,
        feature_names=feature_names,
    )


def _sample_skewness(values: np.ndarray) -> float:
    m = values.mean()
    m2 = np.mean((values - m) ** 2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean((values - m) ** 3)
    return float(m3 / m2**1.5)


def _parse_numeric_column(cells, name):
    out = np.empty(len(cells))
    mask = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        if cell is None:
            mask[i] = True
            out[i] = np.nan
        else:
            try:
                out[i] = float(cell)
            except ValueError:
                raise PreprocessError(
                    f"column '{name}', row {i + 1}: expected a number, got {cell!r}"
                ) from None
    return out, mask


def _is_numeric_column(cells):
    seen_value = False
    for cell in cells:
        if cell is None:
            continue
        seen_value = True
        try:
            float(cell)
        except ValueError:
            return False
    return seen_value


def fit_preprocess(raw: RawDataset) -> PreprocessRecipe:
    """Learn imputation, encoding, and scaling from the given (training) rows."""
    columns = []
    for name in raw.feature_names:
        cells = raw.features[name]
        if _is_numeric_column(cells):
            values, missing = _parse_numeric_column(cells, name)
            observed = values[~missing]
            skew = _sample_skewness(observed)
            impute = float(observed.mean() if abs(skew) <= 1.0 else np.median(observed))
            filled = np.where(missing, impute, values)
            mean = float(filled.mean())
            std = float(filled.std())
            if std == 0.0:
                warnings.warn(f"dropping constant column '{name}'")
                continue
            columns.append(
                ColumnTransform(
                    name=name,
                    kind="numeric",
                    impute=impute,
                    out_names=(name,),
                    means=(mean,),
                    stds=(std,),
                )
            )
        else:
            observed = [c for c in cells if c is not None]
            if not observed:
                warnings.warn(f"dropping empty column '{name}'")
                continue
            cats, counts = np.unique(observed, return_counts=True)
            mode = str(cats[np.argmax(counts)])  # ties: first = smallest
            filled = [c if c is not None else mode for c in cells]
            keep_cats, out_names, means, stds = [], [], [], []
            arr = np.asarray(filled)
            for cat in cats:
                col = (arr == cat).astype(np.float64)
                mean, std = float(col.mean()), float(col.std())
                if std == 0.0:
                    warnings.warn(f"dropping constant one-hot column '{name}={cat}'")
                    continue
                keep_cats.append(str(cat))
                out_names.append(f"{name}={cat}")
                means.append(mean)
                stds.append(std)
            if not keep_cats:
                continue
            columns.append(
                ColumnTransform(
                    name=name,
                    kind="categorical",
                    impute=mode,
                    categories=tuple(keep_cats),
                    out_names=tuple(out_names),
                    means=tuple(means),
                    stds=tuple(stds),
                )
            )
    return PreprocessRecipe(columns=tuple(columns))


def apply_preprocess(recipe: PreprocessRecipe, raw: RawDataset) -> SurvivalData:
    """Encode a raw dataset with a fitted recipe (deterministic)."""
    n = len(raw)
    blocks = []
    for tr in recipe.columns:
        cells = raw.features.get(tr.name)
        if cells is None:
            raise PreprocessError(f"dataset is missing column '{tr.name}'")
        if tr.kind == "numeric":
            values, missing = _parse_numeric_column(cells, tr.name)
            filled = np.where(missing, tr.impute, values)
            blocks.append(((filled - tr.means[0]) / tr.stds[0])[:, None])
        else:
            arr = np.asarray([c if c is not None else tr.impute for c in cells])
            block = np.zeros((n, len(tr.categories)))
            for j, cat in enumerate(tr.categories):
                block[:, j] = (arr == cat).astype(np.float64)
            # an unseen category leaves its whole block at zero, by convention
            block = (block - np.asarray(tr.means)) / np.asarray(tr.stds)
            blocks.append(block)
    x = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return SurvivalData(x=x, time=raw.time, delta=raw.delta, feature_names=recipe.output_names)


# ----------------------------------------------------------------------
# the former evaluation, verbatim: each bootstrap resample copied its rows
# and gathered its own (n x events) concordance and Brier matrices.  Only
# the report's former ``n_excluded_pairs`` is left out, a key the report no
# longer has, and both spreads now read the same resamples, those the
# concordance spread always read.


@dataclass(frozen=True)
class BrierCurve:
    times: np.ndarray
    values: np.ndarray


def ibs(curve: BrierCurve) -> float:
    """Trapezoidal integral of the Brier curve over [0, last grid time],
    divided by that time.

    The curve is linear between grid points and constant, at its first
    value, from 0 to the first grid time.
    """
    knots = np.concatenate([[0.0], curve.times])
    vals = np.concatenate([curve.values[:1], curve.values])
    return float(np.trapezoid(vals, knots) / curve.times[-1])


@dataclass(frozen=True)
class KmCurve:
    """Right-continuous product-limit step function starting at 1."""

    times: np.ndarray
    survival: np.ndarray

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
    at_risk = ts.size - start
    d = np.add.reduceat(fs.astype(np.int64), start)
    keep = d > 0
    factors = 1.0 - d[keep] / at_risk[keep]
    return KmCurve(times=uniq[keep], survival=np.cumprod(factors))


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


def concordance(surv, times, data):
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
    g_left = km_censoring(data).eval_left(t_ev)
    valid = g_left > 0.0
    w = np.zeros(ev.size)
    w[valid] = 1.0 / g_left[valid] ** 2
    den = float((w * n_comp)[valid].sum())
    if den == 0.0:
        raise MetricUndefinedError("no comparable pairs")
    num = float((w * (conc + 0.5 * tied))[valid].sum())
    n_excluded = int(n_comp[~valid].sum())
    return num / den, int(n_comp[valid].sum()), n_excluded


def brier_curve(surv, times, data) -> BrierCurve:
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
    g = km_censoring(data)
    g_subj = g.eval_left(time_obs)
    g_grid = g.eval(t_grid)
    w_subj = np.where(g_subj > 0.0, 1.0 / np.where(g_subj > 0.0, g_subj, 1.0), 0.0)
    w_grid = np.where(g_grid > 0.0, 1.0 / np.where(g_grid > 0.0, g_grid, 1.0), 0.0)
    term_event = past_event * surv**2 * w_subj[:, None]
    term_risk = at_risk * (1.0 - surv) ** 2 * w_grid[None, :]
    values = (term_event + term_risk).sum(axis=0) / n
    return BrierCurve(times=t_grid, values=values)


def bootstrap(metric_fn, data, n_resamples=100, seed=0) -> dict:
    """Mean/std of a metric over censoring-ratio-preserving resamples.

    Each resample draws, with replacement, exactly the original number of
    censored and of uncensored records, so the censoring ratio is preserved
    by construction.  ``metric_fn`` receives each resample's row indices
    into ``data``.  Returns ``{mean, std}``; ``std`` is the sample standard
    deviation.
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
    return {"mean": float(values.mean()), "std": float(values.std(ddof=1))}


def evaluate(surv_fn, data, n_resamples=100, seed=0) -> dict:
    """Standard evaluation: concordance, Brier curve on the event-time grid,
    integrated Brier score over [0, last event time], and bootstrap spread
    for both headline metrics.

    The model runs once, as ``surv_fn(data.x, U)`` with ``U`` the sorted
    unique event times; every estimate below reads from that matrix.
    """
    times = np.unique(data.time[data.delta == 1])
    surv = np.asarray(surv_fn(data.x, times), dtype=np.float64)
    c_val, n_comp, _ = concordance(surv, times, data)
    curve = brier_curve(surv, times, data)
    ibs_val = ibs(curve)

    def c_metric(sel):
        return concordance(surv[sel], times, data[sel])[0]

    def ibs_metric(sel):
        d = data[sel]
        g = np.unique(d.time[d.delta == 1])
        s = np.take(surv[sel], _columns(times, g), axis=1)
        return ibs(brier_curve(s, g, d))

    stream = np.random.SeedSequence(seed).spawn(1)[0]
    c_boot = bootstrap(c_metric, data, n_resamples=n_resamples, seed=stream)
    i_boot = bootstrap(ibs_metric, data, n_resamples=n_resamples, seed=stream)
    return {
        "c_index": c_val,
        "c_index_bootstrap": c_boot,
        "ibs": ibs_val,
        "ibs_bootstrap": i_boot,
        "brier_curve": [[float(t), float(v)] for t, v in zip(curve.times, curve.values)],
        "n_comparable_pairs": n_comp,
        "n_bootstrap": n_resamples,
    }


# ----------------------------------------------------------------------
# the former training step, verbatim: Adam kept one moment pair per array,
# batch norm formed its statistics through np.mean and np.var, and the
# Brier terms compared the times twice, once per mask.


class AdamPerArray:
    def __init__(self, arrays, lr):
        self.lr = lr
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class MeanVarNetwork(Network):
    """The network with its former forward and backward passes."""

    def forward(self, x: np.ndarray, train: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected batch of shape (n, {self.input_dim})")
        if not np.all(np.isfinite(x)):
            raise ValueError("batch contains non-finite values")
        n = x.shape[0]
        cache = {"train": train, "layers": []}
        a = x
        for i in range(len(self.hidden)):
            lc = {"a_in": a}
            z = a @ self.weights[f"h{i}.w"] + self.weights[f"h{i}.b"]
            if train:
                if n < 2:
                    raise ValueError("batch size must be >= 2 to train with batch norm")
                m = z.mean(axis=0)
                v = z.var(axis=0)
                inv_std = 1.0 / np.sqrt(v + BN_EPS)
                zhat = (z - m) * inv_std
                rm, rv = self.weights[f"h{i}.run_mean"], self.weights[f"h{i}.run_var"]
                rm *= BN_MOMENTUM
                rm += (1.0 - BN_MOMENTUM) * m
                rv *= BN_MOMENTUM
                rv += (1.0 - BN_MOMENTUM) * v
            else:
                inv_std = 1.0 / np.sqrt(self.weights[f"h{i}.run_var"] + BN_EPS)
                zhat = (z - self.weights[f"h{i}.run_mean"]) * inv_std
            y = self.weights[f"h{i}.gamma"] * zhat + self.weights[f"h{i}.beta"]
            lc.update(zhat=zhat, inv_std=inv_std, act_in=y)
            a = np.maximum(y, 0.0)
            cache["layers"].append(lc)
        raw = a @ self.weights["out.w"] + self.weights["out.b"]
        cache["a_last"] = a
        cache["raw"] = raw
        params = link_forward(self.kind, raw)
        return params, cache

    def backward(self, cache, d_params: np.ndarray):
        d_params = np.asarray(d_params, dtype=np.float64)
        if d_params.shape != cache["raw"].shape:
            raise ValueError("gradient shape does not match the cached forward pass")
        train = cache["train"]
        grads = {}
        d_raw = link_backward(self.kind, cache["raw"], d_params)
        grads["out.w"] = cache["a_last"].T @ d_raw
        grads["out.b"] = d_raw.sum(axis=0)
        d_a = d_raw @ self.weights["out.w"].T
        for i in range(len(self.hidden) - 1, -1, -1):
            lc = cache["layers"][i]
            d_y = d_a * (lc["act_in"] > 0.0)
            zhat, inv_std = lc["zhat"], lc["inv_std"]
            grads[f"h{i}.gamma"] = (d_y * zhat).sum(axis=0)
            grads[f"h{i}.beta"] = d_y.sum(axis=0)
            d_zhat = d_y * self.weights[f"h{i}.gamma"]
            if train:
                d_z = inv_std * (
                    d_zhat
                    - d_zhat.mean(axis=0)
                    - zhat * (d_zhat * zhat).mean(axis=0)
                )
            else:
                d_z = d_zhat * inv_std
            grads[f"h{i}.w"] = lc["a_in"].T @ d_z
            grads[f"h{i}.b"] = d_z.sum(axis=0)
            d_a = d_z @ self.weights[f"h{i}.w"].T
        return grads


def brier_terms_two_masks(surv, times, time_obs, delta):
    """Normalized loss and dLoss/dS for a precomputed survival matrix (n, |times|)."""
    surv = np.asarray(surv, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    time_obs = np.asarray(time_obs, dtype=np.float64)
    delta = np.asarray(delta)
    if times.size == 0:
        raise ValueError("the event-time set is empty")
    if np.any(surv < 0.0) or np.any(surv > 1.0):
        raise ValueError("survival values must lie in [0, 1]")
    event_before = (time_obs[:, None] <= times[None, :]) & (delta[:, None] == 1)
    at_risk = time_obs[:, None] > times[None, :]
    loss = float(np.sum(event_before * surv**2) + np.sum(at_risk * (1.0 - surv) ** 2))
    d_surv = 2.0 * (event_before * surv - at_risk * (1.0 - surv))
    scale = surv.shape[0] * times.size
    loss /= scale
    d_surv /= scale
    return loss, d_surv


def subinterval_masses(probs: np.ndarray) -> np.ndarray:
    """Spread interval masses over the fine sub-intervals proportionally to
    overlap, so fractional boundaries are handled exactly."""
    sub_edges = np.linspace(0.0, HORIZON, N_SUBINTERVALS + 1)
    int_edges = np.linspace(0.0, HORIZON, N_INTERVALS + 1)
    lo = np.maximum(sub_edges[:-1, None], int_edges[None, :-1])
    hi = np.minimum(sub_edges[1:, None], int_edges[None, 1:])
    overlap = np.clip(hi - lo, 0.0, None) / (HORIZON / N_INTERVALS)  # (n_sub, n_int)
    return probs @ overlap.T


def sample_subintervals(masses: np.ndarray, rng) -> np.ndarray:
    """Draw one sub-interval index per row; the row total may fall short of 1,
    in which case index n_sub means the open tail beyond the horizon."""
    cum = np.cumsum(masses, axis=1)
    u = rng.random(masses.shape[0])
    return (cum < u[:, None]).sum(axis=1)


def generate_nonph(cfg) -> SurvivalData:
    """Synthetic covariate-driven, non-proportional-hazards benchmark."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n_raw, N_FEATURES))
    idx = sample_subintervals(subinterval_masses(interval_probs(x)), rng)

    sub_width = HORIZON / N_SUBINTERVALS
    censored_tail = idx >= N_SUBINTERVALS
    time_obs = idx * sub_width
    # the first sub-interval's lower bound is 0; nudge to its midpoint so
    # observed times stay strictly positive
    time_obs[idx == 0] = 0.5 * sub_width
    time_obs = np.where(censored_tail, HORIZON, time_obs)
    delta = np.where(censored_tail, 0, 1).astype(np.int64)

    target_c = int(round(TARGET_CENSORING * cfg.n_raw))
    need = target_c - int((delta == 0).sum())
    if need < 0:
        raise ValueError("tail censoring already exceeds the target ratio")
    if need > 0:
        events = np.flatnonzero(delta == 1)
        flip = rng.choice(events, size=need, replace=False)
        delta[flip] = 0
        time_obs[flip] = np.maximum(time_obs[flip] * rng.random(need), 1e-12)

    keep_c = int(round(TARGET_CENSORING * cfg.n_keep))
    keep_e = cfg.n_keep - keep_c
    cens_rows = np.flatnonzero(delta == 0)
    ev_rows = np.flatnonzero(delta == 1)
    if cens_rows.size < keep_c or ev_rows.size < keep_e:
        raise ValueError("not enough rows in a stratum to subsample")
    chosen = np.concatenate(
        [rng.choice(cens_rows, size=keep_c, replace=False),
         rng.choice(ev_rows, size=keep_e, replace=False)]
    )
    chosen = rng.permutation(chosen)
    names = [f"x{i + 1}" for i in range(N_FEATURES)]
    return SurvivalData(x=x[chosen], time=time_obs[chosen], delta=delta[chosen], feature_names=names)
