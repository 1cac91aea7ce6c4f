"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the package's own numerics: the error
function comes from the C standard library via ``math`` and the log normal
CDF from scipy's ``log_ndtr``, integrals from scipy's adaptive quadrature,
and the concordance/Brier oracles are direct pair enumerations in pure
Python.
"""

import math

import numpy as np
from scipy import integrate, special


def erf_ref(x):
    return math.erf(x)


def norm_cdf_ref(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def levy_survival_ref(x0, d, t):
    return math.erf(x0 / math.sqrt(4.0 * d * t))


def levy_density_ref(x0, d, t):
    return x0 / math.sqrt(4.0 * math.pi * d * t**3) * math.exp(-x0 * x0 / (4.0 * d * t))


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


def fine_fpt_reference(args):
    """The simulator's former block kernel: one Gaussian step per ``dt``.

    Takes the same task tuple as ``fhtsurv.simulate._run_block``, ``(n_block,
    x0, mu, diff, dt, n_steps, bridge, seed_seq)``, and returns hit times
    (``inf`` for survivors).  Each path is advanced on the ``dt`` grid and
    absorbed at the first grid point at or below zero or, with ``bridge``, at
    the first step whose Brownian-bridge crossing test ``exp(-a b / (D dt))``
    fires.  Kept as the reference law that the coarse-step sampler must
    reproduce.
    """
    n_block, x0, mu, diff, dt, n_steps, bridge, seed_seq = args
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
