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


def cindex_bruteforce(surv_lookup, times, deltas, weighted=True):
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
        if weighted:
            if g <= 0.0:
                continue
            w = 1.0 / g**2
        else:
            w = 1.0
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


def brier_ref(surv_lookup, times, deltas, t, weighted=True):
    """Direct evaluation of the IPCW Brier score at one time point."""
    n = len(times)
    steps = km_censoring_ref(times, deltas)
    total = 0.0
    for i in range(n):
        s = surv_lookup(i, t)
        if times[i] <= t and deltas[i] == 1:
            g = km_eval_left(steps, times[i]) if weighted else 1.0
            if g > 0.0:
                total += s * s / g
        elif times[i] > t:
            g = km_eval(steps, t) if weighted else 1.0
            if g > 0.0:
                total += (1.0 - s) ** 2 / g
    return total / n


def idw_ref(query, points, times, transform=None):
    """Scalar re-evaluation of the inverse-distance time interpolation."""
    q = list(query)
    if transform:
        q = transform(q)
    num = 0.0
    den = 0.0
    for p, t in zip(points, times):
        pp = transform(list(p)) if transform else list(p)
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, pp)))
        if d < 1e-12:
            return t
        w = 1.0 / math.sqrt(d)
        num += w * t
        den += w
    return num / den
