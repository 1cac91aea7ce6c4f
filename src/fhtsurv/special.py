"""Self-contained error-function and normal-CDF routines.

The package deliberately avoids special-function dependencies, so the few
functions needed by the hitting-time formulas live here.  ``erf``, ``erfc``
and ``erfcx(x) = exp(x^2) erfc(x)`` all come from W. J. Cody's rational
Chebyshev approximations (*Rational Chebyshev approximations for the error
function*, Math. Comp. 23 (1969) 631-637; the CALERF routine), each of its
three ranges evaluated only on its own elements:

* ``|x| <= 0.46875``: a rational function of ``x^2`` gives ``erf`` directly;
* ``0.46875 < |x| <= 4``: a rational function of ``|x|`` gives ``erfcx``;
* ``|x| > 4``: a rational function of ``1/x^2`` gives ``erfcx``.

``exp(-x^2)`` is formed as ``exp(-s^2) exp(-(x-s)(x+s))`` with ``s =
trunc(16 x)/16``, whose square is exact, so ``erfc`` keeps its relative
accuracy far into the tail.  Measured against libm on 1e-4-step grids,
``erf`` is within 4 ulp of ``math.erf`` on [-6, 6] and ``erfc`` within
1e-15 relative of ``math.erfc`` on [-6, 26]; ``erfcx`` is within 2e-15
relative of ``scipy.special.erfcx`` on [0, 300] (1e-3 step).

All functions accept scalars or numpy arrays and broadcast like ufuncs;
scalar input gives a numpy scalar.
"""

from __future__ import annotations

import numpy as np

_INV_SQRT_PI = 5.6418958354775628695e-1
_SQRT_2 = 1.4142135623730950488
_THRESH = 0.46875

# Polynomial coefficients, highest power first, for _horner.
# erf(x) = x * A(x^2) / B(x^2) on |x| <= 0.46875
_A = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
      3.77485237685302021e2, 3.20937758913846947e3)
_B = (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
      1.28261652607737228e3, 2.84423683343917062e3)
# erfcx(y) = C(y) / D(y) on 0.46875 < y <= 4
_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
      6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
      1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_D = (1.0, 1.57449261107098347e1, 1.17693950891312499e2,
      5.37181101862009858e2, 1.62138957456669019e3, 3.29079923573345963e3,
      4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3)
# erfcx(y) = (1/sqrt(pi) - z P(z) / Q(z)) / y with z = 1/y^2 on y > 4
_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_Q = (1.0, 2.56852019228982242e0, 1.87295284992346725e0,
      5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)


def _horner(coeffs, x):
    """The polynomial with ``coeffs`` (highest power first) at ``x``, with the
    operations of ``np.polyval`` in its order but updated in place."""
    out = coeffs[0] * x
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _calerf(x):
    """Cody's three ranges: returns ``(y, small, r)`` with ``y = |x|``,
    ``r = erf(x)`` where ``small`` (|x| <= 0.46875) and ``r = erfcx(y)``
    elsewhere (NaN falls in the last range and stays NaN)."""
    y = np.abs(x)
    r = np.empty_like(y)
    small = y <= _THRESH
    mid = ~small & (y <= 4.0)
    tail = ~(small | mid)
    xs = x[small]
    z = xs * xs
    r[small] = xs * _horner(_A, z) / _horner(_B, z)
    ym = y[mid]
    r[mid] = _horner(_C, ym) / _horner(_D, ym)
    w = 1.0 / y[tail]
    z = w * w
    r[tail] = (_INV_SQRT_PI - z * _horner(_P, z) / _horner(_Q, z)) * w
    return y, small, r


def _exp_sq(y, sign):
    """exp(sign * y^2) by Cody's split; y is capped at 40, where exp(-y^2)
    is long past the subnormals, so huge or infinite y form no inf - inf."""
    y = np.minimum(y, 40.0)
    s = np.trunc(y * 16.0) / 16.0
    return np.exp(sign * s * s) * np.exp(sign * (y - s) * (y + s))


def erf(x):
    """Error function."""
    x = np.asarray(x, dtype=np.float64)
    y, small, r = _calerf(x)
    big = ~small
    tail = r[big] * _exp_sq(y[big], -1.0)
    r[big] = np.copysign((0.5 - tail) + 0.5, x[big])
    return r[()]


def erfc(x):
    """Complementary error function 1 - erf(x), relatively accurate in the tail."""
    x = np.asarray(x, dtype=np.float64)
    y, small, r = _calerf(x)
    big = ~small
    r[small] = 1.0 - r[small]
    r[big] *= _exp_sq(y[big], -1.0)
    neg = big & (x < 0.0)
    r[neg] = 2.0 - r[neg]
    return r[()]


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x).

    Finite for every x >= 0 (it decays like 1/(x sqrt(pi))); overflows to
    inf below x = -26.6.
    """
    x = np.asarray(x, dtype=np.float64)
    y, small, r = _calerf(x)
    xs = x[small]
    r[small] = np.exp(xs * xs) * (1.0 - r[small])
    neg = ~small & (x < 0.0)
    r[neg] = 2.0 * _exp_sq(y[neg], 1.0) - r[neg]
    return r[()]


def norm_cdf(z):
    """Standard normal CDF, Phi(z) = erfc(-z/sqrt(2)) / 2."""
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * erfc(-z / _SQRT_2)
