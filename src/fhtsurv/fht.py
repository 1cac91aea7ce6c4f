"""Closed-form first-hitting-time laws for diffusions absorbed at zero.

Two processes are covered, both started at ``x0 > 0`` with an absorbing
barrier at the origin:

* driftless Brownian motion with diffusion coefficient ``D`` (hitting times
  follow a Levy distribution),
* Brownian motion with negative drift ``mu`` and unit diffusion (hitting
  times follow an inverse Gaussian distribution).

Survival functions (alone, and together with their analytic parameter
partials) and densities are provided.  Everything broadcasts over numpy
arrays and is free of shared state, so concurrent use is safe.  Each kind
has one row in a dispatch table keyed by :class:`DistKind`; the
kind-generic entry points (:func:`survival`, :func:`survival_and_grads`,
:func:`density`, :func:`make_params`, :func:`coefficients`) look the kind
up there.

Conventions: the drifted process fixes ``D = 1`` (the law depends only on
``x0/|mu|`` and ``x0^2/(2D)``, so ``D`` merely rescales time), and ``t = 0``
is rejected rather than special-cased so callers deal with the boundary
explicitly.  The driftless law depends on ``(x0, D)`` only through
``x0^2/D``: its survival is ``erf(sqrt(x0^2/D / (4t)))``, so Levy risk is
constant along every curve of constant ``x0^2/D``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .special import erf, erfcx, norm_cdf

_SQRT_PI = 1.7724538509055160273
_SQRT_2 = 1.4142135623730950488
_SQRT_2PI = 2.5066282746310005024


class FhtDomainError(ValueError):
    """Raised when a time, position, or parameter is outside the valid domain."""


class DistKind(str, Enum):
    LEVY = "levy"
    INVERSE_GAUSSIAN = "invgauss"


def _check_positive(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise FhtDomainError(f"{name} must be finite and > 0")
    return arr


@dataclass(frozen=True)
class LevyParams:
    """Driftless Brownian parameters: initial barrier distance and diffusion.

    Fields may be scalars or broadcastable arrays; both must be positive.
    """

    x0: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_positive("x0", self.x0))
        object.__setattr__(self, "diffusion", _check_positive("diffusion", self.diffusion))


@dataclass(frozen=True)
class InvGaussParams:
    """Drifted Brownian parameters: initial barrier distance and drift < 0.

    The diffusion coefficient is fixed to 1; the API deliberately does not
    accept it.
    """

    x0: np.ndarray
    drift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_positive("x0", self.x0))
        drift = np.asarray(self.drift, dtype=np.float64)
        if not np.all(np.isfinite(drift)) or not np.all(drift < 0.0):
            raise FhtDomainError("drift must be finite and < 0")
        object.__setattr__(self, "drift", drift)


def _check_time(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)) or not np.all(t > 0.0):
        raise FhtDomainError("t must be finite and > 0")
    return t


def levy_survival(p: LevyParams, t):
    """P(T > t) = erf(x0 / sqrt(4 D t)) for the driftless process."""
    t = _check_time(t)
    return erf(p.x0 / np.sqrt(4.0 * p.diffusion * t))


def levy_survival_and_grads(p: LevyParams, t):
    """(S, dS/dx0, dS/dD) with S = erf(u), u = x0 / sqrt(4 D t).

    Both partials share (2/sqrt(pi)) u exp(-u^2); S is bit-identical to
    :func:`levy_survival`.
    """
    t = _check_time(t)
    u = p.x0 / np.sqrt(4.0 * p.diffusion * t)
    pref = (2.0 / _SQRT_PI) * np.exp(-u * u) * u
    return erf(u), pref / p.x0, -pref / (2.0 * p.diffusion)


def levy_density(p: LevyParams, t):
    """Hitting-time density x0 / sqrt(4 pi D t^3) * exp(-x0^2 / (4 D t)).

    This is -dS/dt of the survival function (and the zero-drift limit of the
    drifted-case density); at D = 1 it reduces to the usual one-parameter
    Levy form.
    """
    t = _check_time(t)
    return (
        p.x0
        / np.sqrt(4.0 * np.pi * p.diffusion * t**3)
        * np.exp(-p.x0 * p.x0 / (4.0 * p.diffusion * t))
    )


def _ig_terms(p: InvGaussParams, t):
    """Survival of the drifted case and the terms its partials reuse.

    S = Phi(a) - W with a = (x0+mu t)/sqrt(2t), b = (mu t-x0)/sqrt(2t) and
    the image term W = exp(-mu x0) Phi(b).  Since -mu x0 - b^2/2 = -a^2/2,
    W = exp(-a^2/2) erfcx(-b/sqrt(2)) / 2, where -b > 0 (x0 > 0, mu < 0):
    no factor can overflow, however strong the drift.  Returns
    ``(S, sqrt(2t), exp(-a^2/2), W)``.
    """
    s = np.sqrt(2.0 * t)
    a = (p.x0 + p.drift * t) / s
    e = np.exp(-0.5 * a * a)
    image = 0.5 * e * erfcx((p.x0 - p.drift * t) / (_SQRT_2 * s))
    return np.clip(norm_cdf(a) - image, 0.0, 1.0), s, e, image


def ig_survival(p: InvGaussParams, t):
    """P(T > t) = Phi((x0+mu t)/sqrt(2t)) - exp(-mu x0) Phi((mu t-x0)/sqrt(2t)).

    Values are clipped to [0, 1]; exact zeros can occur by underflow at
    extreme times even though the law is strictly positive.
    """
    return _ig_terms(p, _check_time(t))[0]


def ig_survival_and_grads(p: InvGaussParams, t):
    """(S, dS/dx0, dS/dmu) for the drifted case.

    Using phi(a) = exp(-mu*x0) phi(b), the partials collapse to
    dS/dx0 = 2 phi(a)/sqrt(2t) + mu * W and dS/dmu = x0 * W with
    W = exp(-mu*x0) Phi(b); S is bit-identical to :func:`ig_survival`.
    """
    surv, s, e, image = _ig_terms(p, _check_time(t))
    return surv, 2.0 * e / (_SQRT_2PI * s) + p.drift * image, p.x0 * image


def ig_density(p: InvGaussParams, t):
    """Inverse Gaussian density x0 / sqrt(4 pi t^3) * exp(-(x0+mu t)^2 / (4t))."""
    t = _check_time(t)
    z = p.x0 + p.drift * t
    return p.x0 / np.sqrt(4.0 * np.pi * t ** 3) * np.exp(-z * z / (4.0 * t))


class _Kind(NamedTuple):
    params: type
    survival: Callable
    survival_and_grads: Callable
    density: Callable
    coefficients: Callable  # params -> (x0, mu, D) of dX = mu dt + sqrt(2D) dW


_KINDS = {
    DistKind.LEVY: _Kind(
        LevyParams, levy_survival, levy_survival_and_grads, levy_density,
        lambda p: (p.x0, 0.0, p.diffusion),
    ),
    DistKind.INVERSE_GAUSSIAN: _Kind(
        InvGaussParams, ig_survival, ig_survival_and_grads, ig_density,
        lambda p: (p.x0, p.drift, 1.0),
    ),
}


def _kind(kind) -> _Kind:
    try:
        return _KINDS[DistKind(kind)]
    except ValueError:
        raise FhtDomainError(f"unknown distribution kind: {kind!r}") from None


def survival(kind: DistKind, params, t):
    """Survival function P(T > t) of the given kind."""
    return _kind(kind).survival(params, t)


def survival_and_grads(kind: DistKind, params, t):
    """(S, dS/dx0, dS/dtheta), theta the kind's second parameter."""
    return _kind(kind).survival_and_grads(params, t)


def density(kind: DistKind, params, t):
    return _kind(kind).density(params, t)


def make_params(kind: DistKind, x0, second):
    """Build the parameter struct for a kind from its two raw columns."""
    return _kind(kind).params(x0, second)


def param_names(kind: DistKind):
    """Field names of the kind's parameter struct: ("x0", second)."""
    return tuple(f.name for f in fields(_kind(kind).params))


def coefficients(kind: DistKind, params):
    """(x0, mu, D) of the latent diffusion dX = mu dt + sqrt(2D) dW."""
    return _kind(kind).coefficients(params)
