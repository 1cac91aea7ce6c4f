"""Closed-form first-hitting-time laws for diffusions absorbed at zero.

Two processes are covered, both started at ``x0 > 0`` with an absorbing
barrier at the origin:

* driftless Brownian motion with diffusion coefficient ``D`` (hitting times
  follow a Levy distribution), parameters :class:`LevyParams`;
* Brownian motion with negative drift ``mu`` and unit diffusion (hitting
  times follow an inverse Gaussian distribution), parameters
  :class:`InvGaussParams`.

Each parameter struct carries its :class:`DistKind` and the laws of its
process: ``survival(t)``, ``survival_and_grads(t)`` (the survival together
with its analytic parameter partials), ``density(t)`` and
``coefficients()``.  It also carries the per-kind constants other modules
need, so no other module branches on the kind: ``second_sign``, the sign of
the second parameter; ``second_init``, its magnitude in an untrained
network; and ``second_log_axis``, whether a risk map puts it on a log axis.
:func:`make_params` and :func:`param_names` are the one lookup from a kind
to its struct.  Everything broadcasts over numpy arrays and is free of
shared state, so concurrent use is safe.

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


KINDS = tuple(kind.value for kind in DistKind)


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

    kind = DistKind.LEVY
    second_sign = 1.0
    second_init = 1.0
    # the learned diffusion spans decades
    second_log_axis = True

    x0: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_positive("x0", self.x0))
        object.__setattr__(self, "diffusion", _check_positive("diffusion", self.diffusion))

    def survival(self, t):
        """P(T > t) = erf(x0 / sqrt(4 D t))."""
        t = _check_positive("t", t)
        return erf(self.x0 / np.sqrt(4.0 * self.diffusion * t))

    def survival_and_grads(self, t):
        """(S, dS/dx0, dS/dD) with S = erf(u), u = x0 / sqrt(4 D t).

        Both partials share (2/sqrt(pi)) u exp(-u^2); S is bit-identical to
        :meth:`survival`.
        """
        t = _check_positive("t", t)
        u = self.x0 / np.sqrt(4.0 * self.diffusion * t)
        pref = (2.0 / _SQRT_PI) * np.exp(-u * u) * u
        return erf(u), pref / self.x0, pref / (-2.0 * self.diffusion)

    def density(self, t):
        """Hitting-time density x0 / sqrt(4 pi D t^3) * exp(-x0^2 / (4 D t)).

        This is -dS/dt of the survival function (and the zero-drift limit of
        the drifted-case density); at D = 1 it reduces to the usual
        one-parameter Levy form.
        """
        t = _check_positive("t", t)
        return (
            self.x0
            / np.sqrt(4.0 * np.pi * self.diffusion * t**3)
            * np.exp(-self.x0 * self.x0 / (4.0 * self.diffusion * t))
        )

    def coefficients(self):
        """(x0, mu, D) of the latent diffusion dX = mu dt + sqrt(2D) dW."""
        return self.x0, 0.0, self.diffusion


@dataclass(frozen=True)
class InvGaussParams:
    """Drifted Brownian parameters: initial barrier distance and drift < 0.

    The diffusion coefficient is fixed to 1; the API deliberately does not
    accept it.
    """

    kind = DistKind.INVERSE_GAUSSIAN
    second_sign = -1.0
    second_init = 0.1
    second_log_axis = False

    x0: np.ndarray
    drift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _check_positive("x0", self.x0))
        drift = np.asarray(self.drift, dtype=np.float64)
        if not np.all(np.isfinite(drift)) or not np.all(drift < 0.0):
            raise FhtDomainError("drift must be finite and < 0")
        object.__setattr__(self, "drift", drift)

    def _terms(self, t):
        """Survival and the terms its partials reuse.

        S = Phi(a) - W with a = (x0+mu t)/sqrt(2t), b = (mu t-x0)/sqrt(2t)
        and the image term W = exp(-mu x0) Phi(b).  Since
        -mu x0 - b^2/2 = -a^2/2, W = exp(-a^2/2) erfcx(-b/sqrt(2)) / 2, where
        -b > 0 (x0 > 0, mu < 0): no factor can overflow, however strong the
        drift.  Returns ``(S, sqrt(2t), exp(-a^2/2), W)``.
        """
        s = np.sqrt(2.0 * t)
        a = (self.x0 + self.drift * t) / s
        e = np.exp(-0.5 * a * a)
        image = 0.5 * e * erfcx((self.x0 - self.drift * t) / (_SQRT_2 * s))
        return np.clip(norm_cdf(a) - image, 0.0, 1.0), s, e, image

    def survival(self, t):
        """P(T > t) = Phi((x0+mu t)/sqrt(2t)) - exp(-mu x0) Phi((mu t-x0)/sqrt(2t)).

        Values are clipped to [0, 1]; exact zeros can occur by underflow at
        extreme times even though the law is strictly positive.
        """
        return self._terms(_check_positive("t", t))[0]

    def survival_and_grads(self, t):
        """(S, dS/dx0, dS/dmu).

        Using phi(a) = exp(-mu*x0) phi(b), the partials collapse to
        dS/dx0 = 2 phi(a)/sqrt(2t) + mu * W and dS/dmu = x0 * W with
        W = exp(-mu*x0) Phi(b); S is bit-identical to :meth:`survival`.
        """
        surv, s, e, image = self._terms(_check_positive("t", t))
        return surv, 2.0 * e / (_SQRT_2PI * s) + self.drift * image, self.x0 * image

    def density(self, t):
        """Inverse Gaussian density x0 / sqrt(4 pi t^3) * exp(-(x0+mu t)^2 / (4t))."""
        t = _check_positive("t", t)
        z = self.x0 + self.drift * t
        return self.x0 / np.sqrt(4.0 * np.pi * t ** 3) * np.exp(-z * z / (4.0 * t))

    def coefficients(self):
        """(x0, mu, D) of the latent diffusion dX = mu dt + sqrt(2D) dW."""
        return self.x0, self.drift, 1.0


_PARAMS_CLASSES = {cls.kind: cls for cls in (LevyParams, InvGaussParams)}


def params_class(kind):
    """The parameter struct of a distribution kind."""
    try:
        return _PARAMS_CLASSES[DistKind(kind)]
    except ValueError:
        raise FhtDomainError(f"unknown distribution kind: {kind!r}") from None


def make_params(kind, x0, second):
    """Build the parameter struct for a kind from its two raw columns."""
    return params_class(kind)(x0, second)


def param_names(kind):
    """Field names of the kind's parameter struct: ("x0", second)."""
    return tuple(f.name for f in fields(params_class(kind)))
