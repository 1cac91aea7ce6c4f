import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv import fht
from fhtsurv.fht import (
    DistKind,
    FhtDomainError,
    InvGaussParams,
    LevyParams,
)

import oracles

# frozen with the stdlib erf oracle
ERF_1 = 0.8427007929497149
LEVY_F_1 = 0.2196956447338612  # 1/(2 sqrt(pi)) * exp(-1/4)


class TestLevySurvival:
    def test_worked_values(self):
        assert abs(LevyParams(1.0, 1.0).survival(0.25) - ERF_1) < 1e-12
        # invariance under the x0^2/(D t) scaling
        assert abs(LevyParams(2.0, 0.5).survival(2.0) - ERF_1) < 1e-12

    def test_limits(self):
        p = LevyParams(1.0, 1.0)
        assert p.survival(1e-12) == pytest.approx(1.0, abs=1e-15)
        assert p.survival(1e12) < 1e-5

    def test_domain_errors(self):
        p = LevyParams(1.0, 1.0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(FhtDomainError):
                p.survival(bad)
        with pytest.raises(FhtDomainError):
            LevyParams(-1.0, 1.0)
        with pytest.raises(FhtDomainError):
            LevyParams(1.0, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1.01, max_value=10.0),
    )
    def test_monotone_in_time(self, x0, d, t1, factor):
        p = LevyParams(x0, d)
        assert p.survival(t1) >= p.survival(t1 * factor) - 1e-15

    def test_matches_oracle_on_grid(self):
        ts = np.geomspace(0.01, 50.0, 64)
        for x0, d in [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)]:
            ours = LevyParams(x0, d).survival(ts)
            ref = [oracles.levy_survival_ref(x0, d, t) for t in ts]
            assert np.max(np.abs(ours - ref)) < 1e-12


class TestLevyDensity:
    def test_frozen_value(self):
        assert abs(LevyParams(1.0, 1.0).density(1.0) - LEVY_F_1) < 1e-12

    def test_early_time_vanishes(self):
        assert LevyParams(1.0, 1.0).density(1e-6) < 1e-300

    def test_integrates_to_one(self):
        val = oracles.quad(
            lambda t: float(LevyParams(1.0, 1.0).density(t)), 1e-12, np.inf, limit=400
        )
        assert abs(val - 1.0) < 1e-6

    def test_density_is_minus_dsdt(self):
        p = LevyParams(1.3, 0.7)
        for t in np.geomspace(0.05, 5.0, 25):
            h = 1e-5 * t
            fd = -oracles.central_diff(lambda u: float(p.survival(u)), t, h)
            f = float(p.density(t))
            assert abs(fd - f) / f < 1e-5


class TestInvGaussSurvival:
    def test_reduces_to_levy_at_zero_drift(self):
        ts = np.linspace(0.01, 10.0, 200)
        levy = LevyParams(1.0, 1.0).survival(ts)
        near = InvGaussParams(1.0, -1e-8).survival(ts)
        assert np.max(np.abs(levy - near)) < 1e-6

    def test_certain_failure_at_long_times(self):
        assert InvGaussParams(1.0, -1.0).survival(1e6) < 1e-12

    def test_quadrature_value(self):
        p = InvGaussParams(1.0, -1.0)
        integral = oracles.quad(lambda t: oracles.ig_density_ref(1.0, -1.0, t), 1e-12, 1.0)
        assert abs(float(p.survival(1.0)) - (1.0 - integral)) < 1e-9

    def test_matches_oracle_formula(self):
        ts = np.geomspace(0.01, 30, 50)
        for x0, mu in [(1.0, -0.5), (2.0, -1.0), (0.5, -3.0)]:
            ours = InvGaussParams(x0, mu).survival(ts)
            ref = [oracles.ig_survival_ref(x0, mu, t) for t in ts]
            assert np.max(np.abs(ours - np.clip(ref, 0, 1))) < 1e-12

    def test_overflow_safe_for_strong_drift(self):
        p = InvGaussParams(10.0, -300.0)  # exp(-mu*x0) alone would overflow
        # t = x0/|mu| = 1/30 is where a = 0 and the image term is largest
        ts = np.concatenate([[1e-3, 0.1, 1.0], np.geomspace(0.02, 0.05, 9)])
        vals = p.survival(ts)
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        ref = np.clip([oracles.ig_survival_logspace_ref(10.0, -300.0, t) for t in ts], 0, 1)
        # the oracle's exponent -mu*x0 + log Phi(b) cancels from about 3000,
        # which costs it about 3000 * 2.2e-16 relative on the image term
        assert np.max(np.abs(vals - ref)) < 1e-12
        # exp(900) overflows on its own; S = 1/2 - erfcx(30)/2 here
        s = float(InvGaussParams(30.0, -30.0).survival(1.0))
        assert abs(s - oracles.ig_survival_logspace_ref(30.0, -30.0, 1.0)) < 1e-14
        assert abs(s - 0.4906) < 1e-4

    @pytest.mark.parametrize(
        "x0,mu,t", [(30.0, -30.0, 1.0), (10.0, -300.0, 1.0 / 30.0), (10.0, -300.0, 0.04)]
    )
    def test_strong_drift_partials_match_finite_differences(self, x0, mu, t):
        _, g0, g1 = InvGaussParams(x0, mu).survival_and_grads(t)
        assert np.isfinite(g0) and np.isfinite(g1)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(InvGaussParams(v, mu).survival(t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(InvGaussParams(x0, v).survival(t)), mu, h)
        assert abs(g0 - f0) / max(abs(f0), 1e-8) < 1e-5
        assert abs(g1 - f1) / max(abs(f1), 1e-8) < 1e-5

    def test_drift_must_be_negative(self):
        with pytest.raises(FhtDomainError):
            InvGaussParams(1.0, 0.0)
        with pytest.raises(FhtDomainError):
            InvGaussParams(1.0, 0.5)


class TestInvGaussDensity:
    def test_zero_drift_limit_matches_levy_density(self):
        near = InvGaussParams(1.0, -1e-12).density(1.0)
        assert abs(float(near) - LEVY_F_1) < 1e-9

    def test_early_time_vanishes(self):
        assert InvGaussParams(1.0, -1.0).density(1e-8) < 1e-300

    def test_integrates_to_one_for_negative_drift(self):
        val = oracles.quad(
            lambda t: float(InvGaussParams(1.0, -0.5).density(t)), 1e-12, np.inf, limit=400
        )
        assert abs(val - 1.0) < 1e-6

    def test_density_is_minus_dsdt(self):
        p = InvGaussParams(1.5, -0.8)
        for t in np.geomspace(0.1, 8.0, 25):
            h = 1e-5 * t
            fd = -oracles.central_diff(lambda u: float(p.survival(u)), t, h)
            f = float(p.density(t))
            assert abs(fd - f) / f < 1e-5


class TestGradients:
    def test_levy_frozen_gradient(self):
        _, g0, _ = LevyParams(1.0, 1.0).survival_and_grads(1.0)
        assert abs(float(g0) - 2.0 / math.sqrt(4.0 * math.pi) * math.exp(-0.25)) < 1e-12

    def test_levy_gradient_signs(self):
        _, g0, g1 = LevyParams(1.0, 1.0).survival_and_grads(1.0)
        assert g0 > 0 and g1 < 0

    @pytest.mark.parametrize("x0,d,t", [(1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (0.4, 3.0, 0.1)])
    def test_levy_matches_finite_differences(self, x0, d, t):
        _, g0, g1 = LevyParams(x0, d).survival_and_grads(t)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(LevyParams(v, d).survival(t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(LevyParams(x0, v).survival(t)), d, h)
        assert abs(g0 - f0) / max(abs(f0), 1e-8) < 1e-5
        assert abs(g1 - f1) / max(abs(f1), 1e-8) < 1e-5

    def test_levy_partials_cancel_along_constant_x0_squared_over_d(self):
        # S depends on x0^2/D only, so x0 dS/dx0 + 2D dS/dD = 0; each term is
        # the shared prefactor (2/sqrt(pi)) u exp(-u^2) up to rounding
        x0 = np.geomspace(0.05, 20.0, 13)[:, None, None]
        d = np.geomspace(0.01, 50.0, 11)[None, :, None]
        t = np.geomspace(1e-3, 1e3, 17)[None, None, :]
        _, g0, g1 = LevyParams(x0, d).survival_and_grads(t)
        pref = x0 * g0
        # a subnormal value has lost its relative precision
        normal = np.minimum(np.minimum(g0, -g1), pref) >= np.finfo(float).tiny
        assert np.count_nonzero(normal) > pref.size // 2
        assert np.all(np.abs(pref + 2.0 * d * g1)[normal] <= 4.0 * np.spacing(pref[normal]))

    @pytest.mark.parametrize("x0,mu,t", [(1.0, -1.0, 1.0), (2.0, -0.5, 0.7), (0.6, -2.0, 0.3)])
    def test_ig_matches_finite_differences(self, x0, mu, t):
        _, g0, g1 = InvGaussParams(x0, mu).survival_and_grads(t)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(InvGaussParams(v, mu).survival(t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(InvGaussParams(x0, v).survival(t)), mu, h)
        assert abs(g0 - f0) / max(abs(f0), 1e-8) < 1e-5
        assert abs(g1 - f1) / max(abs(f1), 1e-8) < 1e-5


class TestDispatch:
    CASES = [
        (DistKind.LEVY, np.array([[0.3], [1.0], [4.0]]), np.array([[0.2], [1.0], [7.0]])),
        (
            DistKind.INVERSE_GAUSSIAN,
            np.array([[0.3], [1.0], [30.0]]),
            np.array([[-0.1], [-1.0], [-30.0]]),
        ),
    ]

    @pytest.mark.parametrize("kind,x0,second", CASES)
    def test_fused_survival_bit_identical_to_survival(self, kind, x0, second):
        # training and evaluation must see the same survival values
        p = fht.make_params(kind, x0, second)
        ts = np.geomspace(1e-3, 100.0, 57)[None, :]
        surv, g0, g1 = p.survival_and_grads(ts)
        assert np.array_equal(surv, p.survival(ts))
        assert g0.shape == g1.shape == surv.shape

    def test_table_maps_kind_to_params_and_coefficients(self):
        p = fht.make_params("levy", 2.0, 0.5)
        assert isinstance(p, LevyParams)
        assert fht.param_names(DistKind.LEVY) == ("x0", "diffusion")
        assert p.coefficients() == (2.0, 0.0, 0.5)
        q = fht.make_params(DistKind.INVERSE_GAUSSIAN, 1.0, -0.5)
        assert isinstance(q, InvGaussParams)
        assert fht.param_names("invgauss") == ("x0", "drift")
        assert q.coefficients() == (1.0, -0.5, 1.0)

    @pytest.mark.parametrize("kind", list(DistKind))
    def test_params_class_is_the_struct_of_that_kind(self, kind):
        struct = fht.params_class(kind)
        assert struct in (LevyParams, InvGaussParams)
        assert struct.kind is kind
        assert fht.params_class(kind.value) is struct

    @pytest.mark.parametrize("kind", ["weibull", "LEVY", None])
    def test_params_class_names_an_unknown_kind(self, kind):
        with pytest.raises(FhtDomainError, match=re.escape(f"unknown distribution kind: {kind!r}")):
            fht.params_class(kind)

    def test_unknown_kind_rejected(self):
        for call in (
            lambda: fht.make_params("weibull", 1.0, 1.0),
        ):
            with pytest.raises(FhtDomainError, match="unknown distribution kind"):
                call()

    def test_levy_depends_on_x0_squared_over_d_only(self):
        ts = np.geomspace(0.01, 50.0, 40)
        base = LevyParams(1.0, 1.0).survival(ts)
        for c in (0.25, 3.0, 40.0):
            other = LevyParams(math.sqrt(c), c).survival(ts)
            assert np.max(np.abs(other - base)) < 1e-15


class TestExactSamplers:
    """The oracle samplers' draws against the closed-form survival: a
    chi-square test over the law's equal-mass bins, on fixed seeds."""

    N = 20_000
    BINS = 20

    @classmethod
    def chi_square_p(cls, draws, survival):
        """p-value of the draws' counts in the law's ``BINS`` equal-mass bins,
        cut where the closed-form survival crosses k / BINS."""
        from scipy import optimize, stats

        edges = [optimize.brentq(lambda t: float(survival(t)) - q, 1e-12, 1e12, xtol=1e-14,
                                 rtol=1e-14)
                 for q in np.arange(cls.BINS - 1, 0, -1) / cls.BINS]
        observed = np.bincount(np.searchsorted(edges, draws), minlength=cls.BINS)
        return stats.chisquare(observed).pvalue

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("x0,d", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
    def test_levy(self, x0, d, seed):
        draws = oracles.sample_levy(np.full(self.N, x0), d, np.random.default_rng(seed))
        assert self.chi_square_p(draws, LevyParams(x0, d).survival) > 1e-3

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("x0,mu", [(1.0, -0.5), (2.0, -2.0), (0.4, -0.1)])
    def test_invgauss(self, x0, mu, seed):
        draws = oracles.sample_invgauss(np.full(self.N, x0), mu, np.random.default_rng(seed))
        assert self.chi_square_p(draws, InvGaussParams(x0, mu).survival) > 1e-3

    def test_a_wrong_law_is_rejected(self):
        # the test has power: Levy draws at a 10% larger diffusion fail it,
        # and so do inverse-Gaussian draws at D = 2 (shape x0^2/4, not x0^2/2)
        rng = np.random.default_rng(0)
        levy = oracles.sample_levy(np.full(self.N, 1.0), 1.1, rng)
        assert self.chi_square_p(levy, LevyParams(1.0, 1.0).survival) < 1e-6
        ig = oracles.sample_invgauss(np.full(self.N, 1.0), -0.5, rng)
        ig_at_d2 = rng.wald(np.full(self.N, 2.0), 0.25)
        assert self.chi_square_p(ig, InvGaussParams(1.0, -0.5).survival) > 1e-3
        assert self.chi_square_p(ig_at_d2, InvGaussParams(1.0, -0.5).survival) < 1e-6
