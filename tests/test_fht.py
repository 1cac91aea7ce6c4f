import math

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
    ig_density,
    ig_survival,
    ig_survival_and_grads,
    levy_density,
    levy_survival,
    levy_survival_and_grads,
)

import oracles

# frozen with the stdlib erf oracle
ERF_1 = 0.8427007929497149
LEVY_F_1 = 0.2196956447338612  # 1/(2 sqrt(pi)) * exp(-1/4)


class TestLevySurvival:
    def test_worked_values(self):
        assert abs(levy_survival(LevyParams(1.0, 1.0), 0.25) - ERF_1) < 1e-12
        # invariance under the x0^2/(D t) scaling
        assert abs(levy_survival(LevyParams(2.0, 0.5), 2.0) - ERF_1) < 1e-12

    def test_limits(self):
        p = LevyParams(1.0, 1.0)
        assert levy_survival(p, 1e-12) == pytest.approx(1.0, abs=1e-15)
        assert levy_survival(p, 1e12) < 1e-5

    def test_domain_errors(self):
        p = LevyParams(1.0, 1.0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(FhtDomainError):
                levy_survival(p, bad)
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
        assert levy_survival(p, t1) >= levy_survival(p, t1 * factor) - 1e-15

    def test_matches_oracle_on_grid(self):
        ts = np.geomspace(0.01, 50.0, 64)
        for x0, d in [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)]:
            ours = levy_survival(LevyParams(x0, d), ts)
            ref = [oracles.levy_survival_ref(x0, d, t) for t in ts]
            assert np.max(np.abs(ours - ref)) < 1e-12


class TestLevyDensity:
    def test_frozen_value(self):
        assert abs(levy_density(LevyParams(1.0, 1.0), 1.0) - LEVY_F_1) < 1e-12

    def test_early_time_vanishes(self):
        assert levy_density(LevyParams(1.0, 1.0), 1e-6) < 1e-300

    def test_integrates_to_one(self):
        val = oracles.quad(
            lambda t: float(levy_density(LevyParams(1.0, 1.0), t)), 1e-12, np.inf, limit=400
        )
        assert abs(val - 1.0) < 1e-6

    def test_density_is_minus_dsdt(self):
        p = LevyParams(1.3, 0.7)
        for t in np.geomspace(0.05, 5.0, 25):
            h = 1e-5 * t
            fd = -oracles.central_diff(lambda u: float(levy_survival(p, u)), t, h)
            f = float(levy_density(p, t))
            assert abs(fd - f) / f < 1e-5


class TestInvGaussSurvival:
    def test_reduces_to_levy_at_zero_drift(self):
        ts = np.linspace(0.01, 10.0, 200)
        levy = levy_survival(LevyParams(1.0, 1.0), ts)
        near = ig_survival(InvGaussParams(1.0, -1e-8), ts)
        assert np.max(np.abs(levy - near)) < 1e-6

    def test_certain_failure_at_long_times(self):
        assert ig_survival(InvGaussParams(1.0, -1.0), 1e6) < 1e-12

    def test_quadrature_value(self):
        p = InvGaussParams(1.0, -1.0)
        integral = oracles.quad(lambda t: oracles.ig_density_ref(1.0, -1.0, t), 1e-12, 1.0)
        assert abs(float(ig_survival(p, 1.0)) - (1.0 - integral)) < 1e-9

    def test_matches_oracle_formula(self):
        ts = np.geomspace(0.01, 30, 50)
        for x0, mu in [(1.0, -0.5), (2.0, -1.0), (0.5, -3.0)]:
            ours = ig_survival(InvGaussParams(x0, mu), ts)
            ref = [oracles.ig_survival_ref(x0, mu, t) for t in ts]
            assert np.max(np.abs(ours - np.clip(ref, 0, 1))) < 1e-12

    def test_overflow_safe_for_strong_drift(self):
        p = InvGaussParams(10.0, -300.0)  # exp(-mu*x0) alone would overflow
        # t = x0/|mu| = 1/30 is where a = 0 and the image term is largest
        ts = np.concatenate([[1e-3, 0.1, 1.0], np.geomspace(0.02, 0.05, 9)])
        vals = ig_survival(p, ts)
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        ref = np.clip([oracles.ig_survival_logspace_ref(10.0, -300.0, t) for t in ts], 0, 1)
        # the oracle's exponent -mu*x0 + log Phi(b) cancels from about 3000,
        # which costs it about 3000 * 2.2e-16 relative on the image term
        assert np.max(np.abs(vals - ref)) < 1e-12
        # exp(900) overflows on its own; S = 1/2 - erfcx(30)/2 here
        s = float(ig_survival(InvGaussParams(30.0, -30.0), 1.0))
        assert abs(s - oracles.ig_survival_logspace_ref(30.0, -30.0, 1.0)) < 1e-14
        assert abs(s - 0.4906) < 1e-4

    @pytest.mark.parametrize(
        "x0,mu,t", [(30.0, -30.0, 1.0), (10.0, -300.0, 1.0 / 30.0), (10.0, -300.0, 0.04)]
    )
    def test_strong_drift_partials_match_finite_differences(self, x0, mu, t):
        _, g0, g1 = ig_survival_and_grads(InvGaussParams(x0, mu), t)
        assert np.isfinite(g0) and np.isfinite(g1)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(ig_survival(InvGaussParams(v, mu), t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(ig_survival(InvGaussParams(x0, v), t)), mu, h)
        assert abs(g0 - f0) / max(abs(f0), 1e-8) < 1e-5
        assert abs(g1 - f1) / max(abs(f1), 1e-8) < 1e-5

    def test_drift_must_be_negative(self):
        with pytest.raises(FhtDomainError):
            InvGaussParams(1.0, 0.0)
        with pytest.raises(FhtDomainError):
            InvGaussParams(1.0, 0.5)


class TestInvGaussDensity:
    def test_zero_drift_limit_matches_levy_density(self):
        near = ig_density(InvGaussParams(1.0, -1e-12), 1.0)
        assert abs(float(near) - LEVY_F_1) < 1e-9

    def test_early_time_vanishes(self):
        assert ig_density(InvGaussParams(1.0, -1.0), 1e-8) < 1e-300

    def test_integrates_to_one_for_negative_drift(self):
        val = oracles.quad(
            lambda t: float(ig_density(InvGaussParams(1.0, -0.5), t)), 1e-12, np.inf, limit=400
        )
        assert abs(val - 1.0) < 1e-6

    def test_density_is_minus_dsdt(self):
        p = InvGaussParams(1.5, -0.8)
        for t in np.geomspace(0.1, 8.0, 25):
            h = 1e-5 * t
            fd = -oracles.central_diff(lambda u: float(ig_survival(p, u)), t, h)
            f = float(ig_density(p, t))
            assert abs(fd - f) / f < 1e-5


class TestGradients:
    def test_levy_frozen_gradient(self):
        _, g0, _ = levy_survival_and_grads(LevyParams(1.0, 1.0), 1.0)
        assert abs(float(g0) - 2.0 / math.sqrt(4.0 * math.pi) * math.exp(-0.25)) < 1e-12

    def test_levy_gradient_signs(self):
        _, g0, g1 = levy_survival_and_grads(LevyParams(1.0, 1.0), 1.0)
        assert g0 > 0 and g1 < 0

    @pytest.mark.parametrize("x0,d,t", [(1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (0.4, 3.0, 0.1)])
    def test_levy_matches_finite_differences(self, x0, d, t):
        _, g0, g1 = levy_survival_and_grads(LevyParams(x0, d), t)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(levy_survival(LevyParams(v, d), t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(levy_survival(LevyParams(x0, v), t)), d, h)
        assert abs(g0 - f0) / max(abs(f0), 1e-8) < 1e-5
        assert abs(g1 - f1) / max(abs(f1), 1e-8) < 1e-5

    @pytest.mark.parametrize("x0,mu,t", [(1.0, -1.0, 1.0), (2.0, -0.5, 0.7), (0.6, -2.0, 0.3)])
    def test_ig_matches_finite_differences(self, x0, mu, t):
        _, g0, g1 = ig_survival_and_grads(InvGaussParams(x0, mu), t)
        h = 1e-6
        f0 = oracles.central_diff(lambda v: float(ig_survival(InvGaussParams(v, mu), t)), x0, h)
        f1 = oracles.central_diff(lambda v: float(ig_survival(InvGaussParams(x0, v), t)), mu, h)
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
        surv, g0, g1 = fht.survival_and_grads(kind, p, ts)
        assert np.array_equal(surv, fht.survival(kind, p, ts))
        assert g0.shape == g1.shape == surv.shape

    def test_table_maps_kind_to_params_and_coefficients(self):
        p = fht.make_params("levy", 2.0, 0.5)
        assert isinstance(p, LevyParams)
        assert fht.param_names(DistKind.LEVY) == ("x0", "diffusion")
        assert fht.coefficients(DistKind.LEVY, p) == (2.0, 0.0, 0.5)
        q = fht.make_params(DistKind.INVERSE_GAUSSIAN, 1.0, -0.5)
        assert isinstance(q, InvGaussParams)
        assert fht.param_names("invgauss") == ("x0", "drift")
        assert fht.coefficients(DistKind.INVERSE_GAUSSIAN, q) == (1.0, -0.5, 1.0)

    def test_unknown_kind_rejected(self):
        for call in (
            lambda: fht.make_params("weibull", 1.0, 1.0),
            lambda: fht.survival("weibull", LevyParams(1.0, 1.0), 1.0),
            lambda: fht.survival_and_grads("weibull", LevyParams(1.0, 1.0), 1.0),
        ):
            with pytest.raises(FhtDomainError, match="unknown distribution kind"):
                call()

    def test_levy_depends_on_x0_squared_over_d_only(self):
        ts = np.geomspace(0.01, 50.0, 40)
        base = levy_survival(LevyParams(1.0, 1.0), ts)
        for c in (0.25, 3.0, 40.0):
            other = levy_survival(LevyParams(math.sqrt(c), c), ts)
            assert np.max(np.abs(other - base)) < 1e-15
