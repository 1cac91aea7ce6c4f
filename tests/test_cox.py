import numpy as np
import pytest

from fhtsurv.cox import CoxConvergenceError, CoxModel, fit_cox
from fhtsurv.data import SurvivalData


def make_data(x, times, deltas):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return SurvivalData(x, np.asarray(times, dtype=float), np.asarray(deltas), ["f"] * x.shape[1])


def partial_loglik_1d(x, times, beta):
    # brute-force Breslow log partial likelihood, all subjects uncensored
    eta = x * beta
    ll = 0.0
    for i in range(len(times)):
        risk = times >= times[i]
        ll += eta[i] - np.log(np.exp(eta[risk]).sum())
    return ll


class TestFit:
    def test_matches_grid_search_single_binary_covariate(self):
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        times = np.array([1.0, 3.0, 5.0, 0.5, 2.0, 4.0])
        model = fit_cox(make_data(x, times, np.ones(6, dtype=int)))
        grid = np.linspace(-3, 3, 120001)
        lls = [partial_loglik_1d(x, times, b) for b in grid]
        best = grid[int(np.argmax(lls))]
        assert abs(model.beta[0] - best) < 1e-4

    def test_null_covariates_small_beta(self):
        rng = np.random.default_rng(9)
        n = 1000
        d = make_data(rng.normal(size=(n, 3)), rng.exponential(1, n) + 0.01, np.ones(n, dtype=int))
        model = fit_cox(d)
        assert np.all(np.abs(model.beta) < 0.1)

    def test_identical_covariates_zero_beta(self):
        d = make_data(np.ones((5, 1)), [1.0, 2.0, 3.0, 4.0, 5.0], np.ones(5, dtype=int))
        model = fit_cox(d)
        assert np.all(model.beta == 0.0)

    def test_requires_an_event(self):
        d = make_data(np.ones((3, 1)), [1.0, 2.0, 3.0], [0, 0, 0])
        with pytest.raises(ValueError):
            fit_cox(d)

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(4)
        n = 120
        x = rng.normal(size=(n, 2))
        t = np.exp(0.5 * x[:, 0]) * rng.exponential(1, n) + 0.01
        delta = rng.integers(0, 2, n)
        delta[0] = 1
        d = make_data(x, t, delta)
        m1 = fit_cox(d)
        perm = rng.permutation(n)
        m2 = fit_cox(make_data(x[perm], t[perm], delta[perm]))
        assert np.max(np.abs(m1.beta - m2.beta)) < 1e-6

    def test_recovers_known_signal_direction(self):
        rng = np.random.default_rng(7)
        n = 600
        x = rng.normal(size=(n, 1))
        t = rng.exponential(np.exp(-1.0 * x[:, 0])) + 1e-4  # hazard up with x
        model = fit_cox(make_data(x, t, np.ones(n, dtype=int)))
        assert model.beta[0] > 0.5

    def test_nonconvergence_raises_with_diagnostics(self):
        rng = np.random.default_rng(0)
        n = 80
        x = rng.normal(size=(n, 2))
        t = np.exp(0.8 * x[:, 0]) * rng.exponential(1, n) + 0.01
        d = make_data(x, t, np.ones(n, dtype=int))
        with pytest.raises(CoxConvergenceError, match="no convergence after 1"):
            fit_cox(d, max_iter=1, tol=1e-12)


class TestSurvival:
    def fitted(self):
        rng = np.random.default_rng(11)
        n = 200
        x = rng.normal(size=(n, 2))
        t = np.exp(0.7 * x[:, 0] - 0.3 * x[:, 1]) * rng.exponential(1, n) + 0.01
        delta = (rng.random(n) > 0.25).astype(int)
        d = make_data(x, t, delta)
        return fit_cox(d), d

    def test_zero_covariates_give_baseline(self):
        model, _ = self.fitted()
        ts = np.array([0.2, 0.8, 2.0])
        assert np.allclose(
            model.survival_matrix(np.zeros((1, 2)), ts)[0], np.exp(-model.cumulative_hazard(ts))
        )

    def test_monotone_in_time(self):
        model, d = self.fitted()
        s = model.survival_matrix(d.x[:10], np.sort(d.time[:50]))
        assert np.all(np.diff(s, axis=1) <= 1e-15)

    def test_higher_risk_lower_survival(self):
        model, _ = self.fitted()
        x_low = -model.beta / np.linalg.norm(model.beta)
        x_high = model.beta / np.linalg.norm(model.beta)
        ts = np.array([0.5, 1.0, 2.0])
        s = model.survival_matrix(np.stack([x_low, x_high]), ts)
        assert np.all(s[0] >= s[1])

    def test_hazard_ratio_constant_over_time(self):
        model, d = self.fitted()
        ts = model.baseline_times[1:-1]
        h0 = model.cumulative_hazard(ts)
        x1, x2 = d.x[0], d.x[1]
        h1 = -np.log(model.survival_matrix(x1[None, :], ts)[0])
        h2 = -np.log(model.survival_matrix(x2[None, :], ts)[0])
        ratio = h1 / h2
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10

    def test_before_first_event_survival_one(self):
        model, d = self.fitted()
        t0 = model.baseline_times[0] * 0.5
        assert np.exp(-model.cumulative_hazard(np.array([t0])))[0] == 1.0
        assert np.all(model.survival_matrix(d.x[:5], t0) == 1.0)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        n = 80
        d = make_data(rng.normal(size=(n, 2)), rng.exponential(1, n) + 0.01, np.ones(n, dtype=int))
        model = fit_cox(d)
        clone = CoxModel.from_dict(model.to_dict())
        assert np.array_equal(model.beta, clone.beta)
        assert np.array_equal(model.baseline_cumhaz, clone.baseline_cumhaz)
        ts = np.array([0.3, 1.0])
        assert np.array_equal(
            model.survival_matrix(d.x[:5], ts), clone.survival_matrix(d.x[:5], ts)
        )

    def test_loglik_nondecreasing_over_newton_path(self):
        # indirectly verified by convergence; here check the reported state
        rng = np.random.default_rng(5)
        n = 150
        x = rng.normal(size=(n, 3))
        t = np.exp(0.4 * x[:, 0]) * rng.exponential(1, n) + 0.01
        d = make_data(x, t, np.ones(n, dtype=int))
        model = fit_cox(d)
        assert model.converged
        assert model.grad_norm < 1e-8
        null_ll = partial_loglik_breslow(d.x, d.time, d.delta, np.zeros(3))
        assert model.log_likelihood >= null_ll


def partial_loglik_breslow(x, times, deltas, beta):
    eta = x @ beta
    ll = 0.0
    for t in np.unique(times[deltas == 1]):
        events = (times == t) & (deltas == 1)
        risk = times >= t
        ll += eta[events].sum() - events.sum() * np.log(np.exp(eta[risk]).sum())
    return ll


class TestAgainstStatsmodels:
    @pytest.fixture
    def statsmodels(self):
        return pytest.importorskip("statsmodels.duration.hazard_regression", reason="cross-check oracle")

    def make(self):
        rng = np.random.default_rng(17)
        n = 300
        x = rng.normal(size=(n, 4))
        t = np.exp(0.6 * x[:, 0] - 0.4 * x[:, 1] + 0.1 * x[:, 2]) * rng.exponential(1, n) + 0.01
        t = np.round(t, 2) + 0.005  # force tied event times
        delta = (rng.random(n) > 0.3).astype(int)
        return make_data(x, t, delta)

    def test_beta_matches_phreg_breslow(self, statsmodels):
        d = self.make()
        mine = fit_cox(d, tol=1e-10)
        ref = statsmodels.PHReg(d.time, d.x, status=d.delta, ties="breslow").fit()
        assert np.max(np.abs(mine.beta - ref.params)) < 1e-8

    def test_baseline_cumhaz_matches_phreg(self, statsmodels):
        # statsmodels stores the left limit H(t-) at each event time; our
        # curve is right-continuous, so theirs shifted by one step is ours
        d = self.make()
        mine = fit_cox(d, tol=1e-10)
        bt, bch, _ = statsmodels.PHReg(
            d.time, d.x, status=d.delta, ties="breslow"
        ).fit().baseline_cumulative_hazard[0]
        assert np.allclose(bt, mine.baseline_times, atol=1e-12)
        assert np.allclose(bch[1:], mine.baseline_cumhaz[:-1], rtol=1e-8)


class TestAgainstBruteForce:
    def test_loglik_gradient_consistency(self):
        rng = np.random.default_rng(13)
        n = 40
        x = rng.normal(size=(n, 2))
        t = rng.exponential(1, n) + 0.01
        t[5] = t[6]  # force a tie
        deltas = rng.integers(0, 2, n)
        deltas[:4] = 1
        d = make_data(x, t, deltas)
        model = fit_cox(d)
        ll_fit = partial_loglik_breslow(x, t, deltas, model.beta)
        for _ in range(20):
            probe = model.beta + rng.normal(0, 0.05, 2)
            assert partial_loglik_breslow(x, t, deltas, probe) <= ll_fit + 1e-9
