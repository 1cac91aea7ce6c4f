import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv.data import SurvivalData
from fhtsurv.metrics import (
    BrierCurve,
    MetricUndefinedError,
    bootstrap,
    brier_curve,
    concordance,
    evaluate,
    ibs,
    kaplan_meier,
    km_censoring,
)
from fhtsurv.training import brier_terms, unique_event_times

import oracles


def make_data(times, deltas):
    times = np.asarray(times, dtype=float)
    return SurvivalData(np.zeros((times.size, 1)), times, np.asarray(deltas), ["f"])


def surv_from_values(values):
    values = np.asarray(values, dtype=float)

    def fn(x, ts):
        return np.tile(values[: x.shape[0], None], (1, np.atleast_1d(ts).size))

    return fn


def cindex(values, d, weighted=True):
    """Concordance of time-constant predictions on the event-time matrix of ``d``."""
    times = unique_event_times(d.time, d.delta)
    surv = np.tile(np.asarray(values, dtype=float)[:, None], (1, times.size))
    return concordance(surv, times, d, weighted=weighted)[0]


class TestKaplanMeier:
    def test_no_censoring_curve_is_one(self):
        d = make_data([1, 2, 3], [1, 1, 1])
        g = km_censoring(d)
        assert g.times.size == 0
        assert np.all(g.eval(np.array([0.5, 2.0, 10.0])) == 1.0)

    def test_all_censored_distinct_times(self):
        d = make_data([1, 2, 3], [0, 0, 0])
        g = km_censoring(d)
        # product-limit: 2/3, then 2/3 * 1/2, then 0
        assert np.allclose(g.survival, [2 / 3, 1 / 3, 0.0])

    def test_two_record_hand_value(self):
        d = make_data([1, 2], [0, 1])
        g = km_censoring(d)
        assert g.eval(1.0) == pytest.approx(0.5)
        assert g.eval_left(1.0) == 1.0

    def test_event_curve_monotone_right_continuous(self):
        rng = np.random.default_rng(0)
        d = make_data(rng.uniform(0.1, 5, 50), rng.integers(0, 2, 50))
        k = kaplan_meier(d.time, d.delta)
        assert np.all(np.diff(k.survival) <= 0)
        assert k.survival[0] <= 1.0

    def test_ties_grouped(self):
        d = make_data([1, 1, 1, 2], [1, 1, 0, 1])
        k = kaplan_meier(d.time, d.delta)
        # at t=1: 2 events of 4 at risk -> 0.5; at t=2: 1 of 1 -> 0
        assert np.allclose(k.survival, [0.5, 0.0])


class TestCindex:
    def test_perfectly_ordered(self):
        d = make_data([1, 2, 3], [1, 1, 1])
        assert cindex([0.1, 0.5, 0.9], d) == 1.0
        assert cindex([0.9, 0.5, 0.1], d) == 0.0

    def test_ties_count_half(self):
        d = make_data([1, 2], [1, 1])
        assert cindex([0.5, 0.5], d) == 0.5

    def test_tied_times_not_comparable(self):
        d = make_data([1, 1], [1, 1])
        with pytest.raises(MetricUndefinedError):
            cindex([0.2, 0.8], d)

    def test_no_events_undefined(self):
        d = make_data([1, 2], [0, 0])
        with pytest.raises(MetricUndefinedError):
            cindex([0.2, 0.8], d)

    def test_matches_bruteforce_small_batches(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            times = np.round(rng.uniform(0.5, 5.0, n), 1)
            deltas = rng.integers(0, 2, n)
            if not (deltas == 1).any():
                deltas[rng.integers(n)] = 1
            values = np.round(rng.random(n), 2)
            d = make_data(times, deltas)
            ref = oracles.cindex_bruteforce(
                lambda j, t: values[j], list(times), list(deltas)
            )
            if ref is None:
                with pytest.raises(MetricUndefinedError):
                    cindex(values, d)
                continue
            ours = cindex(values, d)
            assert abs(ours - ref) < 1e-12

    def test_time_dependent_predictions_against_bruteforce(self):
        # survival curves that genuinely cross, exercising the per-anchor-time logic
        rng = np.random.default_rng(77)
        n = 6
        times = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        deltas = np.array([1, 1, 0, 1, 1, 0])
        slopes = rng.uniform(0.05, 0.9, n)
        scales = rng.uniform(0.3, 2.0, n)

        def s_of(j, t):
            return float(np.exp(-slopes[j] * t**scales[j]))

        d = make_data(times, deltas)
        grid = unique_event_times(times, deltas)
        surv = np.exp(-slopes[:, None] * grid[None, :] ** scales[:, None])
        ref = oracles.cindex_bruteforce(s_of, list(times), list(deltas))
        assert abs(concordance(surv, grid, d)[0] - ref) < 1e-12

    def test_random_predictor_near_half(self):
        rng = np.random.default_rng(5)
        n = 1000
        d = make_data(rng.exponential(1, n) + 0.01, np.ones(n, dtype=int))
        c = cindex(rng.random(n), d)
        assert abs(c - 0.5) < 0.03

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        n = 40
        d = make_data(rng.uniform(0.2, 6, n), rng.integers(0, 2, n))
        if not (d.delta == 1).any():
            d.delta[0] = 1
        vals = rng.random(n)
        c1 = cindex(vals, d)
        c2 = cindex(np.tanh(3.0 * vals), d)  # strictly monotone
        assert c1 == pytest.approx(c2, abs=1e-12)

    def test_missing_event_time_column_named(self):
        d = make_data([1.0, 2.0, 3.0], [1, 1, 0])
        surv = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match=r"event time 2\.0"):
            concordance(surv, np.array([1.0, 2.5]), d)

    def test_exclusion_counting(self):
        # last subject censored last: G hits zero before the final event anchor
        d = make_data([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        grid = np.array([1.0, 3.0])
        surv = np.tile(np.array([[0.9], [0.7], [0.5], [0.3]]), (1, 2))
        _, n_comp, n_excl = concordance(surv, grid, d)
        assert n_comp >= 1
        assert n_excl >= 0

    def test_unweighted_mode(self):
        rng = np.random.default_rng(11)
        n = 30
        d = make_data(rng.uniform(0.2, 6, n), rng.integers(0, 2, n))
        if not (d.delta == 1).any():
            d.delta[0] = 1
        vals = rng.random(n)
        ref = oracles.cindex_bruteforce(
            lambda j, t: vals[j], list(d.time), list(d.delta), weighted=False
        )
        assert abs(cindex(vals, d, weighted=False) - ref) < 1e-12


class TestBrierCurve:
    def test_uninformative_quarter(self):
        d = make_data(np.linspace(1, 5, 9), np.ones(9, dtype=int))
        curve = brier_curve(np.full((9, 3), 0.5), np.array([1.0, 2.5, 4.9]), d)
        assert np.allclose(curve.values, 0.25, atol=1e-12)

    def test_oracle_step_predictor_zero(self):
        times = np.array([1.0, 2.0, 3.0])
        d = make_data(times, np.ones(3, dtype=int))

        grid = np.array([0.5, 1.5, 2.5])
        curve = brier_curve((times[:, None] > grid[None, :]).astype(float), grid, d)
        assert np.allclose(curve.values, 0.0)

    def test_hand_value_with_censoring(self):
        times = [1.0, 2.0, 3.0]
        deltas = [1, 0, 1]
        vals = [0.3, 0.6, 0.8]
        d = make_data(times, deltas)
        for t in (1.5, 2.5):
            ref = oracles.brier_ref(lambda j, u: vals[j], times, deltas, t)
            ours = brier_curve(np.array(vals)[:, None], np.array([t]), d).values[0]
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_unweighted_matches_loss_summands(self):
        rng = np.random.default_rng(3)
        n = 25
        d = make_data(rng.uniform(0.3, 6, n), rng.integers(0, 2, n))
        if not (d.delta == 1).any():
            d.delta[0] = 1
        vals = rng.random(n)
        grid = unique_event_times(d.time, d.delta)
        surv = np.tile(vals[:, None], (1, grid.size))
        _, _ = brier_terms(surv, grid, d.time, d.delta)  # shape check
        per_time = (
            ((d.time[:, None] <= grid) & (d.delta[:, None] == 1)) * surv**2
            + (d.time[:, None] > grid) * (1 - surv) ** 2
        ).sum(axis=0) / n
        curve = brier_curve(surv, grid, d, weighted=False)
        assert np.allclose(curve.values, per_time, atol=1e-12)


class TestIbs:
    def test_constant_curve(self):
        c = BrierCurve(np.array([0.0, 1.0]), np.array([0.25, 0.25]))
        assert ibs(c) == pytest.approx(0.25)

    def test_linear_curve(self):
        c = BrierCurve(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
        assert ibs(c) == pytest.approx(0.25)

    def test_window_extension_constant(self):
        c = BrierCurve(np.array([1.0, 2.0]), np.array([0.1, 0.1]))
        assert ibs(c, t0=0.0, tmax=4.0) == pytest.approx(0.1)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 0.5, 12)
        c = BrierCurve(np.sort(rng.uniform(0.1, 5, 12)), vals)
        v = ibs(c)
        assert 0.0 <= v <= vals.max() + 1e-12

    def test_invalid_window(self):
        c = BrierCurve(np.array([1.0, 2.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            ibs(c, t0=2.0, tmax=2.0)


class TestBootstrap:
    def test_constant_metric_zero_std(self):
        d = make_data(np.linspace(0.5, 8, 40), [0] * 16 + [1] * 24)
        res = bootstrap(lambda sel: 1.23, d, n_resamples=10, seed=0)
        assert res.mean == pytest.approx(1.23)
        assert res.std == 0.0

    def test_censoring_ratio_preserved_exactly(self):
        d = make_data(np.linspace(0.5, 8, 40), [0] * 16 + [1] * 24)
        res = bootstrap(lambda sel: 1.0 - d.delta[sel].mean(), d, n_resamples=25, seed=1)
        assert res.mean == pytest.approx(0.4)
        assert res.std == pytest.approx(0.0, abs=1e-12)

    def test_seeded_reproducible(self):
        rng = np.random.default_rng(2)
        d = make_data(rng.uniform(0.5, 9, 60), rng.integers(0, 2, 60))
        f = lambda sel: float(d.time[sel].mean())
        a = bootstrap(f, d, n_resamples=20, seed=7)
        b = bootstrap(f, d, n_resamples=20, seed=7)
        assert a == b

    def test_metric_receives_row_indices(self):
        d = make_data(np.linspace(0.5, 8, 40), [0] * 16 + [1] * 24)
        seen = [[], []]
        for calls in seen:
            bootstrap(lambda sel: calls.append(sel) or 0.0, d, n_resamples=5, seed=3)
        assert len(seen[0]) == 5
        for sel, again in zip(*seen):
            assert sel.dtype.kind == "i" and sel.shape == (len(d),)
            assert np.all((sel >= 0) & (sel < len(d)))
            assert (d.delta[sel] == 0).sum() == 16
            assert np.array_equal(sel, again)

    def test_needs_two_resamples(self):
        d = make_data([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            bootstrap(lambda sel: 0.0, d, n_resamples=1)


def test_km_matches_statsmodels():
    survfunc = pytest.importorskip("statsmodels.duration.survfunc", reason="cross-check oracle")
    rng = np.random.default_rng(31)
    n = 200
    times = np.round(rng.exponential(2.0, n), 1) + 0.05
    deltas = rng.integers(0, 2, n)
    sf = survfunc.SurvfuncRight(times, deltas)
    km = kaplan_meier(times, deltas)
    assert np.max(np.abs(km.eval(sf.surv_times) - sf.surv_prob)) < 1e-12


class TestEvaluate:
    def test_report_fields_and_serialization(self):
        rng = np.random.default_rng(4)
        n = 60
        d = make_data(rng.uniform(0.3, 8, n), rng.integers(0, 2, n))
        if not (d.delta == 1).any():
            d.delta[0] = 1
        rep = evaluate(surv_from_values(rng.random(n)), d, n_resamples=10, seed=0)
        obj = rep.to_dict()
        assert 0.0 <= obj["c_index"] <= 1.0
        assert obj["ibs"] >= 0.0
        assert obj["c_index_bootstrap"]["std"] >= 0.0
        assert len(obj["brier_curve"]) > 0
        assert obj["n_bootstrap"] == 10

    def test_model_called_once_on_unique_event_times(self):
        rng = np.random.default_rng(4)
        n = 50
        d = make_data(np.round(rng.uniform(0.3, 8, n), 1), rng.integers(0, 2, n))
        calls = []
        values = surv_from_values(rng.random(n))

        def counting(x, ts):
            calls.append((x, ts))
            return values(x, ts)

        evaluate(counting, d, n_resamples=10, seed=0)
        assert len(calls) == 1
        x, ts = calls[0]
        assert x is d.x
        assert np.array_equal(ts, np.unique(d.time[d.delta == 1]))

    def test_bootstrap_matches_calling_the_model_per_resample(self):
        # crossing curves, so each resample's values depend on its own event times
        rng = np.random.default_rng(12)
        n = 40
        d = SurvivalData(rng.normal(size=(n, 2)), rng.uniform(0.3, 6, n),
                         rng.integers(0, 2, n), ["a", "b"])

        def fn(x, ts):
            return np.exp(-np.exp(x[:, :1]) * np.atleast_1d(ts)[None, :] ** np.exp(0.3 * x[:, 1:]))

        def c_ref(sel):
            dd = d[sel]
            t = unique_event_times(dd.time, dd.delta)
            return concordance(fn(dd.x, t), t, dd)[0]

        def ibs_ref(sel):
            dd = d[sel]
            t = unique_event_times(dd.time, dd.delta)
            return ibs(brier_curve(fn(dd.x, t), t, dd), t0=0.0, tmax=float(t[-1]))

        rep = evaluate(fn, d, n_resamples=15, seed=9)
        seq = np.random.SeedSequence(9).spawn(2)
        assert rep.c_index_bootstrap == bootstrap(c_ref, d, n_resamples=15, seed=seq[0])
        assert rep.ibs_bootstrap == bootstrap(ibs_ref, d, n_resamples=15, seed=seq[1])
