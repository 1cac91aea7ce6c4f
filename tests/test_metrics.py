import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv import metrics
from fhtsurv.data import SurvivalData
from fhtsurv.metrics import (
    MetricUndefinedError,
    bootstrap,
    concordance,
    evaluate,
    ibs,
    kaplan_meier,
    km_censoring,
)
from fhtsurv.cox import fit_cox
from fhtsurv.training import ModelConfig, brier_terms, fit, unique_event_times

import oracles


def make_data(times, deltas):
    """Records whose one feature is their position, so that a model can
    read each record's values by its row of ``x``."""
    times = np.asarray(times, dtype=float)
    return SurvivalData(np.arange(times.size, dtype=float)[:, None], times,
                        np.asarray(deltas), ["id"])


def surv_from_values(values):
    """Time-constant survival ``values[i]`` for the record with id i."""
    values = np.asarray(values, dtype=float)

    def fn(x, ts):
        return np.tile(values[x[:, 0].astype(int), None], (1, np.atleast_1d(ts).size))

    return fn


def crossing_model(x, ts):
    """Survival curves that cross, rounded so that predictions tie."""
    ts = np.atleast_1d(ts)[None, :]
    return np.round(np.exp(-np.exp(x[:, :1]) * ts ** np.exp(0.5 * x[:, 1:])), 2)


def cindex(values, d):
    """Concordance of time-constant predictions."""
    return concordance(surv_from_values(values), d)[0]


def cindex_counted(surv, times, d, counts):
    """Concordance and comparable pairs of the matrix ``surv`` on the sorted
    ``times`` (holding every event time), each record counted ``counts`` times."""
    order = np.argsort(d.time, kind="stable")
    row = np.asarray(counts, dtype=float)[None, order]
    time, anchors = d.time[order], np.flatnonzero(d.delta[order] == 1)
    pairs = metrics._concordant_pairs(surv[order], times, time, row, anchors)
    value, n_comp = metrics._concordance_from_pairs(pairs, time, row, anchors,
                                                    km_censoring(d[order], row))
    return float(value[0]), int(n_comp[0])


def brier_counted(surv, times, d, counts=None):
    """IPCW Brier values of the matrix ``surv`` at any ``times``, each record
    counted ``counts`` times (once by default)."""
    row = np.ones((1, len(d))) if counts is None else np.asarray(counts, dtype=float)[None, :]
    g = km_censoring(d, row)
    event_w = row * (d.delta == 1) * metrics._inverse(g.eval_left(d.time))
    return metrics._brier_values(surv, np.asarray(times, dtype=float), d.time, row, event_w, g)[0]


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

        def surv_fn(x, ts):
            return np.exp(-slopes[:, None] * ts[None, :] ** scales[:, None])

        d = make_data(times, deltas)
        ref = oracles.cindex_bruteforce(s_of, list(times), list(deltas))
        assert abs(concordance(surv_fn, d)[0] - ref) < 1e-12

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

    def test_censoring_curve_positive_at_counted_anchors(self):
        # an event record is at risk at every censoring time before its own,
        # so no pair anchored at a counted event loses its IPCW weight; tied
        # and censored times, the latest record often censored, and bootstrap
        # count rows that leave anchors undrawn
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            d = make_data(np.round(rng.uniform(0.1, 4.0, n), 1), rng.integers(0, 2, n))
            d.delta[0] = 1
            if trial % 2:
                d.delta[np.argmax(d.time)] = 0
            counts = np.vstack([np.ones(n), bootstrap(d, n_resamples=30, seed=trial)])
            ev = d.delta == 1
            g_left = km_censoring(d, counts).eval_left(d.time[ev])
            assert np.all(g_left[counts[:, ev] > 0] > 0.0)


class TestBrierCurve:
    def test_uninformative_quarter(self):
        d = make_data(np.linspace(1, 5, 9), np.ones(9, dtype=int))
        values = brier_counted(np.full((9, 3), 0.5), [1.0, 2.5, 4.9], d)
        assert np.allclose(values, 0.25, atol=1e-12)

    def test_oracle_step_predictor_zero(self):
        times = np.array([1.0, 2.0, 3.0])
        d = make_data(times, np.ones(3, dtype=int))

        grid = np.array([0.5, 1.5, 2.5])
        values = brier_counted((times[:, None] > grid[None, :]).astype(float), grid, d)
        assert np.allclose(values, 0.0)

    def test_hand_value_with_censoring(self):
        times = [1.0, 2.0, 3.0]
        deltas = [1, 0, 1]
        vals = [0.3, 0.6, 0.8]
        d = make_data(times, deltas)
        for t in (1.5, 2.5):
            ref = oracles.brier_ref(lambda j, u: vals[j], times, deltas, t)
            ours = brier_counted(np.array(vals)[:, None], [t], d)[0]
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_unweighted_matches_loss_summands(self):
        # without censoring G = 1 everywhere, so the IPCW curve is the
        # unweighted per-time summand of the training loss
        rng = np.random.default_rng(3)
        n = 25
        d = make_data(rng.uniform(0.3, 6, n), np.ones(n, dtype=int))
        grid = unique_event_times(d.time, d.delta)
        surv = rng.random((n, grid.size))
        past_event = d.time[:, None] <= grid
        per_time = (past_event * surv**2 + ~past_event * (1 - surv) ** 2).sum(axis=0) / n
        loss, _ = brier_terms(surv, grid, d.time, d.delta)
        assert loss == pytest.approx(per_time.mean(), rel=1e-12)
        assert np.allclose(brier_counted(surv, grid, d), per_time, atol=1e-12)


class TestIbs:
    def test_constant_curve(self):
        assert ibs(np.array([0.0, 1.0]), np.array([0.25, 0.25])) == pytest.approx(0.25)

    def test_linear_curve(self):
        assert ibs(np.array([0.0, 1.0]), np.array([0.0, 0.5])) == pytest.approx(0.25)

    def test_window_extension_constant(self):
        # [0, 1] at the first value 0.1, then linear from 0.1 to 0.3 on [1, 2]
        v = ibs(np.array([1.0, 2.0]), np.array([0.1, 0.3]))
        assert v == pytest.approx((0.1 + 0.2) / 2.0, rel=1e-15)

    def test_trapezoid_from_zero_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            t = np.unique(rng.uniform(1e-3, 10.0, n))
            v = rng.uniform(0.0, 0.5, t.size)
            want = np.trapezoid([v[0], *v], [0, *t]) / t[-1]
            assert ibs(t, v) == want

    def test_bounds(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 0.5, 12)
        v = ibs(np.sort(rng.uniform(0.1, 5, 12)), vals)
        assert 0.0 <= v <= vals.max() + 1e-12


class TestBootstrap:
    def test_constant_metric_zero_std(self):
        # every resample has the original size, so a count-weighted mean of a
        # constant is that constant on every row
        d = make_data(np.linspace(0.5, 8, 40), [0] * 16 + [1] * 24)
        counts = bootstrap(d, n_resamples=10, seed=0)
        assert np.all(counts.sum(axis=1) == len(d))
        values = counts @ np.full(len(d), 1.23) / len(d)
        assert np.allclose(values, 1.23, rtol=1e-15)
        assert values.std(ddof=1) == pytest.approx(0.0, abs=1e-15)

    def test_censoring_ratio_preserved_exactly(self):
        d = make_data(np.linspace(0.5, 8, 40), [0] * 16 + [1] * 24)
        counts = bootstrap(d, n_resamples=25, seed=1)
        assert counts.shape == (25, 40)
        assert np.all(counts[:, d.delta == 0].sum(axis=1) == 16)
        assert np.all(counts[:, d.delta == 1].sum(axis=1) == 24)

    def test_seeded_reproducible(self):
        rng = np.random.default_rng(2)
        d = make_data(rng.uniform(0.5, 9, 60), rng.integers(0, 2, 60))
        a = bootstrap(d, n_resamples=20, seed=7)
        b = bootstrap(d, n_resamples=20, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, bootstrap(d, n_resamples=20, seed=8))

    @pytest.mark.parametrize("deltas", [[0] * 16 + [1] * 24, [1] * 40, [0] * 40],
                             ids=["mixed", "no-censoring", "all-censored"])
    def test_counts_are_bincounts_of_the_former_draws(self, deltas):
        # the random stream is the former rng.choice one, draw for draw
        d = make_data(np.linspace(0.5, 8, 40), deltas)
        seen = []
        oracles.bootstrap(lambda sel: seen.append(sel) or 0.0, d, n_resamples=5, seed=3)
        counts = bootstrap(d, n_resamples=5, seed=3)
        assert counts.dtype.kind == "i"
        assert np.array_equal(counts, [np.bincount(sel, minlength=len(d)) for sel in seen])

    def test_needs_two_resamples(self):
        d = make_data([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            bootstrap(d, n_resamples=1)


class TestRowCounts:
    """Counting a record c times equals copying its row c times."""

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        n = 30
        d = SurvivalData(rng.normal(size=(n, 2)), np.round(rng.uniform(0.3, 6, n), 1),
                         rng.integers(0, 2, n), ["a", "b"])
        d.delta[0] = 1
        counts = rng.integers(0, 4, size=(6, n))
        counts[:, 0] = 1
        times = unique_event_times(d.time, d.delta)
        return d, counts, times, crossing_model(d.x, times)

    @pytest.mark.parametrize("seed", range(5))
    def test_estimators_match_copied_rows(self, seed):
        d, counts, times, surv = self.case(seed)
        probe = np.concatenate([times, times + 0.05, [0.0]])
        for row in counts:
            sel = np.repeat(np.arange(len(d)), row)
            dd = d[sel]
            km, ref = km_censoring(d, row), oracles.km_censoring(dd)
            assert np.array_equal(km.eval(probe), ref.eval(probe))
            assert np.array_equal(km.eval_left(probe), ref.eval_left(probe))
            value, n_comp = cindex_counted(surv, times, d, row)
            ref_value, ref_comp, ref_excl = oracles.concordance(surv[sel], times, dd)
            assert abs(value - ref_value) <= 1e-12
            assert (n_comp, ref_excl) == (ref_comp, 0)
            got = brier_counted(surv, times, d, row)
            assert np.max(np.abs(got - oracles.brier_curve(surv[sel], times, dd).values)) <= 1e-12

    def test_count_matrix_gives_one_censoring_curve_per_row(self):
        d, counts, times, _ = self.case(7)
        km = km_censoring(d, counts)
        probe = np.concatenate([times, times + 0.05, [0.0]])
        for r, row in enumerate(counts):
            assert np.array_equal(km.eval(probe)[r], km_censoring(d, row).eval(probe))
            assert np.array_equal(km.eval_left(probe)[r], km_censoring(d, row).eval_left(probe))

    def test_all_ones_is_the_data_as_given(self):
        d, _, times, surv = self.case(3)
        ones = np.ones(len(d), dtype=int)
        assert cindex_counted(surv, times, d, ones) == concordance(crossing_model, d)
        # evaluate's row of ones shares its matrix products with the resample
        # rows, which can change the summation order in the last bit
        rep = evaluate(crossing_model, d, n_resamples=2, seed=0)
        values = [v for _, v in rep["brier_curve"]]
        assert np.max(np.abs(brier_counted(surv, times, d, ones) - values)) <= 1e-15


def test_km_matches_statsmodels():
    survfunc = pytest.importorskip("statsmodels.duration.survfunc", reason="cross-check oracle")
    rng = np.random.default_rng(31)
    n = 200
    times = np.round(rng.exponential(2.0, n), 1) + 0.05
    deltas = rng.integers(0, 2, n)
    sf = survfunc.SurvfuncRight(times, deltas)
    km = kaplan_meier(times, deltas)
    assert np.max(np.abs(km.eval(sf.surv_times) - sf.surv_prob)) < 1e-12


def report_floats(obj):
    return [obj["c_index"], obj["ibs"], *obj["c_index_bootstrap"].values(),
            *obj["ibs_bootstrap"].values(), *(v for _, v in obj["brier_curve"])]


class TestEvaluate:
    def test_report_fields_and_serialization(self):
        rng = np.random.default_rng(4)
        n = 60
        d = make_data(rng.uniform(0.3, 8, n), rng.integers(0, 2, n))
        if not (d.delta == 1).any():
            d.delta[0] = 1
        obj = evaluate(surv_from_values(rng.random(n)), d, n_resamples=10, seed=0)
        assert json.loads(json.dumps(obj)) == obj
        assert 0.0 <= obj["c_index"] <= 1.0
        assert obj["ibs"] >= 0.0
        assert obj["c_index_bootstrap"]["std"] >= 0.0
        assert len(obj["brier_curve"]) > 0
        assert obj["n_bootstrap"] == 10

    def test_model_called_once_on_unique_event_times(self, monkeypatch):
        # each event time is asked for once, for the rows of x in time order:
        # the calls tile the sorted unique event times in blocks of
        # max(1, _BLOCK_ELEMS // n) columns, one block at the default size
        rng = np.random.default_rng(4)
        n = 50
        d = make_data(np.round(rng.uniform(0.3, 8, n), 1), rng.integers(0, 2, n))
        times = np.unique(d.time[d.delta == 1])
        values = surv_from_values(rng.random(n))
        default = metrics._BLOCK_ELEMS
        for block_elems in (default, 50, 120):
            monkeypatch.setattr(metrics, "_BLOCK_ELEMS", block_elems)
            calls = []

            def counting(x, ts):
                calls.append((x, ts))
                return values(x, ts)

            evaluate(counting, d, n_resamples=10, seed=0)
            by_time = d.x[np.argsort(d.time, kind="stable")]
            assert all(np.array_equal(x, by_time) for x, _ in calls)
            assert np.array_equal(np.concatenate([ts for _, ts in calls]), times)
            width = max(1, block_elems // n)
            assert [ts.size for _, ts in calls[:-1]] == [width] * (len(calls) - 1)
            assert len(calls) == (1 if block_elems == default else -(-times.size // width))

    @pytest.mark.parametrize("kind", ["invgauss", "cox"])
    def test_report_does_not_depend_on_row_order(self, kind):
        # 479 records with distinct times, a shuffled copy of them, and a
        # fitted model of each family: the point estimates read the records
        # in time order, so they are equal to the bit.  The bootstrap spreads
        # are left out, as bootstrap deals its draws to records in file order.
        rng = np.random.default_rng(21)
        n = 479
        x = rng.normal(size=(n, 4))
        time = rng.exponential(np.exp(-0.5 * x[:, 0] + 0.3 * x[:, 1])) + 0.01
        d = SurvivalData(x, time, (rng.random(n) < 0.75).astype(np.int64), list("abcd"))
        assert np.unique(d.time).size == n
        if kind == "cox":
            model = fit_cox(d)
        else:
            model = fit(d, ModelConfig(kind, (8, 8), epochs=3, batch_size=64), seed=2)
        keys = ("c_index", "n_comparable_pairs", "brier_curve", "ibs")
        want = evaluate(model.survival_matrix, d, n_resamples=2, seed=0)
        got = evaluate(model.survival_matrix, d[rng.permutation(n)], n_resamples=2, seed=0)
        assert [got[k] for k in keys] == [want[k] for k in keys]

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
            return oracles.concordance(fn(dd.x, t), t, dd)[0]

        def ibs_ref(sel):
            dd = d[sel]
            t = unique_event_times(dd.time, dd.delta)
            return oracles.ibs(oracles.brier_curve(fn(dd.x, t), t, dd))

        # both spreads read the resamples of the first child stream of the seed
        rep = evaluate(fn, d, n_resamples=15, seed=9)
        stream = np.random.SeedSequence(9).spawn(1)[0]
        for got, want in ((rep["c_index_bootstrap"], oracles.bootstrap(c_ref, d, 15, stream)),
                          (rep["ibs_bootstrap"], oracles.bootstrap(ibs_ref, d, 15, stream))):
            assert abs(got["mean"] - want["mean"]) <= 1e-12
            assert abs(got["std"] - want["std"]) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_former_evaluation(self, draw):
        # tied times, tied (rounded) predictions, crossing curves, and the
        # latest record often censored, so that a resample's censoring curve
        # can reach zero before event times it did not draw
        n = draw.draw(st.integers(2, 40), label="n")
        seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        times = np.round(rng.uniform(0.1, 4.0, n), draw.draw(st.integers(0, 2), label="decimals"))
        times = np.maximum(times, 0.1)
        deltas = rng.integers(0, 2, n)
        deltas[0] = 1
        if draw.draw(st.booleans(), label="latest censored"):
            deltas[np.argmax(times)] = 0
        d = SurvivalData(rng.normal(size=(n, 2)), times, deltas, ["a", "b"])
        resamples = draw.draw(st.integers(2, 6), label="resamples")
        block_elems = draw.draw(st.sampled_from([1, 7, 64, metrics._BLOCK_ELEMS]), label="block")
        try:
            want = oracles.evaluate(crossing_model, d, n_resamples=resamples, seed=seed)
        except MetricUndefinedError as exc:
            with pytest.raises(MetricUndefinedError, match=str(exc)):
                evaluate(crossing_model, d, n_resamples=resamples, seed=seed)
            return
        original = metrics._BLOCK_ELEMS
        metrics._BLOCK_ELEMS = block_elems
        try:
            got = evaluate(crossing_model, d, n_resamples=resamples, seed=seed)
        finally:
            metrics._BLOCK_ELEMS = original
        assert got.keys() == want.keys()
        for key in ("n_comparable_pairs", "n_bootstrap"):
            assert got[key] == want[key]
        assert [t for t, _ in got["brier_curve"]] == [t for t, _ in want["brier_curve"]]
        assert np.max(np.abs(np.subtract(report_floats(got), report_floats(want)))) <= 1e-12

    def test_one_set_of_resamples_and_one_censoring_fit(self, monkeypatch):
        # concordance and the Brier curve read the same resamples, weighted by
        # the same censoring curves
        rng = np.random.default_rng(5)
        n = 30
        d = make_data(rng.uniform(0.3, 8, n), rng.integers(0, 2, n))
        d.delta[0] = 1
        calls = []

        def counted(name):
            fn = getattr(metrics, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("bootstrap", "km_censoring"):
            monkeypatch.setattr(metrics, name, counted(name))
        evaluate(surv_from_values(rng.random(n)), d, n_resamples=5, seed=0)
        assert sorted(calls) == ["bootstrap", "km_censoring"]
        calls.clear()
        concordance(surv_from_values(rng.random(n)), d)
        assert calls == ["km_censoring"]

    def test_resample_count_checked_before_the_model_runs(self):
        d = make_data([1.0, 2.0, 3.0], [1, 0, 1])

        def must_not_run(x, ts):
            raise AssertionError("evaluate called the model before checking n_resamples")

        with pytest.raises(ValueError, match="n_resamples must be >= 2"):
            evaluate(must_not_run, d, n_resamples=1)

    def test_memory_linear_in_records(self):
        # 5,000 records with 4,023 distinct event times: the former evaluation,
        # which held (records x event times) matrices, peaked at 684 MB here
        # under tracemalloc, the column-blocked one at 12 MB
        rng = np.random.default_rng(8)
        n = 5_000
        d = SurvivalData(rng.normal(size=(n, 2)), rng.uniform(0.1, 9.0, n),
                         (rng.random(n) < 0.8).astype(np.int64), ["a", "b"])
        tracemalloc.start()
        try:
            evaluate(crossing_model, d, n_resamples=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
