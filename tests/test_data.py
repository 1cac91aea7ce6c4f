import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fhtsurv.data import (
    LoadError,
    NonPhConfig,
    PreprocessError,
    PreprocessRecipe,
    SurvivalData,
    apply_preprocess,
    cv_folds,
    fit_preprocess,
    generate_nonph,
    interval_probs,
    load_csv,
    sample_subintervals,
    stratified_split,
    stratified_split_indices,
    subinterval_masses,
    write_csv,
)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_minimal_round_trip(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60,2.5,0\n")
        raw = load_csv(p)
        assert len(raw) == 2
        assert raw.feature_names == ["age"]
        assert list(raw.time) == [1.5, 2.5]
        assert list(raw.delta) == [1, 0]

    def test_missing_mandatory_column(self, tmp_path):
        p = write(tmp_path, "age,time\n50,1.5\n")
        with pytest.raises(LoadError, match="event"):
            load_csv(p)

    def test_event_outside_01(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,2\n")
        with pytest.raises(LoadError, match="event must be 0 or 1"):
            load_csv(p)

    def test_bad_time_reports_row(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60,zzz,0\n")
        with pytest.raises(LoadError, match="row 3"):
            load_csv(p)

    def test_nonpositive_time_rejected(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,0,1\n")
        with pytest.raises(LoadError, match="> 0"):
            load_csv(p)

    def test_quoted_categorical_with_commas(self, tmp_path):
        p = write(tmp_path, 'kind,time,event\n"big, bad",1.0,1\nsmall,2.0,0\n')
        raw = load_csv(p)
        assert raw.features["kind"] == ["big, bad", "small"]

    def test_missing_markers_recognized(self, tmp_path):
        p = write(tmp_path, "a,b,time,event\nNA,1.0,1.0,1\n?,2.0,2.0,0\n,3.0,3.0,1\n")
        raw = load_csv(p)
        assert raw.features["a"] == [None, None, None]


class TestPreprocess:
    def test_symmetric_column_mean_imputed(self, tmp_path):
        p = write(tmp_path, "v,time,event\n1,1,1\n2,1.5,1\n3,2,1\n,2.5,1\n")
        recipe = fit_preprocess(load_csv(p))
        col = recipe.columns[0]
        assert col.kind == "numeric"
        assert col.impute == pytest.approx(2.0)

    def test_skewed_column_median_imputed(self, tmp_path):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 20.0]
        rows = "".join(f"{v},1,1\n" for v in vals) + ",1,1\n"
        p = write(tmp_path, "v,time,event\n" + rows)
        raw = load_csv(p)
        skew = sps.skew(np.array(vals))
        assert abs(skew) > 1.0  # the oracle confirms the column is skewed
        recipe = fit_preprocess(raw)
        assert recipe.columns[0].impute == pytest.approx(np.median(vals))

    def test_standardization_on_training_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "".join(f"{v},{i % 3},{1 + i * 0.1},1\n" for i, v in enumerate(rng.normal(5, 3, 60)))
        p = write(tmp_path, "num,cat,time,event\n" + rows)
        raw = load_csv(p)
        recipe = fit_preprocess(raw)
        data = apply_preprocess(recipe, raw)
        assert np.allclose(data.x.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(data.x.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_dropped_with_warning(self, tmp_path):
        p = write(tmp_path, "c,v,time,event\n7,1,1,1\n7,2,2,1\n7,3,3,1\n")
        with pytest.warns(UserWarning, match="constant"):
            recipe = fit_preprocess(load_csv(p))
        assert [c.name for c in recipe.columns] == ["v"]

    def test_unseen_category_zero_block(self, tmp_path):
        p = write(tmp_path, "g,time,event\na,1,1\nb,2,1\na,3,1\n")
        raw = load_csv(p)
        recipe = fit_preprocess(raw)
        p2 = write(tmp_path, "g,time,event\nc,1,1\n", name="apply.csv")
        applied = apply_preprocess(recipe, load_csv(p2))
        tr = recipe.columns[0]
        # encoding is all zeros; scaling then shifts by the train statistics
        expected = (0.0 - np.asarray(tr.means)) / np.asarray(tr.stds)
        assert np.allclose(applied.x[0], expected)

    def test_mode_imputation_for_categoricals(self, tmp_path):
        p = write(tmp_path, "g,time,event\na,1,1\na,2,1\nb,3,1\n,4,1\n")
        raw = load_csv(p)
        recipe = fit_preprocess(raw)
        assert recipe.columns[0].impute == "a"

    def test_apply_rejects_garbage_in_numeric_column(self, tmp_path):
        p = write(tmp_path, "v,time,event\n1,1,1\n2,2,1\n")
        recipe = fit_preprocess(load_csv(p))
        p2 = write(tmp_path, "v,time,event\nnope,1,1\n", name="bad.csv")
        with pytest.raises(PreprocessError):
            apply_preprocess(recipe, load_csv(p2))

    def test_recipe_round_trip(self, tmp_path):
        p = write(tmp_path, "num,cat,time,event\n1,x,1,1\n2,y,2,0\n3,x,3,1\n")
        raw = load_csv(p)
        recipe = fit_preprocess(raw)
        clone = PreprocessRecipe.from_dict(recipe.to_dict())
        a = apply_preprocess(recipe, raw)
        b = apply_preprocess(clone, raw)
        assert np.array_equal(a.x, b.x)


class TestSurvivalData:
    @pytest.mark.parametrize("n_x, n_time, n_delta", [(5, 5, 4), (4, 5, 5), (5, 4, 5)])
    def test_length_mismatch_rejected(self, n_x, n_time, n_delta):
        with pytest.raises(ValueError, match=r"x \(.*time \(.*delta \("):
            SurvivalData(np.zeros((n_x, 2)), np.ones(n_time), np.ones(n_delta, dtype=int))

    def test_rows_select_a_dataset(self):
        d = SurvivalData(np.arange(6.0).reshape(3, 2), [1.0, 2.0, 3.0], [1, 0, 1], ["a", "b"])
        sub = d[np.array([2, 0])]
        assert np.array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
        assert list(sub.time) == [3.0, 1.0] and list(sub.delta) == [1, 1]
        with pytest.raises(ValueError):
            d[0]


class TestSplits:
    def test_spec_arithmetic(self):
        delta = np.array([0] * 40 + [1] * 60)
        d = SurvivalData(np.zeros((100, 1)), np.arange(1.0, 101.0), delta, ["f"])
        train, test = stratified_split(d, test_frac=0.2, seed=0)
        assert len(test) == 20
        assert int((test.delta == 0).sum()) == 8

    def test_partition_exact(self):
        rng = np.random.default_rng(1)
        d = SurvivalData(np.zeros((57, 1)), rng.uniform(0.5, 9, 57), rng.integers(0, 2, 57), ["f"])
        tr_idx, te_idx = stratified_split_indices(d.delta, 0.25, seed=3)
        assert np.array_equal(np.sort(np.concatenate([tr_idx, te_idx])), np.arange(57))

    def test_folds_partition(self):
        rng = np.random.default_rng(2)
        d = SurvivalData(np.zeros((83, 1)), rng.uniform(0.5, 9, 83), rng.integers(0, 2, 83), ["f"])
        folds = cv_folds(d, k=5, seed=1)
        assert sum(f.size for f in folds) == 83
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(83))
        sizes = sorted(f.size for f in folds)
        assert sizes[-1] - sizes[0] <= 2

    def test_fold_censoring_ratio_within_rounding(self):
        delta = np.array([0] * 30 + [1] * 70)
        d = SurvivalData(np.zeros((100, 1)), np.arange(1.0, 101.0), delta, ["f"])
        for f in cv_folds(d, k=5, seed=0):
            assert int((delta[f] == 0).sum()) == 6

    def test_seeded_reproducible(self):
        d = SurvivalData(np.zeros((40, 1)), np.arange(1.0, 41.0), np.tile([0, 1], 20), ["f"])
        a = stratified_split_indices(d.delta, 0.2, seed=9)
        b = stratified_split_indices(d.delta, 0.2, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestNonPh:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = interval_probs(rng.normal(size=(50, 20)), 16, 16.0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_beta_uniform(self):
        rng = np.random.default_rng(1)
        p = interval_probs(rng.normal(size=(20, 20)), 16, 0.0)
        assert np.allclose(p, 1.0 / 16.0, atol=1e-12)

    def test_subinterval_masses_conserve_probability(self):
        rng = np.random.default_rng(2)
        cfg = NonPhConfig()
        p = interval_probs(rng.normal(size=(10, 20)), cfg.n_intervals, cfg.beta)
        masses = subinterval_masses(p, cfg)
        assert np.allclose(masses.sum(axis=1), 1.0, atol=1e-12)

    def test_generated_shape_and_censoring_count(self):
        cfg = NonPhConfig(seed=5)
        d = generate_nonph(cfg)
        assert len(d) == 2400
        assert int((d.delta == 0).sum()) == 600  # round(0.25 * 2400)
        assert d.x.shape == (2400, 20)

    def test_times_in_range_and_positive(self):
        d = generate_nonph(NonPhConfig(seed=6, n_raw=3000, n_keep=1000))
        assert np.all(d.time > 0.0)
        assert np.all(d.time <= 10.0)
        assert np.all(d.time[d.delta == 1] < 10.0)

    def test_seeded_reproducible(self):
        a = generate_nonph(NonPhConfig(seed=7, n_raw=2000, n_keep=800))
        b = generate_nonph(NonPhConfig(seed=7, n_raw=2000, n_keep=800))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.time, b.time)

    def test_interval_frequencies_match_masses(self):
        # one fixed feature row, many draws: chi-square against the
        # generator's own sub-interval masses aggregated per coarse interval
        cfg = NonPhConfig(seed=0)
        rng = np.random.default_rng(11)
        row = rng.standard_normal((1, 20))
        probs = interval_probs(row, cfg.n_intervals, cfg.beta)
        masses = subinterval_masses(probs, cfg)
        n_draws = 100000
        tiled = np.tile(masses, (1000, 1))
        idx = np.concatenate([sample_subintervals(tiled, rng) for _ in range(n_draws // 1000)])
        # aggregate by coarse interval of the sub-interval lower bound
        sub_w = cfg.horizon / cfg.n_subintervals
        int_w = cfg.horizon / cfg.n_intervals
        coarse = np.minimum((idx * sub_w / int_w).astype(int), cfg.n_intervals - 1)
        observed = np.bincount(coarse, minlength=cfg.n_intervals)
        lows = (np.arange(cfg.n_subintervals) * sub_w / int_w).astype(int)
        expected_p = np.bincount(lows, weights=masses[0], minlength=cfg.n_intervals)
        keep = expected_p * n_draws >= 5
        chi2 = sps.chisquare(observed[keep], expected_p[keep] / expected_p[keep].sum() * observed[keep].sum())
        assert chi2.pvalue > 0.01

    def test_csv_round_trip(self, tmp_path):
        d = generate_nonph(NonPhConfig(seed=8, n_raw=500, n_keep=200))
        path = tmp_path / "nonph.csv"
        write_csv(d, str(path))
        raw = load_csv(str(path))
        assert len(raw) == 200
        assert np.array_equal(raw.delta, d.delta)
        assert np.allclose(raw.time, d.time)
        back = np.array([[float(v) for v in raw.features[c]] for c in raw.feature_names]).T
        assert np.allclose(back, d.x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NonPhConfig(n_keep=20000)
        with pytest.raises(ValueError):
            NonPhConfig(target_censoring=1.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_split_partition_property(n, seed):
    delta = np.resize([0, 1, 1, 1], n)
    tr, te = stratified_split_indices(delta, 0.2, seed=seed)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(n))
    assert abs(te.size - round(0.2 * n)) <= 1
