import csv
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fhtsurv import data
from fhtsurv.data import (
    HORIZON,
    MISSING_MARKERS,
    N_FEATURES,
    N_INTERVALS,
    N_SUBINTERVALS,
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
    stratified_split_indices,
    subinterval_masses,
    write_csv,
)
from fhtsurv.modelio import write_json_atomic


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_minimal_round_trip(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60,2.5,0\n")
        raw = load_csv(p)
        assert len(raw) == 2
        assert list(raw.columns) == ["age"]
        assert list(raw.time) == [1.5, 2.5]
        assert list(raw.delta) == [1, 0]

    @pytest.mark.parametrize("header", ["time,event,a", "a,time,event"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
        cells = {"time": ["1.5", "2.5", "4"], "event": ["1", "0", "1"], "a": ["x", "y", "x"]}
        names = header.split(",")
        text = "".join(",".join(row) + "\n" for row in [names, *zip(*(cells[c] for c in names))])
        plain = load_csv(write(tmp_path, text))
        marked_path = tmp_path / "marked.csv"
        marked_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        marked = load_csv(str(marked_path))
        assert list(marked.columns) == list(plain.columns) == ["a"]
        assert np.array_equal(marked.time, plain.time)
        assert np.array_equal(marked.delta, plain.delta)
        want = apply_preprocess(fit_preprocess(plain), plain).x
        for fitted_on, applied_to in ((plain, marked), (marked, plain)):
            assert np.array_equal(apply_preprocess(fit_preprocess(fitted_on), applied_to).x, want)

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
        col = load_csv(p).columns["kind"]
        assert col.labels() == ["big, bad", "small"]
        assert list(col.bad) == [True, True]

    def test_missing_markers_recognized(self, tmp_path):
        p = write(tmp_path, "a,b,time,event\nNA,1.0,1.0,1\n?,2.0,2.0,0\n,3.0,3.0,1\n")
        col = load_csv(p).columns["a"]
        assert col.labels() == [None, None, None]
        assert np.isnan(col.values).all() and not col.bad.any()

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(LoadError, match="empty file"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "age,time,event\n")
        with pytest.raises(LoadError, match="no data rows"):
            load_csv(p)

    def test_wrong_cell_count(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60,2.5\n")
        with pytest.raises(LoadError, match="row 3 has 2 cells, expected 3"):
            load_csv(p)

    def test_missing_time_cell(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60, NA ,0\n")
        with pytest.raises(LoadError, match="row 3, column 'time' is missing"):
            load_csv(p)

    def test_missing_event_cell(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,\n")
        with pytest.raises(LoadError, match="row 2, column 'event' is missing"):
            load_csv(p)

    def test_unparseable_event(self, tmp_path):
        p = write(tmp_path, "age,time,event\n50,1.5,1\n60,2.5,yes\n")
        with pytest.raises(LoadError, match="row 3, column 'event': unparseable event 'yes'"):
            load_csv(p)

    @pytest.mark.parametrize("text, message", [
        # a bad event in row 3 precedes the short row 4
        ("1,1,1\n2,1,x\n3\n", "row 3, column 'event'"),
        # a short row 3 precedes an infinite feature in row 4
        ("1,1,1\n2\ninf,1,1\n", "row 3 has 1 cells"),
        # within a row: time, then event, then the features
        ("inf,0,2\n", "row 2, column 'time'"),
        ("inf,1,2\n", "row 2, column 'event'"),
    ])
    def test_first_offending_row_in_file_order(self, tmp_path, text, message):
        p = write(tmp_path, "age,time,event\n" + text)
        with pytest.raises(LoadError, match=message):
            load_csv(p)

    def test_duplicate_column_rejected(self, tmp_path):
        p = write(tmp_path, "a,time,a,event\n1,1,2,1\n")
        with pytest.raises(LoadError, match="column 'a' appears more than once"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", " +inf "])
    def test_infinite_feature_cell_rejected(self, tmp_path, cell):
        p = write(tmp_path, f"g,v,time,event\na,1,1,1\nb,{cell},2,0\n")
        with pytest.raises(LoadError, match=r"row 3, column 'v': value must be finite"):
            load_csv(p)

    def test_infinity_spelled_label_stays_a_category(self, tmp_path):
        # a column with a text cell is categorical data; "inf" there is a label
        p = write(tmp_path, "g,v,time,event\ninf,1,1,1\nsup,2,2,0\n Inf ,3,3,1\n,4,4,1\n")
        recipe = fit_preprocess(load_csv(p))
        former = oracles.fit_preprocess(oracles.load_csv(p))
        assert recipe.to_dict() == former.to_dict()
        assert recipe.columns[0].categories == ("Inf", "inf", "sup")
        assert np.array_equal(apply_preprocess(recipe, load_csv(p)).x,
                              oracles.apply_preprocess(former, oracles.load_csv(p)).x)

    @pytest.mark.parametrize("cell", ["inf", "-nan"])
    def test_nonfinite_time_rejected(self, tmp_path, cell):
        p = write(tmp_path, f"v,time,event\n1,{cell},1\n")
        with pytest.raises(LoadError, match="row 2, column 'time': time must be finite and > 0"):
            load_csv(p)

    def test_nan_feature_cells_count_as_missing(self, tmp_path):
        p = write(tmp_path, "v,g,time,event\n1,a,1,1\n-nan,-NaN,2,1\n3,a,3,1\n+nan,b,4,1\n")
        raw = load_csv(p)
        assert raw.columns["g"].labels() == ["a", None, "a", "b"]
        recipe = fit_preprocess(raw)
        num, cat = recipe.columns
        assert num.kind == "numeric" and num.impute == 2.0
        assert cat.kind == "categorical" and cat.impute == "a"
        assert np.isfinite(apply_preprocess(recipe, raw).x).all()


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

    def test_numeric_on_the_fitted_rows_only(self, tmp_path):
        p = write(tmp_path, "v,time,event\n1,1,1\n2,2,1\noops,3,1\n4,4,1\n")
        raw = load_csv(p)
        assert fit_preprocess(raw).columns[0].kind == "categorical"
        recipe = fit_preprocess(raw.subset([0, 1, 3]))
        assert recipe.columns[0].kind == "numeric"
        with pytest.raises(PreprocessError, match="column 'v', row 4: expected a number, got 'oops'"):
            apply_preprocess(recipe, raw.subset([0, 2]))

    def test_infinity_in_a_column_numeric_on_the_fitted_rows(self, tmp_path):
        # the text cell keeps the load from rejecting "inf"; used as a number, it is
        p = write(tmp_path, "v,time,event\n1,1,1\ninf,2,1\noops,3,1\n4,4,1\n")
        raw = load_csv(p)
        with pytest.raises(PreprocessError, match="column 'v', row 3: expected a finite number, got 'inf'"):
            fit_preprocess(raw.subset([0, 1, 3]))
        recipe = fit_preprocess(raw.subset([0, 3]))
        with pytest.raises(PreprocessError, match="column 'v', row 3: expected a finite number"):
            apply_preprocess(recipe, raw.subset([0, 1]))

    def test_numeric_looking_cells_match_categories_as_text(self, tmp_path):
        p = write(tmp_path, "g,time,event\n1,1,1\n2,2,1\nx,3,1\n")
        recipe = fit_preprocess(load_csv(p))
        assert recipe.columns[0].categories == ("1", "2", "x")
        p2 = write(tmp_path, "g,time,event\n1.0,1,1\n 2 ,2,1\n", name="apply.csv")
        x = apply_preprocess(recipe, load_csv(p2)).x
        tr = recipe.columns[0]
        onehot = x * np.asarray(tr.stds) + np.asarray(tr.means)
        assert np.allclose(onehot, [[0, 0, 0], [0, 1, 0]])

    def test_recipe_round_trip(self, tmp_path):
        p = write(tmp_path, "num,cat,time,event\n1,x,1,1\n2,y,2,0\n3,x,3,1\n")
        raw = load_csv(p)
        recipe = fit_preprocess(raw)
        clone = PreprocessRecipe.from_dict(recipe.to_dict())
        a = apply_preprocess(recipe, raw)
        b = apply_preprocess(clone, raw)
        assert np.array_equal(a.x, b.x)


# The recipe file format, pinned: the recipe fitted on test_fitted_as_pinned's
# CSV, a numeric column (mean-imputed) and a categorical one (mode "a" by the
# smallest-label tie rule).  A renamed ColumnTransform field changes the file.
PINNED_RECIPE = """\
{
 "columns": [
  {
   "categories": [],
   "impute": 2.75,
   "kind": "numeric",
   "means": [
    2.75
   ],
   "name": "num",
   "out_names": [
    "num"
   ],
   "stds": [
    1.02469507659596
   ]
  },
  {
   "categories": [
    "a",
    "b"
   ],
   "impute": "a",
   "kind": "categorical",
   "means": [
    0.6,
    0.4
   ],
   "name": "cat",
   "out_names": [
    "cat=a",
    "cat=b"
   ],
   "stds": [
    0.48989794855663565,
    0.48989794855663565
   ]
  }
 ],
 "format": "fhtsurv-recipe",
 "version": 1
}
"""


class TestRecipeFileFormat:
    def test_read_then_written_unchanged(self, tmp_path):
        recipe = PreprocessRecipe.from_dict(json.loads(PINNED_RECIPE))
        assert isinstance(recipe.columns[1].categories, tuple)
        out = tmp_path / "recipe.json"
        write_json_atomic(out, recipe.to_dict())
        assert out.read_text() == PINNED_RECIPE

    def test_fitted_as_pinned(self, tmp_path):
        p = write(tmp_path, "num,cat,time,event\n1.5,a,1,1\n,b,2,0\n3.0,a,3,1\n4.5,,4,1\n"
                            "2.0,b,5,0\n")
        out = tmp_path / "recipe.json"
        write_json_atomic(out, fit_preprocess(load_csv(p)).to_dict())
        assert out.read_text() == PINNED_RECIPE

    def test_applied_values_pinned(self, tmp_path):
        # missing cells take the imputed values; the unseen label "z" is an
        # all-zero one-hot block
        recipe = PreprocessRecipe.from_dict(json.loads(PINNED_RECIPE))
        p = write(tmp_path, "num,cat,time,event\n2.5,b,1,1\nNA,z,2,0\n-1,?,3,1\n")
        x = apply_preprocess(recipe, load_csv(p)).x
        assert x.tolist() == [
            [-0.24397501823713327, -1.224744871391589, 1.224744871391589],
            [0.0, -1.224744871391589, -0.816496580927726],
            [-3.659625273556999, 0.816496580927726, -0.816496580927726],
        ]


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected(self, bad):
        x = np.zeros((3, 2))
        x[1, 1] = bad
        with pytest.raises(ValueError, match=rf"features must be finite, got {bad} at index 1, "
                                             r"column 'b'"):
            SurvivalData(x, [1.0, 2.0, 3.0], [1, 1, 1], ["a", "b"])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"times must be finite and > 0, got {bad} at index 1"):
            SurvivalData(np.zeros((3, 1)), [1.0, bad, 2.0], [1, 1, 1])


class TestSplits:
    def test_spec_arithmetic(self):
        delta = np.array([0] * 40 + [1] * 60)
        d = SurvivalData(np.zeros((100, 1)), np.arange(1.0, 101.0), delta, ["f"])
        test = d[stratified_split_indices(d.delta, test_frac=0.2, seed=0)[1]]
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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_folds_deal_each_stratum_in_turn(self, k):
        # reference: record i of a stratum's permutation goes to fold i mod k
        rng = np.random.default_rng(4)
        d = SurvivalData(np.zeros((57, 1)), rng.uniform(0.5, 9, 57), rng.integers(0, 2, 57), ["f"])
        draw = np.random.default_rng(11)
        ref = [[] for _ in range(k)]
        for group in (np.flatnonzero(d.delta == 0), np.flatnonzero(d.delta == 1)):
            for i, idx in enumerate(draw.permutation(group)):
                ref[i % k].append(int(idx))
        folds = cv_folds(d, k=k, seed=11)
        assert all(f.dtype == np.int64 for f in folds)
        assert [f.tolist() for f in folds] == [sorted(f) for f in ref]

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
        p = interval_probs(rng.normal(size=(50, 20)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_beta_uniform(self):
        # equal features give uniform masses, as a zero beta would
        rng = np.random.default_rng(1)
        features = np.repeat(rng.normal(size=(20, 1)), N_FEATURES, axis=1)
        p = interval_probs(features)
        assert np.allclose(p, 1.0 / N_INTERVALS, atol=1e-12)

    def test_subinterval_masses_conserve_probability(self):
        rng = np.random.default_rng(2)
        masses = subinterval_masses(interval_probs(rng.normal(size=(10, 20))))
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
        rng = np.random.default_rng(11)
        row = rng.standard_normal((1, 20))
        probs = interval_probs(row)
        masses = subinterval_masses(probs)
        n_draws = 100000
        idx = sample_subintervals(np.repeat(probs, n_draws, axis=0), rng.random(n_draws))
        # aggregate by coarse interval of the sub-interval lower bound
        sub_w = HORIZON / N_SUBINTERVALS
        int_w = HORIZON / N_INTERVALS
        coarse = np.minimum((idx * sub_w / int_w).astype(int), N_INTERVALS - 1)
        observed = np.bincount(coarse, minlength=N_INTERVALS)
        lows = (np.arange(N_SUBINTERVALS) * sub_w / int_w).astype(int)
        expected_p = np.bincount(lows, weights=masses[0], minlength=N_INTERVALS)
        keep = expected_p * n_draws >= 5
        chi2 = sps.chisquare(observed[keep], expected_p[keep] / expected_p[keep].sum() * observed[keep].sum())
        assert chi2.pvalue > 0.01

    @pytest.mark.parametrize("n_raw", [1, 255, 256, 257, 1500, 10000])
    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_same_records_as_whole_matrix_sampler(self, n_raw, seed):
        cfg = NonPhConfig(n_raw=n_raw, n_keep=(n_raw + 3) // 4, seed=seed)
        got, want = generate_nonph(cfg), oracles.generate_nonph(cfg)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.time, want.time)
        assert np.array_equal(got.delta, want.delta)

    def test_memory_linear_in_raw_records(self):
        # the whole-matrix sampler held every record's sub-interval masses,
        # their cumsum and a comparison at once: 172 MB under tracemalloc at
        # the default 10,000 raw records and 17 kB per added record; the
        # row-blocked one 7.3 MB and 0.5 kB
        def peak(n_raw):
            tracemalloc.start()
            try:
                generate_nonph(NonPhConfig(n_raw=n_raw))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(10_000)
        assert small < 16e6
        assert (peak(40_000) - small) / 30_000 < 1e3

    def test_csv_round_trip(self, tmp_path):
        d = generate_nonph(NonPhConfig(seed=8, n_raw=500, n_keep=200))
        path = tmp_path / "nonph.csv"
        write_csv(d, str(path))
        raw = load_csv(str(path))
        assert len(raw) == 200
        assert np.array_equal(raw.delta, d.delta)
        assert np.allclose(raw.time, d.time)
        back = np.column_stack([raw.columns[c].values for c in raw.columns])
        assert np.array_equal(back, d.x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NonPhConfig(n_keep=20000)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_split_partition_property(n, seed):
    delta = np.resize([0, 1, 1, 1], n)
    tr, te = stratified_split_indices(delta, 0.2, seed=seed)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(n))
    assert abs(te.size - round(0.2 * n)) <= 1


# ----------------------------------------------------------------------
# the column-wise loader against the former per-cell one (tests/oracles.py)

# "\x1f" is whitespace to str.strip() but not to float()
PADDED = st.tuples(st.sampled_from(["", " ", "\t", "\x1f"]), st.sampled_from(["", "  ", "\x1f"]))


def padded(text):
    return st.tuples(text, PADDED).map(lambda t: t[1][0] + t[0] + t[1][1])


MISSING = st.sampled_from(sorted(MISSING_MARKERS)).flatmap(
    lambda m: st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in m]).map("".join)
)
NUMBER = padded(st.one_of(
    st.integers(-50, 50).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
))
LABEL = st.sampled_from(["a", "b", "big, bad", 'say "hi"', " c "])
NUMERIC_LABEL = st.sampled_from(["1", "2", "1.0", " 2 ", "x"])
COLUMN_CELLS = {
    "numeric": st.one_of(NUMBER, NUMBER, MISSING),
    "categorical": st.one_of(LABEL, MISSING),
    "numeric-looking": st.one_of(NUMERIC_LABEL, MISSING),
    "all-missing": MISSING,
    "one bad cell": st.one_of(NUMBER, MISSING),
}


@st.composite
def csv_cases(draw):
    """A survival CSV as text, the rows the recipe is fitted on and the rest,
    and the rows ``load_csv`` reads at a time; a few cases carry a load error
    or a short row."""
    n = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), max_size=4))
    names = [f" f{j}" if j % 2 else f"f{j}" for j in range(len(kinds))]
    header = draw(st.permutations(names + ["time", "event"]))
    columns = {name: [draw(COLUMN_CELLS[kind]) for _ in range(n)]
               for name, kind in zip(names, kinds)}
    for name, kind in zip(names, kinds):
        if kind == "one bad cell":
            columns[name][draw(st.integers(0, n - 1))] = "oops"
    columns["time"] = [draw(padded(st.floats(0.01, 100.0).map(repr))) for _ in range(n)]
    columns["event"] = [draw(padded(st.sampled_from(["0", "1", "1.0", "0.0"]))) for _ in range(n)]
    rows = [[columns[h][i] for h in header] for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["time", "event", "width"]))
        if fault == "width":
            rows[i] = rows[i][:-1]
        else:
            cell = st.one_of(MISSING, st.sampled_from(["zzz", "2"] if fault == "event" else ["zzz"]))
            rows[i][header.index(fault)] = draw(cell)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    test_rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    train_rows = [i for i in range(n) if i not in test_rows]
    read_rows = draw(st.integers(1, 4))  # small read blocks put faults at block edges
    return buf.getvalue(), np.array(train_rows), np.array(sorted(test_rows)), read_rows


def _outcome(load, fit, apply, path, train_rows, test_rows):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = None  # the subset in use, whose positions an error may name
        try:
            raw = load(path)
            rows = train_rows
            recipe = fit(raw.subset(rows))
            encoded = []
            for rows in (train_rows, test_rows):
                encoded.append(apply(recipe, raw.subset(rows)))
        except (LoadError, PreprocessError) as exc:
            return {"error": (type(exc), str(exc)), "subset": rows}
    return {
        "recipe": recipe.to_dict(),
        "encoded": [(d.x, d.time, d.delta, d.feature_names) for d in encoded],
        "warnings": [str(w.message) for w in caught],
    }


@settings(max_examples=400, deadline=None)
@given(csv_cases())
def test_loader_matches_the_former_per_cell_code(case):
    text, train_rows, test_rows, read_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(data, "_READ_ROWS", read_rows):
            got = _outcome(load_csv, fit_preprocess, apply_preprocess, path, train_rows, test_rows)
        want = _outcome(oracles.load_csv, oracles.fit_preprocess, oracles.apply_preprocess,
                        path, train_rows, test_rows)
    assert got.keys() == want.keys()
    if "error" in want:
        kind, message = want["error"]
        if kind is PreprocessError:
            # the former code named a row by its position in the subset; the
            # loader names the file row (header = row 1)
            message = re.sub(r"row (\d+)",
                             lambda m: f"row {want['subset'][int(m[1]) - 1] + 2}", message)
        assert got["error"] == (kind, message)
        return
    assert got["recipe"] == want["recipe"]
    assert got["warnings"] == want["warnings"]
    for (x, t, d, names), (x0, t0, d0, names0) in zip(got["encoded"], want["encoded"]):
        assert np.array_equal(x, x0) and np.array_equal(t, t0) and np.array_equal(d, d0)
        assert names == names0
