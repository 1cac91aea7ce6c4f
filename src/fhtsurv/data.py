"""Dataset ingestion, preprocessing, splits, and the synthetic NonPH generator.

CSV schema: a header row with a ``time`` column (positive reals), an
``event`` column (0 = censored, 1 = observed), and any number of feature
columns.  Cells equal to one of the missing markers ("", "NA", "NaN", "?",
"null", "None", case-insensitive where sensible) are treated as missing.

Preprocessing, fitted on training rows only: numeric columns are imputed
with the mean when |sample skewness| <= 1 and the median otherwise;
categorical columns are imputed with the mode (lexicographically smallest
on ties) and one-hot encoded over the categories seen at fit time, a value
unseen at apply time encoding as an all-zero block; finally every surviving
column is standardized to train mean 0 / std 1.  Constant columns are
dropped with a warning.

The NonPH generator draws i.i.d. standard-normal features, builds for each
subject a piecewise-constant event density over equal time intervals whose
masses come from a softmax over the leading features, samples one of the
fine sub-intervals of the horizon by that density (taking its lower bound
as the event time), censors at the horizon when the open tail is drawn,
then applies extra random censoring up to the target ratio and subsamples
to the requested size preserving that ratio.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

MISSING_MARKERS = {"", "na", "nan", "n/a", "?", "null", "none"}


class LoadError(ValueError):
    pass


class PreprocessError(ValueError):
    pass


@dataclass
class SurvivalData:
    """Column store of encoded survival records."""

    x: np.ndarray
    time: np.ndarray
    delta: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.time = np.asarray(self.time, dtype=np.float64)
        self.delta = np.asarray(self.delta, dtype=np.int64)
        if (
            self.x.ndim != 2
            or self.x.shape[0] != self.time.size
            or self.delta.size != self.time.size
        ):
            raise ValueError(
                f"inconsistent array shapes: x {self.x.shape}, time {self.time.shape}, "
                f"delta {self.delta.shape}"
            )
        if not np.all(self.time > 0.0):
            raise ValueError("times must be > 0")
        if not np.all((self.delta == 0) | (self.delta == 1)):
            raise ValueError("event indicator must be 0 or 1")

    def __len__(self):
        return self.time.size

    def __getitem__(self, idx):
        """Rows selected by an index array, slice or mask, as a new dataset."""
        return SurvivalData(self.x[idx], self.time[idx], self.delta[idx], self.feature_names)


@dataclass
class RawDataset:
    """Parsed time/event plus raw (string) feature columns."""

    time: np.ndarray
    delta: np.ndarray
    features: dict
    feature_names: list

    def __len__(self):
        return self.time.size

    def subset(self, idx) -> "RawDataset":
        idx = np.asarray(idx)
        return RawDataset(
            time=self.time[idx],
            delta=self.delta[idx],
            features={c: [self.features[c][i] for i in idx] for c in self.feature_names},
            feature_names=list(self.feature_names),
        )


def _clean_cell(value):
    if value is None or value.strip().lower() in MISSING_MARKERS:
        return None
    return value.strip()


def load_csv(path) -> RawDataset:
    """Read a survival CSV; raises LoadError naming the offending row/column.

    The ``time`` and ``event`` columns are mandatory; every other column is
    a feature.
    """
    time_col, event_col = "time", "event"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in (time_col, event_col):
            if col not in header:
                raise LoadError(f"{path}: missing mandatory column '{col}'")
        feature_names = [h for h in header if h not in (time_col, event_col)]
        pos = {h: i for i, h in enumerate(header)}
        times, deltas = [], []
        features = {c: [] for c in feature_names}
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise LoadError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            raw_t = _clean_cell(row[pos[time_col]])
            if raw_t is None:
                raise LoadError(f"{path}: row {row_no}, column '{time_col}' is missing")
            try:
                t = float(raw_t)
            except ValueError:
                raise LoadError(
                    f"{path}: row {row_no}, column '{time_col}': unparseable time {raw_t!r}"
                ) from None
            if not np.isfinite(t) or t <= 0.0:
                raise LoadError(f"{path}: row {row_no}, column '{time_col}': time must be > 0")
            raw_e = _clean_cell(row[pos[event_col]])
            if raw_e is None:
                raise LoadError(f"{path}: row {row_no}, column '{event_col}' is missing")
            try:
                e = float(raw_e)
            except ValueError:
                raise LoadError(
                    f"{path}: row {row_no}, column '{event_col}': unparseable event {raw_e!r}"
                ) from None
            if e not in (0.0, 1.0):
                raise LoadError(
                    f"{path}: row {row_no}, column '{event_col}': event must be 0 or 1, got {raw_e!r}"
                )
            times.append(t)
            deltas.append(int(e))
            for c in feature_names:
                features[c].append(_clean_cell(row[pos[c]]))
    if not times:
        raise LoadError(f"{path}: no data rows")
    return RawDataset(
        time=np.asarray(times),
        delta=np.asarray(deltas, dtype=np.int64),
        features=features,
        feature_names=feature_names,
    )


def _sample_skewness(values: np.ndarray) -> float:
    m = values.mean()
    m2 = np.mean((values - m) ** 2)
    if m2 == 0.0:
        return 0.0
    m3 = np.mean((values - m) ** 3)
    return float(m3 / m2**1.5)


@dataclass(frozen=True)
class ColumnTransform:
    name: str
    kind: str  # "numeric" | "categorical"
    impute: object  # value for numeric, mode string for categorical
    categories: tuple = ()
    # one standardization (mean, std) per emitted output column
    out_names: tuple = ()
    means: tuple = ()
    stds: tuple = ()


@dataclass(frozen=True)
class PreprocessRecipe:
    columns: tuple

    @property
    def output_names(self):
        return [n for c in self.columns for n in c.out_names]

    def to_dict(self) -> dict:
        return {
            "format": "fhtsurv-recipe",
            "version": 1,
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "impute": c.impute,
                    "categories": list(c.categories),
                    "out_names": list(c.out_names),
                    "means": list(c.means),
                    "stds": list(c.stds),
                }
                for c in self.columns
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PreprocessRecipe":
        if obj.get("format") != "fhtsurv-recipe":
            raise ValueError("not a recipe")
        return cls(
            columns=tuple(
                ColumnTransform(
                    name=c["name"],
                    kind=c["kind"],
                    impute=c["impute"],
                    categories=tuple(c["categories"]),
                    out_names=tuple(c["out_names"]),
                    means=tuple(c["means"]),
                    stds=tuple(c["stds"]),
                )
                for c in obj["columns"]
            )
        )


def _parse_numeric_column(cells, name):
    out = np.empty(len(cells))
    mask = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        if cell is None:
            mask[i] = True
            out[i] = np.nan
        else:
            try:
                out[i] = float(cell)
            except ValueError:
                raise PreprocessError(
                    f"column '{name}', row {i + 1}: expected a number, got {cell!r}"
                ) from None
    return out, mask


def _is_numeric_column(cells):
    seen_value = False
    for cell in cells:
        if cell is None:
            continue
        seen_value = True
        try:
            float(cell)
        except ValueError:
            return False
    return seen_value


def fit_preprocess(raw: RawDataset) -> PreprocessRecipe:
    """Learn imputation, encoding, and scaling from the given (training) rows."""
    columns = []
    for name in raw.feature_names:
        cells = raw.features[name]
        if _is_numeric_column(cells):
            values, missing = _parse_numeric_column(cells, name)
            observed = values[~missing]
            skew = _sample_skewness(observed)
            impute = float(observed.mean() if abs(skew) <= 1.0 else np.median(observed))
            filled = np.where(missing, impute, values)
            mean = float(filled.mean())
            std = float(filled.std())
            if std == 0.0:
                warnings.warn(f"dropping constant column '{name}'")
                continue
            columns.append(
                ColumnTransform(
                    name=name,
                    kind="numeric",
                    impute=impute,
                    out_names=(name,),
                    means=(mean,),
                    stds=(std,),
                )
            )
        else:
            observed = [c for c in cells if c is not None]
            if not observed:
                warnings.warn(f"dropping empty column '{name}'")
                continue
            cats, counts = np.unique(observed, return_counts=True)
            mode = str(cats[np.argmax(counts)])  # ties: first = smallest
            filled = [c if c is not None else mode for c in cells]
            keep_cats, out_names, means, stds = [], [], [], []
            arr = np.asarray(filled)
            for cat in cats:
                col = (arr == cat).astype(np.float64)
                mean, std = float(col.mean()), float(col.std())
                if std == 0.0:
                    warnings.warn(f"dropping constant one-hot column '{name}={cat}'")
                    continue
                keep_cats.append(str(cat))
                out_names.append(f"{name}={cat}")
                means.append(mean)
                stds.append(std)
            if not keep_cats:
                continue
            columns.append(
                ColumnTransform(
                    name=name,
                    kind="categorical",
                    impute=mode,
                    categories=tuple(keep_cats),
                    out_names=tuple(out_names),
                    means=tuple(means),
                    stds=tuple(stds),
                )
            )
    return PreprocessRecipe(columns=tuple(columns))


def apply_preprocess(recipe: PreprocessRecipe, raw: RawDataset) -> SurvivalData:
    """Encode a raw dataset with a fitted recipe (deterministic)."""
    n = len(raw)
    blocks = []
    for tr in recipe.columns:
        cells = raw.features.get(tr.name)
        if cells is None:
            raise PreprocessError(f"dataset is missing column '{tr.name}'")
        if tr.kind == "numeric":
            values, missing = _parse_numeric_column(cells, tr.name)
            filled = np.where(missing, tr.impute, values)
            blocks.append(((filled - tr.means[0]) / tr.stds[0])[:, None])
        else:
            arr = np.asarray([c if c is not None else tr.impute for c in cells])
            block = np.zeros((n, len(tr.categories)))
            for j, cat in enumerate(tr.categories):
                block[:, j] = (arr == cat).astype(np.float64)
            # an unseen category leaves its whole block at zero, by convention
            block = (block - np.asarray(tr.means)) / np.asarray(tr.stds)
            blocks.append(block)
    x = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return SurvivalData(x=x, time=raw.time, delta=raw.delta, feature_names=recipe.output_names)


# ----------------------------------------------------------------------
# splits


def stratified_split_indices(delta, test_frac=0.2, seed=0):
    """Row indices of a censoring-ratio-preserving train/test split."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    delta = np.asarray(delta)
    rng = np.random.default_rng(seed)
    test_idx = []
    for group in (np.flatnonzero(delta == 0), np.flatnonzero(delta == 1)):
        take = int(round(test_frac * group.size))
        perm = rng.permutation(group)
        test_idx.append(perm[:take])
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.ones(delta.size, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def stratified_split(data: SurvivalData, test_frac=0.2, seed=0):
    """Censoring-ratio-preserving train/test split."""
    train_idx, test_idx = stratified_split_indices(data.delta, test_frac, seed)
    return data[train_idx], data[test_idx]


def cv_folds(data: SurvivalData, k=5, seed=0):
    """Index arrays of k folds that partition the data, stratified by event."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for group in (np.flatnonzero(data.delta == 0), np.flatnonzero(data.delta == 1)):
        perm = rng.permutation(group)
        for i, idx in enumerate(perm):
            folds[i % k].append(idx)
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


# ----------------------------------------------------------------------
# synthetic NonPH benchmark


@dataclass(frozen=True)
class NonPhConfig:
    n_raw: int = 10000
    n_features: int = 20
    n_intervals: int = 16
    beta: float = 16.0
    horizon: float = 10.0
    n_subintervals: int = 1000
    target_censoring: float = 0.25
    n_keep: int = 2400
    seed: int = 0

    def __post_init__(self):
        if min(self.n_raw, self.n_features, self.n_intervals, self.n_subintervals, self.n_keep) < 1:
            raise ValueError("all sizes must be positive")
        if self.n_features < self.n_intervals:
            raise ValueError("need at least one feature per time interval")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if not 0.0 <= self.target_censoring < 1.0:
            raise ValueError("target_censoring must be in [0, 1)")
        if self.n_keep > self.n_raw:
            raise ValueError("n_keep cannot exceed n_raw")


def interval_probs(features: np.ndarray, n_intervals: int, beta: float) -> np.ndarray:
    """Per-subject softmax masses over the time intervals (rows sum to 1)."""
    z = beta * features[:, :n_intervals]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def subinterval_masses(probs: np.ndarray, cfg: NonPhConfig) -> np.ndarray:
    """Spread interval masses over the fine sub-intervals proportionally to
    overlap, so fractional boundaries are handled exactly."""
    sub_edges = np.linspace(0.0, cfg.horizon, cfg.n_subintervals + 1)
    int_edges = np.linspace(0.0, cfg.horizon, cfg.n_intervals + 1)
    int_width = cfg.horizon / cfg.n_intervals
    lo = np.maximum(sub_edges[:-1, None], int_edges[None, :-1])
    hi = np.minimum(sub_edges[1:, None], int_edges[None, 1:])
    overlap = np.clip(hi - lo, 0.0, None) / int_width  # (n_sub, n_int)
    return probs @ overlap.T


def sample_subintervals(masses: np.ndarray, rng) -> np.ndarray:
    """Draw one sub-interval index per row; the row total may fall short of 1,
    in which case index n_sub means the open tail beyond the horizon."""
    cum = np.cumsum(masses, axis=1)
    u = rng.random(masses.shape[0])
    return (cum < u[:, None]).sum(axis=1)


def generate_nonph(cfg: NonPhConfig) -> SurvivalData:
    """Synthetic covariate-driven, non-proportional-hazards benchmark."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n_raw, cfg.n_features))
    probs = interval_probs(x, cfg.n_intervals, cfg.beta)
    masses = subinterval_masses(probs, cfg)
    idx = sample_subintervals(masses, rng)

    sub_width = cfg.horizon / cfg.n_subintervals
    censored_tail = idx >= cfg.n_subintervals
    time_obs = idx * sub_width
    # the first sub-interval's lower bound is 0; nudge to its midpoint so
    # observed times stay strictly positive
    time_obs[idx == 0] = 0.5 * sub_width
    time_obs = np.where(censored_tail, cfg.horizon, time_obs)
    delta = np.where(censored_tail, 0, 1).astype(np.int64)

    target_c = int(round(cfg.target_censoring * cfg.n_raw))
    need = target_c - int((delta == 0).sum())
    if need < 0:
        raise ValueError("tail censoring already exceeds the target ratio")
    if need > 0:
        events = np.flatnonzero(delta == 1)
        flip = rng.choice(events, size=need, replace=False)
        delta[flip] = 0
        time_obs[flip] = np.maximum(time_obs[flip] * rng.random(need), 1e-12)

    keep_c = int(round(cfg.target_censoring * cfg.n_keep))
    keep_e = cfg.n_keep - keep_c
    cens_rows = np.flatnonzero(delta == 0)
    ev_rows = np.flatnonzero(delta == 1)
    if cens_rows.size < keep_c or ev_rows.size < keep_e:
        raise ValueError("not enough rows in a stratum to subsample")
    chosen = np.concatenate(
        [rng.choice(cens_rows, size=keep_c, replace=False),
         rng.choice(ev_rows, size=keep_e, replace=False)]
    )
    chosen = rng.permutation(chosen)
    names = [f"x{i + 1}" for i in range(cfg.n_features)]
    return SurvivalData(x=x[chosen], time=time_obs[chosen], delta=delta[chosen], feature_names=names)


def write_csv(data: SurvivalData, path) -> None:
    """Write records in the package CSV schema (features..., time, event)."""
    names = data.feature_names or [f"x{i + 1}" for i in range(data.x.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["time", "event"])
        for i in range(len(data)):
            writer.writerow(
                [repr(float(v)) for v in data.x[i]]
                + [repr(float(data.time[i])), str(int(data.delta[i]))]
            )
