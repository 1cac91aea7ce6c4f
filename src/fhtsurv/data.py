"""Dataset ingestion, preprocessing, splits, and the synthetic NonPH generator.

CSV schema: a header row with a ``time`` column (finite positive reals),
an ``event`` column (0 = censored, 1 = observed), and any number of
feature columns, each name used once.  Cells equal to one of the missing
markers ("", "NA", "NaN", "N/A", "?", "null", "None", case-insensitive,
surrounding whitespace ignored) are missing.  ``load_csv`` parses every
column once into a float64 array, each cell as ``float()`` parses it: a
feature cell that parses to NaN counts as missing.  A cell of +-inf in a
column of numbers is an error naming its row and column; in a column with
text cells it is a label, and an error only where the column is used as
numeric.  Whether a column is numeric is decided on the rows a recipe is
fitted on: numeric when every present cell there is a number.

Two readers give the same dataset.  A file of numbers only, with no blank
line and no character of ``_CSV_MODULE_ONLY``, whose cells pass every check,
is parsed whole by ``np.loadtxt``.  It converts a cell with the same routine
as ``float()``, after stripping what ``str.strip()`` strips, which is also
how the other reader parses a cell that ``float()`` refuses.  Every other
file, and every file with an error, is read by the ``csv`` module, so
missing, quoted and text cells and every error message come from that
reader alone.  Either way each cell's text is kept, as the cell itself or as
the data line it was read from; a column's cells are split out of its lines
only when the column is used as categorical or named in an error.

Preprocessing is fitted on training rows only.  Each column is first
encoded, then each encoded output is standardized.  Encoding a numeric
column fills its missing cells with the mean when |sample skewness| <= 1
and the median otherwise.  Encoding a categorical column fills its missing
cells with the mode (lexicographically smallest on ties) and turns it into
one-hot indicators of the categories seen at fit time; a value unseen at
apply time encodes as an all-zero block.  Standardizing scales each output
to train mean 0 / std 1; an output constant on the training rows is
dropped with a warning, as is a column with no present cell.  Fitting and
applying run the same encoder, so a recipe holds only the fitted values,
and its file's keys for a column are ``ColumnTransform``'s fields.

The NonPH generator has one fixed shape, the module constants
``N_FEATURES`` to ``TARGET_CENSORING``; a ``NonPhConfig`` sets only how many
records are drawn (``n_raw``) and kept (``n_keep``), and the seed.  It draws
20 i.i.d. standard-normal features per record and builds a piecewise-constant
event density over 16 equal intervals of the horizon [0, 10], whose masses
are a softmax of the first 16 features times 16.  It samples one of the
horizon's 1,000 sub-intervals by that density (taking its lower bound as the
event time), censors at the horizon when the open tail is drawn, then
censors events at random until 25% of the records are censored, and
subsamples ``n_keep`` records preserving that ratio.  Each record's uniform
is drawn up front; its sub-interval masses and their cumulative sums are
formed ``_SAMPLE_ROWS`` records at a time, so memory is linear in ``n_raw``
at about 0.5 kB per record.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .modelio import is_finite, is_int, refuse_unknown, require

MISSING_MARKERS = {"", "na", "nan", "n/a", "?", "null", "none"}
TIME_COL, EVENT_COL = "time", "event"
_READ_ROWS = 4096  # rows read and transposed at a time
# a file holding one of these is read by the csv module: a quote, a NUL, or
# a line end of str.splitlines() other than the csv module's \n, \r and \r\n
_CSV_MODULE_ONLY = '"\0\v\f\x1c\x1d\x1e\x85\u2028\u2029'


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
        finite = np.isfinite(self.x)
        if not finite.all():
            i, j = (int(k) for k in np.argwhere(~finite)[0])
            name = self.feature_names[j] if j < len(self.feature_names) else j
            raise ValueError(
                f"features must be finite, got {float(self.x[i, j])} at index {i}, column {name!r}"
            )
        ok = np.isfinite(self.time) & (self.time > 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"times must be finite and > 0, got {float(self.time[i])} at index {i}"
            )
        if not np.all((self.delta == 0) | (self.delta == 1)):
            raise ValueError("event indicator must be 0 or 1")

    def __len__(self):
        return self.time.size

    def __getitem__(self, idx):
        """Rows selected by an index array, slice or mask, as a new dataset."""
        return SurvivalData(self.x[idx], self.time[idx], self.delta[idx], self.feature_names)


@dataclass(frozen=True)
class RawColumn:
    """One feature column as read.

    ``values`` holds each cell's float, NaN where the cell is missing or is
    not a number; ``bad`` marks the cells that are present but are not
    numbers.  ``text`` holds each cell's text as read or, where ``pos`` is
    set, the whole data line the cell was read from, of which the cell is
    comma-separated part ``pos``.  ``cells`` forms the cells' text from it
    when first read, which only a column used as categorical, or named in an
    error, does.
    """

    values: np.ndarray
    bad: np.ndarray
    text: np.ndarray
    pos: int | None = None

    def take(self, idx) -> "RawColumn":
        return RawColumn(self.values[idx], self.bad[idx], self.text[idx], self.pos)

    @cached_property
    def cells(self) -> np.ndarray:
        if self.pos is None:
            return self.text
        return np.array([line.split(",")[self.pos] for line in self.text.tolist()], object)

    def labels(self) -> list:
        """The cells as categorical labels: stripped text, None where missing."""
        missing = np.isnan(self.values) & ~self.bad
        return [None if m else c.strip() for c, m in zip(self.cells.tolist(), missing.tolist())]


@dataclass
class RawDataset:
    """Parsed time/event plus the feature columns, by name in file order.

    ``rows`` holds each record's row in the file it was read from, numbered
    as ``load_csv`` numbers rows (the header is row 1), so errors found in a
    subset name the file's row.
    """

    time: np.ndarray
    delta: np.ndarray
    columns: dict
    rows: np.ndarray

    def __len__(self):
        return self.time.size

    def subset(self, idx) -> "RawDataset":
        idx = np.asarray(idx)
        return RawDataset(
            time=self.time[idx],
            delta=self.delta[idx],
            columns={name: col.take(idx) for name, col in self.columns.items()},
            rows=self.rows[idx],
        )


def _parse_cells(cells):
    """Each cell's float (NaN where missing or not a number) and the mask of
    cells that are present but not numbers.

    A column of numbers is parsed by one pass of ``float()``.  Otherwise each
    distinct stripped text is parsed once, so a label repeated down a
    categorical column costs one failed ``float()``, not one per cell.
    """
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells)), np.zeros(len(cells), bool)
    except ValueError:
        pass  # some cell is missing or not a number
    # str.strip() removes more than float() does (\x1c-\x1f too)
    texts = [cell.strip() for cell in cells]
    parsed, bad_texts = dict.fromkeys(texts, np.nan), set()
    for text in parsed:
        if text.lower() not in MISSING_MARKERS:
            try:
                parsed[text] = float(text)
            except ValueError:
                bad_texts.add(text)
    values = np.fromiter(map(parsed.__getitem__, texts), np.float64, len(texts))
    return values, np.fromiter(map(bad_texts.__contains__, texts), bool, len(texts))


def load_csv(path) -> RawDataset:
    """Read a survival CSV; raises LoadError naming the first offending row
    in file order, and its column.

    The ``time`` and ``event`` columns are mandatory; every other column is
    a feature.  A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8"
    exports write, is skipped.  A file that ``_read_numbers`` can take is
    parsed whole by ``np.loadtxt``, and its cells' text is formed only when
    a column's ``cells`` are read.  Any other file is read by the ``csv``
    module: its rows are read and transposed in blocks of ``_READ_ROWS``,
    and each column is then parsed once into a float64 array.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        raw = _read_numbers(path, fh)
        if raw is None:
            fh.seek(0)
            raw = _read_cells(path, fh)
    return raw


def _check_header(path, header) -> list:
    """The header's names, stripped; a LoadError unless ``time`` and
    ``event`` are among them and no name is used twice."""
    header = [h.strip() for h in header]
    for col in (TIME_COL, EVENT_COL):
        if col not in header:
            raise LoadError(f"{path}: missing mandatory column '{col}'")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise LoadError(f"{path}: column '{name}' appears more than once")
    return header


def _read_numbers(path, fh) -> RawDataset | None:
    """The dataset of a file of numbers only, or None where the ``csv``
    module must read it: the file holds a character of ``_CSV_MODULE_ONLY``
    or a blank line, has no data line, or has a cell that ``np.loadtxt``
    cannot parse or that fails a check."""
    text = fh.read()
    if not text or any(c in text for c in _CSV_MODULE_ONLY):
        return None
    lines = text.splitlines()
    del text
    if len(lines) < 2 or "" in lines:
        return None
    header = _check_header(path, lines[0].split(","))
    body = lines[1:]
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(body), len(header)) or np.isinf(table).any():
        return None
    table = table.T.copy()  # one contiguous array per column, as the csv reader makes
    time, event = table[header.index(TIME_COL)], table[header.index(EVENT_COL)]
    if not ((time > 0.0).all() and ((event == 0.0) | (event == 1.0)).all()):
        return None
    line_of_row = np.array(body, object)
    features = {name: RawColumn(values, np.zeros(len(body), bool), line_of_row, pos)
                for pos, (name, values) in enumerate(zip(header, table))
                if name not in (TIME_COL, EVENT_COL)}
    return RawDataset(time=time, delta=event.astype(np.int64), columns=features,
                      rows=np.arange(2, time.size + 2))


def _read_cells(path, fh) -> RawDataset:
    """The dataset as the ``csv`` module reads the file (see ``load_csv``)."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise LoadError(f"{path}: empty file") from None
    header = _check_header(path, header)
    width = len(header)
    columns = [[] for _ in header]
    # reading stops at the first row of the wrong width; an error in the
    # rows before it comes first in file order
    wrong_width = None
    while wrong_width is None and (block := list(itertools.islice(reader, _READ_ROWS))):
        n_ok = next((i for i, row in enumerate(block) if len(row) != width), len(block))
        if n_ok < len(block):
            wrong_width = (len(columns[0]) + n_ok + 2, len(block[n_ok]))
        for column, cells in zip(columns, zip(*block[:n_ok])):
            column.extend(cells)
    if not columns[0] and wrong_width is None:
        raise LoadError(f"{path}: no data rows")
    cells = dict(zip(header, columns))
    del columns
    time, time_bad = _parse_cells(cells[TIME_COL])
    event, event_bad = _parse_cells(cells[EVENT_COL])
    features = {}
    for name in header:
        if name not in (TIME_COL, EVENT_COL):
            features[name] = RawColumn(*_parse_cells(cells[name]), np.array(cells[name], object))
            cells[name] = features[name].cells  # the list is no longer held
    # ±inf in a column with a text cell is read as a label, like any text
    checks = [
        (TIME_COL, time_bad, np.isfinite(time) & (time > 0.0), "time must be finite and > 0"),
        (EVENT_COL, event_bad, (event == 0.0) | (event == 1.0), "event must be 0 or 1, got {text}"),
    ] + [(name, col.bad, ~np.isinf(col.values), "value must be finite, got {text}")
         for name, col in features.items() if not col.bad.any()]
    failures = [(int(np.argmin(ok)), order) for order, (_, _, ok, _) in enumerate(checks)
                if not ok.all()]
    if failures:
        i, order = min(failures)
        name, bad, _, rule = checks[order]
        text = cells[name][i].strip()
        where = f"{path}: row {i + 2}, column '{name}'"
        if text.lower() in MISSING_MARKERS:
            raise LoadError(f"{where} is missing")
        if bad[i]:
            raise LoadError(f"{where}: unparseable {name} {text!r}")
        raise LoadError(f"{where}: " + rule.format(text=repr(text)))
    if wrong_width is not None:
        row_no, n_cells = wrong_width
        raise LoadError(f"{path}: row {row_no} has {n_cells} cells, expected {width}")
    return RawDataset(time=time, delta=event.astype(np.int64), columns=features,
                      rows=np.arange(2, time.size + 2))


def _sample_skewness(values: np.ndarray) -> float:
    """The biased sample skewness m3 / m2**1.5; 0 for a constant column."""
    d = values - values.mean()
    d2 = d * d
    m2 = d2.mean()
    if m2 == 0.0:
        return 0.0
    return float((d2 * d).mean() / m2**1.5)


@dataclass(frozen=True)
class ColumnTransform:
    """How one feature column is encoded.  The fields are the column's keys
    in the recipe file."""

    name: str
    kind: str  # "numeric" | "categorical"
    impute: object  # value for numeric, mode string for categorical
    categories: tuple = ()  # the one-hot categories; () for numeric
    # one name and standardization (mean, std) per emitted output column
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
            "columns": [asdict(c) for c in self.columns],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PreprocessRecipe":
        if not isinstance(obj, dict) or obj.get("format") != "fhtsurv-recipe":
            raise ValueError("not a recipe")
        if obj.get("version") != 1:
            raise ValueError(f"unsupported recipe version {obj.get('version')!r}")
        return cls(columns=tuple(itertools.starmap(
            _column, enumerate(require(obj, "columns", "recipe", list)))))


def _column(i, obj: dict) -> ColumnTransform:
    """A recipe file's column ``i``; a ValueError names the column (its index,
    and its name where it has one) and the key when the column cannot be
    applied as it stands."""
    if not isinstance(obj, dict):
        raise ValueError(f"recipe column {i} must be an object, got {obj!r}")
    where = f"recipe column {i}" + (f" {obj['name']!r}" if "name" in obj else "")
    keys = {f.name: f.default is MISSING for f in fields(ColumnTransform)}
    refuse_unknown(obj, keys, where)
    for key, required in keys.items():
        if required and key not in obj:
            raise ValueError(f"{where} has no key {key!r}")
    tr = ColumnTransform(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})
    if tr.kind not in ("numeric", "categorical"):
        raise ValueError(f"{where}: key 'kind' must be 'numeric' or 'categorical', got {tr.kind!r}")
    width = 1 if tr.kind == "numeric" else len(tr.categories)
    for key in ("out_names", "means", "stds"):
        if len(getattr(tr, key)) != width:
            raise ValueError(f"{where}: key '{key}' has {len(getattr(tr, key))} entries, but the "
                             f"{tr.kind} encoding makes {width} outputs")
    for j, std in enumerate(tr.stds):
        if not (is_finite(std) and std > 0.0):
            raise ValueError(f"{where}: key 'stds' entry {j} must be a finite number > 0, "
                             f"got {std!r}")
    return tr


def _require_numbers(name, col: RawColumn, rows):
    """Raise PreprocessError at the first cell of a column used as numeric
    that is text or +-inf, naming its file row (``rows``, one per cell)."""
    bad = col.bad | np.isinf(col.values)
    if bad.any():
        i = int(np.argmax(bad))
        what = "a number" if col.bad[i] else "a finite number"
        raise PreprocessError(f"column '{name}', row {rows[i]}: expected {what}, "
                              f"got {col.cells[i].strip()!r}")


def _encode(tr: ColumnTransform, col: RawColumn, rows) -> np.ndarray:
    """The column's (cells, outputs) block before standardization: a numeric
    column's values with missing cells imputed, or a categorical column's
    one-hot indicators of ``tr.categories``.  A label not among them encodes
    as an all-zero row."""
    if tr.kind == "numeric":
        _require_numbers(tr.name, col, rows)
        return np.where(np.isnan(col.values), tr.impute, col.values)[:, None]
    labels = np.array([tr.impute if c is None else c for c in col.labels()], dtype=str)
    return (labels[:, None] == np.array(tr.categories, dtype=str)).astype(np.float64)


def fit_preprocess(raw: RawDataset) -> PreprocessRecipe:
    """Learn imputation, encoding, and scaling from the given (training) rows."""
    columns = []
    for name, col in raw.columns.items():
        missing = np.isnan(col.values)
        if not (col.bad.any() or missing.all()):
            _require_numbers(name, col, raw.rows)
            observed = col.values[~missing]
            skew = _sample_skewness(observed)
            impute = float(observed.mean() if abs(skew) <= 1.0 else np.median(observed))
            tr = ColumnTransform(name, "numeric", impute, out_names=(name,))
        else:
            observed = [c for c in col.labels() if c is not None]
            if not observed:
                warnings.warn(f"dropping empty column '{name}'")
                continue
            cats, counts = np.unique(observed, return_counts=True)
            cats = tuple(cats.tolist())
            mode = cats[np.argmax(counts)]  # ties: first = smallest
            tr = ColumnTransform(name, "categorical", mode, cats,
                                 out_names=tuple(f"{name}={c}" for c in cats))
        block = _encode(tr, col, raw.rows)
        means = [float(v.mean()) for v in block.T]
        stds = [float(v.std()) for v in block.T]
        for out, std in zip(tr.out_names, stds):
            if std == 0.0:
                one_hot = "one-hot " if tr.kind == "categorical" else ""
                warnings.warn(f"dropping constant {one_hot}column '{out}'")
        keep = [std != 0.0 for std in stds]
        if any(keep):
            def kept(values):
                return tuple(itertools.compress(values, keep))

            columns.append(replace(
                tr, categories=kept(tr.categories), out_names=kept(tr.out_names),
                means=kept(means), stds=kept(stds)))
    return PreprocessRecipe(columns=tuple(columns))


def apply_preprocess(recipe: PreprocessRecipe, raw: RawDataset) -> SurvivalData:
    """Encode a raw dataset with a fitted recipe (deterministic)."""
    blocks = []
    for tr in recipe.columns:
        col = raw.columns.get(tr.name)
        if col is None:
            raise PreprocessError(f"dataset is missing column '{tr.name}'")
        blocks.append((_encode(tr, col, raw.rows) - np.asarray(tr.means)) / np.asarray(tr.stds))
    x = np.hstack(blocks) if blocks else np.zeros((len(raw), 0))
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


def cv_folds(data: SurvivalData, k=5, seed=0):
    """Index arrays of k folds that partition the data, stratified by event."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    # fold f takes records f, f + k, f + 2k, ... of each stratum's permutation
    perms = [rng.permutation(np.flatnonzero(data.delta == e)) for e in (0, 1)]
    return [np.sort(np.concatenate([p[f::k] for p in perms])) for f in range(k)]


# ----------------------------------------------------------------------
# synthetic NonPH benchmark


# the benchmark's fixed shape (see the module docstring)
N_FEATURES = 20
N_INTERVALS = 16
BETA = 16.0
HORIZON = 10.0
N_SUBINTERVALS = 1000
TARGET_CENSORING = 0.25
_SAMPLE_ROWS = 256  # records whose sub-interval masses are formed at a time


@dataclass(frozen=True)
class NonPhConfig:
    """How many records are drawn, how many are kept, and the seed."""

    n_raw: int = 10000
    n_keep: int = 2400
    seed: int = 0

    def __post_init__(self):
        for name in ("n_raw", "n_keep"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.n_keep > self.n_raw:
            raise ValueError("n_keep cannot exceed n_raw")


def interval_probs(features: np.ndarray) -> np.ndarray:
    """Per-subject softmax masses over the time intervals (rows sum to 1)."""
    z = BETA * features[:, :N_INTERVALS]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _overlap() -> np.ndarray:
    """(sub-intervals x intervals) share of each interval's mass that falls
    in each sub-interval, so fractional boundaries are handled exactly."""
    sub_edges = np.linspace(0.0, HORIZON, N_SUBINTERVALS + 1)
    int_edges = np.linspace(0.0, HORIZON, N_INTERVALS + 1)
    lo = np.maximum(sub_edges[:-1, None], int_edges[None, :-1])
    hi = np.minimum(sub_edges[1:, None], int_edges[None, 1:])
    return np.clip(hi - lo, 0.0, None) / (HORIZON / N_INTERVALS)


def sample_subintervals(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One sub-interval index per row of interval masses, drawn by its
    uniform in ``u``: the number of sub-intervals whose cumulative mass
    falls below it.  The row total may fall short of 1, in which case index
    n_sub means the open tail beyond the horizon.  Rows are taken
    ``_SAMPLE_ROWS`` at a time."""
    overlap_t = _overlap().T
    idx = np.empty(u.size, dtype=np.int64)
    for start in range(0, u.size, _SAMPLE_ROWS):
        rows = slice(start, start + _SAMPLE_ROWS)
        cum = probs[rows] @ overlap_t
        np.cumsum(cum, axis=1, out=cum)
        idx[rows] = (cum < u[rows, None]).sum(axis=1)
    return idx


def generate_nonph(cfg: NonPhConfig) -> SurvivalData:
    """Synthetic covariate-driven, non-proportional-hazards benchmark."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n_raw, N_FEATURES))
    idx = sample_subintervals(interval_probs(x), rng.random(cfg.n_raw))

    sub_width = HORIZON / N_SUBINTERVALS
    censored_tail = idx >= N_SUBINTERVALS
    time_obs = idx * sub_width
    # the first sub-interval's lower bound is 0; nudge to its midpoint so
    # observed times stay strictly positive
    time_obs[idx == 0] = 0.5 * sub_width
    time_obs = np.where(censored_tail, HORIZON, time_obs)
    delta = np.where(censored_tail, 0, 1).astype(np.int64)

    target_c = int(round(TARGET_CENSORING * cfg.n_raw))
    need = target_c - int((delta == 0).sum())
    if need < 0:
        raise ValueError("tail censoring already exceeds the target ratio")
    if need > 0:
        events = np.flatnonzero(delta == 1)
        flip = rng.choice(events, size=need, replace=False)
        delta[flip] = 0
        time_obs[flip] = np.maximum(time_obs[flip] * rng.random(need), 1e-12)

    keep_c = int(round(TARGET_CENSORING * cfg.n_keep))
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
    names = [f"x{i + 1}" for i in range(N_FEATURES)]
    return SurvivalData(x=x[chosen], time=time_obs[chosen], delta=delta[chosen], feature_names=names)


def write_csv(data: SurvivalData, path) -> None:
    """Write records in the package CSV schema (features..., time, event).

    The header goes through ``csv.writer``, which quotes a name that needs
    it; a row holds only the ``repr`` of numbers, which never need quoting,
    so it is joined directly, with the writer's line end."""
    names = data.feature_names or [f"x{i + 1}" for i in range(data.x.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([*names, TIME_COL, EVENT_COL])
        # a row's floats at a time: the freed floats of a whole-matrix
        # .tolist() stay in the process's heap after the file is written
        fh.writelines(
            ",".join([*map(repr, xs.tolist()), repr(t), repr(d)]) + "\r\n"
            for xs, t, d in zip(data.x, data.time.tolist(), data.delta.tolist())
        )
