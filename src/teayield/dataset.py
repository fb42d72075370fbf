"""Data schema, CSV ingestion, correlation diagnostics, and synthetic data.

The unit of exchange between pipeline stages is :class:`FeatureMatrix`, an
immutable column-named numeric table with a separate target vector.  CSV
files follow a fixed monthly-observation schema; bookkeeping columns (year,
labor cost, labor training level, pesticide use) are parsed and carried for
provenance but never exposed as model features.  The reader alone derives
columns: the month, 1-12 on disk, as its cyclic sin and cos, then
``avg_temp = (min_temp + max_temp) / 2``; a file may not name any of them.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .util import as_float_array, generator, write_table

# On-disk column order. Everything not carried and not the target is a
# numeric feature; extra schema columns (e.g. synthetic distractors) are
# treated as features too.
CANONICAL_SCHEMA = (
    "year", "month", "min_temp", "max_temp", "humidity", "rainfall",
    "soil_ph", "labor_cost", "labor_training", "pesticide_used", "yield",
)
CARRIED_COLUMNS = ("year", "month", "labor_cost", "labor_training", "pesticide_used")
TARGET_COLUMN = "yield"
# The model columns the reader derives, in column order after the features.
DERIVED_COLUMNS = ("month_sin", "month_cos", "avg_temp")


@dataclass(frozen=True)
class FeatureMatrix:
    """Column-named numeric table plus its ``yield`` target vector.

    Immutable after construction: the arrays are copied in and marked
    read-only, so instances are safe to share across threads.  ``carried``
    holds provenance columns (kept as plain tuples) that are never features.
    Only whole records hold them: the matrices the reader and the generator
    build, and their ``take_rows`` and ``with_target``.  A ``subset``, and so
    every model input made from one, holds none.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    target: np.ndarray
    carried: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        target = np.array(self.target, dtype=np.float64)
        names = tuple(self.column_names)
        if values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[1] != len(names):
            raise DataError(
                f"{len(names)} column names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise DataError("column names must be unique")
        if TARGET_COLUMN in names:
            raise DataError(f"target {TARGET_COLUMN!r} also listed as a feature")
        if target.ndim != 1 or target.shape[0] != values.shape[0]:
            raise DataError("target length does not match sample count")
        if values.shape[0] < 1:
            raise DataError("matrix must hold at least one sample")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(target)):
            raise DataError("non-finite values are not allowed in a FeatureMatrix")
        carried = {k: tuple(v) for k, v in dict(self.carried).items()}
        for key, col in carried.items():
            if len(col) != values.shape[0]:
                raise DataError(f"carried column {key!r} has wrong length")
        values.flags.writeable = False
        target.flags.writeable = False
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "carried", carried)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def col_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.col_index(name)]

    def subset(self, names: Sequence[str]) -> "FeatureMatrix":
        idx = [self.col_index(n) for n in names]
        return FeatureMatrix(tuple(names), self.values[:, idx], self.target)

    def with_target(self, target) -> "FeatureMatrix":
        return FeatureMatrix(self.column_names, self.values,
                             as_float_array(target, "target"),
                             carried=self.carried)

    def take_rows(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_samples):
            raise DataError("row index out of range")
        carried = {k: tuple(v[i] for i in idx) for k, v in self.carried.items()}
        return FeatureMatrix(self.column_names, self.values[idx],
                             self.target[idx], carried=carried)


@dataclass(frozen=True)
class CorrelationReport:
    feature_names: tuple[str, ...]
    matrix: np.ndarray
    target_correlations: np.ndarray

    def to_csv(self, path) -> None:
        write_table(path, ["feature", *self.feature_names,
                           f"{TARGET_COLUMN}_correlation"],
                    ([name, *[repr(float(v)) for v in self.matrix[i]],
                      repr(float(self.target_correlations[i]))]
                     for i, name in enumerate(self.feature_names)))


def _parse_float(cell: str, col: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"column {col!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"column {col!r}: non-finite value {cell!r}")
    return value


def _parse_int(cell: str, col: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(
            f"column {col!r}: cannot parse {cell!r} as an integer") from None


def _parse_bool(cell: str, col: str) -> bool:
    text = cell.strip().lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no"):
        return False
    raise DataError(f"column {col!r}: cannot parse {cell!r} as a boolean")


def encode_months(months: np.ndarray) -> np.ndarray:
    """Integer months 1..12 as the columns month_sin and month_cos."""
    phase = 2.0 * np.pi * np.asarray(months, dtype=np.float64) / 12.0
    return np.column_stack([np.sin(phase), np.cos(phase)])


@contextmanager
def _csv_text(path):
    """Turn a decoding or CSV syntax failure while reading ``path`` into a
    DataError."""
    try:
        yield
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


# Canonical number columns in the order a row's cells are parsed; all but
# labor_cost are model features.
_FLOAT_COLUMNS = ("min_temp", "max_temp", "humidity", "rainfall", "soil_ph",
                  "labor_cost")
_BASE_FEATURES = _FLOAT_COLUMNS[:-1]

# Range rules in the order a row's violations are reported: the columns a
# rule reads, a vectorised test for bad values, and the message.
_RANGE_RULES = (
    (("month",), lambda mo: (mo < 1) | (mo > 12),
     "month must be in 1..12, got {}"),
    (("min_temp", "max_temp"), lambda lo, hi: lo > hi,
     "min_temp {} exceeds max_temp {}"),
    (("humidity",), lambda h: (h < 0.0) | (h > 100.0),
     "humidity must be in [0, 100], got {}"),
    (("rainfall",), lambda r: r < 0.0, "rainfall must be >= 0, got {}"),
    (("soil_ph",), lambda ph: (ph < 0.0) | (ph > 14.0),
     "soil_ph must be in [0, 14], got {}"),
    ((TARGET_COLUMN,), lambda y: y < 0.0, "yield must be >= 0, got {}"),
)


class _Columns:
    """Data rows of a CSV file parsed into one buffer per column, and each
    row's data-row number in the file.  Year and month stay Python ints, as
    the matrix carries them and a year has no bound."""

    def __init__(self, extra: Sequence[str]):
        self.cells = {c: array("d")
                      for c in (*_FLOAT_COLUMNS, TARGET_COLUMN, *extra)}
        self.cells.update(year=[], month=[], labor_training=[],
                          pesticide_used=array("b"))
        self.rows = array("q")

    def first_error(self, path, n: int,
                    message: str | None = None) -> DataError | None:
        """The error to report once the first ``n`` rows are read and the
        next failed with ``message``: the earliest of those rows that breaks
        a range rule, naming the first rule it breaks, comes first."""
        first = None
        if n:
            cols = {c: np.frombuffer(self.cells[c], count=n)
                    for c in (*_BASE_FEATURES, TARGET_COLUMN)}
            cols["month"] = np.array(self.cells["month"][:n])
            for names, is_bad, text in _RANGE_RULES:
                bad = np.flatnonzero(is_bad(*(cols[c] for c in names)))
                if bad.size and (first is None or bad[0] < first[0]):
                    i = int(bad[0])
                    first = (i, text.format(*(self.cells[c][i] for c in names)))
        if first is not None:
            message = f"row {self.rows[first[0]]}: {first[1]}"
        return None if message is None else DataError(f"{path}: {message}")

    def check(self, path) -> None:
        """Raise the first range-rule error of the rows held."""
        error = self.first_error(path, len(self.rows))
        if error is not None:
            raise error


def _read_rows(path, reader, at: Mapping[str, int], width: int,
               extra: Sequence[str], block: int | None) -> Iterator[_Columns]:
    """Parse the data rows of ``reader`` into blocks of columns: ``block``
    rows each, the last holding the rest (one block when ``block`` is None).

    A block's range rules are checked when it fills, and a row-local error
    is only raised once the unchecked rows before it have passed them, so
    the earliest bad row of the file is the one reported.  Without a yield
    column the target reads as zeros.
    """
    parsers = [("year", _parse_int), ("month", _parse_int),
               *((c, _parse_float) for c in _FLOAT_COLUMNS),
               ("labor_training", lambda cell, _: sys.intern(cell.strip())),
               ("pesticide_used", _parse_bool),
               (TARGET_COLUMN, _parse_float if TARGET_COLUMN in at
                else lambda cell, _: 0.0)]
    extra_parsers = [(c, _parse_float) for c in extra]

    def start() -> tuple[_Columns, list, list]:
        """Empty columns, and the steps that parse a row's canonical and
        extra cells into them."""
        cols = _Columns(extra)

        def bind(steps):
            return [(at.get(name, 0), name, parse, cols.cells[name].append)
                    for name, parse in steps]

        return cols, bind(parsers), bind(extra_parsers)

    (cols, canonical, extras), filled = start(), False
    for r, raw in enumerate(reader, start=1):
        if not any(cell.strip() for cell in raw):
            continue
        n = len(cols.rows)
        if len(raw) != width:
            raise cols.first_error(
                path, n, f"row {r} has {len(raw)} cells, expected {width}")
        try:
            for j, name, parse, append in canonical:
                append(parse(raw[j], name))
        except DataError as exc:
            raise cols.first_error(path, n, f"row {r}: {exc}") from None
        cols.rows.append(r)
        try:
            for j, name, parse, append in extras:
                append(parse(raw[j], name))
        except DataError as exc:
            raise cols.first_error(path, n + 1, f"row {r}: {exc}") from None
        if n + 1 == block:
            cols.check(path)
            yield cols
            (cols, canonical, extras), filled = start(), True
    if cols.rows:
        cols.check(path)
        yield cols
    elif not filled:
        raise DataError(f"{path}: no data rows")


def _matrix(cells: Mapping[str, Sequence],
            extra: Sequence[str]) -> FeatureMatrix:
    """The rows held as one sequence per column by the reader or generator:
    base, extra and derived columns in one copy.  avg_temp is last, as column
    order fixes the scaler's order and the feature searches' tie-breaks."""
    names = (*_BASE_FEATURES, *extra)
    lo, hi = (np.frombuffer(cells[c]) for c in ("min_temp", "max_temp"))
    values = np.column_stack([np.frombuffer(cells[c]) for c in names] + [
        encode_months(cells["month"]), (lo + hi) / 2.0])
    return FeatureMatrix((*names, *DERIVED_COLUMNS), values,
                         np.frombuffer(cells[TARGET_COLUMN]),
                         carried={c: tuple(cells[c]) for c in CARRIED_COLUMNS})


def read_blocks(path, schema: Sequence[str] | None = CANONICAL_SCHEMA,
                require_target: bool = True,
                block: int | None = None) -> Iterator[FeatureMatrix]:
    """Read a monthly-observation CSV as FeatureMatrix blocks of ``block``
    data rows each, the last holding the rest; with ``block`` None the whole
    file is one block.

    Only the rows of the block being read are held, so a caller that keeps
    a few numbers per row reads a file of any length in bounded memory.
    The arguments, the checks and the errors are those of ``load_csv``,
    which is this reader with no block limit; the errors are raised as the
    reader reaches them, after the blocks before them have been handed on.
    """
    if schema is not None:
        schema = tuple(schema)
        for i, name in enumerate(schema):
            if name in schema[:i]:
                raise DataError(f"the schema names column {name!r} twice")
        missing_canonical = [c for c in CANONICAL_SCHEMA if c not in schema]
        if missing_canonical:
            raise DataError(
                f"schema is missing canonical columns {missing_canonical}")

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh, _csv_text(path):
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise DataError(f"{path}: empty file")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate columns in header")
        if schema is None:
            schema = CANONICAL_SCHEMA + tuple(
                h for h in header if h not in CANONICAL_SCHEMA)
        shadowing = [c for c in (*schema, *header) if c in DERIVED_COLUMNS]
        if shadowing:
            raise DataError(f"{path}: column {shadowing[0]!r} is derived when "
                            "the file is read; the file and the schema may not name it")
        extra_features = [c for c in schema if c not in CANONICAL_SCHEMA]
        has_target = require_target or TARGET_COLUMN in header
        if not has_target:
            schema = tuple(c for c in schema if c != TARGET_COLUMN)
        missing = sorted(set(schema) - set(header))
        extra = sorted(set(header) - set(schema))
        if missing or extra:
            raise DataError(
                f"{path}: header mismatch (missing {missing or 'none'}, "
                f"unexpected {extra or 'none'})")
        at = {name: header.index(name) for name in schema}
        for cols in _read_rows(path, reader, at, len(header), extra_features,
                               block):
            yield _matrix(cols.cells, extra_features)


def load_csv(path, schema: Sequence[str] | None = CANONICAL_SCHEMA,
             require_target: bool = True) -> FeatureMatrix:
    """Read a monthly-observation CSV into a FeatureMatrix.

    The header must contain exactly the ``schema`` columns (any order, each
    named once).  Schema columns beyond the canonical set are read as extra
    numeric features; ``schema=None`` takes them from the header, in header
    order, so the schema is the canonical set plus every other header column.
    The encoded month and ``avg_temp`` follow, derived here; a header or
    schema that names one of them (``DERIVED_COLUMNS``) is refused, naming
    the file and column.
    With ``require_target`` false the ``yield`` column may be left out, as
    when scoring new rows; the target of such a file reads as zeros.  Rows
    are parsed into one buffer per column and the range rules run over
    whole columns, so no per-row object is kept.  This is ``read_blocks``
    with no block limit, so a file read in blocks is parsed and checked by
    the same code.

    A bad row is reported by its data-row number (1-based, blank rows
    counted though skipped).  Of several bad rows the earliest is reported;
    within a row, the first failure in this order: the cell count; a
    missing, unparseable or non-finite cell of year, month, min_temp,
    max_temp, humidity, rainfall, soil_ph, labor_cost, pesticide_used or
    yield; month in 1..12, min_temp <= max_temp, humidity in [0, 100],
    rainfall >= 0, soil_ph in [0, 14], yield >= 0; then a bad cell of an
    extra column, in schema order.
    """
    (m,) = read_blocks(path, schema, require_target)
    return m


def render_csv(m: FeatureMatrix) -> str:
    """Serialize a matrix back to the on-disk schema (inverse of load_csv).

    Requires the carried provenance columns; the raw month column is written
    from them, not from the encoded feature columns.  Floats are written with
    ``repr`` so a load/write/load round trip is exact.
    """
    for key in CARRIED_COLUMNS:
        if key not in m.carried:
            raise DataError(f"matrix lacks carried column {key!r}; cannot serialize")
    feature_cols = [c for c in m.column_names if c not in DERIVED_COLUMNS]
    known = [c for c in feature_cols if c in CANONICAL_SCHEMA]
    extras = [c for c in feature_cols if c not in CANONICAL_SCHEMA]
    header = ["year", "month", *known, *extras,
              "labor_cost", "labor_training", "pesticide_used", TARGET_COLUMN]

    def fmt(col):
        return map(repr, np.asarray(col, dtype=np.float64).tolist())

    def text(cell) -> str:
        # Quoted as csv.writer quotes, and also when it holds a carriage
        # return, which csv.writer leaves bare and csv.reader ends a row at.
        cell = str(cell)
        if any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    columns = [map(str, m.carried["year"]), map(str, m.carried["month"]),
               *(fmt(m.column(c)) for c in known + extras),
               fmt(m.carried["labor_cost"]), map(text, m.carried["labor_training"]),
               (str(int(v)) for v in m.carried["pesticide_used"]),
               fmt(m.target)]
    rows = [map(text, header), *zip(*columns)]
    return "".join(",".join(row) + "\n" for row in rows)


def write_csv(m: FeatureMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(render_csv(m))


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient, clamped to [-1, 1]."""
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DataError("pearson requires vectors of equal length")
    if x.shape[0] < 2:
        raise DataError("pearson requires at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DataError("pearson is undefined for a constant vector")
    r = float(xc @ yc) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def correlation_report(m: FeatureMatrix) -> CorrelationReport:
    """Pairwise feature correlations plus each feature's target correlation."""
    if m.n_samples < 2:
        raise DataError("correlation_report requires at least 2 samples")
    for name in m.column_names:
        if np.ptp(m.column(name)) == 0.0:
            raise DataError(f"column {name!r} is constant; correlation undefined")
    if np.ptp(m.target) == 0.0:
        raise DataError(f"target {TARGET_COLUMN!r} is constant; correlation undefined")
    f = m.n_features
    matrix = np.eye(f)
    for i in range(f):
        for j in range(i + 1, f):
            r = pearson(m.values[:, i], m.values[:, j])
            matrix[i, j] = r
            matrix[j, i] = r
    target_corr = np.array([pearson(m.values[:, i], m.target) for i in range(f)])
    return CorrelationReport(m.column_names, matrix, target_corr)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic monthly-yield generator.

    The ground truth is an invented stand-in for field data and is documented
    here rather than fitted to anything: log-yield is a smooth saturating
    curve in rainfall, a bell-shaped response to average temperature, a
    linear trend in soil pH (negative by default), a mild humidity term, and
    a seasonal sine in the month, plus Gaussian noise of scale
    ``noise_scale``.  Yield is the exponential of that sum, so the target is
    right-skewed and strictly positive.  Planted outliers shift log-yield by
    ``outlier_shift * noise_scale`` with alternating sign; they sit on the
    highest-rainfall rows, i.e. natural leverage points, so influence
    diagnostics can separate them from ordinary noise.  Distractor columns
    are independent standard normal noise.
    """

    noise_scale: float = 0.10
    n_distractors: int = 0
    n_outliers: int = 0
    outlier_shift: float = 10.0
    rain_coef: float = 0.55
    temp_coef: float = 0.3
    ph_coef: float = -0.6
    humidity_coef: float = 0.45
    season_amp: float = 0.4
    interaction_coef: float = 0.25
    base_log_yield: float = 3.8
    start_year: int = 2008

    def __post_init__(self):
        if self.noise_scale < 0:
            raise DataError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.n_distractors < 0 or self.n_outliers < 0:
            raise DataError("distractor and outlier counts must be >= 0")

    @classmethod
    def canonical(cls) -> "SyntheticSpec":
        """The reference test-bench dataset shape: planted outliers, a skewed
        target, and three distractor features, at a noise level where single
        networks are measurably unstable."""
        return cls(n_distractors=3, n_outliers=3, noise_scale=0.16,
                   outlier_shift=4.5)


def ground_truth_log_yield(avg_temp, rainfall, soil_ph, humidity, month,
                           spec: SyntheticSpec) -> np.ndarray:
    """Clean log-yield surface used by the generator (and by tests).

    The rain/pH product term rewards heavy rain more on acidic soil; it is
    the part of the surface that low-capacity models cannot represent from
    the main effects alone.
    """
    phase = 2.0 * np.pi * np.asarray(month, dtype=np.float64) / 12.0
    rain_sat = np.tanh((np.asarray(rainfall) - 120.0) / 70.0)
    return (spec.base_log_yield
            + spec.rain_coef * rain_sat
            + spec.temp_coef * np.exp(-((np.asarray(avg_temp) - 21.0) / 5.5) ** 2)
            + spec.ph_coef * (np.asarray(soil_ph) - 6.0)
            + spec.humidity_coef * (np.asarray(humidity) - 62.0) / 15.0
            + spec.season_amp * np.sin(phase - 0.6)
            + spec.interaction_coef * rain_sat * (6.0 - np.asarray(soil_ph)))


def generate_synthetic(n: int, seed: int, spec: SyntheticSpec | None = None) -> FeatureMatrix:
    """Deterministic synthetic dataset in the canonical schema.

    Draw order from the seeded generator is fixed (temperatures, humidity,
    rainfall, pH, noise, outlier positions, labor columns, distractors), so
    a given (n, seed, spec) always produces the identical matrix, equal to
    ``load_csv`` of its ``write_csv`` file.
    """
    if spec is None:
        spec = SyntheticSpec()
    if n < 10:
        raise DataError(f"need at least 10 samples, got {n}")
    rng = generator(seed)

    idx = np.arange(n)
    month = (idx % 12) + 1
    year = spec.start_year + idx // 12
    phase = 2.0 * np.pi * month / 12.0

    tmid = 16.0 - 9.0 * np.cos(phase) + rng.normal(0.0, 1.2, n)
    spread = rng.uniform(6.0, 12.0, n)
    min_temp = tmid - spread / 2.0
    max_temp = tmid + spread / 2.0
    humidity = np.clip(62.0 + 14.0 * np.sin(phase - 1.0) + rng.normal(0.0, 7.0, n),
                       5.0, 100.0)
    rainfall = (60.0 + 55.0 * (1.0 - np.cos(phase))) * np.exp(rng.normal(0.0, 0.35, n))
    soil_ph = np.clip(6.1 - 0.0015 * (rainfall - 120.0) + rng.normal(0.0, 0.45, n),
                      3.5, 8.5)

    log_clean = ground_truth_log_yield((min_temp + max_temp) / 2.0, rainfall,
                                       soil_ph, humidity, month, spec)
    noise = spec.noise_scale * rng.normal(0.0, 1.0, n)
    if spec.n_outliers > 0:
        # Highest-rainfall rows are leverage points of any fit that uses
        # rainfall, which keeps the planted outliers individually influential.
        outlier_rows = np.argsort(rainfall)[::-1][:min(spec.n_outliers, n)]
        signs = np.where(np.arange(outlier_rows.size) % 2 == 0, 1.0, -1.0)
        noise[outlier_rows] += signs * spec.outlier_shift * spec.noise_scale
    yield_kg = np.exp(log_clean + noise)

    labor_cost = 480.0 + 4.0 * idx + rng.normal(0.0, 20.0, n)
    labor_training = rng.choice(np.array(["basic", "skilled"]), n)
    pesticide = rng.integers(0, 2, n)

    cells = {"min_temp": min_temp, "max_temp": max_temp, "humidity": humidity,
             "rainfall": rainfall, "soil_ph": soil_ph, TARGET_COLUMN: yield_kg,
             "year": year.tolist(), "month": month.tolist(),
             "labor_cost": labor_cost.tolist(),
             "labor_training": labor_training.tolist(),
             "pesticide_used": pesticide.tolist()}
    extra = [f"distractor_{d + 1}" for d in range(spec.n_distractors)]
    for name in extra:
        cells[name] = rng.normal(0.0, 1.0, n)
    return _matrix(cells, extra)
