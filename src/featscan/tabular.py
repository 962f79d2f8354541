"""Tabular data model: typed columns, CSV ingestion, discretization, encoding.

A :class:`Dataset` is the single immutable view of the data that every other
module reads. Columns are typed as continuous, binary, or nominal; the
outcome is a 0/1 vector. Binary and nominal columns are coded once into
codes and sorted levels: :func:`load_csv` codes them block by block as it
reads the file, and the :class:`Dataset` constructor codes label arrays
given to it; ``Dataset.column`` materializes labels. Binning the
continuous columns gives the scanner's :class:`DiscreteDataset`, which
shares those codes.

Codes are held in the narrowest unsigned integer type that the column's
level count needs (see :func:`_code_dtype`): uint8 up to 256 levels,
uint16 up to 65,536 and uint32 beyond. So a coded cell of a typical
categorical column takes one byte, not eight.
"""

from __future__ import annotations

import csv
import enum
import json
from array import array
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from .errors import (
    DataError,
    DegenerateColumnError,
    MissingValueError,
    NonBinaryOutcomeError,
    ParseError,
    SchemaMismatchError,
    UnknownFeatureError,
)

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


class FeatureKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"
    NOMINAL = "nominal"


class MissingPolicy(enum.Enum):
    ERROR = "error"
    DROP_ROW = "drop_row"


@dataclass(frozen=True)
class Schema:
    """Column names and kinds for one dataset.

    ``feature_names`` fixes the feature order used everywhere downstream.
    The outcome column is named separately and is always binary.
    """

    feature_names: tuple[str, ...]
    kinds: dict[str, FeatureKind]
    outcome_name: str
    missing_policy: MissingPolicy = MissingPolicy.ERROR

    def __post_init__(self):
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaMismatchError("duplicate feature names in schema")
        if self.outcome_name in self.feature_names:
            raise SchemaMismatchError(
                f"outcome {self.outcome_name!r} also listed as a feature"
            )
        missing = [f for f in self.feature_names if f not in self.kinds]
        if missing:
            raise SchemaMismatchError(f"features without a kind: {missing}")

    def kind(self, name: str) -> FeatureKind:
        return self.kinds[name]

    def features_of_kind(self, kind: FeatureKind) -> list[str]:
        return [f for f in self.feature_names if self.kinds[f] is kind]

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"name": f, "kind": self.kinds[f].value} for f in self.feature_names
            ],
            "outcome": self.outcome_name,
            "missing_policy": self.missing_policy.value,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Schema":
        """Read a schema document; an unknown key, at the top level or in a
        feature entry, is an error."""
        try:
            unknown = [repr(k) for k in doc.keys()
                       if k not in ("features", "outcome", "missing_policy")]
            unknown += [f"feature {k!r}" for item in doc["features"]
                        for k in item.keys() if k not in ("name", "kind")]
            if unknown:
                raise ValueError(f"unknown keys {', '.join(unknown)}")
            names = tuple(item["name"] for item in doc["features"])
            kinds = {
                item["name"]: FeatureKind(item["kind"]) for item in doc["features"]
            }
            outcome = doc["outcome"]
            policy = MissingPolicy(doc.get("missing_policy", "error"))
            if not all(isinstance(name, str) for name in (*names, outcome)):
                raise TypeError("feature and outcome names must be strings")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatchError(f"malformed schema document: {exc}") from exc
        return cls(names, kinds, outcome, policy)

    @classmethod
    def from_json_file(cls, path) -> "Schema":
        """Read a schema file; an error in its bytes or its document names it."""
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except (ValueError, SchemaMismatchError) as exc:
                raise SchemaMismatchError(f"{path}: {exc}") from None


class _CodedTable:
    """Accessors shared by :class:`Dataset` and :class:`DiscreteDataset`.

    Each coded column is held as read-only codes into the array of its
    labels, its levels, which are sorted for binary and nominal columns.
    The codes take the narrowest unsigned type its level count needs:
    uint8 up to 256 levels, uint16 up to 65,536 and uint32 beyond.
    """

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    def _coded(self, table: dict, name: str) -> np.ndarray:
        if name in table:
            return table[name]
        if name in self.schema.feature_names:
            raise ValueError(f"{name!r} is continuous; discretize it first")
        raise UnknownFeatureError(f"no feature named {name!r}")

    def codes(self, name: str) -> np.ndarray:
        """The column's read-only codes, unsigned integers of the width above.

        Indexing, comparing and ``np.bincount`` take them as they are. Cast
        them (to ``np.intp``, say) before arithmetic, which would wrap in
        the narrow type.
        """
        return self._coded(self._codes, name)

    def levels(self, name: str) -> tuple[str, ...]:
        return tuple(self._coded(self._levels, name).tolist())

    def arity(self, name: str) -> int:
        return len(self._coded(self._levels, name))

    def outcome_mean(self) -> float:
        return float(self.outcome.mean())


def _checked_outcome(outcome) -> np.ndarray:
    """``outcome`` as an array, once it is known to be a vector of 0s and 1s."""
    outcome = np.asarray(outcome)
    if outcome.ndim != 1:
        raise SchemaMismatchError("outcome must be a vector")
    # on integers a min and a max check exactly, at a fiftieth of isin's cost
    if not (outcome.min(initial=0) >= 0 and outcome.max(initial=1) <= 1
            if outcome.dtype.kind in "biu" else np.isin(outcome, (0, 1)).all()):
        raise NonBinaryOutcomeError("outcome values must be 0 or 1")
    return outcome


class Dataset(_CodedTable):
    """Immutable typed table with a binary outcome.

    Continuous columns are float64 arrays. Binary and nominal columns are
    held as the codes and sorted levels every other module reads, the
    codes in the narrowest unsigned type their level count needs (uint8 up
    to 256 levels, uint16 up to 65,536, uint32 beyond); :meth:`column`
    materializes their labels. The outcome is int8. Each categorical
    column is coded once: by :func:`load_csv` while it reads the file, or
    by this constructor from an array of labels.
    """

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 outcome: np.ndarray):
        outcome = _checked_outcome(outcome)
        continuous, coded = {}, {}
        for name in schema.feature_names:
            if name not in columns:
                raise SchemaMismatchError(f"column {name!r} missing")
            col = np.asarray(columns[name])
            if len(col) != len(outcome):
                raise SchemaMismatchError(
                    f"column {name!r} has {len(col)} rows, expected {len(outcome)}"
                )
            if schema.kind(name) is FeatureKind.CONTINUOUS:
                continuous[name] = col.astype(np.float64)
            else:
                coded[name] = np.unique(col.astype(str), return_inverse=True)
        extra = set(columns) - set(schema.feature_names)
        if extra:
            raise SchemaMismatchError(f"unexpected columns: {sorted(extra)}")
        self._adopt(schema, outcome.astype(np.int8), continuous, coded)

    @classmethod
    def _from_columns(cls, schema: Schema, outcome: np.ndarray,
                      continuous: dict[str, np.ndarray],
                      coded: dict[str, tuple[np.ndarray, np.ndarray]]) -> "Dataset":
        """A dataset over arrays already parsed and coded, taken without copies."""
        self = cls.__new__(cls)
        self._adopt(schema, outcome, continuous, coded)
        return self

    def _adopt(self, schema, outcome, continuous, coded) -> None:
        """Own the arrays: check each binary column's arity, make all read-only.

        ``coded`` maps each binary and nominal feature, in schema order, to
        its sorted levels and the integer codes into them, which are
        narrowed to :func:`_code_dtype` of the level count.
        """
        self.schema, self.outcome, self.n_rows = schema, outcome, len(outcome)
        self._continuous, self._codes, self._levels = continuous, {}, {}
        for name, (levels, codes) in coded.items():
            if schema.kind(name) is FeatureKind.BINARY and len(levels) > 2:
                raise _too_many_levels(name, levels)
            self._levels[name] = levels
            self._codes[name] = codes.astype(_code_dtype(len(levels)), copy=False)
        for col in (outcome, *continuous.values(), *self._codes.values(),
                    *self._levels.values()):
            col.setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        """A continuous column, or a categorical column's labels (a new array)."""
        if name in self._continuous:
            return self._continuous[name]
        labels = self._coded(self._levels, name).take(self._codes[name])
        labels.setflags(write=False)
        return labels

    def kind(self, name: str) -> FeatureKind:
        if name not in self._continuous and name not in self._codes:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self.schema.kind(name)


def _code_dtype(n_levels: int) -> np.dtype:
    """The narrowest unsigned integer type that holds codes below ``n_levels``."""
    if n_levels <= 1 << 8:
        return np.dtype(np.uint8)
    if n_levels <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def _distinct(s: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending array ``s``, in order.

    What ``np.unique`` returns for them, without the ``numpy.ma`` import
    that ``np.unique`` makes on numpy 2.4 when not asked for an inverse.
    """
    return s[np.append(s[1:] != s[:-1], True)]


def _too_many_levels(name: str, levels: np.ndarray,
                     where: str = "") -> SchemaMismatchError:
    return SchemaMismatchError(
        f"{where}binary feature {name!r} has {len(levels)} distinct values: "
        f"{levels[:4].tolist()}"
    )


# records load_csv reads and processes per step, each coded column with one
# lookup per cell. Larger blocks load no faster: a 100k-row, 8-column file
# took 125-134 ms in these, 147 ms or more in 1,024- or 4,096-record blocks,
# and on a 31-column table 1,024-record blocks pinned 3.8 MiB more peak RSS
BLOCK_ROWS = 256


def _missing_cells(distinct: set[str]) -> set[str]:
    """The members of a set of distinct cells that count as missing."""
    stripped = map(str.lower, map(str.strip, distinct))
    return set(compress(distinct, map(_MISSING_TOKENS.__contains__, stripped)))


def _finite_floats(cells: tuple[str, ...]) -> np.ndarray | None:
    """The cells as floats, or None if one does not parse or is not finite.

    A cell may be padded with whitespace. ``float`` skips most of it, but
    not U+001C..U+001F, which ``str.strip`` removes, so only a column that
    does not parse as it is takes the slower, stripped pass.
    """
    try:
        try:
            values = np.fromiter(map(float, cells), dtype=np.float64,
                                 count=len(cells))
        except ValueError:
            values = np.fromiter(map(float, map(str.strip, cells)),
                                 dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


class _ColumnReader:
    """Builds a CSV file's columns block by block.

    Each continuous column grows one float64 buffer, each coded column one
    buffer of the codes its index maps raw cells to: a categorical column's
    next code per new cell, the outcome's value as int8. A categorical
    buffer starts at one byte per cell and is widened to :func:`_code_dtype`
    of the raw cells seen so far when they outgrow it. A failed check
    records the first line it fails on and the reading goes on, so
    :meth:`dataset` can raise in the documented order over the whole file.
    """

    def __init__(self, path, schema: Schema, header: list[str]):
        self.path, self.schema, self.header = path, schema, header
        self.continuous = schema.features_of_kind(FeatureKind.CONTINUOUS)
        self.values = {f: array("d") for f in self.continuous}
        self.codes = {f: array(_code_dtype(0).char) for f in schema.feature_names
                      if f not in self.values}
        self.codes[schema.outcome_name] = array("b")
        self.index = {f: {} for f in self.codes}   # raw cell -> its code
        # each binary column's stripped labels so far, up to its third
        self.labels = {f: set() for f in schema.features_of_kind(FeatureKind.BINARY)}
        self.third_line: dict[str, int] = {}
        self.errors: dict = {}
        self.n_records = 0

    def _fail(self, check, error, line, message: str) -> None:
        self.errors.setdefault(check, error(f"{self.path}:{line}: {message}"))

    def add(self, rows: list[list[str]]) -> None:
        """Check, parse and code the next block of CSV records."""
        first = self.n_records + 2   # the header is line 1
        self.n_records += len(rows)
        lines = np.arange(first, first + len(rows))
        if set(map(len, rows)) != {len(self.header)}:   # a blank or bad width
            widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
            bad = np.flatnonzero((widths != len(self.header)) & (widths != 0))
            if len(bad):
                # no earlier block had one, so this is the file's first
                raise ParseError(
                    f"{self.path}:{first + bad[0]}: expected {len(self.header)} "
                    f"cells, got {widths[bad[0]]}"
                )
            lines = lines[widths != 0]
            if not len(lines):
                return
            rows = [row for row in rows if row]
        cells = dict(zip(self.header, zip(*rows)))
        del rows

        # a missing token fails float() or parses to NaN, and no index holds
        # one (its row is dropped before coding), so only a continuous column
        # that fails to parse and the cells new to an index need a token scan
        parsed = {f: values for f in self.continuous
                  if (values := _finite_floats(cells[f])) is not None}
        distinct = {f: set(cells[f]) for f in self.continuous if f not in parsed}
        codes = {}
        for f, index in self.index.items():
            try:
                codes[f] = np.fromiter(map(index.__getitem__, cells[f]),
                                       dtype=self.codes[f].typecode, count=len(lines))
            except KeyError:
                distinct[f] = set(cells[f]).difference(index)
        missing = np.zeros(len(lines), dtype=bool)
        for f, new in distinct.items():
            tokens = _missing_cells(new)
            if tokens:
                missing |= np.fromiter(map(tokens.__contains__, cells[f]), dtype=bool,
                                       count=len(lines))
        if missing.any():
            if self.schema.missing_policy is MissingPolicy.ERROR:
                self._fail("missing", MissingValueError, lines[missing.argmax()],
                           "missing value")
            lines, keep = lines[~missing], (~missing).tolist()
            cells = {f: tuple(compress(cells[f], keep)) for f in distinct}
            distinct = {f: set(col).difference(self.index[f])
                        for f, col in cells.items() if f in self.index}
            parsed = {f: values[~missing] for f, values in parsed.items()}
            codes = {f: block[~missing] for f, block in codes.items()}
        if not len(lines):
            return

        for f in self.continuous:
            values = parsed[f] if f in parsed else _finite_floats(cells[f])
            if values is None:
                self._locate_bad_float(f, cells[f], lines)
            else:
                self.values[f].frombytes(values.tobytes())
        for f in self.index:
            if f not in codes:
                codes[f] = self._code_new(f, distinct[f], cells[f], lines)
            self.codes[f].frombytes(codes[f].tobytes())

    def _code_new(self, name: str, new: set[str], cells: tuple[str, ...],
                  lines: np.ndarray) -> np.ndarray:
        """Enter a column's new cells in its index, check them, code the column."""
        index = self.index[name]
        if name == self.schema.outcome_name:
            index.update((cell, int(cell.strip() == "1")) for cell in new)
            bad = [cell for cell in new if cell.strip() not in ("0", "1")]
            if bad:
                row = min(map(cells.index, bad))
                self._fail("outcome", NonBinaryOutcomeError, lines[row],
                           f"outcome value {cells[row].strip()!r} is not 0 or 1")
        else:
            for cell in new:
                index[cell] = len(index)
            if name in self.labels and new and name not in self.third_line:
                self._locate_third_label(name, cells, lines)
            buffer, wide = self.codes[name], _code_dtype(len(index))
            if buffer.typecode != wide.char:
                narrow = np.frombuffer(buffer, dtype=buffer.typecode)
                self.codes[name] = array(wide.char, narrow.astype(wide).tobytes())
        return np.fromiter(map(index.__getitem__, cells),
                           dtype=self.codes[name].typecode, count=len(cells))

    def _locate_third_label(self, name: str, cells: tuple[str, ...],
                            lines: np.ndarray) -> None:
        seen = self.labels[name]
        for line, label in zip(lines, map(str.strip, cells)):
            if label not in seen:
                seen.add(label)
                if len(seen) > 2:
                    self.third_line[name] = int(line)
                    return

    def _locate_bad_float(self, name: str, cells: tuple[str, ...],
                          lines: np.ndarray) -> None:
        for line, cell in zip(lines, map(str.strip, cells)):
            try:
                value = float(cell)
            except ValueError:
                self._fail(("parse", name), ParseError, line,
                           f"cannot parse {cell!r} as continuous value for {name!r}")
                return
            if not np.isfinite(value):
                self._fail(("finite", name), ParseError, line,
                           f"non-finite continuous value {cell!r} for {name!r}")

    def dataset(self) -> Dataset:
        """Raise the first recorded failure in the documented order, or build."""
        if "missing" in self.errors:
            raise self.errors["missing"]
        if not self.codes[self.schema.outcome_name]:
            raise DegenerateColumnError(f"{self.path}: no data rows")
        for check in ("outcome", *((c, f) for f in self.continuous
                                   for c in ("parse", "finite"))):
            if check in self.errors:
                raise self.errors[check]
        continuous = {f: np.frombuffer(self.values[f], dtype=np.float64)
                      for f in self.continuous}
        outcome = np.frombuffer(self.codes.pop(self.schema.outcome_name), dtype=np.int8)
        del self.index[self.schema.outcome_name]
        coded = {}
        for f, index in self.index.items():
            # raw cells that strip alike share a level; popping the raw
            # codes frees each before the next column's level codes are made
            labels = np.asarray([cell.strip() for cell in index], dtype=str)
            levels, code_of = np.unique(labels, return_inverse=True)
            if f in self.third_line:
                line = self.third_line[f]
                raise _too_many_levels(f, levels, f"{self.path}:{line}: ")
            raw = self.codes.pop(f)
            code_of = code_of.astype(_code_dtype(len(levels)))
            coded[f] = levels, code_of[np.frombuffer(raw, dtype=raw.typecode)]
        return Dataset._from_columns(self.schema, outcome, continuous, coded)


def load_csv(path, schema: Schema) -> Dataset:
    """Read a comma-delimited UTF-8 file into a validated :class:`Dataset`.

    A leading byte-order mark is skipped. The header must contain exactly
    the schema's feature names plus the outcome column, in any order.
    Blank lines are skipped. Missing cells are handled per the schema's
    missing policy. A continuous cell must parse as a finite number.

    The records are read and processed :data:`BLOCK_ROWS` at a time: each
    block's cells are checked, parsed and coded, and appended to one
    growing array per column. No list of all rows is built, so the peak
    memory is about one block of cells plus the finished columns. A coded
    cell takes one lookup in its column's index of the raw cells seen so far;
    only a column holding a new cell takes a pass over its distinct cells.

    When a file has several defects, the first of these checks to fail
    raises, naming the earliest line it fails on anywhere in the file,
    whichever blocks the defects sit in:

    1. the header (:class:`SchemaMismatchError`);
    2. a row of the wrong width, a byte that is not UTF-8, or a cell
       longer than the csv module's field limit (:class:`ParseError`);
    3. under ``MissingPolicy.ERROR``, a missing cell
       (:class:`MissingValueError`);
    4. no data rows left (:class:`DegenerateColumnError`);
    5. an outcome other than 0 or 1 (:class:`NonBinaryOutcomeError`);
    6. per continuous feature in schema order, a cell that does not
       parse, then a non-finite one (:class:`ParseError`);
    7. per binary feature in schema order, a third distinct value
       (:class:`SchemaMismatchError`).

    Errors in data rows name ``path:line``. Lines count the header as 1
    and every CSV record after it, blank lines included, so they are file
    lines unless a quoted cell spans lines. The errors of step 2 raise
    when they are met. The decoder reads ahead of the CSV reader, so a bad
    byte can be met before the lines ahead of it are checked, the
    header's included. A bad byte or an overlong cell names the file but
    no line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaMismatchError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            expected = set(schema.feature_names) | {schema.outcome_name}
            got = set(header)
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                raise SchemaMismatchError(
                    f"{path}: header mismatch (missing={missing}, extra={extra})"
                )
            if len(header) != len(expected):
                raise SchemaMismatchError(f"{path}: duplicated header columns")
            columns = _ColumnReader(path, schema, header)
            for rows in iter(lambda: list(islice(reader, BLOCK_ROWS)), []):
                columns.add(rows)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} "
                         f"0x{exc.object[exc.start]:02x})") from None
    except csv.Error as exc:   # a cell longer than csv.field_size_limit()
        raise ParseError(f"{path}: {exc}") from None
    return columns.dataset()


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV in a form :func:`load_csv` round-trips.

    A value that :func:`load_csv` would not read back as written raises
    :class:`DataError` and nothing is written: a non-finite float, or a
    label that reads as missing or would be stripped of surrounding
    whitespace.
    """
    for name, col in dataset._continuous.items():
        if not np.isfinite(col).all():
            raise DataError(f"feature {name!r} has a non-finite value, which "
                            "load_csv would not read back")
    for name, levels in dataset._levels.items():
        for label in levels.tolist():
            if label != label.strip() or label.lower() in _MISSING_TOKENS:
                raise DataError(f"feature {name!r} has label {label!r}, which "
                                "load_csv would not read back as written")
    names = list(dataset.feature_names) + [dataset.schema.outcome_name]
    cols = [
        map(repr, col.tolist()) if col.dtype == np.float64 else col.tolist()
        for col in map(dataset.column, dataset.feature_names)
    ]
    cols.append(map(str, dataset.outcome.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*cols))


class BinMethod(enum.Enum):
    EQUAL_FREQUENCY = "equal_frequency"
    EQUAL_WIDTH = "equal_width"


@dataclass(frozen=True)
class DiscretizationSpec:
    """How to bin continuous columns; binary and nominal pass through."""

    method: BinMethod = BinMethod.EQUAL_FREQUENCY
    n_bins: int = 5

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")


def _nearest_rank_quantile(sorted_vals: np.ndarray, q: float) -> float:
    # nearest-rank definition: the ceil(q*n)-th order statistic (1-indexed)
    n = len(sorted_vals)
    rank = max(1, int(np.ceil(q * n)))
    return float(sorted_vals[rank - 1])


def _cut_points(values: np.ndarray, method: BinMethod, n_bins: int) -> np.ndarray:
    if len(values) == 0:
        raise DegenerateColumnError("cannot discretize an empty column")
    if method is BinMethod.EQUAL_FREQUENCY:
        svals = np.sort(values)
        cuts = [
            _nearest_rank_quantile(svals, i / n_bins) for i in range(1, n_bins)
        ]
    else:
        lo, hi = float(values.min()), float(values.max())
        cuts = [lo + i * (hi - lo) / n_bins for i in range(1, n_bins)]
    # drop duplicate cuts (ties or constant columns collapse bins)
    uniq = sorted(set(cuts))
    top = float(values.max())
    uniq = [c for c in uniq if c < top]
    return np.asarray(uniq, dtype=np.float64)


def assign_bins(values: np.ndarray, cut_points: np.ndarray) -> np.ndarray:
    """Map values to bin codes; a value equal to a cut goes to the lower bin.

    The codes take :func:`_code_dtype` of the bin count, one more than the
    number of cuts.
    """
    bins = np.searchsorted(cut_points, np.asarray(values, dtype=np.float64),
                           side="left")
    return bins.astype(_code_dtype(len(cut_points) + 1))


class DiscreteDataset(_CodedTable):
    """Every column categorical: integer codes plus their levels.

    Binned continuous features keep their cut points so labels are
    reproducible; binary and nominal features share the source dataset's
    codes and levels. As in :class:`Dataset`, every column's codes take the
    narrowest unsigned type its level (or bin) count needs: uint8 up to
    256, uint16 up to 65,536 and uint32 beyond.
    """

    def __init__(self, source_schema: Schema, outcome: np.ndarray,
                 codes: dict[str, np.ndarray], levels: dict[str, np.ndarray],
                 cut_points: dict[str, np.ndarray], covariate_cache: dict | None = None):
        self.schema = source_schema
        self.outcome = outcome
        self.n_rows = len(outcome)
        self._codes = codes
        self._levels = levels
        self.cut_points = cut_points
        # state derived from the covariates alone (the scanner's pattern
        # table), shared with every with_outcome copy
        self.covariate_cache = {} if covariate_cache is None else covariate_cache

    def with_outcome(self, outcome: np.ndarray) -> "DiscreteDataset":
        """Same covariates, different outcome vector (used by randomization)."""
        outcome = _checked_outcome(outcome).astype(np.int8, copy=False)
        if len(outcome) != self.n_rows:
            raise SchemaMismatchError("replacement outcome has wrong length")
        return DiscreteDataset(self.schema, outcome, self._codes, self._levels,
                               self.cut_points, self.covariate_cache)

    def cut_points_json_dict(self) -> dict:
        return {f: list(map(float, cuts)) for f, cuts in self.cut_points.items()}


def discretize(dataset: Dataset, spec: DiscretizationSpec) -> DiscreteDataset:
    """Bin continuous columns into ordinal codes; other kinds pass through.

    Equal-frequency cuts use the nearest-rank quantile; values tied with a
    cut point fall into the lower bin. A constant column yields a single
    bin. Cut points are stored per feature for reproducibility. Binary and
    nominal columns share the dataset's code arrays rather than copy them.
    """
    codes = dict(dataset._codes)
    levels = dict(dataset._levels)
    cut_points: dict[str, np.ndarray] = {}
    for name, col in dataset._continuous.items():
        cuts = _cut_points(col, spec.method, spec.n_bins)
        codes[name] = assign_bins(col, cuts)
        codes[name].setflags(write=False)
        levels[name] = np.arange(len(cuts) + 1).astype(str)
        cut_points[name] = cuts
    return DiscreteDataset(dataset.schema, dataset.outcome, codes, levels,
                           cut_points)


def one_hot(dataset: Dataset, features: list[str], intercept: bool = False,
            outcome: bool = False) -> tuple[np.ndarray, list[str], list[str]]:
    """Build a numeric design matrix for the listed features.

    Continuous columns pass through. A binary column becomes one 0/1
    indicator of its lexicographically larger value. A nominal column with
    c levels becomes c-1 indicators, dropping the lexicographically
    smallest level as the reference.

    With ``intercept`` the matrix starts with a column of ones, and with
    ``outcome`` it ends with the outcome as floats, so a least-squares fit
    can factor ``[1, X, y]`` with no separate X. The matrix is Fortran
    ordered and filled one column at a time, so it is the only n-row array
    made.

    Returns ``(matrix, column_names, column_sources)`` where
    ``column_sources[i]`` is the feature the i-th feature column came from;
    the names and sources cover neither the ones nor the outcome.
    """
    col_names: list[str] = []
    col_sources: list[str] = []
    for name in features:
        if dataset.kind(name) is FeatureKind.CONTINUOUS:
            col_names.append(name)
            col_sources.append(name)
        else:
            # level 0, the lexicographically smallest, is the reference; a
            # constant column contributes no design columns at all
            keep = dataset.levels(name)[1:]
            col_names.extend(f"{name}={v}" for v in keep)
            col_sources.extend(name for _ in keep)
    first = int(intercept)
    matrix = np.empty((dataset.n_rows, first + len(col_names) + int(outcome)),
                      order="F")
    if intercept:
        matrix[:, 0] = 1.0
    end = first
    for name in features:
        if dataset.kind(name) is FeatureKind.CONTINUOUS:
            matrix[:, end] = dataset.column(name)
            end += 1
        else:
            codes = dataset.codes(name)
            for level in range(1, dataset.arity(name)):
                np.equal(codes, level, out=matrix[:, end])
                end += 1
    if outcome:
        matrix[:, end] = dataset.outcome
    return matrix, col_names, col_sources
