"""Tabular data model: typed columns, CSV ingestion, discretization, encoding.

A :class:`Dataset` is the single immutable view of the data that every other
module reads. Columns are typed as continuous, binary, or nominal; the
outcome is a 0/1 vector. Continuous columns can be binned into a
:class:`DiscreteDataset`, which is what the scanner consumes.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
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
        try:
            names = tuple(item["name"] for item in doc["features"])
            kinds = {
                item["name"]: FeatureKind(item["kind"]) for item in doc["features"]
            }
            outcome = doc["outcome"]
            policy = MissingPolicy(doc.get("missing_policy", "error"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatchError(f"malformed schema document: {exc}") from exc
        return cls(names, kinds, outcome, policy)

    @classmethod
    def from_json_file(cls, path) -> "Schema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


class Dataset:
    """Immutable typed table with a binary outcome.

    Continuous columns are float64 arrays; binary and nominal columns are
    string arrays. The outcome is an int8 array of 0/1.
    """

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 outcome: np.ndarray):
        self.schema = schema
        self._columns = {}
        outcome = np.asarray(outcome)
        if outcome.ndim != 1:
            raise SchemaMismatchError("outcome must be a vector")
        if not np.isin(outcome, (0, 1)).all():
            raise NonBinaryOutcomeError("outcome values must be 0 or 1")
        self.outcome = outcome.astype(np.int8)
        self.outcome.setflags(write=False)
        self.n_rows = len(outcome)
        for name in schema.feature_names:
            if name not in columns:
                raise SchemaMismatchError(f"column {name!r} missing")
            col = np.asarray(columns[name])
            if len(col) != self.n_rows:
                raise SchemaMismatchError(
                    f"column {name!r} has {len(col)} rows, expected {self.n_rows}"
                )
            if schema.kind(name) is FeatureKind.CONTINUOUS:
                col = col.astype(np.float64)
            else:
                col = col.astype(str)
                if schema.kind(name) is FeatureKind.BINARY:
                    levels = np.unique(col)
                    if len(levels) > 2:
                        raise SchemaMismatchError(
                            f"binary feature {name!r} has {len(levels)} distinct "
                            f"values: {list(levels[:4])}"
                        )
            col.setflags(write=False)
            self._columns[name] = col
        extra = set(columns) - set(schema.feature_names)
        if extra:
            raise SchemaMismatchError(f"unexpected columns: {sorted(extra)}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self._columns[name]

    def kind(self, name: str) -> FeatureKind:
        if name not in self._columns:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self.schema.kind(name)

    def outcome_mean(self) -> float:
        return float(self.outcome.mean())


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def load_csv(path, schema: Schema) -> Dataset:
    """Read a comma-delimited UTF-8 file into a validated :class:`Dataset`.

    The header must contain exactly the schema's feature names plus the
    outcome column, in any order. Missing cells are handled per the
    schema's missing policy. A continuous cell must parse as a finite
    number. Raises :class:`SchemaMismatchError`,
    :class:`NonBinaryOutcomeError`, :class:`ParseError`, or
    :class:`MissingValueError`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
        col_idx = {name: header.index(name) for name in header}

        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            if any(_is_missing(row[col_idx[f]]) for f in expected):
                if schema.missing_policy is MissingPolicy.DROP_ROW:
                    continue
                raise MissingValueError(f"{path}:{lineno}: missing value")
            raw_rows.append(row)

    columns: dict[str, list] = {f: [] for f in schema.feature_names}
    outcome = []
    for row in raw_rows:
        cell = row[col_idx[schema.outcome_name]].strip()
        if cell not in ("0", "1"):
            raise NonBinaryOutcomeError(
                f"{path}: outcome value {cell!r} is not 0 or 1"
            )
        outcome.append(int(cell))
        for f in schema.feature_names:
            cell = row[col_idx[f]].strip()
            if schema.kind(f) is FeatureKind.CONTINUOUS:
                try:
                    columns[f].append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: cannot parse {cell!r} as continuous "
                        f"value for {f!r}"
                    ) from None
            else:
                columns[f].append(cell)

    arrays = {
        f: np.asarray(vals, dtype=np.float64)
        if schema.kind(f) is FeatureKind.CONTINUOUS
        else np.asarray(vals, dtype=str)
        for f, vals in columns.items()
    }
    for f in schema.features_of_kind(FeatureKind.CONTINUOUS):
        bad = np.flatnonzero(~np.isfinite(arrays[f]))
        if len(bad):
            raise ParseError(
                f"{path}: non-finite continuous value "
                f"{raw_rows[bad[0]][col_idx[f]].strip()!r} for {f!r}"
            )
    if not outcome:
        raise DegenerateColumnError(f"{path}: no data rows")
    return Dataset(schema, arrays, np.asarray(outcome, dtype=np.int8))


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV in a form :func:`load_csv` round-trips."""
    names = list(dataset.feature_names) + [dataset.schema.outcome_name]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        cols = [dataset.column(f) for f in dataset.feature_names]
        for i in range(dataset.n_rows):
            row = [
                repr(float(c[i])) if c.dtype == np.float64 else str(c[i])
                for c in cols
            ]
            row.append(str(int(dataset.outcome[i])))
            writer.writerow(row)


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
    """Map values to bin codes; a value equal to a cut goes to the lower bin."""
    return np.searchsorted(cut_points, np.asarray(values, dtype=np.float64),
                           side="left").astype(np.int64)


class DiscreteDataset:
    """Every column categorical: integer codes plus an ordered label list.

    Binned continuous features keep their cut points so labels are
    reproducible; binary and nominal features keep their original values
    as labels, in sorted order.
    """

    def __init__(self, source_schema: Schema, outcome: np.ndarray,
                 codes: dict[str, np.ndarray], levels: dict[str, tuple[str, ...]],
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
        for name, col in codes.items():
            col.setflags(write=False)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    def codes(self, name: str) -> np.ndarray:
        if name not in self._codes:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self._codes[name]

    def levels(self, name: str) -> tuple[str, ...]:
        if name not in self._levels:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self._levels[name]

    def arity(self, name: str) -> int:
        return len(self.levels(name))

    def outcome_mean(self) -> float:
        return float(self.outcome.mean())

    def with_outcome(self, outcome: np.ndarray) -> "DiscreteDataset":
        """Same covariates, different outcome vector (used by randomization)."""
        outcome = np.asarray(outcome, dtype=np.int8)
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
    bin. Cut points are stored per feature for reproducibility.
    """
    codes: dict[str, np.ndarray] = {}
    levels: dict[str, tuple[str, ...]] = {}
    cut_points: dict[str, np.ndarray] = {}
    for name in dataset.feature_names:
        col = dataset.column(name)
        if dataset.kind(name) is FeatureKind.CONTINUOUS:
            cuts = _cut_points(col, spec.method, spec.n_bins)
            code = assign_bins(col, cuts)
            n_levels = len(cuts) + 1
            codes[name] = code
            levels[name] = tuple(str(i) for i in range(n_levels))
            cut_points[name] = cuts
        else:
            lv, code = np.unique(col, return_inverse=True)
            codes[name] = code.astype(np.int64)
            levels[name] = tuple(lv.tolist())
    return DiscreteDataset(dataset.schema, dataset.outcome, codes, levels,
                           cut_points)


def one_hot(dataset: Dataset, features: list[str]) -> tuple[np.ndarray, list[str], list[str]]:
    """Build a numeric design matrix for the listed features.

    Continuous columns pass through. A binary column becomes one 0/1
    indicator of its lexicographically larger value. A nominal column with
    c levels becomes c-1 indicators, dropping the lexicographically
    smallest level as the reference.

    Returns ``(matrix, column_names, column_sources)`` where
    ``column_sources[i]`` is the feature each design column came from.
    """
    blocks = []
    col_names: list[str] = []
    col_sources: list[str] = []
    for name in features:
        kind = dataset.kind(name)
        col = dataset.column(name)
        if kind is FeatureKind.CONTINUOUS:
            blocks.append(col.astype(np.float64).reshape(-1, 1))
            col_names.append(name)
            col_sources.append(name)
        else:
            # reference level is the lexicographically smallest; a constant
            # column contributes no design columns at all
            keep = sorted(np.unique(col).tolist())[1:]
            if keep:
                block = np.column_stack(
                    [(col == v).astype(np.float64) for v in keep]
                )
                blocks.append(block)
            col_names.extend(f"{name}={v}" for v in keep)
            col_sources.extend(name for _ in keep)
    if blocks:
        matrix = np.hstack(blocks)
    else:
        matrix = np.empty((dataset.n_rows, 0))
    return matrix, col_names, col_sources
