"""Synthetic datasets with a known anomalous subgroup for validation.

Continuous features are (optionally correlated) Gaussians, categorical
features are uniform draws, and an optional plant multiplies the outcome
odds by a chosen factor inside a value-defined subgroup, giving exact
ground truth for end-to-end tests.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpecError
from .mdss import SubsetDescriptor
from .reportio import write_json
from .tabular import Dataset, FeatureKind, MissingPolicy, Schema, write_csv

_LETTERS = string.ascii_lowercase


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(test, length=None):
    return lambda v: isinstance(v, list) and all(map(test, v)) and length in (None, len(v))


# JSON types of spec-file values: (what the value must be, the test of it)
_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_INTS = ("a list of integers", _list_of(_is_int))
_TRIPLES = ("a list of integer triples", _list_of(_list_of(_is_int, 3)))
_PLANT = ("an object or null", lambda v: v is None or isinstance(v, dict))
_RESTRICTIONS = ("an object of string lists", lambda v: isinstance(v, dict) and all(
    map(_list_of(lambda s: isinstance(s, str)), v.values())))


def _get(doc: dict, key: str, json_type, *default):
    """``doc[key]``, or the default when absent; never coerced to another type."""
    if key not in doc and default:
        return default[0]
    what, test = json_type
    if not test(doc[key]):
        raise InvalidSpecError(
            f"malformed synth spec: {key!r} must be {what}, got {doc[key]!r}")
    return doc[key]


@dataclass(frozen=True)
class PlantSpec:
    """Anomalous subgroup: value restrictions plus an odds multiplier."""

    restrictions: dict[str, tuple[str, ...]]
    q_star: float

    def __post_init__(self):
        if not 1.0 < self.q_star < math.inf:
            raise InvalidSpecError(f"q_star must be in (1, inf), got {self.q_star}")
        if not self.restrictions:
            raise InvalidSpecError("plant needs at least one restriction")


@dataclass(frozen=True)
class SynthSpec:
    """Shape and structure of one synthetic dataset.

    ``collinear_triples`` entries (i, j, k) overwrite continuous feature k
    with feature i + feature j + N(0, 0.01) noise. Categorical features
    are declared by their arities; arity-2 features are typed binary.
    Plants may only reference categorical features, since scan-side
    membership is defined on discrete values.
    """

    n_rows: int
    base_rate: float
    n_continuous: int = 0
    pairwise_rho: float = 0.0
    collinear_triples: tuple[tuple[int, int, int], ...] = ()
    arities: tuple[int, ...] = ()
    plant: PlantSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 1:
            raise InvalidSpecError(f"n_rows must be >= 1, got {self.n_rows}")
        if not 0.0 < self.base_rate < 1.0:
            raise InvalidSpecError(f"base_rate must be in (0,1), got {self.base_rate}")
        if self.n_continuous < 0 or self.n_continuous + len(self.arities) == 0:
            raise InvalidSpecError("need at least one feature")
        c = self.n_continuous
        if c >= 2 and not -1.0 / (c - 1) < self.pairwise_rho < 1.0:
            raise InvalidSpecError(f"pairwise_rho {self.pairwise_rho} infeasible")
        for a in self.arities:
            if not 2 <= a <= len(_LETTERS):
                raise InvalidSpecError(f"arity must be in [2, 26], got {a}")
        for i, j, k in self.collinear_triples:
            if len({i, j, k}) != 3 or not all(0 <= t < c for t in (i, j, k)):
                raise InvalidSpecError(f"bad collinear triple {(i, j, k)}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.plant is not None:
            cat_names = set(self.categorical_names())
            for f, values in self.plant.restrictions.items():
                if f not in cat_names:
                    raise InvalidSpecError(
                        f"plant restricts {f!r}, which is not a categorical "
                        f"feature; plants reference discrete values only"
                    )
                if not values:
                    raise InvalidSpecError(f"plant restriction on {f!r} is empty")
                arity = self.arities[self.categorical_names().index(f)]
                bad = set(values) - set(_LETTERS[:arity])
                if bad:
                    raise InvalidSpecError(
                        f"plant values {sorted(bad)} outside domain of {f!r}"
                    )

    def continuous_names(self) -> list[str]:
        return [f"num{i + 1:02d}" for i in range(self.n_continuous)]

    def categorical_names(self) -> list[str]:
        return [f"cat{i + 1:02d}" for i in range(len(self.arities))]

    def schema(self) -> Schema:
        names = self.continuous_names() + self.categorical_names()
        kinds = {f: FeatureKind.CONTINUOUS for f in self.continuous_names()}
        for f, a in zip(self.categorical_names(), self.arities):
            kinds[f] = FeatureKind.BINARY if a == 2 else FeatureKind.NOMINAL
        return Schema(tuple(names), kinds, "outcome", MissingPolicy.ERROR)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SynthSpec":
        """Read a spec file's object; a value of the wrong JSON type is an error."""
        try:
            plant = _get(doc, "plant", _PLANT, None)
            if plant is not None:
                restrictions = _get(plant, "restrictions", _RESTRICTIONS)
                plant = PlantSpec({f: tuple(v) for f, v in restrictions.items()},
                                  float(_get(plant, "q_star", _NUMBER)))
            return cls(
                n_rows=_get(doc, "n_rows", _INT),
                base_rate=float(_get(doc, "base_rate", _NUMBER)),
                n_continuous=_get(doc, "n_continuous", _INT, 0),
                pairwise_rho=float(_get(doc, "pairwise_rho", _NUMBER, 0.0)),
                collinear_triples=tuple(
                    map(tuple, _get(doc, "collinear_triples", _TRIPLES, []))),
                arities=tuple(_get(doc, "arities", _INTS, [])),
                plant=plant,
                seed=_get(doc, "seed", _INT, 0),
            )
        except (KeyError, OverflowError) as exc:
            raise InvalidSpecError(f"malformed synth spec: {exc}") from exc


def planted_probability(base_rate: float, q_star: float) -> float:
    """Outcome probability whose odds are q_star times the base odds."""
    return q_star * base_rate / (1.0 - base_rate + q_star * base_rate)


def generate(spec: SynthSpec) -> tuple[Dataset, SubsetDescriptor | None]:
    """Draw one dataset; returns the ground-truth plant descriptor if any.

    Bit-identical for equal specs: draws happen in a fixed order
    (continuous block, categorical columns, outcome).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    columns: dict[str, np.ndarray] = {}

    c = spec.n_continuous
    if c > 0:
        z = rng.standard_normal((n, c))
        if c >= 2 and spec.pairwise_rho != 0.0:
            cov = np.full((c, c), spec.pairwise_rho)
            np.fill_diagonal(cov, 1.0)
            z = z @ np.linalg.cholesky(cov).T
        for i, j, k in spec.collinear_triples:
            z[:, k] = z[:, i] + z[:, j] + 0.01 * rng.standard_normal(n)
        for i, name in enumerate(spec.continuous_names()):
            columns[name] = z[:, i]

    for name, arity in zip(spec.categorical_names(), spec.arities):
        codes = rng.integers(0, arity, size=n)
        columns[name] = np.array([_LETTERS[k] for k in codes])

    ground_truth = None
    if spec.plant is not None:
        mask = np.ones(n, dtype=bool)
        for f, values in spec.plant.restrictions.items():
            mask &= np.isin(columns[f], list(values))
        p1 = planted_probability(spec.base_rate, spec.plant.q_star)
        probs = np.where(mask, p1, spec.base_rate)
        ground_truth = SubsetDescriptor(
            {f: frozenset(v) for f, v in spec.plant.restrictions.items()}
        )
    else:
        probs = np.full(n, spec.base_rate)
    outcome = (rng.random(n) < probs).astype(np.int8)

    return Dataset(spec.schema(), columns, outcome), ground_truth


def save(dataset: Dataset, ground_truth: SubsetDescriptor | None,
         out_dir) -> dict[str, Path]:
    """Write data.csv, schema.json, and ground_truth.json into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "data": out / "data.csv",
        "schema": out / "schema.json",
        "ground_truth": out / "ground_truth.json",
    }
    write_csv(dataset, paths["data"])
    write_json(paths["schema"], dataset.schema.to_json_dict())
    write_json(paths["ground_truth"], {
        "plant": ground_truth.to_json_dict() if ground_truth is not None else None})
    return paths
