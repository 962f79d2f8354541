"""Golden regression values for the filter stage.

``data/filter_golden.json`` pins the full diagnostics of ``filter_select``
(every pair statistic, VIF value, drop with its reason string, note, and
their order) plus the kept features, on generated tables that trigger
|rho| drops, VIF drops, Cramer's V drops, constant columns and degenerate
pairs, each at the default and at tight thresholds. Diagnostics compare
as ``dumps_canonical`` text, so every float is exact to the bit.
Regenerate the file only for a deliberate, documented change of results:

    PYTHONPATH=src python tests/test_filter_golden.py > tests/data/filter_golden.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from featscan.filters import FilterThresholds, filter_select
from featscan.reportio import dumps_canonical
from featscan.tabular import Dataset, FeatureKind, Schema

GOLDEN = Path(__file__).parent / "data" / "filter_golden.json"

THRESHOLDS = {
    "default": FilterThresholds(),
    "tight": FilterThresholds(rho_max=0.5, vif_max=1.1, chi2_alpha=0.2,
                              cramers_v_max=0.15),
}


def _dataset(cont, cat, outcome):
    names = tuple(cont) + tuple(cat)
    kinds = {f: FeatureKind.CONTINUOUS for f in cont}
    for f, vals in cat.items():
        kinds[f] = (FeatureKind.BINARY if len(set(vals)) <= 2
                    else FeatureKind.NOMINAL)
    cols = {f: np.asarray(v, float) for f, v in cont.items()}
    cols.update({f: np.asarray(v, str) for f, v in cat.items()})
    return Dataset(Schema(names, kinds, "y"), cols, np.asarray(outcome))


def _rho_table():
    # two disjoint pairs of copies tie at |rho| = 1 (an alternating +-1
    # column over 20^2 rows gives exactly 1) and each pair ties on outcome
    # correlation; a chain of strong pairs makes later pairs meet an
    # already dropped member
    rng = np.random.default_rng(501)
    n = 400
    a, d = rng.normal(size=(2, n))
    w = np.tile([-1.0, 1.0], n // 2)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-a))).astype(int)
    cont = {
        "a": a, "a_copy": a.copy(), "a0": w, "a1": w.copy(),
        "b": a + 0.1 * rng.normal(size=n),
        "c": -a + 0.3 * rng.normal(size=n), "d": d,
        "e": 0.95 * d + 0.2 * rng.normal(size=n),
        "z": 0.5 * d + rng.normal(size=n),
    }
    return _dataset(cont, {}, y)


def _vif_table():
    # pairwise |rho| stays near 0.7, so only the VIF loop drops
    rng = np.random.default_rng(502)
    n = 500
    f1, f2, f4 = rng.normal(size=(3, n))
    cont = {
        "f1": f1, "f2": f2, "f3": f1 + f2 + 0.05 * rng.normal(size=n),
        "f4": f4, "f5": f1 - f4 + 0.05 * rng.normal(size=n),
        "f6": 0.5 * f2 + rng.normal(size=n),
    }
    return _dataset(cont, {}, rng.integers(0, 2, size=n))


def _cramers_table():
    # g1/g_relabel are one partition (a tie on mutual information), g_noisy
    # mostly agrees with g1, h is independent and k half-follows h
    rng = np.random.default_rng(503)
    n = 600
    g = rng.integers(0, 3, size=n)
    h = rng.integers(0, 2, size=n)
    y = (rng.random(n) < np.where(g == 0, 0.7, 0.25)).astype(int)
    cat = {
        "g1": g.astype(str),
        "g_relabel": np.array(["x", "y", "z"])[g],
        "g_noisy": np.where(rng.random(n) < 0.85, g, rng.integers(0, 3, n)).astype(str),
        "h": h.astype(str),
        "k": np.where(rng.random(n) < 0.6, h, rng.integers(0, 2, n)).astype(str),
        "w": rng.integers(0, 4, size=n).astype(str),
    }
    return _dataset({}, cat, y)


def _constant_table():
    # constant columns on both paths: undefined pearson and VIF notes,
    # degenerate chi-square pairs, next to pairs that do drop
    rng = np.random.default_rng(504)
    n = 300
    a, u = rng.normal(size=(2, n))
    cont = {"a": a, "b": a + 0.05 * rng.normal(size=n), "flat": np.full(n, 2.5),
            "u": u, "v": 0.6 * u + 0.8 * rng.normal(size=n)}
    g = rng.integers(0, 3, size=n)
    two = np.where(rng.random(n) < 0.5, g == 0, rng.integers(0, 2, size=n))
    cat = {"g": g.astype(str), "g2": g.astype(str), "one": np.full(n, "c"),
           "two": two.astype(int).astype(str)}
    return _dataset(cont, cat, rng.integers(0, 2, size=n))


def _flat_outcome_table():
    # a constant outcome: every outcome correlation is undefined (noted,
    # read as 0), so each drop falls to the alphabetical tie-break
    rng = np.random.default_rng(505)
    n = 200
    a = rng.normal(size=n)
    cont = {"p": a, "q": a + 0.02 * rng.normal(size=n), "r": rng.normal(size=n)}
    g = rng.integers(0, 2, size=n)
    cat = {"s": g.astype(str), "t": (1 - g).astype(str),
           "u": np.where(rng.random(n) < 0.5, g, rng.integers(0, 3, size=n)).astype(str)}
    return _dataset(cont, cat, np.zeros(n, dtype=int))


TABLES = {
    "rho": _rho_table,
    "vif": _vif_table,
    "cramers": _cramers_table,
    "constant": _constant_table,
    "flat_outcome": _flat_outcome_table,
}
CASES = [f"{table}-{level}" for table in TABLES for level in THRESHOLDS]


def _record(case):
    table, level = case.split("-")
    diag = filter_select(TABLES[table](), THRESHOLDS[level])
    return {"diagnostics": diag.to_json_dict(), "kept": diag.kept}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_filter_stage_matches_golden(golden, case):
    got = _record(case)
    want = golden[case]
    assert got["kept"] == want["kept"]
    assert dumps_canonical(got["diagnostics"]) == dumps_canonical(want["diagnostics"])


if __name__ == "__main__":
    sys.stdout.write(dumps_canonical({case: _record(case) for case in CASES}) + "\n")
