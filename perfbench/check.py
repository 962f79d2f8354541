"""Output check and search-quality figures for one workload's reports.

A command passes when it exited 0, wrote every expected report, the
reports parse and have the expected shape, every reported subset's
member count, outcome sum and score match a recount on the data, and
(checked by the caller) the reports are byte-identical to the first
command's.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from featscan.cli import ALL_FEATURES_LABEL, METHODS
from featscan.mdss import SubsetDescriptor, score_bernoulli
from featscan.tabular import DiscretizationSpec, discretize

from workloads import PLANTED_FEATURES, Workload

# written on every run with a wall-clock stamp, so never byte-compared
META_REPORT = "run_meta.json"


class CheckError(Exception):
    """A report is missing, malformed or disagrees with the data."""


class Truth:
    """The data the program saw, discretized as the CLI does by default."""

    def __init__(self, dataset, plant: SubsetDescriptor):
        self.n_features = len(dataset.feature_names)
        self.dd = discretize(dataset, DiscretizationSpec())
        self.alpha_g = self.dd.outcome_mean()
        self.planted_score = self.recount(plant)[2]

    def recount(self, subset: SubsetDescriptor) -> tuple[int, int, float]:
        mask = subset.matches(self.dd)
        n, s = int(mask.sum()), int(self.dd.outcome[mask].sum())
        return n, s, score_bernoulli(s, n, self.alpha_g)[0]


def expected_files(workload: Workload, n_features: int) -> set[str]:
    cmd = workload.command[0]
    if cmd == "sweep":
        cells = [f"sweep_{m}_k{k}.json" for m in METHODS
                 for k in workload.expects["k_values"]]
        cells.append(f"sweep_{ALL_FEATURES_LABEL}_k{n_features}.json")
        return {*cells, "sweep.csv", "sweep_summary.json", META_REPORT}
    if cmd == "select":
        return {*(f"select_{m}.json" for m in METHODS), "select_summary.json",
                META_REPORT}
    if cmd == "scan":
        return {"scan_all.json", "replicates_all.csv", "cutpoints_all.json",
                META_REPORT}
    raise ValueError(f"no check for command {cmd!r}")


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _check_scan_report(doc: dict, truth: Truth, r: int, name: str) -> float:
    sub = doc["subset"]
    n, s, score = truth.recount(SubsetDescriptor.from_json_dict(sub["restrictions"]))
    if (n, s, score) != (sub["n_members"], sub["sum_outcomes"], sub["score"]):
        raise CheckError(
            f"{name}: reported (n, sum, score) = ({sub['n_members']}, "
            f"{sub['sum_outcomes']}, {sub['score']}), recount ({n}, {s}, {score})"
        )
    if sub["alpha_g"] != truth.alpha_g:
        raise CheckError(f"{name}: alpha_g {sub['alpha_g']} != {truth.alpha_g}")
    sig = doc["significance"]
    if sig["r_replicates"] != r or len(sig["replicate_scores"]) != r:
        raise CheckError(f"{name}: expected {r} replicate scores")
    return score


def _check_selected(selected, k: int, truth: Truth, name: str) -> list[str]:
    known = set(truth.dd.feature_names)
    if len(selected) != k or len(set(selected)) != k or not set(selected) <= known:
        raise CheckError(f"{name}: selected {selected} is not {k} distinct features")
    return selected


def _recall(selected_lists) -> float:
    hits = [len(set(PLANTED_FEATURES) & set(s)) / len(PLANTED_FEATURES)
            for s in selected_lists]
    return sum(hits) / len(hits)


def check_reports(workload: Workload, out_dir: Path, truth: Truth) -> dict:
    """Raise CheckError unless the reports are complete and agree with the
    data; return the search-quality figures they imply."""
    want = expected_files(workload, truth.n_features)
    got = {p.name for p in out_dir.iterdir()}
    if got != want:
        raise CheckError(f"missing {sorted(want - got)}, unexpected {sorted(got - want)}")
    for name in sorted(want):
        if name.endswith(".json"):
            _load_json(out_dir / name)
    cmd, exp = workload.command[0], workload.expects

    if cmd == "sweep":
        summary = _load_json(out_dir / "sweep_summary.json")
        if summary["n_scans"] != exp["n_scans"]:
            raise CheckError(f"n_scans {summary['n_scans']} != {exp['n_scans']}")
        scores, full_cells, top5 = {}, [], []
        for name in sorted(want):
            if not name.startswith("sweep_") or name == "sweep_summary.json":
                continue
            doc = _load_json(out_dir / name)
            scores[name] = _check_scan_report(doc, truth, exp["r"], name)
            if doc["k"] == truth.n_features:
                full_cells.append(scores[name])
            if doc["method"] != ALL_FEATURES_LABEL and doc["k"] == min(exp["k_values"]):
                top5.append(_check_selected(doc["features_scanned"], doc["k"],
                                            truth, name))
        all_score = scores[f"sweep_{ALL_FEATURES_LABEL}_k{truth.n_features}.json"]
        if summary["all_features_score"] != all_score:
            raise CheckError("sweep_summary all_features_score disagrees with its cell")
        with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != exp["n_scans"] + 1:
            raise CheckError(f"sweep.csv has {len(rows) - 1} rows")
        return {
            "planted_score_ratio": all_score / truth.planted_score,
            "full_cell_spread": (max(full_cells) - min(full_cells)) / truth.planted_score,
            "topk_planted_recall": _recall(top5),
        }

    if cmd == "select":
        lists = [
            _check_selected(_load_json(out_dir / f"select_{m}.json")["selected"],
                            exp["k"], truth, m)
            for m in METHODS
        ]
        return {"topk_planted_recall": _recall(lists)}

    doc = _load_json(out_dir / "scan_all.json")
    score = _check_scan_report(doc, truth, exp["r"], "scan_all.json")
    with open(out_dir / "replicates_all.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["replicate", "score"]] or len(rows) != exp["r"] + 1:
        raise CheckError(f"replicates_all.csv has {len(rows) - 1} rows, want {exp['r']}")
    return {"planted_score_ratio": score / truth.planted_score}


def report_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every report except the wall-clock metadata, for byte comparison."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != META_REPORT}


def compare_bytes(reference: dict[str, bytes], out_dir: Path) -> None:
    got = report_bytes(out_dir)
    differ = sorted(n for n in reference.keys() | got.keys()
                    if reference.get(n) != got.get(n))
    if differ:
        raise CheckError(f"reports differ from the first run: {differ[:5]}")
