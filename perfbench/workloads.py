"""The benchmark's workloads: synthetic inputs plus one featscan command each.

Every workload plants the same kind of subgroup (a conjunction of two
categorical values with raised outcome odds) so the output check can
score the planted subset on the data the program saw. Inputs come only
from ``featscan.synth`` under the run's seed; the program sees the CSV and
the schema, never the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from featscan import synth

PLANTED_FEATURES = ("cat01", "cat02")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict                  # SynthSpec keyword arguments, seed excluded
    q_star: float
    command: tuple[str, ...]    # featscan subcommand and its flags
    expects: dict = field(default_factory=dict)

    def synth_spec(self, seed: int) -> synth.SynthSpec:
        plant = synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, self.q_star)
        return synth.SynthSpec(plant=plant, seed=seed % 2**32, **self.spec)

    def argv(self, data_dir, out_dir, seed: int) -> list[str]:
        return [
            self.command[0],
            "--data", str(data_dir / "data.csv"),
            "--schema", str(data_dir / "schema.json"),
            "--out", str(out_dir),
            "--seed", str(seed % 2**32),
            *self.command[1:],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_m",
            why=("the paper's main experiment, where every layer runs; its "
                 "30-feature scans have about one row per value pattern, so "
                 "it prices per-row coordinate ascent"),
            spec=dict(n_rows=5_000, base_rate=0.2, n_continuous=12,
                      pairwise_rho=0.2, arities=(2, 3, 4, 5) * 4 + (2, 3)),
            q_star=3.0,
            command=("sweep", "--k-sweep", "5,10,30", "--gbm-trees", "10",
                     "--bootstrap-r", "19", "--restarts", "4"),
            expects=dict(n_scans=13, r=19, k_values=(5, 10, 30)),
        ),
        Workload(
            name="select_l",
            why=("selection only, no scan: the GBM presets do most of the "
                 "work, the filter cascade, OLS elimination and a 10k-row "
                 "CSV load the rest"),
            spec=dict(n_rows=10_000, base_rate=0.2, n_continuous=20,
                      pairwise_rho=0.2, arities=(2, 3, 4, 5) * 2 + (2, 3)),
            q_star=3.0,
            command=("select", "--method", "all", "--k", "5",
                     "--gbm-trees", "10"),
            expects=dict(k=5),
        ),
        Workload(
            name="scan_tall",
            why=("a narrow, tall scan with about 35 rows per value pattern, "
                 "where bootstrap replicates are the largest layer and "
                 "pattern compression pays; no GBM runs"),
            spec=dict(n_rows=100_000, base_rate=0.1, n_continuous=1,
                      arities=(2, 3, 4, 2, 3, 4)),
            q_star=1.5,
            command=("scan", "--features", "all", "--bootstrap-r", "19",
                     "--restarts", "4"),
            expects=dict(r=19),
        ),
    )
}


def generate(workload: Workload, seed: int, out_dir):
    """Write data.csv, schema.json and ground_truth.json for one seed.

    Returns the dataset and the planted subset; the CSV round-trips
    exactly, so the dataset is what the program will load.
    """
    dataset, ground_truth = synth.generate(workload.synth_spec(seed))
    synth.save(dataset, ground_truth, out_dir)
    return dataset, ground_truth
