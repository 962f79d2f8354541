"""Self-test of the tracer on a tiny synthetic sweep.

Checks that every traced layer is reached, that spans nest, that
replicate scans are attributed under ``empirical_p_value``, that layer
self times sum to no more than the traced wall time, and that tracing
leaves the report bytes unchanged. Exits 0 when all hold:

    python3 perfbench/selftest.py WORK_DIR
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from featscan import synth

from check import report_bytes
from tracer import TARGETS, trace_command

R = 19
K_SWEEP = (2, 4)
N_SCANS = 4 * len(K_SWEEP) + 1   # four methods per K, plus all features


def fail(msg: str) -> None:
    sys.exit(f"tracer self-test failed: {msg}")


def main() -> int:
    work = Path(sys.argv[1])
    spec = synth.SynthSpec(
        n_rows=600, base_rate=0.25, n_continuous=2, arities=(2, 3, 3),
        plant=synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, 4.0), seed=7,
    )
    synth.save(*synth.generate(spec), work / "data")

    def argv(out: str) -> list[str]:
        return ["sweep", "--data", str(work / "data" / "data.csv"),
                "--schema", str(work / "data" / "schema.json"),
                "--out", str(work / out), "--gbm-trees", "3",
                "--bootstrap-r", str(R), "--restarts", "3",
                "--k-sweep", ",".join(map(str, K_SWEEP))]

    subprocess.run([sys.executable, "-m", "featscan.cli", *argv("plain")],
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    result = trace_command(argv("traced"))
    if result["rc"] != 0:
        fail(f"traced sweep exited {result['rc']}")
    spans = result["spans"]

    names = {s["name"].split(".")[0] for s in spans}
    missing = sorted({fn for _, fn in TARGETS} - names)
    if missing:
        fail(f"no span for {missing}")

    for i, s in enumerate(spans):
        if not s["start"] <= s["end"]:
            fail(f"span {i} ends before it starts")
        p = s["parent"]
        if p is not None and not (p < i and spans[p]["start"] <= s["start"]
                                  and s["end"] <= spans[p]["end"]):
            fail(f"span {i} ({s['name']}) is not inside its parent {p}")

    def under_p_value(s) -> bool:
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == "empirical_p_value":
                return True
        return False

    scans = [s for s in spans if s["name"].startswith("scan.")]
    replicates = [s for s in scans if s["name"] == "scan.replicate"]
    if any(under_p_value(s) != (s["name"] == "scan.replicate") for s in scans):
        fail("a scan is attributed to the wrong side of empirical_p_value")
    if (len(scans) - len(replicates), len(replicates)) != (N_SCANS, N_SCANS * R):
        fail(f"{len(scans) - len(replicates)} observed and {len(replicates)} "
             f"replicate scans, want {N_SCANS} and {N_SCANS * R}")

    total_self = sum(result["self_s"])
    if min(result["self_s"]) < -1e-9 or total_self > result["main_wall_s"]:
        fail(f"self times sum to {total_self:.6f} s, wall {result['main_wall_s']:.6f} s")

    if report_bytes(work / "plain") != report_bytes(work / "traced"):
        fail("tracing changed the report bytes")
    print(f"tracer self-test ok: {len(spans)} spans, {len(replicates)} replicate scans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
