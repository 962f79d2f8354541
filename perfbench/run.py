"""featscan benchmark: time the CLI end to end, check its output, trace it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/`` next to
this directory, never from an installed copy. Inputs are generated from
the seed before any timing starts.

--trace 0 is a closed loop with one client: one ``featscan`` command at a
time in a fresh process, with ``--workers`` at its default of 1 and BLAS
and OpenMP pinned to one thread, the next command starting when the
previous one exits, until S seconds have passed. A fresh-process set-up
probe runs before each command and after the last. It reports the median
wall time and median set-up time of those commands and probes, scaled by
the machine's speed during the run (see Reference), and their peak memory.

--trace 1 runs the tracer self-test, one untraced command and one traced
in-process command, and reports per-layer times and counts plus the
search-quality figures of the reports.

Either way every command's reports are checked (see check.py), and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# report bytes depend on the BLAS thread count (rho, OLS p-values)
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 6    # at least; more when more commands fit in the run
# the reference job's time on an uncontended core of a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4), so that scaled times read as seconds there
REF_NOMINAL_S = 0.025

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# deterministic for a seed; reported with the per-layer metrics, and as 0
# where the workload has no such figure
QUALITY_UNITS = {"fail_frac": "ratio", "planted_score_ratio": "ratio",
                 "full_cell_spread": "ratio", "topk_planted_recall": "ratio"}


@dataclass
class Child:
    """Outcome of one child process."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float = 0.0   # set by the caller where it is measured


def run_child(argv: list[str], log_path: Path) -> Child:
    """Run one process to completion and time it from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime)


def python_cmd(script: str, *args) -> list[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


def environment_line() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"env: {threads} nproc={os.cpu_count()} "
            f"pinned_cpu={','.join(map(str, sorted(os.sched_getaffinity(0))))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas}")


class Run:
    """One benchmark run of one workload: inputs, commands and their checks."""

    def __init__(self, workload, seed: int, work: Path):
        from check import Truth
        from workloads import generate
        self.workload, self.seed, self.work = workload, seed, work
        self.data = work / "data"
        self.truth = Truth(*generate(workload, seed, self.data))
        self.log = work / "child.log"
        self.attempted = self.failed = 0
        self.reference = None     # report bytes of the first command
        self.quality: dict[str, float] = {}
        self.errors: list[str] = []

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail}")
        return ok

    def setup(self) -> Child:
        child = run_child(python_cmd("setup_probe.py", self.data), self.log)
        self.record(child.rc == 0, "setup probe", f"exit {child.rc}")
        return child

    def command(self, index: int, traced_json: Path | None = None) -> Child:
        """Run the workload's command once and check what it wrote."""
        from check import check_reports, compare_bytes, report_bytes
        out = self.work / f"out{index}"
        argv = self.workload.argv(self.data, out, self.seed)
        if traced_json is None:
            rss_file = self.work / f"rss{index}"
            child = run_child(python_cmd("featscan_cli.py", rss_file, *argv), self.log)
            if rss_file.exists():
                child.peak_rss_mb = int(rss_file.read_text(encoding="ascii")) / 1024
        else:
            child = run_child(python_cmd("tracer.py", traced_json, "--", *argv), self.log)
        what = f"command {index}"
        if not self.record(child.rc == 0, what, f"exit {child.rc}"):
            return child
        try:
            quality = check_reports(self.workload, out, self.truth)
            if self.reference is None:
                self.reference, self.quality = report_bytes(out), quality
            else:
                compare_bytes(self.reference, out)
        except Exception as exc:   # any malformed report is a failed command
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        else:
            if index > 0:
                shutil.rmtree(out)
        return child

    def quality_metrics(self) -> dict[str, float | None]:
        """Search-quality figures, None where the workload has none."""
        return {n: self.quality.get(n) for n in QUALITY_UNITS} | {
            "fail_frac": self.failed / self.attempted}


class Reference:
    """A fixed job, independent of featscan, timed between the children.

    On a VM shared with other tenants each core runs up to 1.6x slower
    for spells of one to fifteen seconds, each core on its own, from load
    the guest cannot see; a run's median time moves with the share of the
    run those spells cover. This job (Python bytecode plus a numpy sort
    larger than L2) slows with them on the same core, so each child's
    time is scaled by the job's mean time just before and just after it.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.data = np.random.default_rng(0).random(400_000)
        self.times: list[float] = []
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        self.np.sort(self.data)
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def time(self, run_child_fn) -> tuple[Child, float]:
        """Run one child; return it and its wall time in seconds at the
        reference's nominal speed."""
        before = self.times[-1]
        child = run_child_fn()
        after = self.sample()
        return child, child.wall_s * REF_NOMINAL_S * 2 / (before + after)


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    """Closed loop of commands, with a set-up probe before each command and
    the rest after the last; medians resist single slow children."""
    ref, setup, commands = Reference(), [], []
    deadline = time.perf_counter() + seconds
    while not commands or time.perf_counter() < deadline:
        setup.append(ref.time(run.setup))
        commands.append(ref.time(lambda: run.command(len(commands))))
    setup += [ref.time(run.setup) for _ in range(max(1, SETUP_PROBES - len(setup)))]
    for name, timed in (("wall_s", commands), ("setup_s", setup)):
        print(f"{name} samples, s, measured/scaled:",
              " ".join(f"{c.wall_s:.4f}/{scaled:.4f}" for c, scaled in timed))
    print("reference samples, s:", " ".join(f"{t:.4f}" for t in ref.times))
    return {
        "wall_s": statistics.median(scaled for _, scaled in commands),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": max(c.peak_rss_mb for c, _ in commands),
    }, {"wall_s": len(commands), "setup_s": len(setup), "peak_rss_mb": len(commands)}


def trace(run: Run) -> dict[str, float]:
    selftest = run_child(python_cmd("selftest.py", run.work / "selftest"), run.log)
    run.record(selftest.rc == 0, "tracer self-test", f"exit {selftest.rc}")
    untraced = run.command(0)
    spans_json = run.work / "spans.json"
    run.command(1, traced_json=spans_json)
    if not spans_json.exists():
        return {}
    metrics = json.loads(spans_json.read_text(encoding="utf-8"))["metrics"]
    metrics["proc.cpu_s"] = untraced.cpu_s
    return metrics


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<26} {'value':>14}  {'unit':<6} n")
    for name, value, unit, n in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14}  {unit:<6} {n}")


def main() -> int:
    from workloads import WORKLOADS  # needs featscan, so imported after the path check

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # one CPU for this process and its children, so that the reference job
    # and the commands share a core: each core slows on its own
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(workload, args.seed, work)
        print(f"featscan benchmark: workload {workload.name}, seed {args.seed}, "
              f"trace {args.trace}; closed loop, 1 client, --workers 1")
        print(f"why: {workload.why}")
        print(environment_line())
        if args.trace:
            metrics = trace(run)
            from tracer import LAYER_UNITS
            units, counts = LAYER_UNITS, {name: 1 for name in LAYER_UNITS}
        else:
            metrics, counts = measure(run, args.seconds)
            units = END_TO_END_UNITS
        quality = run.quality_metrics()
        print_table("metrics:", [(n, metrics.get(n), units[n], counts[n]) for n in units])
        print_table("search quality (deterministic for a seed):",
                    [(n, quality[n], QUALITY_UNITS[n],
                      run.attempted if n == "fail_frac" else 1) for n in QUALITY_UNITS])
        for err in run.errors:
            print(f"FAILED {err}")
        correct = run.failed == 0 and set(metrics) >= set(units)
        if args.trace:
            metrics |= {n: v or 0.0 for n, v in quality.items()}
            units = units | QUALITY_UNITS
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]}
                        for n in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _bootstrap() -> int:
    if not (SRC / "featscan" / "__init__.py").is_file():
        print(f"perfbench: no featscan sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # before numpy loads, for data generation
    sys.path.insert(0, str(SRC))
    return main()


if __name__ == "__main__":
    sys.exit(_bootstrap())
