"""Outside-in tracer for one featscan CLI run.

The tracer wraps featscan's public layer functions at every name they are
looked up by (``featscan.<module>.<fn>`` and the names other modules
import directly), then calls ``featscan.cli.main(argv)`` in this process.
Each call becomes a span with its parent, so a layer's self time is its
duration minus the time its child spans cover. Nothing under ``src/``
changes.

Run as a script it traces one command and writes the spans and the
per-layer metrics as JSON:

    python3 perfbench/tracer.py OUT.json -- sweep --data ... --out ...
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) pairs; each is a layer boundary
TARGETS = (
    ("tabular", "load_csv"), ("tabular", "discretize"), ("tabular", "one_hot"),
    ("filters", "filter_select"),
    ("wrapper", "backward_eliminate"), ("wrapper", "ols_fit"),
    ("embedded", "gbm_train"), ("embedded", "encode_design"),
    ("mdss", "scan"),
    ("inference", "empirical_p_value"), ("inference", "odds_ratio"),
    ("inference", "characterize"),
    ("reportio", "write_report"), ("reportio", "write_csv_atomic"),
)

# per-layer metric name -> unit; the order is the order they are printed
LAYER_UNITS = {
    "load_csv.s": "s", "discretize.s": "s",
    "one_hot.calls": "count", "one_hot.s": "s",
    "filter_select.s": "s",
    "backward_eliminate.s": "s", "ols_fit.calls": "count", "ols_fit.s": "s",
    "gbm_train.A.s": "s", "gbm_train.B.s": "s", "encode_design.s": "s",
    "scan.observed.calls": "count", "scan.observed.s": "s",
    "scan.replicate.calls": "count", "scan.replicate.s": "s",
    "scan.s_per_call": "s", "scan.features_per_call": "count",
    "scan.rows_per_pattern": "rows",
    "empirical_p_value.self_s": "s", "odds_ratio.s": "s", "characterize.s": "s",
    "write_report.calls": "count", "write_report.s": "s",
    "write_report.bytes": "B", "write_csv_atomic.s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s", "proc.cpu_s": "s",
}


class Tracer:
    """Records a span per call of each target while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.observed_scans: list[tuple] = []   # (DiscreteDataset, features)
        self._stack: list[int] = []
        self._patched: list[tuple] = []         # (module, attribute, original)

    def install(self) -> None:
        import featscan.cli  # noqa: F401  loads every featscan module
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "featscan" or n.startswith("featscan.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"featscan.{mod_name}"], fn_name)
            traced = self._wrap(original, fn_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None}
            if name == "gbm_train":
                span["name"] = f"gbm_train.{args[1].preset.name}"
            elif name == "scan":
                replicate = any(self.spans[i]["name"] == "empirical_p_value"
                                for i in self._stack)
                span["name"] = "scan.replicate" if replicate else "scan.observed"
                span["features"] = len(args[1])
                if not replicate:
                    self.observed_scans.append((args[0], tuple(args[1])))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if name == "write_report":
                    span["bytes"] = os.path.getsize(args[0])
        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its children's durations."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def rows_per_pattern(dd, features) -> float:
    """Rows per distinct joint value pattern of the scanned features."""
    joint = np.stack([dd.codes(f) for f in features], axis=1)
    return dd.n_rows / len(np.unique(joint, axis=0))


def span_cost_s(calls: int = 20_000) -> float:
    """Time a traced call adds to the call it wraps, measured on a no-op.

    A traced and an untraced command differ by about this times the span
    count; timing two separate commands instead would bury it in noise.
    """
    def noop():
        return None
    traced = Tracer()._wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    mid = time.perf_counter()
    for _ in range(calls):
        traced()
    end = time.perf_counter()
    return max(0.0, ((end - mid) - (mid - start)) / calls)


def layer_metrics(tracer: Tracer, main_wall_s: float) -> dict[str, float]:
    """Per-layer totals; ``.s`` is inclusive time, ``.self_s`` exclusive."""
    spans = tracer.spans
    own = self_times(spans)
    m = {name: 0.0 for name in LAYER_UNITS}
    for s, self_s in zip(spans, own):
        dur = s["end"] - s["start"]
        if f"{s['name']}.s" in m:
            m[f"{s['name']}.s"] += dur
        if f"{s['name']}.calls" in m:
            m[f"{s['name']}.calls"] += 1
        if s["name"] == "empirical_p_value":
            m["empirical_p_value.self_s"] += self_s
        elif s["name"] == "write_report":
            m["write_report.bytes"] += s["bytes"]
    scans = [s for s in spans if s["name"].startswith("scan.")]
    if scans:
        m["scan.s_per_call"] = (m["scan.observed.s"] + m["scan.replicate.s"]) / len(scans)
        m["scan.features_per_call"] = statistics.fmean(s["features"] for s in scans)
        m["scan.rows_per_pattern"] = statistics.median(
            rows_per_pattern(dd, f) for dd, f in tracer.observed_scans)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["cli.self_s"] = main_wall_s - top
    m["trace.overhead_s"] = len(spans) * span_cost_s()
    return m


def trace_command(argv: list[str]) -> dict:
    """Run ``featscan.cli.main(argv)`` under the tracer."""
    import featscan.cli
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        rc = featscan.cli.main(argv)
        main_wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {
        "rc": rc,
        "main_wall_s": main_wall_s,
        "self_s": self_times(tracer.spans),
        "metrics": layer_metrics(tracer, main_wall_s),
        "spans": tracer.spans,
    }


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: tracer.py OUT.json -- FEATSCAN_ARGS...")
    result = trace_command(argv)
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
