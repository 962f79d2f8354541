"""Byte-stable JSON and CSV serialization through the standard library.

Reports must be byte-identical across repeated runs with the same inputs,
config and seed. JSON is ``json.dumps`` text with a two-space indent and
sorted keys; CSV is ``csv.writer`` rows ending in LF. Both spell every
float as its shortest round-trip ``repr``, so each value reads back bit for
bit, with its type and the sign of zero; JSON writes non-finite floats as
the NaN and Infinity tokens, which Python's json module reads back.
Every file is written by one atomic writer: a uniquely named temp file in
the target's directory, created as ``open(path, "x")`` creates a file, so
the process umask sets its mode, then renamed over the target.
Every JSON file featscan writes goes through ``write_json``: the reports,
the run metadata (``run_meta.json``) and synth's schema and ground truth.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

REPORT_VERSION = 1


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, floats as their ``repr``."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


@contextmanager
def _atomic_open(path: Path):
    """A text file that replaces ``path`` only if the block completes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    # opened before the try: a name that already exists is not ours to remove
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> Path:
    """Write a JSON document in the canonical form, atomically."""
    path = Path(path)
    text = dumps_canonical(doc) + "\n"
    with _atomic_open(path) as fh:
        fh.write(text)
    return path


def write_report(path, payload: dict) -> Path:
    """Write a versioned JSON report deterministically."""
    doc = {"report_version": REPORT_VERSION}
    doc.update(payload)
    return write_json(path, doc)


def write_csv_atomic(path, header: list[str], rows: list[list]) -> Path:
    """Write a small CSV with the same float spelling as the reports."""
    path = Path(path)
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path
