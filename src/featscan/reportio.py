"""Byte-stable JSON and CSV serialization.

Reports must be byte-identical across repeated runs with the same inputs,
config and seed, so floats are rendered with 17 significant digits, object
keys are sorted, and files are written atomically (temp file then rename).
Infinities use the Infinity token, which Python's json module reads back.
Every JSON file featscan writes goes through ``write_json``: the reports,
the run metadata (``run_meta.json``) and synth's schema and ground truth.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

REPORT_VERSION = 1


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            rendered = dumps_canonical(obj[key], indent + 1)
            items.append(f"{child_pad}{json.dumps(str(key))}: {rendered}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [child_pad + dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text_atomic(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_json(path, doc) -> Path:
    """Write a JSON document in the canonical form, atomically."""
    return write_text_atomic(path, dumps_canonical(doc) + "\n")


def write_report(path, payload: dict) -> Path:
    """Write a versioned JSON report deterministically."""
    doc = {"report_version": REPORT_VERSION}
    doc.update(payload)
    return write_json(path, doc)


def write_csv_atomic(path, header: list[str], rows: list[list]) -> Path:
    """Write a small CSV with the same float discipline as the reports."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return write_text_atomic(path, "\n".join(lines) + "\n")
