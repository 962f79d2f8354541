"""Small helpers that several test modules share."""

import tracemalloc

import numpy as np


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``'s result and the peak bytes ``tracemalloc``
    traced while it ran; LAPACK's work buffers are not traced."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def raw_matrix(columns):
    """The design that ``embedded._bin_columns`` is handed, one row per
    design column, each level block's codes written out as its indicator
    columns, and the (first column, level count) of every block."""
    XT, blocks = [], []
    for first, values, levels in columns:
        if levels:
            blocks.append((first, levels))
            XT.extend(values == j for j in range(levels))
        else:
            XT.append(values)
    return np.array(XT, dtype=np.float64), blocks
