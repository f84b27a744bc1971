"""The one CSV format of every qmrts output file.

A header row of column names, then one row per element: float columns
at 9 significant digits, every other column as str() writes it.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Rows formatted per block: bounded memory with Python-float formatting speed.
_BLOCK_ROWS = 4096


def magnitude_db(mag) -> list[float]:
    """20*log10 of each magnitude, floored at 1e-30 so a zero stays finite."""
    return [20.0 * math.log10(m) for m in np.maximum(mag, 1e-30).tolist()]


def write_csv(path, columns: dict) -> None:
    """Write equal-length columns, keyed by their header names, to path."""
    cols = [np.asarray(c) for c in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            cells = []
            for c in cols:
                part = c[start:start + _BLOCK_ROWS].tolist()
                if c.dtype.kind == "f":
                    part = [f"{v:.9g}" for v in part]
                cells.append(part)
            w.writerows(zip(*cells))
