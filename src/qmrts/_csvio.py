"""The one CSV format of every qmrts output file.

A header row of column names, then one row per element: float columns
as "%.9g" formats them, every other column as str() writes it, comma
separated and ended by "\n".  No cell is quoted, so a string cell that
would need quoting is refused.
"""

from __future__ import annotations

import math

import numpy as np

# Rows formatted per block: bounded memory with Python-float formatting speed.
_BLOCK_ROWS = 4096
# Characters a CSV reader would take as a cell or row boundary: a cell
# holding one would need quoting.
_UNSAFE = frozenset(',"\r\n')


def magnitude_db(mag) -> list[float]:
    """20*log10 of each magnitude, floored at 1e-30 so a zero stays finite."""
    return [20.0 * math.log10(m) for m in np.maximum(mag, 1e-30).tolist()]


def write_csv(path, columns: dict) -> None:
    """Write equal-length columns, keyed by their header names, to path."""
    cols = [np.asarray(c) for c in columns.values()]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns of unequal length: {[len(c) for c in cols]}")
    for name, c in zip(columns, cols):
        if c.dtype.kind not in "biuf" and _UNSAFE & set("".join(map(str, c.tolist()))):
            raise ValueError(f"column {name!r} has a cell with , \" \\r or \\n")
    write_blocks(path, list(columns), len(cols[0]),
                 lambda start, stop: [c[start:stop] for c in cols])


def write_blocks(path, names: list[str], n_rows: int, block) -> None:
    """Write n_rows rows under the header names to path.

    block(start, stop) returns the columns of rows start to stop, one
    array each, so no column need be held whole.  A column's format
    follows its dtype, as in write_csv, which checks string cells.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            cols = block(start, min(start + _BLOCK_ROWS, n_rows))
            row = ",".join("%.9g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
            fh.write("".join(map(row.__mod__, zip(*(c.tolist() for c in cols)))))
