"""The one CSV format of every qmrts output file.

A header row of column names, then one row per element: float columns
as "%.9g" formats them, every other column as str() writes it, comma
separated and ended by "\n".  No cell is quoted, so a string cell that
would need quoting is refused.

Rows are formatted and written one block of at most 4096 rows at a
time, by the calling process: each block is one "%" call, its row
template repeated once per row and applied to the block's cells in row
order.  Each file is written to a sibling and renamed over its path once
complete (write_blocks), so a failed write leaves no partial file; a
symlink, pipe or device is written through.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from pathlib import Path

import numpy as np

# Rows formatted per block: bounded memory with Python-float formatting speed.
_BLOCK_ROWS = 4096
# Characters a CSV reader would take as a cell or row boundary: a cell
# holding one would need quoting.
_UNSAFE = frozenset(',"\r\n')


def magnitude_db(mag) -> list[float]:
    """20*log10 of each magnitude, floored at 1e-30 so a zero stays finite."""
    # math.log10 per element, not np.log10: on an AVX-512 Xeon numpy 2.4.6's
    # SIMD log10 differed from it in the last bit on 52,802 of 262,144
    # uniform random values, so the mag_db bytes would depend on the CPU.
    return [20.0 * math.log10(m) for m in np.maximum(mag, 1e-30).tolist()]


def write_csv(path, columns: dict) -> None:
    """Write columns, keyed by their header names, to path.

    A column is a sequence of one cell per row, or a scalar that fills
    every row; the sequences must be of equal length.
    """
    cols = [np.asarray(c) for c in columns.values()]
    lengths = [len(c) for c in cols if c.ndim]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    for name, c in zip(columns, cols):
        if c.dtype.kind not in "biuf" and _UNSAFE & set("".join(map(str, c.ravel().tolist()))):
            raise ValueError(f"column {name!r} has a cell with , \" \\r or \\n")
    write_blocks(path, list(columns), [cols])


def write_blocks(path, names: list[str], segments) -> None:
    """Write the rows of each segment, in order, under the header names to path.

    A segment is a list of columns, one per name: an array of one cell
    per row of the segment, or a scalar that fills that column of the
    segment.  A segment with no array has no rows.  A column's format
    follows its dtype, as in write_csv, which checks string cells.

    The rows go to path's sibling "<name>.part", renamed to path on
    success and removed on any exception, which is raised again, so a
    file already at path stays as it was.  A path that is a symlink, a
    pipe or a device (/dev/stdout, say) is written through instead, as
    a rename would replace it.
    """
    path = Path(path)
    if path.is_symlink() or path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            _write(fh, names, segments)
        return
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as fh:
            _write(fh, names, segments)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write(fh, names: list[str], segments) -> None:
    """Write the header names, then each segment's rows, to fh."""
    fh.write((",".join(names) + "\n").encode("utf-8"))
    for cols in segments:
        for text in _rows([np.asarray(c) for c in cols]):
            fh.write(text.encode("utf-8"))


def _rows(cols):
    """Yield a segment's rows as text, at most _BLOCK_ROWS rows at a time.

    A block is one "%" call: the segment's row template, repeated once
    per row, applied to the block's cells in row order.
    """
    cells, arrays = [], []
    for c in cols:
        fmt = "%.9g" if c.dtype.kind == "f" else "%s"
        if c.ndim:
            cells.append(fmt)
            arrays.append(c)
        else:
            cells.append((fmt % c.item()).replace("%", "%%"))
    row = ",".join(cells) + "\n"
    for start in range(0, len(arrays[0]) if arrays else 0, _BLOCK_ROWS):
        block = [a[start:start + _BLOCK_ROWS].tolist() for a in arrays]
        yield row * len(block[0]) % tuple(chain.from_iterable(zip(*block)))
