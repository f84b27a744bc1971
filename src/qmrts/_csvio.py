"""The one CSV format of every qmrts output file.

A header row of column names, then one row per element: float columns
as "%.9g" formats them, every other column as str() writes it, comma
separated and ended by "\n".  No cell is quoted, so a string cell that
would need quoting is refused.

Rows are formatted one block of rows at a time.  A dump of more than
one block is split across two processes where os.fork exists and the
process may run on more than one CPU: a forked
child formats the second half of the blocks into an anonymous temporary
file in the output's directory, while the parent writes the header and
the first half, reaps the child and appends its bytes.  Both halves go
through the same "%" row templates, so the file is byte for byte the one
a single process writes.  The child only formats strings, writes its
file and leaves through os._exit: it takes no lock that another thread
(such as numpy's BLAS workers) may hold.  An exception in either half
reaches the caller as itself; where no child can be forked, or its exit
status is lost, one process writes every block.
"""

from __future__ import annotations

import math
import os
import pickle

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
    """
    step = _BLOCK_ROWS
    blocks = []
    for cols in segments:
        cols = [np.asarray(c) for c in cols]
        n = next((len(c) for c in cols if c.ndim), 0)
        blocks += [(cols, slice(start, start + step)) for start in range(0, n, step)]
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        if len(blocks) < 2 or not _can_split():
            _rows(blocks, fh.write)
        else:
            _split_rows(blocks, fh, path)


def _can_split() -> bool:
    """Whether a forked child could run on a second CPU beside this process.

    On one CPU the two halves take turns, and the fork and the temporary
    file make the dump slower than one process writing it.
    """
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:
        return (os.cpu_count() or 1) > 1


def _split_rows(blocks, fh, path) -> None:
    """Write the rows of blocks to fh, the second half formatted by a child.

    The child writes its rows, or the pickled exception that stopped it,
    to an anonymous temporary file in path's directory and leaves through
    os._exit, so it runs no exit handler and flushes no stdio buffer.
    The parent raises that exception as its own.  If no child can be
    forked, or another reaper takes its exit status (SIGCHLD ignored,
    say), the parent formats the second half itself.
    """
    import signal
    import tempfile

    half = len(blocks) // 2
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as tail:
        try:
            pid = os.fork()
        except OSError:
            _rows(blocks, fh.write)
            return
        if pid == 0:
            status = 1
            try:
                try:
                    _rows(blocks[half:], tail.write)
                    status = 0
                except BaseException as exc:
                    tail.seek(0)
                    tail.truncate()
                    pickle.dump(exc, tail)
                tail.flush()
            finally:
                os._exit(status)
        try:
            _rows(blocks[:half], fh.write)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = _reap(pid)
        if status is None:
            _rows(blocks[half:], fh.write)
            return
        tail.seek(0)
        if status:
            raise _child_error(tail.read(), status, path)
        while chunk := tail.read(1 << 16):
            fh.write(chunk)


def _reap(pid):
    """Wait for child pid: its exit code, or None if another reaper took it."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return None


def _child_error(payload: bytes, status: int, path) -> BaseException:
    """The exception a failed child pickled, or an OSError naming how it ended."""
    import signal

    try:
        exc = pickle.loads(payload)
    except Exception:
        exc = None
    if isinstance(exc, BaseException):
        return exc
    how = (f"exited with status {status}" if status > 0 else
           f"was killed by signal {-status} ({signal.strsignal(-status)})")
    return OSError(f"the process writing the second half of {path} {how}")


def _rows(blocks, write) -> None:
    """Format each block's rows and pass them to write as UTF-8 bytes."""
    for cols, rows in blocks:
        cells, arrays = [], []
        for c in cols:
            fmt = "%.9g" if c.dtype.kind == "f" else "%s"
            if c.ndim:
                cells.append(fmt)
                arrays.append(c[rows].tolist())
            else:
                cells.append((fmt % c.item()).replace("%", "%%"))
        row = ",".join(cells) + "\n"
        write("".join(map(row.__mod__, zip(*arrays))).encode("utf-8"))
