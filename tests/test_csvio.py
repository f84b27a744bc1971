"""The one CSV writer against an independent reference writer.

The reference is the standard library's csv.writer fed cells that
format(v, ".9g") made from every float.  write_csv must produce the same
bytes on every table it accepts, including the three dumps of the golden
simulate cases (the range dump written block by block), and must refuse
what its row template cannot express.
"""

import csv
import errno
import io
import math
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from golden.regen import CASES, write_configs
from qmrts import _csvio, beamformer, closed_form, signal_chain
from qmrts._csvio import _BLOCK_ROWS, _can_split, write_blocks, write_csv
from qmrts.cli import main

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  1.797e308, -1.797e308, 1.0 / 3.0, 123456789.5, 1e-5, 1e16]


def reference_csv(columns: dict) -> bytes:
    """The bytes csv.writer writes, with floats formatted to 9 digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    cols = [np.asarray(c) for c in columns.values()]
    n = max((len(c) for c in cols if c.ndim), default=0)
    cells = []
    for c in cols:
        values = np.broadcast_to(c, n).tolist()
        cells.append([format(v, ".9g") for v in values] if c.dtype.kind == "f"
                     else values)
    w.writerows(zip(*cells))
    return buf.getvalue().encode("utf-8")


def written(tmp_path, columns: dict) -> bytes:
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    return path.read_bytes()


def random_doubles(n: int, seed: int) -> np.ndarray:
    """n doubles from uniform random bit patterns: every exponent, nan, inf."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    return bits.view(np.float64)


def test_float_specials_match_reference(tmp_path):
    columns = {"x": SPECIAL_FLOATS, "neg": [-v for v in SPECIAL_FLOATS]}
    want = reference_csv(columns)
    assert written(tmp_path, columns) == want
    assert want.startswith(b"x,neg\n0,-0\n-0,0\ninf,-inf\n-inf,inf\nnan,nan\n")


def test_random_bit_patterns_match_reference(tmp_path):
    columns = {"a": random_doubles(5000, 1), "b": random_doubles(5000, 2),
               "f32": np.random.default_rng(3).integers(
                   0, 2**32, 5000, dtype=np.uint32).view(np.float32)}
    assert written(tmp_path, columns) == reference_csv(columns)


def test_int_str_bool_columns_match_reference(tmp_path):
    columns = {"i": np.array([0, -1, 2**62, -(2**63)], dtype=np.int64),
               "u": np.array([0, 1, 2**64 - 1, 7], dtype=np.uint64),
               "s": ["2x4", "1x4", "", "dirichlet"],
               "flag": np.array([True, False, True, False]),
               "text": ["true", "false", "it's", "a b"]}
    assert written(tmp_path, columns) == reference_csv(columns)


def test_single_column_matches_reference(tmp_path):
    for columns in ({"x": [1.5, -2.0]}, {"k": [3, 4]}, {"mode": ["sinc"]}):
        assert written(tmp_path, columns) == reference_csv(columns)


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
def test_block_boundaries_match_reference(tmp_path, n):
    columns = {"k": np.arange(n), "re": random_doubles(n, n),
               "im": np.linspace(-1.0, 1.0, n), "mode": ["sinc"] * n}
    data = written(tmp_path, columns)
    assert data == reference_csv(columns)
    assert data.count(b"\n") == n + 1


def test_scalar_columns_fill_every_row(tmp_path):
    # Scalars go into each block's row template once; a "%" in one must
    # come out as written.
    n = 2 * _BLOCK_ROWS + 1
    columns = {"k": np.arange(n), "gain": 1.0 / 3.0, "count": np.int64(-7),
               "unit": "50%", "re": random_doubles(n, 4), "mode": "sinc"}
    assert written(tmp_path, columns) == reference_csv(columns)
    assert written(tmp_path, {"unit": "%s%%", "x": [1.5]}) == b"unit,x\n%s%%,1.5\n"


def test_unequal_columns_rejected(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"unequal length: \[3, 2, 3\]"):
        write_csv(path, {"a": [1.0, 2.0, 3.0], "b": [1, 2], "c": ["x"] * 3})
    assert not path.exists()


@pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "a\rb", "a\nb", ","])
def test_cell_that_needs_quoting_rejected(tmp_path, cell):
    path = tmp_path / "t.csv"
    for subset in (["2x4", cell], cell):
        with pytest.raises(ValueError, match="column 'subset'"):
            write_csv(path, {"x": [1.0, 2.0], "subset": subset})
        assert not path.exists()


class Cell:
    """An object cell whose str() raises, or stalls 40 s the first time."""

    def __init__(self, fails: bool):
        self.fails = fails
        self.stalled = False

    def __str__(self):
        if self.fails:
            raise ValueError("a cell failed to format")
        if not self.stalled:
            self.stalled = True
            time.sleep(40)
        return "late"


def segments(cells: dict) -> list:
    """Four one-block segments of one column; segment b is ten of cells[b], if given."""
    return [[np.full(10, cells[b]) if b in cells else np.arange(10.0) + 10 * b]
            for b in range(4)]


needs_split = pytest.mark.skipif(not _can_split(),
                                 reason="the split needs os.fork and a second CPU")


def assert_no_child_and_no_stray_file(tmp_path):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["t.csv"]


@needs_split
def test_failure_in_child_half_raises_in_parent(tmp_path):
    # The child's exception comes back as itself, as it would in one process.
    with pytest.raises(ValueError, match="a cell failed to format"):
        write_blocks(tmp_path / "t.csv", ["x"], segments({3: Cell(True)}))
    assert_no_child_and_no_stray_file(tmp_path)


@needs_split
def test_failure_in_parent_half_propagates_and_reaps_child(tmp_path):
    # The child's half stalls; the parent kills it rather than wait.
    started = time.monotonic()
    with pytest.raises(ValueError, match="a cell failed to format"):
        write_blocks(tmp_path / "t.csv", ["x"],
                     segments({0: Cell(True), 3: Cell(False)}))
    assert time.monotonic() - started < 20
    assert_no_child_and_no_stray_file(tmp_path)


@needs_split
def test_child_killed_by_a_signal_is_named(tmp_path, monkeypatch):
    # A child that dies before it can pickle an exception leaves only its
    # wait status; the OSError names the signal, not a negative status.
    parent, rows = os.getpid(), _csvio._rows

    def killed_rows(blocks, write):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        rows(blocks, write)

    monkeypatch.setattr(_csvio, "_rows", killed_rows)
    path = tmp_path / "t.csv"
    with pytest.raises(OSError) as info:
        write_blocks(path, ["x"], segments({}))
    assert str(info.value) == (
        f"the process writing the second half of {path} was killed by "
        f"signal {int(signal.SIGKILL)} ({signal.strsignal(signal.SIGKILL)})")
    assert_no_child_and_no_stray_file(tmp_path)


@pytest.mark.parametrize("cpus, split", [(1, False), (None, False), (2, True)])
def test_can_split_without_affinity_counts_cpus(monkeypatch, cpus, split):
    # Where the affinity mask is unknown (macOS), every CPU counts.
    monkeypatch.setattr(os, "fork", lambda: 0, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _can_split() is split


def test_one_block_is_written_without_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-block dump forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    columns = {"k": np.arange(_BLOCK_ROWS), "mode": "sinc"}
    assert written(tmp_path, columns) == reference_csv(columns)


def fork_fails():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def fork_forbidden():
    raise AssertionError("forked on one CPU")


@pytest.mark.parametrize("case", ["no-fork", "fork-fails", "one-cpu"])
def test_without_a_child_every_block_is_written_in_process(tmp_path, monkeypatch, case):
    n = 3 * _BLOCK_ROWS + 7
    columns = {"k": np.arange(n), "re": random_doubles(n, 5), "mode": "sinc"}
    if case == "no-fork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif case == "fork-fails":
        monkeypatch.setattr(os, "fork", fork_fails, raising=False)
    else:
        monkeypatch.setattr(os, "fork", fork_forbidden, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert written(tmp_path, columns) == reference_csv(columns)


@needs_split
def test_child_reaped_elsewhere_is_written_in_process(tmp_path):
    # With SIGCHLD ignored the kernel reaps the child, so its exit status
    # is lost and the parent writes the second half itself.
    n = 3 * _BLOCK_ROWS + 7
    columns = {"k": np.arange(n), "re": random_doubles(n, 6), "mode": "sinc"}
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert written(tmp_path, columns) == reference_csv(columns)
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert_no_child_and_no_stray_file(tmp_path)


SIMULATE_CASES = [name for name in CASES if name.startswith("simulate")]


def test_simulate_cases_are_the_five_goldens():
    assert len(SIMULATE_CASES) == 5


@pytest.mark.parametrize("name", SIMULATE_CASES)
def test_simulate_dumps_match_reference(name, tmp_path, monkeypatch, capsys):
    """Every dump of a golden simulate case, fed to both writers."""
    calls = []

    def spy(path, columns):
        calls.append((path, columns))
        write_csv(path, columns)

    def spy_blocks(path, names, segments):
        # The range dump is written one segment per element; the reference
        # gets its whole columns, with each segment's scalars broadcast.
        segments = list(segments)
        whole = [[np.broadcast_to(c, next(len(a) for a in cols if np.ndim(a)))
                  for c in cols] for cols in segments]
        calls.append((path, dict(zip(names, map(np.concatenate, zip(*whole))))))
        write_blocks(path, names, segments)

    for module in (beamformer, closed_form):
        monkeypatch.setattr(module, "write_csv", spy)
    monkeypatch.setattr(signal_chain, "write_blocks", spy_blocks)
    write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name][0]) == 0
    assert sorted(Path(p).name for p, _ in calls) == [
        "angle_spectrum.csv", "closed_form_spectrum.csv", "range_spectrum.csv"]
    for path, columns in calls:
        assert Path(path).read_bytes() == reference_csv(columns), path
