"""The one CSV writer against an independent reference writer.

The reference is the standard library's csv.writer fed cells that
format(v, ".9g") made from every float.  write_csv must produce the same
bytes on every table it accepts, including the three dumps of the golden
simulate cases (the range dump written block by block), and must refuse
what its row template cannot express.
"""

import csv
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Unformattable
from golden.regen import CASES, write_configs
from qmrts import beamformer, closed_form, signal_chain
from qmrts._csvio import _BLOCK_ROWS, magnitude_db, write_blocks, write_csv
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


def joined(names: list[str], segments: list) -> dict:
    """The columns of write_blocks' segments joined, each scalar broadcast over its segment."""
    whole = []
    for cols in segments:
        n = next((len(c) for c in cols if np.ndim(c)), 0)
        whole.append([np.broadcast_to(c, n) for c in cols])
    return {name: np.concatenate([w[i] for w in whole]) if whole else []
            for i, name in enumerate(names)}


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


# A string cell or scalar may hold "%", which the block's repeated row
# template must write as it is.
CELL_TEXT = st.text(alphabet="%sdg9.a -'", max_size=6)
ROW_COUNTS = st.one_of(
    st.sampled_from([0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]),
    st.integers(0, 2 * _BLOCK_ROWS + 1))


@st.composite
def float_int_str_segments(draw):
    """0-3 segments of columns x (float), k (int) and s (str), each an array or a scalar."""
    segs = []
    for _ in range(draw(st.integers(0, 3))):
        n, seed = draw(ROW_COUNTS), draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        texts = np.array(draw(st.lists(CELL_TEXT, min_size=1, max_size=4)))
        arrays = [random_doubles(n, seed),
                  rng.integers(-(2**63), 2**63, n, dtype=np.int64),
                  texts[rng.integers(0, len(texts), n)]]
        scalars = [draw(st.floats()), draw(st.integers(-(2**63), 2**63 - 1)),
                   draw(CELL_TEXT)]
        segs.append([a if draw(st.booleans()) else v for a, v in zip(arrays, scalars)])
    return segs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(float_int_str_segments())
def test_write_blocks_matches_reference_of_the_joined_rows(tmp_path_factory, segs):
    path = tmp_path_factory.mktemp("blocks") / "t.csv"
    write_blocks(path, ["x", "k", "s"], segs)
    assert path.read_bytes() == reference_csv(joined(["x", "k", "s"], segs))
    assert list(path.parent.iterdir()) == [path]      # no sibling left


def test_failed_write_leaves_the_old_file_and_no_sibling(tmp_path):
    # The first segment, two blocks long, is written to the sibling before
    # the second segment's cell fails to format.
    path = tmp_path / "t.csv"
    path.write_bytes(b"x\n1\n")
    segments = [[np.arange(_BLOCK_ROWS + 1.0)],
                [np.full(1, Unformattable(), dtype=object)]]
    with pytest.raises(ValueError, match="a cell failed to format"):
        write_blocks(path, ["x"], segments)
    assert path.read_bytes() == b"x\n1\n"
    assert list(tmp_path.iterdir()) == [path]


def test_pipe_and_symlink_are_written_through(tmp_path):
    # A rename would replace the pipe or the link, as it would /dev/stdout,
    # instead of writing to it.
    want = reference_csv({"x": [1.0, 2.0]})
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_csv(pipe, {"x": [1.0, 2.0]})
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert got == want and pipe.is_fifo()
    target, link = tmp_path / "t.csv", tmp_path / "link.csv"
    target.write_bytes(b"x\n1\n")
    link.symlink_to(target)
    write_csv(link, {"x": [1.0, 2.0]})
    assert link.is_symlink() and target.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "pipe", "t.csv"]


def test_magnitude_db_is_per_element_math_log10():
    # np.log10 takes a SIMD path on some CPUs: on an AVX-512 Xeon (numpy
    # 2.4.6) it differed from math.log10 in the last bit on 52,802 of
    # 262,144 uniform random values, which would move mag_db bytes with the CPU.
    rng = np.random.default_rng(7)
    mag = np.concatenate([[0.0, 1e-31, 1e-30, 1.0], rng.random(4096),
                          np.exp(rng.uniform(-80.0, 80.0, 4096))])
    want = [20.0 * math.log10(max(m, 1e-30)) for m in mag.tolist()]
    assert np.array(magnitude_db(mag)).tobytes() == np.array(want).tobytes()


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
        # gets its whole columns.
        segments = list(segments)
        calls.append((path, joined(names, segments)))
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
