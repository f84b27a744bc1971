"""CLI outputs against the golden transcripts in tests/golden/.

With the numpy version the transcripts were written with, every case
must match byte for byte.  Under another numpy the last bits of a float
may move, so the numbers are compared to 1e-9 relative and all other
text exactly.  Regenerate with ``PYTHONPATH=src python tests/golden/regen.py``.
"""

import math
import re

import numpy as np
import pytest

from golden import regen
from golden.regen import CASES, HERE, NUMPY_VERSION, transcript, write_configs

GOLDEN_NUMPY = NUMPY_VERSION.read_text(encoding="utf-8").strip()
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
REL_TOL = 1e-9


def same_up_to_float_bits(got: str, want: str) -> bool:
    """Equal text between the numbers, numbers equal to REL_TOL relative."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    nums = [[float(m) for m in NUMBER.findall(t)] for t in (got, want)]
    return all(a == b or math.isclose(a, b, rel_tol=REL_TOL)
               for a, b in zip(*nums))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_configs(path)
    return path


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, workdir):
    got = transcript(name, workdir)
    want = (HERE / f"{name}.txt").read_bytes().decode("utf-8")
    if np.__version__ == GOLDEN_NUMPY:
        assert got.encode("utf-8") == want.encode("utf-8")
    else:
        assert same_up_to_float_bits(got, want)


def test_golden_files_are_exactly_the_cases():
    assert sorted(p.stem for p in HERE.glob("*.txt")) == sorted(CASES)


def test_float_tolerant_comparison():
    want = "angle = +20.612931 deg\nrow,1x4,2.13009954e-12,true\n"
    assert same_up_to_float_bits(want, want)
    assert same_up_to_float_bits(want.replace("2.13009954e-12", "2.130099540001e-12"),
                                 want)
    assert not same_up_to_float_bits(want.replace("20.612931", "20.612932"), want)
    assert not same_up_to_float_bits(want.replace("1x4", "2x4"), want)
    assert not same_up_to_float_bits(want.replace("deg", "rad"), want)
    assert not same_up_to_float_bits(want + "extra\n", want)


def test_regen_refuses_an_unpinned_numpy(tmp_path, monkeypatch):
    # Stale stand-ins, so a write is seen even where it would reproduce the
    # committed bytes.
    for name in CASES:
        (tmp_path / f"{name}.txt").write_text("stale\n", encoding="utf-8")
    pin = tmp_path / "NUMPY_VERSION"
    pin.write_text(GOLDEN_NUMPY + "\n", encoding="utf-8")
    monkeypatch.setattr(regen, "HERE", tmp_path)
    monkeypatch.setattr(regen, "NUMPY_VERSION", pin)
    monkeypatch.setattr(np, "__version__", "1.26.4")
    with pytest.raises(SystemExit) as exc:
        regen.regenerate()
    assert "numpy 1.26.4" in str(exc.value)
    assert f"numpy {GOLDEN_NUMPY}" in str(exc.value)
    assert pin.read_text(encoding="utf-8") == GOLDEN_NUMPY + "\n"
    for name in CASES:
        assert (tmp_path / f"{name}.txt").read_text(encoding="utf-8") == "stale\n"
