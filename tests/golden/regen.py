"""Golden transcripts of the qmrts CLI, checked by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/regen.py

Each case runs qmrts.cli.main in process, in a scratch working directory
that holds the example config, and is recorded as one transcript: the
command line, the exit code, stdout, stderr and the full text of the
checked output files.  Paths are relative, so the printed "wrote ..."
lines do not depend on where the case runs.

NUMPY_VERSION pins the numpy the transcripts are written with.  Under any
other numpy this script names both versions and writes nothing; to move
the pin, edit NUMPY_VERSION and rerun under the numpy it names.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from qmrts.cli import main

HERE = Path(__file__).resolve().parent
EXAMPLE = HERE.parents[1] / "scenario.example.cfg"
NUMPY_VERSION = HERE / "NUMPY_VERSION"

# name -> (argv, output files whose text is recorded)
CASES = {
    "validate": (["validate", "scenario.cfg"], ()),
    "sweep": (["sweep", "scenario.cfg", "sweep.csv"], ("sweep.csv",)),
    "compare": (["compare", "scenario.cfg"], ()),
    "compare-1x4": (["compare", "scenario.cfg", "--subset", "1x4"], ()),
    # theta_rx = 20 deg, theta_tx = 22 deg: a tolerance failure (exit 2)
    "compare-offset": (["compare", "offset.cfg"], ()),
    **{f"simulate-{mode}-pad{pad}": (
        ["simulate", "scenario.cfg", "out", "--mode", mode, "--zero-pad", str(pad)],
        ("out/summary.txt",))
       for mode in ("sinc", "dirichlet") for pad in (1, 4)},
    "simulate-2x2": (
        ["simulate", "scenario.cfg", "out", "--subset", "2x2",
         "--grid-step-deg", "0.05"],
        ("out/summary.txt",)),
}


def write_configs(workdir: Path) -> None:
    """Put scenario.cfg (the example) and offset.cfg into workdir."""
    text = EXAMPLE.read_text(encoding="utf-8")
    (workdir / "scenario.cfg").write_text(text, encoding="utf-8")
    offset = text
    for old, new in (("theta_rx_deg = 0.0", "theta_rx_deg = 20.0"),
                     ("theta_tx_deg = 2.0", "theta_tx_deg = 22.0")):
        if old not in offset:
            raise RuntimeError(f"scenario.example.cfg has no line {old!r}")
        offset = offset.replace(old, new)
    (workdir / "offset.cfg").write_text(offset, encoding="utf-8")


def transcript(name: str, workdir: Path) -> str:
    """Run one case in workdir (which holds the configs) and record it."""
    argv, files = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts = [f"argv: {' '.join(argv)}\n", f"exit: {code}\n",
                 "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()]
        for path in files:
            parts += [f"--- {path}\n", Path(path).read_bytes().decode("utf-8")]
            os.remove(path)  # a later case must not find a stale copy
    finally:
        os.chdir(cwd)
    return "".join(parts)


def regenerate() -> None:
    """Rewrite every transcript, or exit without writing under a numpy
    other than the pinned one."""
    pinned = NUMPY_VERSION.read_text(encoding="utf-8").strip()
    if np.__version__ != pinned:
        sys.exit(f"numpy {np.__version__} is installed, but the transcripts are "
                 f"pinned to numpy {pinned} ({NUMPY_VERSION.name}); nothing written")
    workdir = Path(tempfile.mkdtemp(prefix="qmrts-golden-"))
    try:
        write_configs(workdir)
        for name in CASES:
            (HERE / f"{name}.txt").write_text(transcript(name, workdir),
                                              encoding="utf-8", newline="")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(CASES)} transcripts to {HERE} (numpy {np.__version__})",
          file=sys.stderr)
