"""Seeded job generators for the benchmark workloads.

A job is one qmrts CLI command: the config files it reads, its argv and
the parameters the output check needs.  Job ``index`` of a workload is a
pure function of ``(workload, seed, index)``, so the same seed gives
byte-identical config files and argv on every run.  The program sees only
the generated files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FC_HZ = 77e9
B_HZ = 1e9
T_S = 100e-6
CONFIG = "job.cfg"
# Points per sweep job.  Short jobs put twenty or more jobs into one run, so
# the median does not hang on a few samples of a drifting host, and the tail
# percentile (ten jobs beyond it) is not one of the run's fastest jobs.
SWEEP_POINTS = 5


@dataclass(frozen=True)
class Job:
    workload: str
    index: int
    argv: tuple[str, ...]                # qmrts arguments, relative to the job directory
    files: dict[str, str]                # file name -> text, written before the command runs
    expect: dict = field(default_factory=dict)   # what the output check needs


def _config(sections: dict[str, dict]) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _chirp(ns: int) -> dict:
    return {"fc_hz": FC_HZ, "b_hz": B_HZ, "t_s": T_S, "ns": ns}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash with sha512, so the stream does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def sweep_job(seed: int, index: int) -> Job:
    """`qmrts sweep` on the 77 GHz 2x4 reference board.

    Points, subsets and grid are fixed so every job does the same work;
    the seed moves only the receiver azimuth and the sweep span.
    """
    rng = _rng("sweep", seed, index)
    theta_rx = round(rng.uniform(-30.0, 30.0), 4)
    d_max = round(rng.uniform(0.05, 0.15), 5)
    subsets = ("2x4", "2x2", "1x4")
    text = _config({
        "chirp": _chirp(1024),
        "array": {"ntx": 2, "nrx": 4, "dtx_lambda": 2.0, "drx_lambda": 0.5},
        "rts": {"rc_m": 1.0, "theta_rx_deg": theta_rx, "theta_tx_deg": theta_rx,
                "tau_rts_s": 0.0, "f_rts_hz": 500e6, "amplitude": 1.0},
        "grid": {"angle_min_deg": -90.0, "angle_max_deg": 90.0,
                 "angle_step_deg": 0.01},
        "sweep": {"d_max_m": d_max, "points": SWEEP_POINTS, "subsets": ", ".join(subsets),
                  "range_compensation": "true"},
    })
    return Job("sweep", index, ("sweep", CONFIG, "sweep.csv"), {CONFIG: text},
               {"theta_rx_deg": theta_rx, "d_max_m": d_max, "rc_m": 1.0,
                "points": SWEEP_POINTS, "subsets": subsets, "ns": 1024})


def compare_sizes(index: int) -> tuple[int, int, int, float]:
    """(ntx, nrx, ns, grid step) of job ``index``.

    Sizes cycle through all 36 combinations in a fixed order, whatever the
    seed, so runs with the same job count do the same work and the spread
    between seeds is the machine's, not the draw's.  The order keeps every
    prefix balanced: the grid step and nrx, which set most of the
    beamforming work, change fastest, so the median job does not grow when
    a slow machine fits fewer jobs into a run (modelled: within 0.4% for
    20 to 45 jobs).  The largest board with the longest chirp, which sets
    peak memory, is job 8.
    """
    return ((3, 4)[index // 6 % 2], (8, 12, 16)[index % 3],
            (16384, 8192, 4096)[(index // 4 + index // 6) % 3], (0.002, 0.005)[index % 2])


def compare_job(seed: int, index: int) -> Job:
    """`qmrts compare` on a large board with a filled virtual array.

    dtx = nrx*drx with drx = lambda/2 leaves no grating lobes, so every
    model level has one main lobe.  Wide receiver angles are kept on
    purpose: most of them trip the documented mid-sweep bias gate.
    """
    rng = _rng("compare-mimo", seed, index)
    ntx, nrx, ns, step = compare_sizes(index)
    theta_rx = round(rng.uniform(-60.0, 60.0), 4)
    theta_tx = round(theta_rx + rng.uniform(-3.0, 3.0), 4)
    rc = round(rng.uniform(1.0, 10.0), 4)
    # At most 100 ns: far inside the Nyquist bound ns > 2*B*tau (2048 ns at
    # ns=4096) and small enough that the per-element residual video phase
    # stays below 0.003 deg of angle.
    tau = round(rng.uniform(0.0, 100e-9), 12)
    f_rts = round(rng.uniform(0.0, 1e9), 0)
    text = _config({
        "chirp": _chirp(ns),
        "array": {"ntx": ntx, "nrx": nrx, "dtx_lambda": 0.5 * nrx,
                  "drx_lambda": 0.5},
        "rts": {"rc_m": rc, "theta_rx_deg": theta_rx, "theta_tx_deg": theta_tx,
                "tau_rts_s": tau, "f_rts_hz": f_rts, "amplitude": 1.0},
    })
    return Job("compare-mimo", index,
               ("compare", CONFIG, "--grid-step-deg", repr(step)), {CONFIG: text},
               {"theta_rx_deg": theta_rx, "theta_tx_deg": theta_tx, "ns": ns})


ARRAYS = {"2x4": (2, 4, 2.0, 0.5), "3x4": (3, 4, 2.0, 0.5), "2x8": (2, 8, 4.0, 0.5)}
# (ns, zero_pad) pairs with one transform length, 8192 bins, so the dump
# size depends only on the array.
CHIRPS = ((8192, 1), (4096, 2), (2048, 4))


def simulate_job(seed: int, index: int) -> Job:
    """`qmrts simulate` on long chirps, dumping all three spectra to CSV."""
    rng = _rng("simulate-dump", seed, index)
    # As in compare_job, sizes cycle in a fixed order (all nine every nine jobs).
    ntx, nrx, dtx, drx = list(ARRAYS.values())[index % 3]
    ns, zero_pad = CHIRPS[index // 3 % 3]
    mode = ("sinc", "dirichlet")[index % 2]
    theta_rx = round(rng.uniform(-30.0, 30.0), 4)
    theta_tx = round(theta_rx + rng.uniform(-3.0, 3.0), 4)
    rc = round(rng.uniform(1.0, 20.0), 4)
    tau = round(rng.uniform(0.0, 200e-9), 12)
    text = _config({
        "chirp": _chirp(ns),
        "array": {"ntx": ntx, "nrx": nrx, "dtx_lambda": dtx, "drx_lambda": drx},
        "rts": {"rc_m": rc, "theta_rx_deg": theta_rx, "theta_tx_deg": theta_tx,
                "tau_rts_s": tau, "f_rts_hz": 500e6, "amplitude": 1.0},
    })
    return Job("simulate-dump", index,
               ("simulate", CONFIG, "out", "--zero-pad", str(zero_pad),
                "--mode", mode), {CONFIG: text},
               {"ntx": ntx, "nrx": nrx, "ns": ns, "zero_pad": zero_pad,
                "mode": mode, "rc_m": rc, "tau_rts_s": tau,
                "grid_points": 18001})


WORKLOADS = {"sweep": sweep_job, "compare-mimo": compare_job,
             "simulate-dump": simulate_job}


def make_job(workload: str, seed: int, index: int) -> Job:
    return WORKLOADS[workload](seed, index)
