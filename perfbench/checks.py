"""Output checks for benchmark jobs.

The checks test properties every correct build must meet, not byte
digests: a legitimate change in the 9th significant digit must pass, a
truncated or corrupted output must not.  They use only the generated job
parameters and the standard library, never the program under test.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

from workloads import B_HZ, FC_HZ, Job

C0 = 299_792_458.0
# Gate between model levels [deg]; the program's own compare tolerance.
ANGLE_TOL_DEG = 0.02
# Slack for printed/rounded angles and the parabolic peak refinement [deg].
ROUND_TOL_DEG = 1e-5

OK = "ok"
TOLERANCE_EXIT = "tolerance"


class CheckFailed(Exception):
    """The job's output breaks a property a correct build must meet."""


@dataclass
class JobOutput:
    exit_code: int
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def bias_scale(ns: int) -> float:
    """Mid-sweep over start-frequency ratio of the detected-bin phase gradient."""
    return 1.0 + B_HZ * (ns - 1) / (2.0 * FC_HZ * ns)


def bias_mapped_deg(angle_deg: float, ns: int) -> float:
    return math.degrees(math.asin(bias_scale(ns) * math.sin(math.radians(angle_deg))))


def _between(x: float, a: float, b: float, tol: float = ROUND_TOL_DEG) -> bool:
    return min(a, b) - tol <= x <= max(a, b) + tol


SWEEP_HEADER = ["d_rts_m", "theta_rx_deg", "theta_tx_deg", "subset",
                "detected_fullchain_deg", "detected_closedform_deg",
                "deviation_deg", "range_compensated"]


def check_sweep(job: Job, out: JobOutput) -> str:
    e = job.expect
    _require(out.exit_code == 0, f"exit code {out.exit_code}")
    data = out.files.get("sweep.csv")
    _require(data is not None, "sweep.csv missing")
    text = data.decode("utf-8")
    _require(text.endswith("\n"), "sweep.csv does not end with a newline")
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == SWEEP_HEADER, "sweep.csv header")
    rows = rows[1:]
    n_sub = len(e["subsets"])
    _require(len(rows) == e["points"] * n_sub,
             f"sweep.csv has {len(rows)} rows, want {e['points'] * n_sub}")
    _require(f"({len(rows)} rows)" in out.stdout, "stdout row count")
    th_rx = e["theta_rx_deg"]
    for n, rec in enumerate(rows):
        _require(len(rec) == 8, f"row {n}: {len(rec)} fields")
        idx, sub = divmod(n, n_sub)
        d = e["d_max_m"] * idx / (e["points"] - 1)
        vals = [float(rec[k]) for k in (0, 1, 2, 4, 5, 6)]
        _require(all(math.isfinite(v) for v in vals), f"row {n}: non-finite value")
        d_m, rx, tx, full, cf, dev = vals
        th_tx = math.degrees(math.asin(math.sin(math.radians(th_rx)) + d / e["rc_m"]))
        _require(math.isclose(d_m, d, rel_tol=1e-8, abs_tol=1e-12), f"row {n}: d_rts_m")
        _require(abs(rx - th_rx) < 1e-6 and abs(tx - th_tx) < 1e-6, f"row {n}: angles")
        _require(rec[3] == e["subsets"][sub], f"row {n}: subset {rec[3]}")
        _require(rec[7] == "true", f"row {n}: range_compensated")
        _require(_between(cf, th_rx, th_tx),
                 f"row {n}: closed form {cf} outside [{th_rx}, {th_tx}]")
        _require(abs(full - bias_mapped_deg(cf, e["ns"])) <= ANGLE_TOL_DEG,
                 f"row {n}: full chain {full} vs bias-mapped closed form")
        _require(abs(dev - (full - th_rx)) < 1e-6, f"row {n}: deviation")
    return OK


_COMPARE = {name: re.compile(rf"^{re.escape(label)}\s+([+-]\d+\.\d+) deg", re.M)
            for name, label in (("full", "full chain"),
                                ("ideal", "steering double sum"),
                                ("dirichlet", "closed form (dirichlet)"),
                                ("sinc", "closed form (sinc)"))}
_TOL_EXCEEDED = re.compile(r"^tolerance exceeded: (\d+\.\d+) deg > 0\.02 deg$", re.M)


def check_compare(job: Job, out: JobOutput) -> str:
    e = job.expect
    _require(out.exit_code in (0, 2), f"exit code {out.exit_code}")
    deg = {}
    for name, pat in _COMPARE.items():
        m = pat.search(out.stdout)
        _require(m is not None, f"no {name} angle in stdout")
        deg[name] = float(m.group(1))
    _require(abs(deg["ideal"] - deg["dirichlet"]) <= ANGLE_TOL_DEG,
             "steering double sum vs dirichlet")
    _require(abs(deg["full"] - bias_mapped_deg(deg["dirichlet"], e["ns"]))
             <= ANGLE_TOL_DEG, "full chain vs bias-mapped dirichlet")
    _require(_between(deg["dirichlet"], e["theta_rx_deg"], e["theta_tx_deg"]),
             "dirichlet peak outside [theta_rx, theta_tx]")
    exact = (deg["full"], deg["ideal"], deg["dirichlet"])
    worst = max(abs(a - b) for a in exact for b in exact)
    if out.exit_code == 0:
        _require(worst <= ANGLE_TOL_DEG + 2e-6, "exit 0 above tolerance")
        _require("agreement within 0.02 deg" in out.stdout, "no agreement line")
        return OK
    m = _TOL_EXCEEDED.search(out.stderr)
    _require(m is not None, "exit 2 without 'tolerance exceeded'")
    _require(abs(float(m.group(1)) - worst) <= 2e-6 and worst > ANGLE_TOL_DEG - 2e-6,
             "reported gap disagrees with the printed angles")
    return TOLERANCE_EXIT


def _csv_lines(data: bytes | None, name: str, header: str, rows: int) -> list[bytes]:
    _require(data is not None, f"{name} missing")
    _require(data.endswith(b"\n"), f"{name} does not end with a newline")
    low = data.lower()
    _require(b"nan" not in low and b"inf" not in low, f"{name}: non-finite value")
    lines = data[:-1].split(b"\n")
    _require(lines[0] == header.encode(), f"{name} header")
    _require(len(lines) == rows + 1, f"{name} has {len(lines) - 1} rows, want {rows}")
    return lines


def check_simulate(job: Job, out: JobOutput) -> str:
    e = job.expect
    _require(out.exit_code == 0, f"exit code {out.exit_code}")
    ntx, nrx, k = e["ntx"], e["nrx"], e["ns"] * e["zero_pad"]
    lines = _csv_lines(out.files.get("out/range_spectrum.csv"), "range_spectrum.csv",
                       "ntx,nrx,n_or_k,re,im", ntx * nrx * k)
    # Every 97th row is parsed in full; the counts and the scan above cover the rest.
    for n in list(range(1, len(lines), 97)) + [len(lines) - 1]:
        f = lines[n].split(b",")
        _require(len(f) == 5, f"range row {n}: {len(f)} fields")
        i, j, b = (n - 1) // (nrx * k), (n - 1) // k % nrx, (n - 1) % k
        _require((int(f[0]), int(f[1]), int(f[2])) == (i, j, b), f"range row {n} index")
        _require(all(math.isfinite(float(x)) for x in f[3:]), f"range row {n} value")

    grid = e["grid_points"]
    angle = _csv_lines(out.files.get("out/angle_spectrum.csv"), "angle_spectrum.csv",
                       "alpha_deg,re,im,mag_db", grid)
    cf = _csv_lines(out.files.get("out/closed_form_spectrum.csv"),
                    "closed_form_spectrum.csv", "alpha_deg,re,im,mag_db,mode", grid)
    _require(sum(1 for ln in cf[1:] if ln.endswith(b"," + e["mode"].encode())) == grid,
             "closed-form mode column")
    mags = [float(ln.rsplit(b",", 1)[1]) for ln in angle[1:]]
    peak_row = angle[1 + max(range(grid), key=mags.__getitem__)]
    peak_deg = float(peak_row.split(b",", 1)[0])

    summary = out.files.get("out/summary.txt", b"").decode("utf-8")
    _require(summary and all(ln in out.stdout for ln in summary.splitlines()),
             "summary.txt missing or differs from stdout")
    m = re.search(r"^detected_bin = (\d+)$", summary, re.M)
    full = re.search(r"^detected_angle_fullchain_deg = (\S+)$", summary, re.M)
    _require(m is not None and full is not None, "summary fields")
    tau = 2.0 * e["rc_m"] / C0 + e["tau_rts_s"]
    _require(abs(int(m.group(1)) - round(B_HZ * tau * e["zero_pad"])) <= 1,
             f"detected bin {m.group(1)} vs B*tau*zero_pad")
    _require(abs(float(full.group(1)) - peak_deg) <= 0.01 + ROUND_TOL_DEG,
             "full-chain angle is not at the angle-spectrum peak")
    _require(re.search(rf"^detected_angle_closedform_{e['mode']}_deg = ", summary, re.M)
             is not None, "closed-form mode in summary")
    return OK


CHECKS = {"sweep": check_sweep, "compare-mimo": check_compare,
          "simulate-dump": check_simulate}

# Files each workload's check reads, relative to the job directory.
OUTPUT_FILES = {
    "sweep": ("sweep.csv",),
    "compare-mimo": (),
    "simulate-dump": ("out/range_spectrum.csv", "out/angle_spectrum.csv",
                      "out/closed_form_spectrum.csv", "out/summary.txt"),
}


def check(job: Job, out: JobOutput) -> str:
    """Return OK or TOLERANCE_EXIT; raise CheckFailed on a bad output."""
    return CHECKS[job.workload](job, out)


def damaged(job: Job, out: JobOutput) -> list[tuple[str, JobOutput]]:
    """Truncated and corrupted copies of a good output; each must fail its check."""
    def with_file(name: str, data: bytes) -> JobOutput:
        return JobOutput(out.exit_code, out.stdout, out.stderr, {**out.files, name: data})

    if job.workload == "compare-mimo":
        lines = out.stdout.splitlines(keepends=True)
        dirich = _COMPARE["dirichlet"].search(out.stdout).group(1)
        shifted = f"{float(dirich) + 0.5:+.6f}"
        return [
            ("truncated stdout", JobOutput(out.exit_code, "".join(lines[:-6]),
                                           out.stderr, out.files)),
            ("corrupted dirichlet angle", JobOutput(
                out.exit_code, out.stdout.replace(f"(dirichlet) {dirich}",
                                                  f"(dirichlet) {shifted}"),
                out.stderr, out.files)),
        ]
    name = OUTPUT_FILES[job.workload][0]
    data = out.files[name]
    body = data[:-1].split(b"\n")
    cut = b"\n".join(body[:-1]) + b"\n"
    fields = body[-1].split(b",")
    fields[-2 if job.workload == "sweep" else -1] = b"nan"
    return [("truncated " + name, with_file(name, cut)),
            ("corrupted " + name, with_file(name, b"\n".join(body[:-1] + [b",".join(fields)]) + b"\n"))]
