"""qmrts benchmark: drive the real CLI on seeded workloads and report metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.

A closed loop with one client: jobs run one at a time, each in a fresh
interpreter (``python -m qmrts.cli ...``), because every CLI user pays
import plus one command per invocation.  A fresh process per job also keeps
a cross-call cache from showing a gain that CLI users never get.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed prefix of
the same job sequence twice per job, once plain and once under
launcher.py, and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
from checks import CheckFailed, JobOutput, TOLERANCE_EXIT
from workloads import CONFIG, WORKLOADS, Job, make_job

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
JOB_TIMEOUT_S = 150.0
# Jobs per traced run: each runs plain and traced, about run_seconds in total.
TRACE_JOBS = {"sweep": 6, "compare-mimo": 10, "simulate-dump": 8}
# Child BLAS thread variables; recorded in the machine stamp as passed.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it cannot start)."""


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """Spawns jobs for one workload and seed inside a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._n = 0

    def new_dir(self, tag: str) -> Path:
        self._n += 1
        d = self.work / f"{self._n:05d}-{tag}"
        d.mkdir()
        return d

    def spawn(self, cmd: list[str], cwd: Path) -> tuple[int, float, int]:
        """Run cmd to completion: (exit code, wall seconds, child max RSS in KiB).

        The rusage comes from wait4 on the child itself, not from the parent.
        """
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def python(self, code: str, *flags: str) -> tuple[int, float, str, str]:
        d = self.new_dir("py")
        rc, wall, _ = self.spawn([sys.executable, *flags, "-c", code], d)
        out = (d / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        err = (d / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        shutil.rmtree(d)
        return rc, wall, out, err

    def run_job(self, job: Job, traced: bool = False):
        """Run one job; return (JobOutput, wall s, max RSS KiB, spans or None)."""
        d = self.new_dir(f"job{job.index}")
        for name, text in job.files.items():
            (d / name).write_text(text, encoding="utf-8")
        if traced:
            cmd = [sys.executable, str(LAUNCHER), "spans.json", "--", *job.argv]
        else:
            cmd = [sys.executable, "-m", "qmrts.cli", *job.argv]
        rc, wall, rss = self.spawn(cmd, d)
        files = {name: (d / name).read_bytes()
                 for name in checks.OUTPUT_FILES[job.workload] if (d / name).is_file()}
        out = JobOutput(rc, (d / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
                        (d / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
                        files)
        spans = None
        if traced and (d / "spans.json").is_file():
            spans = json.loads((d / "spans.json").read_text(encoding="utf-8"))
        shutil.rmtree(d)
        return out, wall, rss, spans


class Tally:
    """Check results of a run: failures, tolerance exits, checker self-test."""

    def __init__(self):
        self.attempted = self.failed = self.tolerance = 0
        self.problems: list[str] = []
        self.checker_proven = False

    def record(self, job: Job, out: JobOutput) -> str | None:
        """Check one job's output; return its status, or None if it failed."""
        self.attempted += 1
        try:
            status = checks.check(job, out)
        except CheckFailed as exc:
            self.failed += 1
            print(f"job {job.index} FAILED: {exc}", flush=True)
            return None
        self.tolerance += status == TOLERANCE_EXIT
        if not self.checker_proven:
            self.prove_checker(job, out)
        return status

    def prove_checker(self, job: Job, out: JobOutput) -> None:
        """Each run shows that its checker rejects a damaged copy of a good output."""
        self.checker_proven = True
        for what, bad in checks.damaged(job, out):
            try:
                checks.check(job, bad)
            except CheckFailed:
                continue
            self.problems.append(f"checker accepted a {what}")


def machine_stamp(bench: Bench) -> dict:
    code = ("import json, sys, importlib.metadata as md, qmrts\n"
            "def v(p):\n"
            "    try:\n        return md.version(p)\n"
            "    except md.PackageNotFoundError:\n        return None\n"
            "print(json.dumps({'python': sys.version.split()[0], 'numpy': v('numpy'),"
            " 'scipy': v('scipy'), 'qmrts_file': qmrts.__file__}))")
    rc, _, out, err = bench.python(code)
    if rc != 0:
        raise BenchError(f"cannot import qmrts from {bench.root / 'src'}:\n{err}")
    stamp = json.loads(out.strip().splitlines()[-1])
    src = str((bench.root / "src").resolve())
    if not str(Path(stamp.pop("qmrts_file")).resolve()).startswith(src):
        raise BenchError(f"qmrts was not imported from {src}")
    stamp["nproc"] = os.cpu_count()
    stamp["cpus_allowed"] = len(os.sched_getaffinity(0))
    stamp["blas_threads"] = {k: bench.env.get(k, "default") for k in BLAS_VARS}
    return stamp


def setup_walls(bench: Bench, job: Job, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing qmrts and loading the config."""
    d = bench.new_dir("setup")
    (d / CONFIG).write_text(job.files[CONFIG], encoding="utf-8")
    loader = "load_sweep_spec_file" if job.workload == "sweep" else "load_scenario_file"
    code = f"import qmrts; qmrts.{loader}({str(d / CONFIG)!r})"
    walls = []
    for _ in range(repeats):
        rc, wall, _, err = bench.python(code)
        if rc != 0:
            raise BenchError(f"setup failed:\n{err}")
        walls.append(wall)
    shutil.rmtree(d)
    return walls


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it: (value, percentile).

    With ten jobs or fewer no percentile qualifies and the slowest job is
    reported as percentile 100.
    """
    w = sorted(walls)
    n = len(w)
    if n <= 10:
        return w[-1], 100.0
    return w[n - 11], 100.0 * (n - 10) / n


def timed_run(bench: Bench, seconds: float, tally: Tally) -> dict:
    walls, rss = [], []
    start = end = time.perf_counter()
    index = 0
    while not walls or (end - start) + median(walls) <= seconds:
        job = make_job(bench.workload, bench.seed, index)
        out, wall, kib, _ = bench.run_job(job)
        end = time.perf_counter()
        walls.append(wall)
        rss.append(kib)
        tally.record(job, out)
        index += 1
    value, pct = tail(walls)
    completed = tally.attempted - tally.failed
    print(f"jobs: {len(walls)} in {end - start:.2f} s; job_tail_s is p{pct:.1f} "
          f"of {len(walls)} jobs; fail_ratio = {tally.failed}/{tally.attempted}; "
          f"tolerance exits = {tally.tolerance}")
    return {
        "job_p50_s": (median(walls), "s"),
        "job_tail_s": (value, "s"),
        "jobs_per_s": (completed / (end - start), "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }


# --- traced run -----------------------------------------------------------

# metric -> span names; the time of the outermost of these spans is summed.
TIME_METRICS = {
    "scenario.load_s": ("scenario.load_scenario_file", "scenario.load_scenario",
                        "scenario.parse_config"),
    "signal_chain.synthesize_s": ("signal_chain.synthesize_beat",),
    "signal_chain.range_dft_s": ("signal_chain.range_dft",),
    "signal_chain.csv_s": ("signal_chain.write_range_csv", "signal_chain.write_beat_csv"),
    "beamformer.csv_s": ("beamformer.write_angle_csv",),
    "closed_form.csv_s": ("closed_form.write_closed_form_csv",),
    "beamformer.beamform_s": ("beamformer.beamform",),
    "closed_form.predicted_peak_s": ("closed_form.predicted_peak",),
    "closed_form.peak_separation_s": ("closed_form.peak_separation_db",
                                      "closed_form.ambiguous_peak"),
    "closed_form.spectrum_s": ("closed_form.closed_form_spectrum",),
    "experiment.run_sweep_s": ("experiment.run_sweep",),
    "experiment.emit_s": ("experiment.emit_results",),
}
CALL_METRICS = {
    "scenario.validate_calls": "scenario.validate",
    "propagation.path_delays_calls": "propagation.path_delays",
    "beamformer.beamform_calls": "beamformer.beamform",
    "closed_form.predicted_peak_calls": "closed_form.predicted_peak",
}
SELF_METRICS = {"experiment.self_s": "experiment", "cli.self_s": "cli"}
COUNT_METRICS = ("signal_chain.samples", "signal_chain.fft_points",
                 "beamformer.steer_evals", "closed_form.kernel_evals",
                 "experiment.points", "output.rows", "output.bytes")
COUNT_UNITS = {"output.bytes": "bytes"}


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer values of one traced job.

    Self time is a span's duration minus the time its child spans cover;
    spans come from one thread and nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    calls = Counter(s[0] for s in spans)
    for metric, names in TIME_METRICS.items():
        for name, t0, t1, parent, _ in spans:
            if name in names:
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    out[metric] += t1 - t0
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]
    for metric, layer in SELF_METRICS.items():
        out[metric] = sum(t1 - t0 - child[i] for i, (name, t0, t1, _, _) in enumerate(spans)
                          if name.split(".", 1)[0] == layer)
    for *_, counts in spans:
        for key, value in (counts or {}).items():
            out[key] += value
    return out


def import_breakdown(bench: Bench) -> dict[str, float]:
    """Median cumulative import time of qmrts and qmrts.closed_form [s]."""
    pat = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", re.M)
    found: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        rc, _, _, err = bench.python("import qmrts", "-X", "importtime")
        if rc != 0:
            raise BenchError(f"import qmrts failed:\n{err}")
        for us, name in pat.findall(err):
            found[name].append(int(us) * 1e-6)
    return {"import.qmrts_s": median(found["qmrts"]),
            "import.closed_form_s": median(found["qmrts.closed_form"])}


def traced_run(bench: Bench, tally: Tally) -> dict:
    k = TRACE_JOBS[bench.workload]
    plain, traced = [], []
    totals: dict[str, float] = defaultdict(float)
    for index in range(k):
        job = make_job(bench.workload, bench.seed, index)
        # Alternate which side runs first so drift does not favour either.
        for side in ((False, True) if index % 2 == 0 else (True, False)):
            out, wall, _, spans = bench.run_job(job, traced=side)
            status = tally.record(job, out)
            (traced if side else plain).append(wall)
            if not side:
                continue
            if not spans:
                tally.problems.append(f"job {index}: no spans written")
                continue
            m = span_metrics(spans)
            structural_check(job, m, tally)
            for key, value in m.items():
                totals[key] += value
            totals["cli.exit_codes"] += out.exit_code != 0
            totals["cli.tolerance_exits"] += status == TOLERANCE_EXIT
    metrics = {name: (totals[name] / k, "s") for name in TIME_METRICS}
    metrics.update({name: (totals[name] / k, "s") for name in SELF_METRICS})
    metrics.update({name: (totals[name] / k, "count") for name in CALL_METRICS})
    metrics.update({name: (totals[name] / k, COUNT_UNITS.get(name, "count"))
                    for name in COUNT_METRICS})
    for name in ("cli.exit_codes", "cli.tolerance_exits"):
        metrics[name] = (totals[name] / k, "count")
    metrics.update({name: (v, "s") for name, v in import_breakdown(bench).items()})
    metrics["trace.overhead"] = (median(traced) - median(plain), "s")
    print(f"traced jobs: {k} (each also run plain); values are means per job")
    return metrics


def structural_check(job: Job, m: dict[str, float], tally: Tally) -> None:
    """Invariants of the call structure that hold for any correct build."""
    if job.workload == "sweep":
        want = job.expect["points"] * len(job.expect["subsets"])
        got = (m["closed_form.predicted_peak_calls"], m["beamformer.beamform_calls"])
        if got != (want, want) or m["experiment.points"] != job.expect["points"]:
            tally.problems.append(
                f"job {job.index}: predicted_peak/beamform calls {got}, "
                f"points {m['experiment.points']}; want {want} = points x subsets")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qmrts" / "cli.py").is_file():
        print(f"error: no qmrts source at {root / 'src' / 'qmrts'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    tally = Tally()
    try:
        bench = Bench(root, args.workload, args.seed, work)
        stamp = machine_stamp(bench)
        print("machine: " + json.dumps(stamp, sort_keys=True), flush=True)
        if args.trace:
            metrics = traced_run(bench, tally)
        else:
            # Set-up is timed before and after the job loop, so a slow stretch
            # of the host at one end of the run moves the median less.
            job0 = make_job(args.workload, args.seed, 0)
            walls = setup_walls(bench, job0, SETUP_REPEATS - SETUP_REPEATS // 2)
            metrics = timed_run(bench, args.seconds, tally)
            walls += setup_walls(bench, job0, SETUP_REPEATS // 2)
            metrics["setup_s"] = (median(walls), "s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"PROBLEM: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
