"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. The generator is a pure function of (workload, seed, index).
2. Every generated config loads and validates in qmrts (imported from ./src).
3. The output check passes real outputs and fails truncated, corrupted,
   crashed and wrongly-exited ones.
4. Self time and layer metrics are computed right from a hand-built trace,
   and a traced sweep job meets the call-structure invariant.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import checks
import run
from checks import CheckFailed, JobOutput
from workloads import CONFIG, WORKLOADS, make_job

ROOT = Path.cwd()
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def rejects(job, out: JobOutput) -> bool:
    try:
        checks.check(job, out)
    except CheckFailed:
        return True
    return False


def test_generator() -> None:
    for wl in WORKLOADS:
        same = all(make_job(wl, s, i) == make_job(wl, s, i)
                   for s in (1, 2, 987654321) for i in range(40))
        differ = all(make_job(wl, 1, i).files != make_job(wl, 2, i).files for i in range(40))
        expect(same, f"{wl}: same seed gives identical files and argv")
        expect(differ, f"{wl}: another seed gives other files")


def test_configs_validate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import qmrts
    from qmrts.experiment import load_sweep_spec

    for wl in WORKLOADS:
        bad = []
        for seed in (1, 2, 3):
            for i in range(40):
                job = make_job(wl, seed, i)
                text = job.files[CONFIG]
                try:
                    if wl == "sweep":
                        load_sweep_spec(text)
                    else:
                        s = qmrts.load_scenario(text)
                        if "--grid-step-deg" in job.argv:
                            step = float(job.argv[job.argv.index("--grid-step-deg") + 1])
                            grid = qmrts.AngleGrid.from_degrees(-90.0, 90.0, step)
                            replace(s, grid=grid).validate()
                except ValueError as exc:
                    bad.append(f"seed {seed} job {i}: {exc}")
        expect(not bad, f"{wl}: 120 generated configs load and validate {bad[:2]}")


def test_checker(bench: run.Bench) -> None:
    for wl in WORKLOADS:
        job = make_job(wl, 1, 0)
        out, *_ = bench.run_job(job)
        try:
            status = checks.check(job, out)
        except CheckFailed as exc:
            status = f"failed: {exc}"
        expect(status in (checks.OK, checks.TOLERANCE_EXIT), f"{wl}: real output passes ({status})")
        for what, bad in checks.damaged(job, out):
            expect(rejects(job, bad), f"{wl}: {what} is counted as failed")
        for code in (1, 3, -9):
            expect(rejects(job, replace(out, exit_code=code)),
                   f"{wl}: exit code {code} is counted as failed")
        if wl == "compare-mimo":
            expect(rejects(job, replace(out, exit_code=2, stderr="error: boom\n")),
                   f"{wl}: exit 2 without 'tolerance exceeded' is counted as failed")
        else:
            expect(rejects(job, replace(out, files={})), f"{wl}: missing output files fail")


def test_span_metrics(bench: run.Bench) -> None:
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["cli.cmd_sweep", 1.0, 9.0, 0, None],
        ["experiment.run_sweep", 2.0, 8.0, 1, {"experiment.points": 2}],
        ["closed_form.predicted_peak", 3.0, 4.0, 2, None],
        ["closed_form.spectrum_magnitude", 3.5, 3.75, 3, {"closed_form.kernel_evals": 7}],
        ["beamformer.beamform", 5.0, 5.5, 2, None],
        ["experiment.emit_results", 8.5, 8.75, 1, {"output.rows": 3}],
    ]
    m = run.span_metrics(spans)
    expect(math.isclose(m["cli.self_s"], (10 - 8) + (8 - 6 - 0.25)), "cli self time")
    expect(math.isclose(m["experiment.self_s"], (6 - 1.5) + 0.25), "experiment self time")
    expect(m["closed_form.predicted_peak_s"] == 1.0 and m["experiment.run_sweep_s"] == 6.0,
           "call times are inclusive")
    expect(m["closed_form.kernel_evals"] == 7 and m["output.rows"] == 3
           and m["beamformer.beamform_calls"] == 1, "counters and call counts")

    job = make_job("sweep", 1, 0)
    out, _, _, spans = bench.run_job(job, traced=True)
    tally = run.Tally()
    expect(tally.record(job, out) and spans is not None, "traced sweep job passes its check")
    m = run.span_metrics(spans or [])
    run.structural_check(job, m, tally)
    expect(not tally.problems, "sweep: predicted_peak_calls == beamform_calls == points x subsets")
    broken = dict(m, **{"beamformer.beamform_calls": m["beamformer.beamform_calls"] - 1})
    run.structural_check(job, broken, tally)
    expect(len(tally.problems) == 1, "a missing beamform call breaks the invariant")


def main() -> int:
    if not (ROOT / "src" / "qmrts" / "cli.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    test_generator()
    test_configs_validate()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        bench = run.Bench(ROOT, "sweep", 1, work)
        test_checker(bench)
        test_span_metrics(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
