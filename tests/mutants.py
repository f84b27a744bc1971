"""Mutation check, run as `python tests/mutants.py`: each mutant, (name,
file under src/qmrts, old text, new text, test ids), must be killed.

In a temporary copy of the repository the named tests must first pass;
then each mutant in turn replaces its old text, which must appear exactly
once, and runs its tests with pytest -x -q.  A survivor, or an old text
not found exactly once, makes the script exit 1.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SC, EXP = "tests/test_scenario.py::", "tests/test_experiment.py::"
STEP = '(">=", math.radians(FINE_STEP_DEG))'
BUDGET = ["tests/test_signal_chain.py::test_spectrum_budget_is_checked_before_any_row"]

MUTANTS = [
    ("no angle_min_deg bound", "scenario.py", '"min_rad", "deg"', '"min_rad", None',
     [SC + "test_bound_message_is_whole[angle_min_deg]"]),
    ("no angle_max_deg bound", "scenario.py", '"max_rad", "deg"', '"max_rad", None',
     [SC + "test_bound_message_is_whole[angle_max_deg]"]),
    ("no angle_step_deg bound", "scenario.py", STEP, "None",
     [SC + "test_bound_message_is_whole[angle_step_deg0]"]),
    ("angle_step_deg > in place of >=", "scenario.py", STEP, STEP.replace(">=", ">"),
     [SC + "test_grid_steps_in_use_divide_span[0.001]"]),
    ("no d_max_m bound", "scenario.py", '"d_max_m", (">=", 0)', '"d_max_m", None',
     [SC + "test_sweep_bound_message_is_whole[d_max_m=-0.01]"]),
    ("no points bound", "scenario.py", '"points", (">=", 2)', '"points", None',
     [SC + "test_sweep_bound_message_is_whole[points=1]"]),
    ("points > in place of >=", "scenario.py", '"points", (">=", 2)', '"points", (">", 2)',
     [EXP + "test_monostatic_point_has_zero_deviation"]),
    ("no extra_return_path_m bound", "scenario.py", '"extra_return_path_m", (">=", 0)',
     '"extra_return_path_m", None', [SC + "test_return_leg_cancelled_by_extra_path_is_rejected"]),
    ("no degree display", "scenario.py", 'math.degrees if name.endswith("_deg") else ', "",
     [SC + "test_bound_message_is_whole[angle_step_deg1]"]),
    ("budget comparison flipped", "scenario.py", "not size <= MAX_SPECTRUM_BYTES",
     "not size > MAX_SPECTRUM_BYTES", BUDGET),
    ("no budget check in validate", "scenario.py", "_check_spectrum_bytes(self)", "pass", BUDGET),
    ("no budget check in range_spectrum", "signal_chain.py",
     "    _check_spectrum_bytes(s, zero_pad)\n", "", BUDGET),
]


def pytest(cwd: Path, tests: list[str]) -> int:
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=cwd, capture_output=True).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".pytest_cache", ".perfbench_work"))
        if pytest(repo, sorted({t for *_, tests in MUTANTS for t in tests})) != 0:
            print("the mutants' tests fail on the unmutated tree")
            return 1
        for name, file, old, new, tests in MUTANTS:
            path = repo / "src" / "qmrts" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(f"{name}: old text found {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = pytest(repo, tests)
            path.write_text(text, encoding="utf-8")
            if code != 1:   # only 1 is a failed test; 0 passed, others are errors
                failures.append(f"{name}: survived (pytest exit {code})")
            print(f"{'killed' if code == 1 else 'NOT KILLED'}: {name}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
