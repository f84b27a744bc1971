import csv
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qmrts import (beamform, cli, emit_results, load_sweep_spec_file, run_sweep,
                   signal_chain)
from qmrts.cli import main
from qmrts.experiment import SweepSpec
from conftest import BASELINE_CFG

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SWEEP_SECTION = """
[sweep]
d_max_m = 0.1
points = 11
subsets = 2x4, 2x2, 1x4
range_compensation = true
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASELINE_CFG)
    return path


@pytest.fixture()
def sweep_cfg_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(BASELINE_CFG.replace("theta_tx_deg = 2.0",
                                         "theta_tx_deg = 0.0") + SWEEP_SECTION)
    return path


def test_validate_pass(cfg_path, capsys):
    assert main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "0.0953885" in out          # far-field bound 2*D^2/lambda
    assert "Nyquist margin" in out


def test_validate_warn_on_near_field(tmp_path, capsys):
    path = tmp_path / "near.cfg"
    path.write_text(BASELINE_CFG.replace("rc_m = 1.0", "rc_m = 0.05"))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "status: warn" in out
    assert "far-field" in out


def test_validate_fail_names_missing_key(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text(BASELINE_CFG.replace("fc_hz = 77e9\n", ""))
    assert main(["validate", str(path)]) == 1
    assert "fc_hz" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    path = tmp_path / "absent.cfg"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"fail: config file not found: {path}\n"


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
def test_missing_config_file_exits_1(tmp_path, capsys, command):
    path = tmp_path / "absent.cfg"
    out = [str(tmp_path / "out")] if command != "compare" else []
    assert main([command, str(path), *out]) == 1
    assert capsys.readouterr().err == f"error: config file not found: {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_grid_step_override_must_divide_span(cfg_path, tmp_path, capsys, command):
    out = [str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, str(cfg_path), *out, "--grid-step-deg", "0.07"]) == 1
    assert "angle_step_deg" in capsys.readouterr().err


def test_simulate_boresight_summary(tmp_path, capsys):
    path = tmp_path / "bore.cfg"
    path.write_text(BASELINE_CFG.replace("theta_tx_deg = 2.0",
                                         "theta_tx_deg = 0.0"))
    out_dir = tmp_path / "out"
    assert main(["simulate", str(path), str(out_dir)]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines()
                if l.startswith("detected_angle_fullchain_deg"))
    assert abs(float(line.split("=")[1])) < 5e-7
    assert (out_dir / "range_spectrum.csv").is_file()
    assert (out_dir / "angle_spectrum.csv").is_file()
    assert (out_dir / "summary.txt").is_file()


def test_simulate_offset_summary(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir),
                 "--mode", "dirichlet"]) == 0
    out = capsys.readouterr().out
    assert "detected_bin = 7" in out
    assert "detected_angle_fullchain_deg = 0.479583" in out
    assert "detected_angle_closedform_dirichlet_deg = 0.476487" in out


def test_simulate_subset_tracks_transmitter(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir),
                 "--subset", "1x4"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines()
                if l.startswith("detected_angle_fullchain_deg"))
    assert float(line.split("=")[1]) == pytest.approx(2.0, abs=0.02)


def test_simulate_zero_pad(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "2"]) == 0
    assert "detected_bin = 13" in capsys.readouterr().out  # round(6.671*2)
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "3"]) == 2


def test_sweep_csv_and_summary(sweep_cfg_path, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(sweep_cfg_path), str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "33 rows" in out
    assert "1x4: max |deviation|" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 33
    first = rows[1]
    assert float(first[0]) == 0.0
    assert abs(float(first[6])) < 0.005
    # single-TX rows follow the transmitter: deviation ~ asin(d/rc)
    import math
    for rec in rows[1:]:
        if rec[3] == "1x4":
            want = math.degrees(math.asin(float(rec[0]) / 1.0))
            assert float(rec[6]) == pytest.approx(want, abs=0.05)


def test_sweep_no_range_compensation(sweep_cfg_path, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(sweep_cfg_path), str(out_csv),
                 "--no-range-compensation"]) == 0
    lines = out_csv.read_text().splitlines()
    assert all(line.endswith(",false") for line in lines[1:])


def test_sweep_prints_near_field_warning(tmp_path, capsys):
    path = tmp_path / "near.cfg"
    path.write_text(BASELINE_CFG.replace("rc_m = 1.0", "rc_m = 0.05")
                    + SWEEP_SECTION.replace("d_max_m = 0.1", "d_max_m = 0.01"))
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(path), str(out_csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("warning: far-field condition violated: rc_m = 0.05 m "
                      "is below 2*D^2/lambda = 0.0953885 m")
    assert sum(line.startswith("warning:") for line in out) == 1
    # The warning is advisory: the CSV is what the library writes.
    lib_csv = tmp_path / "lib.csv"
    emit_results(run_sweep(load_sweep_spec_file(path)), lib_csv)
    assert out_csv.read_bytes() == lib_csv.read_bytes()


def test_sweep_requires_section(cfg_path, tmp_path, capsys):
    assert main(["sweep", str(cfg_path), str(tmp_path / "x.csv")]) == 1
    assert "[sweep]" in capsys.readouterr().err


def test_compare_boresight_all_zero(tmp_path, capsys):
    path = tmp_path / "bore.cfg"
    path.write_text(BASELINE_CFG.replace("theta_tx_deg = 2.0",
                                         "theta_tx_deg = 0.0"))
    assert main(["compare", str(path)]) == 0
    out = capsys.readouterr().out
    values = []
    for line in out.splitlines():
        for prefix in ("full chain", "steering double sum",
                       "closed form (dirichlet)", "closed form (sinc)"):
            if line.startswith(prefix):
                values.append(float(line[len(prefix):].split()[0]))
    assert len(values) == 4
    assert all(abs(v) < 5e-7 for v in values)
    assert "agreement within 0.02 deg" in out


def test_compare_offset_scenario_within_tolerance(cfg_path, capsys):
    assert main(["compare", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "grating-lobe" not in out
    assert "agreement within 0.02 deg" in out


def test_compare_grating_risk_flagged(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text(BASELINE_CFG.replace("theta_tx_deg = 2.0",
                                         "theta_tx_deg = 40.0"))
    code = main(["compare", str(path)])
    out = capsys.readouterr().out
    assert "grating-lobe risk" in out
    assert code == 2  # detected angles on a grating lobe disagree > 0.02 deg


def test_compare_subset(cfg_path, capsys):
    assert main(["compare", str(cfg_path), "--subset", "2x2"]) == 0
    assert "closed form (dirichlet)" in capsys.readouterr().out


def test_grid_step_override(cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir),
                 "--grid-step-deg", "0.05"]) == 0
    with open(out_dir / "angle_spectrum.csv", newline="") as fh:
        n_rows = sum(1 for _ in fh)
    assert n_rows == 1 + 3601


def test_bad_subset_label(cfg_path, capsys):
    assert main(["compare", str(cfg_path), "--subset", "9x9"]) == 1
    assert "subset" in capsys.readouterr().err


def test_io_failure_exit_code(sweep_cfg_path, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "sweep.csv"
    assert main(["sweep", str(sweep_cfg_path), str(target)]) == 3
    assert "i/o error" in capsys.readouterr().err


class Loaded(Exception):
    """Carries what a command loaded out of the stage that would use it."""


def stop_after_load(monkeypatch):
    """Make every command stop, raising Loaded, right after its config load."""
    def stop(obj, *args, **kwargs):
        raise Loaded(obj)
    monkeypatch.setattr(cli, "range_spectrum", stop)
    monkeypatch.setattr(cli, "run_sweep", stop)


def loaded(argv):
    with pytest.raises(Loaded) as info:
        main(argv)
    return info.value.args[0]


def test_grid_step_override_keeps_configured_bounds(tmp_path, monkeypatch):
    # -48 deg does not survive radians -> degrees -> radians bit for bit.
    path = tmp_path / "grid.cfg"
    path.write_text(BASELINE_CFG.replace("angle_min_deg = -90", "angle_min_deg = -48")
                    .replace("angle_max_deg = 90", "angle_max_deg = 57"))
    stop_after_load(monkeypatch)
    configured = loaded(["compare", str(path)]).grid
    assert loaded(["compare", str(path), "--grid-step-deg", "0.01"]).grid == configured
    assert loaded(["compare", str(path), "--grid-step-deg", "0.05"]).grid == replace(
        configured, step_rad=math.radians(0.05))


def test_every_benchmark_config_loads(tmp_path, monkeypatch):
    # The first 40 jobs of seed 1 of each perfbench workload, run through
    # the CLI up to the end of its config load.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    stop_after_load(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for name in workloads.WORKLOADS:
        for index in range(40):
            job = workloads.make_job(name, 1, index)
            for file_name, text in job.files.items():
                Path(file_name).write_text(text, encoding="utf-8")
            got = loaded(list(job.argv))
            if isinstance(got, SweepSpec):
                assert got.points == job.expect["points"]
                assert tuple(sub.label for sub in got.subsets) == job.expect["subsets"]
                got = got.base
            assert got.chirp.ns == job.expect["ns"]
            if "--grid-step-deg" in job.argv:
                step = job.argv[job.argv.index("--grid-step-deg") + 1]
                assert got.grid.step_rad == math.radians(float(step))


def test_compare_beamforms_each_level_once_for_its_peak(cfg_path, monkeypatch, capsys):
    spectra = []

    def spy(r, s):
        spectra.append(beamform(r, s))
        return spectra[-1]
    monkeypatch.setattr(cli, "beamform", spy)
    assert main(["compare", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    full, ideal = (math.degrees(a.peak_angle_rad) for a in spectra)
    assert f"full chain          {full:+.6f} deg" in out
    assert f"steering double sum {ideal:+.6f} deg" in out
    assert "full chain          +0.479583 deg" in out
    assert "steering double sum +0.476487 deg" in out
    # Only the peaks are read: no spectrum is steered over the whole grid.
    assert all("values" not in vars(a) for a in spectra)


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
def test_commands_never_build_a_beat_cube(cfg_path, sweep_cfg_path, tmp_path,
                                          monkeypatch, command):
    # Every qmrts module that holds the cube API gets a spy, so a command
    # that imports synthesize_beat or BeatCube anew is caught as well.
    built = []

    def spy(real):
        def call(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)
        return call
    for name, module in list(sys.modules.items()):
        if name == "qmrts" or name.startswith("qmrts."):
            for attr in ("synthesize_beat", "BeatCube"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, spy(getattr(signal_chain, attr)))
    argv = {"simulate": ["simulate", str(cfg_path), str(tmp_path / "out")],
            "compare": ["compare", str(cfg_path)],
            "sweep": ["sweep", str(sweep_cfg_path), str(tmp_path / "sweep.csv")]}
    assert main(argv[command]) == 0
    assert built == []


def test_bad_zero_pad_synthesizes_no_row(cfg_path, tmp_path, monkeypatch, capsys):
    rows = []

    def spy(s):
        for row in beat_rows(s):
            rows.append(row.size)
            yield row
    beat_rows = signal_chain._beat_rows
    monkeypatch.setattr(signal_chain, "_beat_rows", spy)
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "3"]) == 2
    assert capsys.readouterr().err == "error: zero_pad must be a power of two (got 3)\n"
    assert rows == []
    # The spy sees the rows of a good factor: 2x4 elements of 1024 samples.
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "2"]) == 0
    assert rows == [1024] * 8


@pytest.mark.parametrize("option, code", [(["--subset", "9x9"], 1),
                                          (["--zero-pad", "3"], 2)],
                         ids=["subset-9x9", "zero-pad-3"])
def test_failed_simulate_leaves_no_output_directory(cfg_path, tmp_path, capsys,
                                                    option, code):
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir), *option]) == code
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_subset_label_is_parsed_before_synthesis(cfg_path, tmp_path, monkeypatch,
                                                 capsys, command):
    stop_after_load(monkeypatch)
    argv = [command, str(cfg_path)] + ([str(tmp_path / "out")] if command == "simulate" else [])
    assert main(argv + ["--subset", "9x9"]) == 1
    assert 'subset "9x9" exceeds the array size 2x4' in capsys.readouterr().err


# numpy's _ArrayMemoryError text for a cube that does not fit.
NUMPY_OOM = ("Unable to allocate 32.0 GiB for an array with shape "
             "(4, 16, 67108864) and data type complex128")


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
def test_out_of_memory_exits_2_with_one_line(cfg_path, sweep_cfg_path, tmp_path,
                                             monkeypatch, capsys, command):
    def oom(*args, **kwargs):
        raise MemoryError(NUMPY_OOM)
    monkeypatch.setattr(cli, "range_spectrum", oom)
    monkeypatch.setattr(cli, "run_sweep", oom)
    argv = {"simulate": ["simulate", str(cfg_path), str(tmp_path / "out")],
            "compare": ["compare", str(cfg_path)],
            "sweep": ["sweep", str(sweep_cfg_path), str(tmp_path / "sweep.csv")]}
    assert main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {NUMPY_OOM}\n"
