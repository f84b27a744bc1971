import csv

import pytest

from qmrts.cli import main
from conftest import BASELINE_CFG

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
    assert main(["validate", str(tmp_path / "absent.cfg")]) == 1


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
