import csv
import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from qmrts import (_csvio, beamform, cli, emit_results, experiment, load_sweep_spec_file,
                   run_sweep, signal_chain)
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


def undecodable_config(tmp_path):
    """A config file with one Latin-1 byte, and that byte's offset."""
    path = tmp_path / "latin1.cfg"
    data = BASELINE_CFG.replace("fc_hz = 77e9", "fc_hz = 77e9 ; caf\xe9").encode("latin-1")
    path.write_bytes(data)
    return path, data.index(b"\xe9")


def test_validate_fails_on_an_undecodable_config(tmp_path, capsys):
    path, offset = undecodable_config(tmp_path)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"fail: config file {path} is not UTF-8: invalid continuation byte "
        f"at byte offset {offset} (0xe9)\n")


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
def test_undecodable_config_exits_1(tmp_path, capsys, command):
    path, offset = undecodable_config(tmp_path)
    out = [str(tmp_path / "out")] if command != "compare" else []
    assert main([command, str(path), *out]) == 1
    assert capsys.readouterr().err == (
        f"error: config file {path} is not UTF-8: invalid continuation byte "
        f"at byte offset {offset} (0xe9)\n")
    assert not (tmp_path / "out").exists()


def test_validate_reads_past_a_byte_order_mark(cfg_path, tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes())
    assert main(["validate", str(cfg_path)]) == 0
    plain = capsys.readouterr().out
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == plain.replace(str(cfg_path), str(path))


BROKEN_CONFIGS = {
    "duplicate-key": (BASELINE_CFG.replace("ntx = 2\n", "ntx = 2\nntx = 2\n"),
                      'config parse error at line 9: key "ntx" given twice in [array]'),
    "duplicate-section": (BASELINE_CFG + "[grid]\n",
                          "config parse error at line 25: section [grid] given twice"),
    "no-section-header": ("ntx = 2\n" + BASELINE_CFG,
                          "config parse error at line 1: text before the first section header"),
    "bad-lines": (BASELINE_CFG.replace("ns = 1024\n", "ns = 1024\nns\n")
                  .replace("nrx = 4\n", "nrx = 4\nnrx\n"),
                  'config parse error at line 6: not a section header or "key = value"'),
    "no-rts-section": (BASELINE_CFG[:BASELINE_CFG.index("[rts]")]
                       + BASELINE_CFG[BASELINE_CFG.index("[grid]"):],
                       "missing section [rts]"),
}


@pytest.mark.parametrize("command, prefix", [("validate", "fail"), ("compare", "error")])
@pytest.mark.parametrize("case", list(BROKEN_CONFIGS))
def test_broken_config_is_named_on_one_line(tmp_path, capsys, case, command, prefix):
    text, reason = BROKEN_CONFIGS[case]
    path = tmp_path / "broken.cfg"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"{prefix}: {reason}\n"


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


@pytest.mark.parametrize("zero_pad", ["1", "4"])
def test_simulate_phase_is_the_chains_phase_at_alpha_zero(tmp_path, zero_pad):
    # spectrum_phase_rad is the phase of the beamformed spectrum at
    # alpha = 0 at the detected bin.  It takes the array-centring terms at
    # fc, not at fc*bin_phase_frequency_scale, which is 1.1e-3 rad here,
    # inside the 1e-2 rad bin-phase-gradient envelope.
    example = Path(__file__).resolve().parents[1] / "scenario.example.cfg"
    out_dir = tmp_path / "out"
    assert main(["simulate", str(example), str(out_dir), "--zero-pad", zero_pad]) == 0
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    phase = float(summary.split("spectrum_phase_rad = ")[1])
    with open(out_dir / "angle_spectrum.csv", newline="", encoding="utf-8") as fh:
        row = min(csv.DictReader(fh), key=lambda r: abs(float(r["alpha_deg"])))
    assert abs(float(row["alpha_deg"])) < 1e-12
    chain = math.atan2(float(row["im"]), float(row["re"]))
    assert abs(math.remainder(phase - chain, 2 * math.pi)) <= 1e-2


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


def test_sweep_no_range_compensation(sweep_cfg_path, tmp_path, capsys):
    # The [sweep] key is the one switch; the command takes no flag for it.
    out_csv = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit):
        main(["sweep", str(sweep_cfg_path), str(out_csv), "--no-range-compensation"])
    assert "--no-range-compensation" in capsys.readouterr().err
    text = sweep_cfg_path.read_text()
    sweep_cfg_path.write_text(text.replace("range_compensation = true",
                                           "range_compensation = false"))
    assert main(["sweep", str(sweep_cfg_path), str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 33
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


def test_simulate_prints_each_line_once_to_a_file(tmp_path):
    # Redirected stdout is block-buffered, so a warning printed before the
    # dumps still sits in the buffer when the CSV writer forks; the forked
    # writer must not flush a copy of it.
    cfg = tmp_path / "near.cfg"
    cfg.write_text(BASELINE_CFG.replace("rc_m = 1.0", "rc_m = 0.05"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open(tmp_path / "stdout.txt", "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "qmrts.cli", "simulate",
                               str(cfg), str(tmp_path / "out")],
                              stdout=out, stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines[0].startswith("warning: far-field condition violated")
    assert any(line.startswith("detected_bin = ") for line in lines)
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize("half", ["parent", "child"])
def test_dump_error_exits_2_from_either_half(cfg_path, tmp_path, capsys, monkeypatch, half):
    # A formatting error in either half of the forked writer reaches the
    # command as itself, so the exit code does not depend on which half
    # failed.  The first half fails in the parent process; the second
    # fails on the range dump's last element, (1, 3) of the 2x4 board, in
    # whichever process formats it.
    parent, rows = os.getpid(), _csvio._rows

    def failing_rows(blocks, write):
        if half == "parent":
            fails = os.getpid() == parent
        else:
            fails = any(cols[0].ndim == 0 and [c.item() for c in cols[:2]] == [1, 3]
                        for cols, _ in blocks)
        if fails:
            raise ValueError("a cell failed to format")
        rows(blocks, write)

    monkeypatch.setattr(_csvio, "_rows", failing_rows)
    assert main(["simulate", str(cfg_path), str(tmp_path / "out")]) == 2
    assert "error: a cell failed to format\n" in capsys.readouterr().err


def test_dump_error_only_in_child_is_written_in_process(cfg_path, tmp_path, monkeypatch):
    # The parent formats the second half itself when the child fails, so
    # the command succeeds with the bytes one process writes.
    if not _csvio._can_split():
        pytest.skip("the split needs os.fork and a second CPU")
    with monkeypatch.context() as m:
        m.setattr(_csvio, "_can_split", lambda: False)
        assert main(["simulate", str(cfg_path), str(tmp_path / "one")]) == 0
    parent, rows = os.getpid(), _csvio._rows

    def failing_rows(blocks, write):
        if os.getpid() != parent:
            raise ValueError("a cell failed to format")
        rows(blocks, write)

    monkeypatch.setattr(_csvio, "_rows", failing_rows)
    assert main(["simulate", str(cfg_path), str(tmp_path / "split")]) == 0
    for name in ("range_spectrum.csv", "angle_spectrum.csv", "closed_form_spectrum.csv"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


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
    monkeypatch.setattr(cli, "range_peak", stop)
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


def test_bad_zero_pad_synthesizes_no_row(cfg_path, tmp_path, monkeypatch, capsys):
    # The chain's synthesis starts from the beat tones, so a factor
    # rejected before synthesis never asks for them.
    tones = []

    def spy(s):
        tones.append(beat_tones(s))
        return tones[-1]
    beat_tones = signal_chain.beat_tones
    monkeypatch.setattr(signal_chain, "beat_tones", spy)
    out_dir = tmp_path / "out"
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "3"]) == 2
    assert capsys.readouterr().err == "error: zero_pad must be a power of two (got 3)\n"
    assert tones == []
    # A good factor: the chain asks once, for the 2x4 board, then the
    # closed-form phase once, for the 2x2 subset.
    assert main(["simulate", str(cfg_path), str(out_dir), "--zero-pad", "2",
                 "--subset", "2x2"]) == 0
    assert [fbeat.shape for fbeat, _, _ in tones] == [(2, 4), (2, 2)]


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


def test_only_simulate_makes_the_whole_range_spectrum(cfg_path, sweep_cfg_path, tmp_path,
                                                     monkeypatch, capsys):
    # compare and sweep read only the detected bin, through range_peak;
    # simulate dumps the whole spectrum, made once.
    calls = []
    chain = {name: getattr(signal_chain, name) for name in ("range_spectrum", "range_peak")}

    def spy(name):
        def call(*args, **kwargs):
            calls.append(name)
            return chain[name](*args, **kwargs)
        return call
    for module in (cli, experiment, signal_chain):
        for name in chain:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name))
    runs = {"simulate": (["simulate", str(cfg_path), str(tmp_path / "out")],
                         ["range_spectrum"]),
            "compare": (["compare", str(cfg_path)], ["range_peak"]),
            "sweep": (["sweep", str(sweep_cfg_path), str(tmp_path / "sweep.csv")],
                      ["range_peak"] * 11)}
    for argv, want in runs.values():
        calls.clear()
        assert main(argv) == 0
        assert calls == want, argv[0]


# numpy's _ArrayMemoryError text for a cube that does not fit.
NUMPY_OOM = ("Unable to allocate 32.0 GiB for an array with shape "
             "(4, 16, 67108864) and data type complex128")


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
def test_out_of_memory_exits_2_with_one_line(cfg_path, sweep_cfg_path, tmp_path,
                                             monkeypatch, capsys, command):
    def oom(*args, **kwargs):
        raise MemoryError(NUMPY_OOM)
    monkeypatch.setattr(cli, "range_spectrum", oom)
    monkeypatch.setattr(cli, "range_peak", oom)
    monkeypatch.setattr(cli, "run_sweep", oom)
    argv = {"simulate": ["simulate", str(cfg_path), str(tmp_path / "out")],
            "compare": ["compare", str(cfg_path)],
            "sweep": ["sweep", str(sweep_cfg_path), str(tmp_path / "sweep.csv")]}
    assert main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {NUMPY_OOM}\n"
