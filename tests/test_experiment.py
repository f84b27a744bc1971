import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from qmrts import beamformer
from qmrts import (AntennaSubset, ConfigError, ValidationError,
                   bin_phase_frequency_scale, emit_results, range_peak,
                   rts_displacement, run_sweep)
from qmrts.experiment import SweepSpec, displaced, load_sweep_spec
from qmrts.propagation import C0
from conftest import build_scenario

DEG = math.degrees

# The sweep CSV's columns, as perfbench's sweep check also lists them.
SWEEP_HEADER = ["d_rts_m", "theta_rx_deg", "theta_tx_deg", "subset",
                "detected_fullchain_deg", "detected_closedform_deg",
                "deviation_deg", "range_compensated"]


def small_spec(points=5, d_max=0.05, subsets=("2x4", "2x2", "1x4"), **kw):
    base = build_scenario(**kw)
    subs = tuple(AntennaSubset.from_label(lbl, base.array.ntx, base.array.nrx)
                 for lbl in subsets)
    return SweepSpec(base=base, d_max_m=d_max, points=points, subsets=subs,
                     range_compensation=True)


def test_displacement_inverse_examples(boresight):
    s = replace(boresight, rts=replace(boresight.rts, theta_rx_rad=0.3))
    assert displaced(s, 0.0, False).rts.theta_tx_rad == 0.3
    got = displaced(boresight, 0.0174524, False).rts.theta_tx_rad
    assert DEG(got) == pytest.approx(1.0, abs=1e-4)


def test_displacement_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        th_rx = math.radians(rng.uniform(-30, 30))
        d = rng.uniform(0, 0.3)
        s = displaced(build_scenario(theta_rx_deg=DEG(th_rx)), d, False)
        assert rts_displacement(s) == pytest.approx(d, abs=1e-12)


def test_displacement_domain_error():
    with pytest.raises(ValidationError, match="outside"):
        displaced(build_scenario(theta_rx_deg=80.0), 0.5, True)


def test_subset_label_parsing():
    sub = AntennaSubset.from_label("2x4", 2, 4)
    assert (sub.ntx, sub.nrx) == (2, 4)
    assert sub.label == "2x4"
    assert AntennaSubset.from_label("1X4", 2, 4) == AntennaSubset(ntx=1, nrx=4)
    for bad in ("0x4", "x", "2x", "2x3x4", "ax2"):
        with pytest.raises(ConfigError):
            AntennaSubset.from_label(bad, 2, 4)
    with pytest.raises(ConfigError, match="exceeds"):
        AntennaSubset.from_label("3x4", 2, 4)


def test_spec_validation():
    with pytest.raises(ValidationError, match="d_max_m"):
        small_spec(d_max=1.0)  # must stay below rc_m
    with pytest.raises(ValidationError, match="points"):
        small_spec(points=1)
    with pytest.raises(ValidationError, match="duplicate"):
        small_spec(subsets=("2x4", "2x4"))
    with pytest.raises(ValidationError, match="at least one"):
        small_spec(subsets=())
    with pytest.raises(ValidationError, match="past 90 deg"):
        small_spec(d_max=0.5, theta_rx_deg=80.0)  # rc_m = 1


def test_sweep_cardinality_and_grouping():
    rows = run_sweep(small_spec(points=3))
    assert len(rows) == 9
    # subsets grouped per displacement point, sweep order preserved
    assert [r.subset for r in rows[:3]] == ["2x4", "2x2", "1x4"]
    assert rows[0].d_rts_m == 0.0
    assert rows[3].d_rts_m == pytest.approx(0.025)
    assert rows[-1].d_rts_m == pytest.approx(0.05)


def test_monostatic_point_has_zero_deviation():
    rows = run_sweep(small_spec(points=2, d_max=0.01))
    for r in rows:
        if r.d_rts_m == 0.0:
            assert abs(r.deviation_deg) < 0.005


def test_closed_form_column_tracks_transmitter_for_1x4():
    rows = [r for r in run_sweep(small_spec(points=5)) if r.subset == "1x4"]
    for r in rows:
        assert r.detected_closedform_deg == pytest.approx(r.theta_tx_deg,
                                                          abs=1e-3)


def test_fullchain_degenerate_tracks_midsweep_frequency():
    # At B = 1 GHz the chain's 1x4 detection is asin(scale*sin(theta_tx))
    # with scale = 1 + B*(Ns-1)/(2*fc*Ns); the residue vs theta_tx itself
    # reaches 0.037 deg at the sweep end.
    spec = small_spec(points=5, d_max=0.1, subsets=("1x4",))
    scale = bin_phase_frequency_scale(spec.base)
    worst = 0.0
    for r in run_sweep(spec):
        want = DEG(math.asin(scale * math.sin(math.radians(r.theta_tx_deg))))
        assert r.detected_fullchain_deg == pytest.approx(want, abs=1e-3)
        worst = max(worst, abs(r.detected_fullchain_deg - r.theta_tx_deg))
    assert worst == pytest.approx(0.0374, abs=2e-3)


def test_fullchain_closedform_row_agreement():
    # For the >= 2-element selections the two model levels stay within
    # 0.02 deg across the default sweep (the single-TX rows exceed that
    # at wide displacement purely via the mid-sweep frequency scale).
    rows = run_sweep(small_spec(points=11, d_max=0.1))
    for r in rows:
        if r.subset in ("2x4", "2x2"):
            assert abs(r.detected_fullchain_deg
                       - r.detected_closedform_deg) < 0.02


def test_deviation_monotone_for_2x4():
    rows = [r for r in run_sweep(small_spec(points=11, d_max=0.1))
            if r.subset == "2x4"]
    devs = [r.deviation_deg for r in rows]
    assert all(b >= a for a, b in zip(devs, devs[1:]))


def test_subset_cut_keeps_the_bin_window(baseline):
    r = range_peak(baseline)
    cut, s = AntennaSubset(1, 4).apply(r, baseline)
    assert cut.first_bin == r.first_bin > 0
    assert cut.peak_bin == r.peak_bin
    assert np.array_equal(cut.peak_values, r.peak_values[:1, :4])
    assert (s.array.ntx, s.array.nrx) == (1, 4)


def test_subset_deviation_ordering():
    # Read off the computed curves: the single-TX selection tracks the
    # transmitter (largest deviation), and the longer RX aperture pulls
    # harder than the short one (2x4 above 2x2).
    rows = run_sweep(small_spec(points=3, d_max=0.1))
    at_max = {r.subset: r.deviation_deg for r in rows if r.d_rts_m == 0.1}
    assert at_max["1x4"] > at_max["2x4"] > at_max["2x2"] > 0


def test_range_compensation_is_range_level_only():
    on = run_sweep(small_spec(points=3, d_max=0.1))
    off = run_sweep(replace(small_spec(points=3, d_max=0.1),
                            range_compensation=False))
    assert all(r.range_compensated for r in on)
    assert not any(r.range_compensated for r in off)
    # only a compensated point gains a return path
    base = small_spec().base
    assert displaced(base, 0.1, False).rts.extra_return_path_m == 0.0
    assert displaced(base, 0.1, True).rts.extra_return_path_m > 0.0
    # the extra return path is common to all elements: angles are untouched
    for a, b in zip(on, off):
        assert a.detected_fullchain_deg == pytest.approx(
            b.detected_fullchain_deg, abs=1e-6)


def test_far_field_flag():
    # A near-field sweep still runs; its points carry the far-field warning.
    spec = small_spec(points=2, d_max=0.01, rc_m=0.05)
    assert len(run_sweep(spec)) == 2 * len(spec.subsets)
    point = displaced(spec.base, spec.d_max_m, spec.range_compensation)
    assert any("far-field" in w for w in point.validate())


def test_emit_and_read_round_trip(tmp_path):
    rows = run_sweep(small_spec(points=3))
    path = tmp_path / "sweep.csv"
    emit_results(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *records = csv.reader(fh)
    assert header == SWEEP_HEADER
    assert len(records) == len(rows)
    for row, rec in zip(rows, records):
        back = dict(zip(SWEEP_HEADER, rec))
        assert back.pop("subset") == row.subset
        assert back.pop("range_compensated") == (
            "true" if row.range_compensated else "false")
        assert len(back) == 6
        for name, cell in back.items():
            assert float(cell) == pytest.approx(getattr(row, name),
                                                rel=1e-8, abs=1e-12), name


def test_emit_header_and_format(tmp_path):
    rows = run_sweep(small_spec(points=2, d_max=0.01))
    path = tmp_path / "sweep.csv"
    emit_results(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("d_rts_m,theta_rx_deg,theta_tx_deg,subset,"
                        "detected_fullchain_deg,detected_closedform_deg,"
                        "deviation_deg,range_compensated")
    assert len(lines) == 1 + len(rows)
    assert lines[1].endswith(",true")


def test_emit_empty_rows_creates_nothing(tmp_path):
    path = tmp_path / "nope.csv"
    with pytest.raises(ValueError, match="no sweep rows"):
        emit_results([], path)
    assert not path.exists()


def test_load_sweep_spec_defaults(baseline_cfg):
    spec = load_sweep_spec(baseline_cfg + "\n[sweep]\n")
    assert spec.d_max_m == 0.1
    assert spec.points == 51
    assert [s.label for s in spec.subsets] == ["2x4", "2x2", "1x4"]
    assert spec.range_compensation


def test_load_sweep_spec_overrides(baseline_cfg):
    spec = load_sweep_spec(baseline_cfg + """
[sweep]
d_max_m = 0.05
points = 5
subsets = 1x4
range_compensation = false
""")
    assert spec.points == 5
    assert not spec.range_compensation
    assert [s.label for s in spec.subsets] == ["1x4"]


def test_load_sweep_spec_requires_section(baseline_cfg):
    with pytest.raises(ConfigError, match=r"\[sweep\]"):
        load_sweep_spec(baseline_cfg)
    with pytest.raises(ConfigError, match="range_compensation"):
        load_sweep_spec(baseline_cfg + "\n[sweep]\nrange_compensation = maybe\n")


def test_per_point_error_identifies_point():
    # theta_rx near 90 deg makes later displacement points leave the asin
    # domain; bypass the spec's own guard to exercise the abort path.
    base = build_scenario(theta_rx_deg=85.0)
    sub = (AntennaSubset.from_label("2x4", 2, 4),)
    spec = SweepSpec(base=base, d_max_m=0.003, points=3, subsets=sub,
                     range_compensation=True)
    object.__setattr__(spec, "d_max_m", 0.9)
    with pytest.raises(RuntimeError, match="sweep aborted at point 1"):
        run_sweep(spec)
    # A tone a twentieth of a bin under Nyquist at d = 0: range compensation
    # lengthens the return leg of later points by tenths of a bin, so point
    # 1 crosses it, which range_peak's beat_tones names.
    tau_rts = (1024 / 2 - 0.05) / 1e9 - 2.0 / C0
    spec = small_spec(points=3, d_max=0.5, tau_rts_s=tau_rts)
    with pytest.raises(RuntimeError, match=r"sweep aborted at point 1 .*\(Nyquist\)"):
        run_sweep(spec)


def test_sweep_never_steers_the_whole_grid(monkeypatch):
    # Each row needs only its peak, which beamform finds coarse to fine.
    steered = []
    steer = beamformer._steer

    def counted(v, s, angles):
        steered.append((angles.size, s.grid.n_points))
        return steer(v, s, angles)
    monkeypatch.setattr(beamformer, "_steer", counted)
    assert len(run_sweep(small_spec(points=3))) == 9
    assert steered and all(size < n for size, n in steered)
