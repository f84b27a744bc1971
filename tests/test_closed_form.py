import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmrts import (AngleGrid, beamform, closed_form, peak_separation_db,
                   predicted_peak, range_spectrum)
from qmrts.beamformer import _peak
from qmrts.cli import AMBIGUITY_GAP_DB
from qmrts.closed_form import (closed_form_phase, closed_form_spectrum,
                               spectrum_magnitude, write_closed_form_csv)
from qmrts.propagation import C0
from qmrts.scenario import FINE_STEP_DEG
from conftest import build_scenario, on_bin_tau_rts, wrap_phase

DEG = math.degrees


def direct_double_sum(s, angles_rad):
    """Test-local oracle: literal evaluation of the steering double sum."""
    a, r = s.array, s.rts
    lam = s.wavelength_m
    u = np.sin(angles_rad)
    out = np.zeros(u.size, dtype=complex)
    for i in range(a.ntx):
        for j in range(a.nrx):
            elem = 2 * np.pi * (a.dtx_m * i * math.sin(r.theta_rx_rad)
                                + a.drx_m * j * math.sin(r.theta_tx_rad)) / lam
            steer = 2 * np.pi * (a.dtx_m * i + a.drx_m * j) * u / lam
            out += np.exp(1j * (elem - steer))
    return r.amplitude * s.chirp.ns * out


def test_geometric_sum_identity_against_direct_sum(baseline):
    angles = baseline.grid.angles_rad()
    exact = np.abs(direct_double_sum(baseline, angles))
    cf = spectrum_magnitude(baseline, angles, "dirichlet")
    peak = cf.max()
    assert np.max(np.abs(exact - cf)) / peak < 1e-9
    mask = cf > 1e-4 * peak
    assert np.max(np.abs(exact[mask] - cf[mask]) / cf[mask]) < 1e-9


def test_magnitude_at_common_center_is_full_gain():
    s = build_scenario(theta_rx_deg=3.0, theta_tx_deg=3.0, amplitude=2.0)
    for mode in ("sinc", "dirichlet"):
        mag = spectrum_magnitude(s, np.array([s.rts.theta_rx_rad]), mode)
        assert mag[0] == pytest.approx(2.0 * 1024 * 2 * 4, rel=1e-12)


def test_single_element_kernel_is_flat():
    s = build_scenario(ntx=1, theta_rx_deg=25.0, theta_tx_deg=2.0)
    angles = np.radians(np.linspace(-90, 90, 3601))
    mag = spectrum_magnitude(s, angles, "dirichlet")
    # transmit factor == 1 for every angle: spectrum reduces to the RX kernel
    rx_only = build_scenario(ntx=1, theta_rx_deg=-40.0, theta_tx_deg=2.0)
    assert np.allclose(mag, spectrum_magnitude(rx_only, angles, "dirichlet"),
                       rtol=1e-12)


def test_phase_constant_hand_value(boresight):
    # theta = 0, tau_rts = 0: 2*pi * frac((fc + B/2) * 2*Rc/c0)
    assert closed_form_phase(boresight) == pytest.approx(0.15298021326, abs=1e-6)


def test_phase_constant_linear_in_range():
    s1 = build_scenario(rc_m=1.0)
    s2 = build_scenario(rc_m=2.0)
    extra = (77e9 + 0.5e9) * 2.0 / C0
    want = (closed_form_phase(s1) + 2 * math.pi * extra) % (2 * math.pi)
    assert abs(wrap_phase(closed_form_phase(s2) - want)) < 1e-6


def test_phase_constant_array_terms_vanish_for_single_elements():
    angled = build_scenario(ntx=1, nrx=1, theta_rx_deg=30.0, theta_tx_deg=-20.0)
    boresight11 = build_scenario(ntx=1, nrx=1)
    assert closed_form_phase(angled) == pytest.approx(
        closed_form_phase(boresight11), abs=1e-12)


def test_predicted_peak_coincident_antennas_exact():
    s = build_scenario(theta_rx_deg=1.0, theta_tx_deg=1.0)
    for mode in ("sinc", "dirichlet"):
        assert abs(predicted_peak(s, mode) - math.radians(1.0)) < 1e-7


def test_predicted_peak_reference_scenario_both_modes(baseline):
    # Frozen fine-grid oracles.  The exact kernel product peaks at 0.4765
    # deg; the sinc approximation understates the TX kernel curvature
    # (factor (N^2-1)/N^2 per kernel) and lands at 0.4004 deg, close to the
    # quadratic-weight centroid asin(0.2*sin(2 deg)) = 0.3999 deg.
    assert DEG(predicted_peak(baseline, "dirichlet")) == pytest.approx(0.476487,
                                                                       abs=2e-4)
    assert DEG(predicted_peak(baseline, "sinc")) == pytest.approx(0.400415,
                                                                  abs=2e-4)


def test_sinc_mode_peak_bias_is_stable(baseline):
    # Documented approximation error of the compact sinc form for the
    # 2-element 2-lambda TX array: ~0.076 deg at a 2 deg offset.
    bias = DEG(predicted_peak(baseline, "dirichlet")) - DEG(
        predicted_peak(baseline, "sinc"))
    assert bias == pytest.approx(0.076072, abs=3e-3)


def test_predicted_peak_single_tx_equals_transmitter():
    s = build_scenario(ntx=1, theta_rx_deg=15.0, theta_tx_deg=5.0)
    assert DEG(predicted_peak(s, "dirichlet")) == pytest.approx(5.0, abs=1e-3)


def test_sinc_converges_to_dirichlet_near_center():
    s = build_scenario(theta_rx_deg=2.0, theta_tx_deg=2.0)
    u0 = math.sin(s.rts.theta_rx_rad)
    u = u0 + np.linspace(-0.02, 0.02, 2001)
    angles = np.arcsin(u)
    ds = spectrum_magnitude(s, angles, "dirichlet")
    sc = spectrum_magnitude(s, angles, "sinc")
    assert np.max(np.abs(sc - ds) / ds) < 0.01


def test_modes_argmax_within_spec_band(baseline):
    d = DEG(predicted_peak(baseline, "dirichlet"))
    s = DEG(predicted_peak(baseline, "sinc"))
    assert abs(d - s) < 0.09


def test_phase_constant_matches_fullchain_peak_phase():
    # On-bin, even detected bin, boresight: the chain's beamformed peak
    # phase reproduces the analytic constant within 1e-2 rad (residual
    # video term ~2e-3 rad at bin 8 remains).
    s = build_scenario(rc_m=0.3)
    s = build_scenario(rc_m=0.3, tau_rts_s=on_bin_tau_rts(s, 8))
    a = beamform(range_spectrum(s), s)
    got = np.angle(a.values[a.peak_index])
    assert abs(wrap_phase(got - closed_form_phase(s))) < 1e-2


def test_peak_separation_near_vs_grating():
    near = build_scenario(theta_tx_deg=2.0)
    assert peak_separation_db(near) == pytest.approx(10.608, abs=0.1)
    assert peak_separation_db(near) >= AMBIGUITY_GAP_DB
    wide = build_scenario(theta_tx_deg=40.0)
    assert peak_separation_db(wide) == pytest.approx(4.918, abs=0.1)
    assert peak_separation_db(wide) < AMBIGUITY_GAP_DB


def test_peak_separation_flat_spectrum():
    assert peak_separation_db(build_scenario(ntx=1, nrx=1)) == math.inf


def test_spectrum_dataclass_and_csv(tmp_path, baseline):
    cf = closed_form_spectrum(baseline, "dirichlet")
    assert cf.mode == "dirichlet"
    assert cf.angles_rad.size == baseline.grid.n_points
    assert cf.phase_rad == closed_form_phase(baseline)
    path = tmp_path / "cf.csv"
    write_closed_form_csv(cf, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_deg", "re", "im", "mag_db", "mode"]
    assert len(rows) == 1 + baseline.grid.n_points
    assert rows[1][4] == "dirichlet"
    re, im = float(rows[1][1]), float(rows[1][2])
    assert math.atan2(im, re) == pytest.approx(wrap_phase(cf.phase_rad), abs=1e-6)


def dense_peak(s, mode):
    """Test-local oracle: argmax and vertex over every point of the fine
    grid, the search predicted_peak must reproduce bit for bit."""
    angles = replace(s.grid, step_rad=math.radians(FINE_STEP_DEG)).angles_rad()
    return _peak(angles, spectrum_magnitude(s, angles, mode))[1]


@st.composite
def peak_search_cases(draw):
    """Arrays, antenna angles and grids (full, narrow, off-center)."""
    step = draw(st.sampled_from([0.001, 0.00125, 0.002, 0.005, 0.01]))
    lo = -step * draw(st.integers(1, int(90 / step)))
    hi = step * draw(st.integers(1, int(90 / step)))
    s = build_scenario(
        ntx=draw(st.integers(1, 4)), nrx=draw(st.integers(1, 16)),
        dtx_lambda=draw(st.floats(0.5, 8.0)), drx_lambda=draw(st.floats(0.5, 8.0)),
        theta_rx_deg=draw(st.floats(-80.0, 80.0)),
        theta_tx_deg=draw(st.floats(-80.0, 80.0)))
    grid = draw(st.sampled_from([s.grid, AngleGrid.from_degrees(lo, hi, step)]))
    return replace(s, grid=grid), draw(st.sampled_from(closed_form.MODES))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(peak_search_cases())
def test_predicted_peak_equals_dense_search_property(case):
    s, mode = case
    assert predicted_peak(s, mode) == dense_peak(s, mode)


@pytest.mark.parametrize("mode", closed_form.MODES)
@pytest.mark.parametrize("kwargs", [
    dict(ntx=1, nrx=1, theta_rx_deg=25.0, theta_tx_deg=-10.0),  # flat
    dict(ntx=1, nrx=4, theta_tx_deg=20.0, grid_span_deg=1.0,    # edge peak
         grid_step_deg=0.005),
    dict(theta_tx_deg=0.5, grid_span_deg=1.00125, grid_step_deg=0.00125),
    dict(ntx=4, nrx=16, dtx_lambda=8.0, drx_lambda=0.5,         # compare board
         theta_rx_deg=40.0, theta_tx_deg=41.5),
    # Zero aperture, so any spacing validates; the sinc kernels are still
    # narrow (type pi*(dtx + drx)/lambda), the dirichlet ones flat.
    dict(ntx=1, nrx=1, dtx_lambda=500.0, drx_lambda=350.0, theta_rx_deg=0.0,
         theta_tx_deg=0.3),
], ids=["1x1-flat", "edge-peak", "grid-not-stride-multiple", "4x16-board",
        "1x1-wide-spacing"])
def test_predicted_peak_equals_dense_search(mode, kwargs):
    s = build_scenario(**kwargs)
    assert predicted_peak(s, mode) == dense_peak(s, mode)


def test_predicted_peak_edge_falls_back_to_grid_angle():
    # Single TX: the spectrum is the RX kernel centred at 20 deg, rising
    # across the whole +-1 deg grid.
    s = build_scenario(ntx=1, nrx=4, theta_tx_deg=20.0, grid_span_deg=1.0,
                       grid_step_deg=0.005)
    for mode in closed_form.MODES:
        assert predicted_peak(s, mode) == s.grid.max_rad


@pytest.mark.parametrize("mode", closed_form.MODES)
def test_predicted_peak_evaluates_few_points(baseline, monkeypatch, mode):
    evaluated = dict.fromkeys(closed_form.MODES, 0)

    def counting(s, angles_rad, m):
        evaluated[m] += np.asarray(angles_rad).size
        return spectrum_magnitude(s, angles_rad, m)

    monkeypatch.setattr(closed_form, "spectrum_magnitude", counting)
    for m in closed_form.MODES:
        predicted_peak(baseline, m)
    dense = replace(baseline.grid, step_rad=math.radians(FINE_STEP_DEG)).n_points
    assert dense == 180_001
    assert evaluated[mode] < 0.05 * dense
    # The dirichlet type pi*aperture_m/lambda is below the sinc type, so
    # fewer coarse points clear its margin.
    assert evaluated["dirichlet"] < evaluated["sinc"]


@pytest.mark.parametrize("mode", closed_form.MODES)
def test_predicted_peak_allocates_no_dense_grid(baseline, mode):
    # A dense 180,001-point angle or magnitude array alone is 1.44 MB.
    predicted_peak(baseline, mode)
    tracemalloc.start()
    try:
        predicted_peak(baseline, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_bad_mode_rejected(baseline):
    with pytest.raises(ValueError, match="mode"):
        predicted_peak(baseline, "hann")
