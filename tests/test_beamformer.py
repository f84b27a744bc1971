import csv
import math

import numpy as np
import pytest

from qmrts import (AngleGrid, AngleSpectrum, PeakAtBoundaryError, beamform,
                   predicted_peak, range_dft, refine_peak, select_subset,
                   synthesize_beat, unit_phasor_spectrum, write_angle_csv)
from qmrts.beamformer import _peak
from conftest import build_scenario, on_bin_tau_rts

DEG = math.degrees


def fullchain_spectrum(s):
    return beamform(range_dft(synthesize_beat(s)), s)


def test_boresight_coherent_gain():
    # On-bin so the range DFT is lossless: |x_A(0)| = A*Ns*Ntx*Nrx.
    s = build_scenario(amplitude=2.0)
    s = build_scenario(amplitude=2.0, tau_rts_s=on_bin_tau_rts(s, 8))
    a = fullchain_spectrum(s)
    assert abs(a.peak_value) == pytest.approx(2.0 * 1024 * 2 * 4, rel=1e-12)
    assert abs(a.peak_angle_rad) < 1e-6
    center = a.angles_rad.size // 2
    assert a.peak_index == center
    assert np.all(np.abs(a.values) <= abs(a.peak_value) * (1 + 1e-12))


def test_fullchain_peak_reference_offset(baseline):
    # Frozen oracle: fine-grid (0.001 deg) argmax of this very spectrum is
    # 0.4796 deg (the exact steering-sum peak 0.4765 deg scaled by the
    # mid-sweep frequency factor ~1.00649).
    a = fullchain_spectrum(baseline)
    assert DEG(a.peak_angle_rad) == pytest.approx(0.479583, abs=5e-4)


def test_refined_peak_tracks_fine_grid_argmax(baseline):
    r = range_dft(synthesize_beat(baseline))
    coarse = beamform(r, baseline)
    from dataclasses import replace
    fine_scenario = replace(baseline,
                            grid=AngleGrid.from_degrees(-2.0, 3.0, 0.001))
    fine = beamform(r, fine_scenario)
    argmax_deg = DEG(fine.angles_rad[fine.peak_index])
    assert abs(DEG(coarse.peak_angle_rad) - argmax_deg) < 0.005


def test_unit_phasor_level_matches_closed_form(baseline):
    # The steering double sum with ideal element phasors peaks where the
    # exact kernel-product argmax does.
    a = beamform(unit_phasor_spectrum(baseline), baseline)
    assert DEG(a.peak_angle_rad) == pytest.approx(0.476487, abs=5e-4)
    assert abs(DEG(a.peak_angle_rad)
               - DEG(predicted_peak(baseline, "dirichlet"))) < 1e-3


def test_degenerate_single_tx_tracks_transmitter():
    s = build_scenario(ntx=1, theta_rx_deg=37.0, theta_tx_deg=5.0)
    a = beamform(unit_phasor_spectrum(s), s)
    assert DEG(a.peak_angle_rad) == pytest.approx(5.0, abs=0.01)


def test_degenerate_single_rx_tracks_receiver():
    s = build_scenario(nrx=1, theta_rx_deg=-4.0, theta_tx_deg=20.0)
    a = beamform(unit_phasor_spectrum(s), s)
    assert DEG(a.peak_angle_rad) == pytest.approx(-4.0, abs=0.01)


def test_refine_symmetric_triple_is_exact():
    angles = np.radians(np.array([-0.01, 0.0, 0.01]))
    a = AngleSpectrum(angles_rad=angles,
                      values=np.array([0.5, 1.0, 0.5], dtype=complex),
                      peak_index=1, peak_angle_rad=0.0, peak_value=1.0 + 0j)
    assert refine_peak(a) == 0.0
    assert _peak(angles, np.abs(a.values)) == (1, 0.0)


def test_refine_peak_boundary_raises():
    angles = np.radians(np.linspace(-1, 1, 5))
    values = np.exp(-np.linspace(0, 4, 5)).astype(complex)  # max at edge
    a = AngleSpectrum(angles_rad=angles, values=values, peak_index=0,
                      peak_angle_rad=angles[0], peak_value=values[0])
    with pytest.raises(PeakAtBoundaryError):
        refine_peak(a)
    tiny = AngleSpectrum(angles_rad=angles[:2], values=values[:2],
                         peak_index=0, peak_angle_rad=angles[0],
                         peak_value=values[0])
    with pytest.raises(PeakAtBoundaryError):
        refine_peak(tiny)


def test_tie_break_smallest_angle():
    s = build_scenario(ntx=1, nrx=1, grid_step_deg=1.0)
    a = beamform(unit_phasor_spectrum(s), s)  # flat spectrum: all bins tie
    assert a.peak_index == 0
    assert a.peak_angle_rad == s.grid.angles_rad()[0]


def test_select_subset_identity_and_shapes(baseline):
    r = range_dft(synthesize_beat(baseline))
    same = select_subset(r, range(2), range(4))
    assert np.array_equal(same.peak_values, r.peak_values)
    sub14 = select_subset(r, [0], [0, 1, 2, 3])
    assert sub14.peak_values.shape == (1, 4)
    sub22 = select_subset(r, [0, 1], [0, 1])
    assert sub22.peak_values.shape == (2, 2)
    assert np.array_equal(sub22.tx_positions_m, r.tx_positions_m[:2])
    # kept elements retain their physical positions
    sub_offset = select_subset(r, [1], [2, 3])
    assert sub_offset.tx_positions_m[0] == r.tx_positions_m[1]


def test_select_subset_errors(baseline):
    r = range_dft(synthesize_beat(baseline))
    with pytest.raises(ValueError, match="at least one"):
        select_subset(r, [], [0])
    with pytest.raises(ValueError, match="duplicate"):
        select_subset(r, [0, 0], [0])
    with pytest.raises(IndexError):
        select_subset(r, [2], [0])


def test_subset_fullchain_tracks_transmitter(baseline):
    r = range_dft(synthesize_beat(baseline))
    a = beamform(select_subset(r, [0], [0, 1, 2, 3]), baseline)
    # detected angle = asin(scale * sin(2 deg)), scale ~ 1.00649
    assert DEG(a.peak_angle_rad) == pytest.approx(2.0130, abs=2e-3)


def test_amplitude_scaling_leaves_peak_bit_identical():
    # Power-of-two scale factors commute exactly with binary floating
    # point, so the refined peak must not move by even one bit.
    for scale in (0.25, 2.0, 8.0):
        s1 = build_scenario(theta_tx_deg=1.5, amplitude=1.0)
        s2 = build_scenario(theta_tx_deg=1.5, amplitude=scale)
        a1 = fullchain_spectrum(s1)
        a2 = fullchain_spectrum(s2)
        assert a1.peak_angle_rad == a2.peak_angle_rad
        assert np.allclose(np.abs(a2.values), scale * np.abs(a1.values),
                           rtol=1e-12)


def test_mirror_symmetry():
    s1 = build_scenario(theta_rx_deg=2.0, theta_tx_deg=4.0)
    s2 = build_scenario(theta_rx_deg=-2.0, theta_tx_deg=-4.0)
    a1 = fullchain_spectrum(s1)
    a2 = fullchain_spectrum(s2)
    assert abs(a1.peak_angle_rad + a2.peak_angle_rad) < math.radians(0.01)


def test_swap_aperture_duality():
    s1 = build_scenario(ntx=2, nrx=4, dtx_lambda=2.0, drx_lambda=0.5,
                        theta_rx_deg=3.0, theta_tx_deg=5.0)
    s2 = build_scenario(ntx=4, nrx=2, dtx_lambda=0.5, drx_lambda=2.0,
                        theta_rx_deg=5.0, theta_tx_deg=3.0)
    a1 = fullchain_spectrum(s1)
    a2 = fullchain_spectrum(s2)
    assert abs(a1.peak_angle_rad - a2.peak_angle_rad) < math.radians(0.01)


def test_bracketing_strict_between_antennas():
    # Quasi-monostatic regime: overlapping main lobes; scenarios whose
    # closed-form spectrum has a competing lobe within 6 dB are redrawn.
    from qmrts import peak_separation_db
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        th_rx = float(rng.uniform(-8, 8))
        th_tx = th_rx + float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
        s = build_scenario(ntx=int(rng.integers(2, 5)), nrx=int(rng.integers(2, 5)),
                           dtx_lambda=float(rng.uniform(0.5, 2.0)),
                           drx_lambda=float(rng.uniform(0.25, 1.0)),
                           theta_rx_deg=th_rx, theta_tx_deg=th_tx)
        if peak_separation_db(s) < 6.0:
            continue
        checked += 1
        a = beamform(unit_phasor_spectrum(s), s)
        u = math.sin(a.peak_angle_rad)
        lo, hi = sorted((math.sin(s.rts.theta_rx_rad), math.sin(s.rts.theta_tx_rad)))
        assert lo < u < hi, (th_rx, th_tx, DEG(a.peak_angle_rad))


def test_refined_peak_stays_next_to_grid_maximum(baseline):
    # the grid point nearest the refined angle must be the grid argmax
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = build_scenario(theta_rx_deg=float(rng.uniform(-5, 5)),
                           theta_tx_deg=float(rng.uniform(-5, 5)))
        a = fullchain_spectrum(s)
        nearest = int(np.argmin(np.abs(a.angles_rad - a.peak_angle_rad)))
        assert nearest == a.peak_index
        assert np.abs(a.values[a.peak_index]) >= np.abs(a.values).max() * (1 - 1e-12)


def test_write_angle_csv(tmp_path, baseline):
    a = fullchain_spectrum(baseline)
    path = tmp_path / "angle.csv"
    write_angle_csv(a, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_deg", "re", "im", "mag_db"]
    assert len(rows) == 1 + baseline.grid.n_points
    assert float(rows[1][0]) == -90.0
