import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmrts import (AngleGrid, AntennaSubset, ConfigError, beamform,
                   predicted_peak, range_dft, synthesize_beat)
from qmrts.beamformer import (COARSE_STRIDE, _coarse_to_fine, _peak,
                              unit_phasor_spectrum, write_angle_csv)
from conftest import build_scenario, on_bin_tau_rts

DEG = math.degrees


def fullchain_spectrum(s):
    return beamform(range_dft(synthesize_beat(s)), s)


def test_boresight_coherent_gain():
    # On-bin so the range DFT is lossless: |x_A(0)| = A*Ns*Ntx*Nrx.
    s = build_scenario(amplitude=2.0)
    s = build_scenario(amplitude=2.0, tau_rts_s=on_bin_tau_rts(s, 8))
    a = fullchain_spectrum(s)
    peak = a.values[a.peak_index]
    assert abs(peak) == pytest.approx(2.0 * 1024 * 2 * 4, rel=1e-12)
    assert abs(a.peak_angle_rad) < 1e-6
    center = a.angles_rad.size // 2
    assert a.peak_index == center
    assert np.all(np.abs(a.values) <= abs(peak) * (1 + 1e-12))


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
    assert _peak(angles, np.array([0.5, 1.0, 0.5])) == (1, 0.0)


def test_peak_on_grid_edge_falls_back_to_grid_angle():
    angles = np.radians(np.linspace(-1, 1, 5))
    mag = np.exp(-np.linspace(0, 4, 5))  # max at edge
    assert _peak(angles, mag) == (0, angles[0])


def test_tie_break_smallest_angle():
    s = build_scenario(ntx=1, nrx=1, grid_step_deg=1.0)
    a = beamform(unit_phasor_spectrum(s), s)  # flat spectrum: all bins tie
    assert a.peak_index == 0
    assert a.peak_angle_rad == s.grid.angles_rad()[0]


def cut(label, r, s):
    return AntennaSubset.from_label(label, s.array.ntx, s.array.nrx).apply(r, s)


def test_subset_apply_identity_and_shapes(baseline):
    r = range_dft(synthesize_beat(baseline))
    same, s24 = cut("2x4", r, baseline)
    assert np.array_equal(same.peak_values, r.peak_values)
    assert s24 == baseline
    sub14, s14 = cut("1x4", r, baseline)
    assert sub14.peak_values.shape == (1, 4)
    assert (s14.array.ntx, s14.array.nrx) == (1, 4)
    sub22, s22 = cut("2x2", r, baseline)
    assert sub22.peak_values.shape == (2, 2)
    assert sub22.peak_bin == r.peak_bin
    # kept elements retain their physical positions
    assert np.array_equal(s22.array.tx_positions_m(),
                          baseline.array.tx_positions_m()[:2])
    assert np.array_equal(s22.array.rx_positions_m(),
                          baseline.array.rx_positions_m()[:2])


def test_subset_apply_errors(baseline):
    r = range_dft(synthesize_beat(baseline))
    with pytest.raises(ConfigError):
        cut("0x4", r, baseline)
    with pytest.raises(ConfigError, match="exceeds"):
        cut("3x4", r, baseline)
    # A subset built past the array cannot slip through to beamforming.
    rsub, ssub = AntennaSubset(ntx=3, nrx=4).apply(r, baseline)
    with pytest.raises(ValueError, match="2x4 elements"):
        beamform(rsub, ssub)


def test_beamform_rejects_mismatched_shape(baseline):
    r = range_dft(synthesize_beat(baseline))
    rsub, _ = cut("1x4", r, baseline)
    with pytest.raises(ValueError, match="1x4 elements .* array is 2x4"):
        beamform(rsub, baseline)


def reference_steering_sum(r, s):
    """Test-local loop: the steering double sum as beamform computed it
    before rows were shared, one exponential per element and spectrum."""
    a = s.array
    tx, rx = a.tx_positions_m(), a.rx_positions_m()
    sin_a = np.sin(s.grid.angles_rad())
    out = np.zeros(sin_a.size, dtype=complex)
    for i in range(a.ntx):
        for j in range(a.nrx):
            pos = tx[i] + rx[j]
            out += r.peak_values[i, j] * np.exp(-2j * np.pi * pos * sin_a / s.wavelength_m)
    return out


def dense_peak(r, s):
    """Test-local oracle: argmax and vertex over every grid point of the
    reference steering sum, the pair beamform's search must reproduce."""
    return _peak(s.grid.angles_rad(), np.abs(reference_steering_sum(r, s)))


COMPARE_BOARD = dict(ntx=4, nrx=16, dtx_lambda=8.0, drx_lambda=0.5,
                     theta_rx_deg=10.0, theta_tx_deg=11.0, grid_step_deg=0.002)


@pytest.mark.parametrize("kwargs", [
    dict(theta_tx_deg=2.0),                                     # reference 2x4
    dict(ntx=1, nrx=1, theta_rx_deg=25.0, theta_tx_deg=-10.0),
    COMPARE_BOARD,
    dict(ntx=2, nrx=4, dtx_lambda=3.7, drx_lambda=2.0,          # grating lobes
         theta_rx_deg=-30.0, theta_tx_deg=10.0),
    dict(ntx=1, nrx=1, grid_span_deg=0.25, grid_step_deg=0.5),  # one interval
    dict(theta_tx_deg=0.3, grid_span_deg=0.4, grid_step_deg=0.001),
], ids=["2x4", "1x1", "4x16-0.002deg", "grating-lobes", "1x1-one-interval",
        "narrow-0.001deg"])
def test_beamform_peaks_equals_beamform(kwargs):
    # The coarse-to-fine peak of beamform is the dense search's over the
    # values it steers on first read.
    s = build_scenario(**kwargs)
    for r in (range_dft(synthesize_beat(s)), unit_phasor_spectrum(s)):
        got = beamform(r, s)
        assert (got.peak_index, got.peak_angle_rad) == dense_peak(r, s)
        assert got.values.tobytes() == reference_steering_sum(r, s).tobytes()
        assert got.angles_rad.tobytes() == s.grid.angles_rad().tobytes()


@st.composite
def steering_cases(draw):
    """Boards with grating lobes, 1x1 boards, wide antenna offsets and
    grids from 0.001 to 0.5 deg, narrow (under 1 deg) or wide."""
    step = draw(st.sampled_from([0.001, 0.002, 0.005, 0.01, 0.05, 0.5]))
    top = round(90 / step)
    # Hypothesis draws small integers most often: map them to wide grids
    # and big boards.
    if draw(st.integers(0, 3)) == 3:
        intervals = draw(st.integers(1, max(1, int(0.999 / step))))
    else:  # log-uniform up to 20,000 intervals
        intervals = round(min(2 * top, 20_000) ** (1 - draw(st.integers(0, 100)) / 100))
    lo = draw(st.integers(-top, top - intervals))
    theta_rx = draw(st.floats(-60.0, 60.0))
    s = build_scenario(
        ntx=draw(st.sampled_from([4, 1, 3, 2])), nrx=draw(st.integers(1, 8)),
        dtx_lambda=draw(st.floats(0.25, 4.0)), drx_lambda=draw(st.floats(0.25, 4.0)),
        theta_rx_deg=theta_rx,
        theta_tx_deg=draw(st.floats(max(-80.0, theta_rx - 40.0),
                                    min(80.0, theta_rx + 40.0))))
    return replace(s, grid=AngleGrid.from_degrees(step * lo, step * (lo + intervals), step))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(steering_cases())
def test_beamform_peaks_equals_dense_search_property(s):
    for r in (range_dft(synthesize_beat(s)), unit_phasor_spectrum(s)):
        got = beamform(r, s)
        assert (got.peak_index, got.peak_angle_rad) == dense_peak(r, s)


def dense_search(grid, magnitude):
    angles = grid.angles_rad()
    return _peak(angles, magnitude(angles))


# Coarse samples of this grid fall on whole degrees.
WHOLE_DEGREES = AngleGrid.from_degrees(-10.0, 10.0, 1.0 / COARSE_STRIDE)


def test_coarse_to_fine_finds_a_lobe_between_coarse_samples():
    # |cos(B*(u - u0))*cos(u - u0)| is of type B + 1 and bounded by 1.  Its
    # highest lobe sits at 0.5 deg, midway between coarse samples, which
    # see a quarter of its power; its two next lobes fall on the coarse
    # samples at -1 and 2 deg.  Only the full margin keeps 0.5 deg.
    u0 = math.sin(math.radians(0.5))
    band = math.pi / (math.sin(math.radians(2.0)) - u0)

    def lobes(angles):
        x = np.sin(angles) - u0
        return np.abs(np.cos(band * x) * np.cos(x))

    got = _coarse_to_fine(WHOLE_DEGREES, lobes, 1.0, band + 1.0)
    assert got == dense_search(WHOLE_DEGREES, lobes)
    assert abs(DEG(got[1]) - 0.5) < 1e-3


def test_coarse_to_fine_float_slack_absorbs_rounding():
    # sin^2 + cos^2 is the constant 1 (type 0), so only the float slack
    # admits coarse samples that rounding left an ulp below the maximum.
    def one(angles):
        return np.sin(angles) ** 2 + np.cos(angles) ** 2

    assert _coarse_to_fine(WHOLE_DEGREES, one, 1.0, 0.0) == dense_search(WHOLE_DEGREES, one)


def test_coarse_to_fine_fine_pass_holds_stride_either_side_of_candidates():
    # Spikes on three coarse samples make exactly those the candidates.
    c, last = COARSE_STRIDE, WHOLE_DEGREES.n_points - 1
    spikes = WHOLE_DEGREES.angles_at(np.array([3 * c, 4 * c, last]))
    evaluated = []

    def spiky(angles):
        evaluated.append(angles)
        return np.isin(angles, spikes).astype(float)

    _coarse_to_fine(WHOLE_DEGREES, spiky, 1.0, 0.0)
    # Windows merged in index order, each index once, clipped to the grid.
    want = np.r_[2 * c:5 * c + 1, last - c:last + 1]
    assert evaluated[1].tobytes() == WHOLE_DEGREES.angles_at(want).tobytes()


def test_beamform_peaks_allocates_no_dense_grid():
    # On this 90,001-point grid a dense angle array alone is 0.72 MB and
    # one dense complex spectrum 1.44 MB.
    s = build_scenario(**COMPARE_BOARD)
    r = range_dft(synthesize_beat(s))
    beamform(r, s).peak_angle_rad
    tracemalloc.start()
    try:
        beamform(r, s).peak_angle_rad
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_beamform_peaks_rejects_mismatched_shape(baseline):
    # The peak search steers at call time, so a mismatched spectrum fails
    # in beamform itself, after a matching one, with the exact message.
    r = range_dft(synthesize_beat(baseline))
    rsub, _ = cut("1x4", r, baseline)
    beamform(r, baseline)
    with pytest.raises(ValueError) as info:
        beamform(rsub, baseline)
    assert str(info.value) == "range spectrum has 1x4 elements but the scenario array is 2x4"


def test_subset_fullchain_tracks_transmitter(baseline):
    r = range_dft(synthesize_beat(baseline))
    a = beamform(*cut("1x4", r, baseline))
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
