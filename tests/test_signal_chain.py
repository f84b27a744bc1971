import csv
import math
import tracemalloc

import numpy as np
import pytest

from qmrts import (BeatCube, bin_phase_frequency_scale, range_dft,
                   range_spectrum, synthesize_beat)
from qmrts import _csvio
from qmrts._csvio import write_csv
from qmrts.propagation import element_delays
from qmrts.signal_chain import write_range_csv
from conftest import build_scenario, expected_bin_phase, on_bin_tau_rts, wrap_phase


def test_cube_shape_and_rate(baseline):
    b = synthesize_beat(baseline)
    assert b.samples.shape == (2, 4, 1024)
    # The rate is the Scenario's: Ns samples over one chirp period.
    assert b.samples.shape[-1] / baseline.chirp.t_s == baseline.sample_rate_hz


def test_sample_magnitude_equals_amplitude():
    b = synthesize_beat(build_scenario(amplitude=2.0, theta_tx_deg=1.0))
    assert np.allclose(np.abs(b.samples), 2.0, rtol=1e-15, atol=0.0)


def test_boresight_elements_identical(boresight):
    b = synthesize_beat(boresight)
    for i in range(2):
        for j in range(4):
            assert np.array_equal(b.samples[i, j], b.samples[0, 0])


def test_offset_elements_differ(baseline):
    b = synthesize_beat(baseline)
    assert not np.array_equal(b.samples[0, 1], b.samples[0, 0])


def test_nyquist_violation_raises():
    s = build_scenario()
    # bypass scenario validation by constructing the over-delayed variant
    # directly: beat of tau_rts = 1 us is 10 MHz against fs/2 = 5.12 MHz
    from dataclasses import replace
    bad = replace(s, rts=replace(s.rts, tau_rts_s=1e-6))
    with pytest.raises(ValueError, match="Nyquist"):
        synthesize_beat(bad)


def test_detected_bin_off_grid(boresight):
    # B*tau = 1e9 * 2/c0 = 6.671 -> nearest bin 7
    r = range_dft(synthesize_beat(boresight))
    assert r.peak_bin == 7


def test_detected_bin_on_grid_exact():
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    r = range_dft(synthesize_beat(s))
    assert r.peak_bin == 64


def test_on_bin_phase_matches_analytic_prediction():
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    r = range_dft(synthesize_beat(s))
    for i in range(2):
        for j in range(4):
            got = np.angle(r.peak_values[i, j])
            want = expected_bin_phase(s, i, j, f_r=r.peak_bin)
            assert abs(wrap_phase(got - want)) < 1e-6


def test_index_out_of_range(boresight):
    with pytest.raises(IndexError):
        expected_bin_phase(boresight, 2, 0, f_r=0)
    with pytest.raises(IndexError):
        expected_bin_phase(boresight, 0, 4, f_r=0)
    with pytest.raises(IndexError):
        expected_bin_phase(boresight, -1, 0, f_r=0)
    with pytest.raises(IndexError):
        expected_bin_phase(boresight, 0, -1, f_r=0)


def test_residual_video_term_size():
    # The idealized (no residual-video) prediction differs by
    # 2*pi*(B/(2T))*tau^2 = 0.1287 rad at bin 64.
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    with_rvp = expected_bin_phase(s, 0, 0, f_r=64)
    without = expected_bin_phase(s, 0, 0, f_r=64, include_rvp=False)
    assert abs(wrap_phase(without - with_rvp)) == pytest.approx(0.1286796, abs=1e-5)


def test_phase_without_if_term_when_frts_zero():
    s = build_scenario(f_rts_hz=0.0)
    s = build_scenario(f_rts_hz=0.0, tau_rts_s=on_bin_tau_rts(s, 16))
    r = range_dft(synthesize_beat(s))
    got = np.angle(r.peak_values[0, 0])
    want = expected_bin_phase(s, 0, 0, f_r=16)  # f_rts term contributes 0
    assert abs(wrap_phase(got - want)) < 1e-6


def test_equal_delay_elements_share_phase(boresight):
    r = range_dft(synthesize_beat(boresight))
    ref = np.angle(r.peak_values[0, 0])
    for i in range(2):
        for j in range(4):
            assert np.angle(r.peak_values[i, j]) == ref


def test_constant_cube_detects_dc():
    ones = np.ones((2, 4, 256), dtype=complex)
    b = BeatCube(samples=ones)
    assert range_dft(b).peak_bin == 0


def test_detected_bin_is_local_peak(baseline):
    r = range_dft(synthesize_beat(baseline))
    k = r.peak_bin
    mag = np.abs(r.spectrum)
    for i in range(2):
        for j in range(4):
            assert mag[i, j, k] >= mag[i, j, k - 2]
            assert mag[i, j, k] >= mag[i, j, k + 2]


def test_parseval(baseline):
    b = synthesize_beat(baseline)
    for zp in (1, 2):
        r = range_dft(b, zero_pad=zp)
        n = r.spectrum.shape[-1]
        for i in range(2):
            for j in range(4):
                lhs = np.sum(np.abs(b.samples[i, j]) ** 2)
                rhs = np.sum(np.abs(r.spectrum[i, j]) ** 2) / n
                assert abs(lhs - rhs) / lhs < 1e-10


def test_shift_theorem_exact_bin_step():
    s = build_scenario()
    tau0 = on_bin_tau_rts(s, 8)
    k0 = range_dft(synthesize_beat(build_scenario(tau_rts_s=tau0))).peak_bin
    k1 = range_dft(synthesize_beat(
        build_scenario(tau_rts_s=tau0 + 1.0 / s.chirp.b_hz))).peak_bin
    assert k0 == 8
    assert k1 == 9


def test_inter_element_phase_gradient():
    # Relative detected-bin phase equals +2*pi*(dtx*i*sin(th_rx) +
    # drx*j*sin(th_tx))/lambda within 1e-2 rad for on-bin scenarios (the
    # residue is the sweep-bandwidth phase slope across the array).
    s = build_scenario(theta_rx_deg=3.0, theta_tx_deg=5.0)
    s = build_scenario(theta_rx_deg=3.0, theta_tx_deg=5.0,
                       tau_rts_s=on_bin_tau_rts(s, 8))
    r = range_dft(synthesize_beat(s))
    lam = s.wavelength_m
    ref = np.angle(r.peak_values[0, 0])
    for i in range(2):
        for j in range(4):
            got = np.angle(r.peak_values[i, j]) - ref
            want = 2 * np.pi * (s.array.dtx_m * i * math.sin(s.rts.theta_rx_rad)
                                + s.array.drx_m * j * math.sin(s.rts.theta_tx_rad)) / lam
            assert abs(wrap_phase(got - want)) < 1e-2


def test_zero_pad_scales_bin():
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 8))
    assert range_dft(synthesize_beat(s), zero_pad=2).peak_bin == 16
    assert range_spectrum(s, zero_pad=2).peak_bin == 16
    with pytest.raises(ValueError, match="power of two"):
        range_dft(synthesize_beat(s), zero_pad=3)
    with pytest.raises(ValueError, match=r"power of two \(got 3\)"):
        range_spectrum(s, zero_pad=3)


def test_bin_phase_frequency_scale(boresight):
    c = boresight.chirp
    want = 1.0 + c.b_hz * (c.ns - 1) / (2 * c.fc_hz * c.ns)
    assert bin_phase_frequency_scale(boresight) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(1.0064872, abs=1e-6)


def test_csv_dumps(tmp_path, boresight):
    r = range_dft(synthesize_beat(boresight))
    path = tmp_path / "range.csv"
    write_range_csv(r, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ntx", "nrx", "n_or_k", "re", "im"]
    assert len(rows) == 1 + 2 * 4 * 1024
    assert rows[1][:3] == ["0", "0", "0"]
    assert rows[-1][:3] == ["1", "3", "1023"]
    val = complex(float(rows[1][3]), float(rows[1][4]))
    assert val == pytest.approx(r.spectrum[0, 0, 0], rel=1e-8)


def bits(a):
    """Raw IEEE bits of a float or complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def reference_beat(s):
    """synthesize_beat's cube as one expression with full-size temporaries."""
    c, r = s.chirp, s.rts
    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx + tau_rx
    tau = tau_c + r.tau_rts_s
    slope = c.b_hz / c.t_s
    fbeat = slope * tau
    t = np.arange(c.ns) * (c.t_s / c.ns)
    const = c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s - (slope / 2.0) * tau**2
    return r.amplitude * np.exp(1j * (2.0 * np.pi * (const[:, :, None]
                                                     + fbeat[:, :, None] * t[None, None, :])))


ORACLE_CASES = [
    # (ntx, nrx, ns, zero_pad, extra build_scenario arguments)
    (1, 1, 16, 1, {}),
    (1, 1, 16, 4, {"theta_rx_deg": -30.0, "theta_tx_deg": 10.0}),
    (2, 4, 1024, 1, {"theta_tx_deg": 2.0}),
    (2, 4, 1024, 2, {"theta_rx_deg": 12.0, "theta_tx_deg": 9.5, "amplitude": 0.7}),
    (1, 16, 2048, 4, {"theta_rx_deg": 45.0, "theta_tx_deg": 47.0, "f_rts_hz": 0.0}),
    (3, 12, 4096, 2, {"theta_rx_deg": -8.0, "tau_rts_s": 40e-9, "amplitude": 3.0}),
    (4, 16, 16384, 1, {"theta_rx_deg": 10.0, "theta_tx_deg": 11.0,
                       "tau_rts_s": 75e-9, "rc_m": 6.5}),
]


@pytest.mark.parametrize("ntx, nrx, ns, zero_pad, extra", ORACLE_CASES,
                         ids=[f"{a}x{b}-ns{n}-zp{z}" for a, b, n, z, _ in ORACLE_CASES])
def test_chain_equals_full_size_expressions_bit_for_bit(ntx, nrx, ns, zero_pad, extra):
    s = build_scenario(ntx=ntx, nrx=nrx, ns=ns, **extra)
    b = synthesize_beat(s)
    assert np.array_equal(bits(b.samples), bits(reference_beat(s)))

    spec = np.fft.fft(reference_beat(s), n=ns * zero_pad, axis=-1)
    peak_bin = int(np.argmax(np.sum(np.abs(spec) ** 2, axis=(0, 1))))
    for r in (range_dft(b, zero_pad=zero_pad), range_spectrum(s, zero_pad)):
        assert np.array_equal(bits(r.spectrum), bits(spec))
        assert r.peak_bin == peak_bin


def test_range_dft_leaves_input_unchanged():
    b = synthesize_beat(build_scenario(ntx=2, nrx=4, ns=1024, theta_tx_deg=3.0))
    before = b.samples.copy()
    for zero_pad in (1, 2, 4):
        r = range_dft(b, zero_pad=zero_pad)
        assert np.array_equal(bits(b.samples), bits(before))
        assert not np.shares_memory(r.spectrum, b.samples)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, per tracemalloc.

    One untraced call first, so a lazy import (numpy.fft's, on a first
    transform) is not counted as the call's own memory.
    """
    fn(*args)
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_synthesis_peak_memory_is_one_cube():
    # The cube plus one element row of phase and samples; a real phase
    # cube would add half a cube, and full-size temporaries 1.5 cubes.
    s = build_scenario(ntx=4, nrx=16, ns=4096, theta_tx_deg=1.0)
    b, peak = traced_peak(synthesize_beat, s)
    assert peak <= 1.1 * b.samples.nbytes


def test_range_spectrum_holds_no_beat_cube():
    # The spectrum plus one element row; a beat cube would add a whole
    # spectrum's worth at zero_pad 1.
    s = build_scenario(ntx=4, nrx=16, ns=4096, theta_tx_deg=1.0)
    r, peak = traced_peak(range_spectrum, s)
    assert peak <= 1.1 * r.spectrum.nbytes


def test_range_dft_allocates_only_its_spectrum():
    # The spectrum plus one row of power; |spec|**2 summed over the whole
    # spectrum allocates another half spectrum.
    b = synthesize_beat(build_scenario(ntx=4, nrx=16, ns=4096, theta_tx_deg=1.0))
    r, peak = traced_peak(range_dft, b)
    assert peak <= 1.1 * r.spectrum.nbytes


def test_range_csv_equals_whole_column_write(tmp_path):
    # The index columns of np.indices over the whole spectrum, written by
    # the one CSV writer, give the same bytes.
    s = build_scenario(ntx=2, nrx=3, ns=2048, theta_tx_deg=4.0)
    r = range_spectrum(s, 2)
    write_range_csv(r, tmp_path / "blocks.csv")
    ntx, nrx, k = np.indices(r.spectrum.shape).reshape(3, -1)
    flat = r.spectrum.reshape(-1)
    write_csv(tmp_path / "whole.csv", {"ntx": ntx, "nrx": nrx, "n_or_k": k,
                                       "re": flat.real, "im": flat.imag})
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_range_csv_allocates_far_less_than_index_columns(tmp_path, monkeypatch):
    # Three int64 index columns of the whole spectrum take 3*8 bytes per
    # row; the writer holds one block of rows, whatever the spectrum size.
    # Short blocks keep the traced formatting quick.
    monkeypatch.setattr(_csvio, "_BLOCK_ROWS", 256)
    r = range_spectrum(build_scenario(ntx=2, nrx=4, ns=4096, theta_tx_deg=1.0))
    _, peak = traced_peak(write_range_csv, r, tmp_path / "range.csv")
    assert peak <= 0.25 * 3 * 8 * r.spectrum.size
