import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmrts import (Scenario, ValidationError, bin_phase_frequency_scale, range_peak,
                   range_spectrum)
from qmrts import _csvio, signal_chain
from qmrts._csvio import write_csv
from qmrts.propagation import C0, element_delays
from qmrts.signal_chain import PEAK_MARGIN_BINS, write_range_csv
from conftest import (build_scenario, on_bin_tau_rts, phase_tolerance,
                      reference_beat, tone_tolerance, tone_values, wrap_phase)


def test_cube_shape_and_rate(baseline):
    # The spectrum cube is (Ntx, Nrx, Ns*zero_pad).
    for zp in (1, 2):
        r = range_spectrum(baseline, zp)
        assert r.spectrum.shape == (2, 4, 1024 * zp)
        # The rate is the Scenario's: Ns samples over one chirp period.
        assert r.spectrum.shape[-1] / zp / baseline.chirp.t_s == baseline.sample_rate_hz


def test_sample_magnitude_equals_amplitude():
    # The spectrum is an unwindowed DFT, so its inverse gives back the beat
    # samples: Ns samples of magnitude A, then the zero pad.
    s = build_scenario(amplitude=2.0, theta_tx_deg=1.0)
    for zp in (1, 2):
        samples = np.fft.ifft(range_spectrum(s, zp).spectrum, axis=-1)
        assert np.allclose(np.abs(samples[..., :1024]), 2.0, rtol=1e-12, atol=0.0)
        assert np.allclose(samples[..., 1024:], 0.0, rtol=0.0, atol=1e-12)


def test_parseval():
    # Each element's beat row is Ns samples of magnitude A, so its
    # spectrum holds Ns*A^2 of energy, zero-padded or not.
    s = build_scenario(amplitude=2.0, theta_tx_deg=1.0)
    want = 1024 * 2.0**2
    for zp in (1, 2):
        r = range_spectrum(s, zp)
        n = r.spectrum.shape[-1]
        for i in range(2):
            for j in range(4):
                got = np.sum(np.abs(r.spectrum[i, j]) ** 2) / n
                assert abs(got - want) / want < 1e-10


def test_boresight_elements_identical(boresight):
    r = range_spectrum(boresight)
    for i in range(2):
        for j in range(4):
            assert np.array_equal(r.spectrum[i, j], r.spectrum[0, 0])


def test_offset_elements_differ(baseline):
    r = range_spectrum(baseline)
    assert not np.array_equal(r.spectrum[0, 1], r.spectrum[0, 0])


def assert_one_nyquist_error(bad):
    """validate, range_spectrum and range_peak raise the same ValidationError."""
    texts = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (Scenario.validate, range_spectrum, range_peak):
            with pytest.raises(ValidationError, match="Nyquist") as exc:
                fn(bad)
            texts.add(str(exc.value))
    assert len(texts) == 1
    assert "sample rate" in texts.pop()


def test_nyquist_violation_raises():
    s = build_scenario()
    # bypass scenario validation by constructing the over-delayed variant
    # directly: beat of tau_rts = 1 us is 10 MHz against fs/2 = 5.12 MHz
    assert_one_nyquist_error(replace(s, rts=replace(s.rts, tau_rts_s=1e-6)))


def test_nan_delay_fails_the_nyquist_check():
    # A NaN beat frequency compares False both ways, so it must not pass.
    s = build_scenario()
    bad = replace(s, rts=replace(s.rts, tau_rts_s=math.nan))
    with pytest.raises(ValidationError, match="Nyquist"):
        range_spectrum(bad)
    # validate names a NaN input before the Nyquist check.  From finite
    # inputs: three TX elements 1e308 m apart put the last at inf, and
    # inf*sin(0 deg) makes its delay NaN.
    assert_one_nyquist_error(replace(s, array=replace(s.array, ntx=3, dtx_m=1e308)))


def test_detected_bin_off_grid(boresight):
    # B*tau = 1e9 * 2/c0 = 6.671 -> nearest bin 7
    r = range_spectrum(boresight)
    assert r.peak_bin == 7


def test_detected_bin_on_grid_exact():
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    r = range_spectrum(s)
    assert r.peak_bin == 64


def test_on_bin_phase_matches_analytic_prediction():
    # On bin, x = 0: the value is A*Ns*exp(j*2*pi*c).
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    r = range_spectrum(s)
    want = np.angle(tone_values(s, 64))
    assert np.all(np.abs(wrap_phase(np.angle(r.peak_values) - want))
                  <= phase_tolerance(s, 64))


def test_residual_video_term_size():
    # The detected phase lies 2*pi*(B/(2T))*tau^2 = 0.1287 rad below the
    # idealized 2*pi*(fc*tau_c + f_rts*tau_rts) at bin 64.
    s = build_scenario()
    s = build_scenario(tau_rts_s=on_bin_tau_rts(s, 64))
    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx[0, 0] + tau_rx[0, 0]
    ideal = 2 * math.pi * (s.chirp.fc_hz * tau_c + s.rts.f_rts_hz * s.rts.tau_rts_s)
    got = np.angle(range_spectrum(s).peak_values[0, 0])
    assert wrap_phase(ideal - got) == pytest.approx(0.1286796, abs=1e-5)


def test_phase_without_if_term_when_frts_zero():
    s = build_scenario(f_rts_hz=0.0)
    s = build_scenario(f_rts_hz=0.0, tau_rts_s=on_bin_tau_rts(s, 16))
    r = range_spectrum(s)
    got = np.angle(r.peak_values[0, 0])
    want = np.angle(tone_values(s, 16)[0, 0])  # f_rts term contributes 0
    assert abs(wrap_phase(got - want)) <= phase_tolerance(s, 16)[0, 0]


def test_equal_delay_elements_share_phase(boresight):
    r = range_spectrum(boresight)
    ref = np.angle(r.peak_values[0, 0])
    for i in range(2):
        for j in range(4):
            assert np.angle(r.peak_values[i, j]) == ref


def test_detected_bin_is_local_peak(baseline):
    r = range_spectrum(baseline)
    k = r.peak_bin
    mag = np.abs(r.spectrum)
    for i in range(2):
        for j in range(4):
            assert mag[i, j, k] >= mag[i, j, k - 2]
            assert mag[i, j, k] >= mag[i, j, k + 2]


def test_shift_theorem_exact_bin_step():
    s = build_scenario()
    tau0 = on_bin_tau_rts(s, 8)
    k0 = range_spectrum(build_scenario(tau_rts_s=tau0)).peak_bin
    k1 = range_spectrum(
        build_scenario(tau_rts_s=tau0 + 1.0 / s.chirp.b_hz)).peak_bin
    assert k0 == 8
    assert k1 == 9


def test_inter_element_phase_gradient():
    # Relative detected-bin phase equals +2*pi*(dtx*i*sin(th_rx) +
    # drx*j*sin(th_tx))/lambda within 1e-2 rad for on-bin scenarios (the
    # residue is the sweep-bandwidth phase slope across the array).
    s = build_scenario(theta_rx_deg=3.0, theta_tx_deg=5.0)
    s = build_scenario(theta_rx_deg=3.0, theta_tx_deg=5.0,
                       tau_rts_s=on_bin_tau_rts(s, 8))
    r = range_spectrum(s)
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
    assert range_spectrum(s, zero_pad=2).peak_bin == 16
    with pytest.raises(ValueError, match=r"power of two \(got 3\)"):
        range_spectrum(s, zero_pad=3)


def test_bin_phase_frequency_scale(boresight):
    c = boresight.chirp
    want = 1.0 + c.b_hz * (c.ns - 1) / (2 * c.fc_hz * c.ns)
    assert bin_phase_frequency_scale(boresight) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(1.0064872, abs=1e-6)


def test_csv_dumps(tmp_path, boresight):
    r = range_spectrum(boresight)
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
    spec = np.fft.fft(reference_beat(s), n=ns * zero_pad, axis=-1)
    peak_bin = int(np.argmax(np.sum(np.abs(spec) ** 2, axis=(0, 1))))
    r = range_spectrum(s, zero_pad)
    assert np.array_equal(bits(r.spectrum), bits(spec))
    assert r.peak_bin == peak_bin


def assert_same_peak(got, want):
    """got's detected bin and peak values are want's, bit for bit."""
    assert got.peak_bin == want.peak_bin
    assert np.array_equal(bits(got.peak_values), bits(want.peak_values))


@pytest.mark.parametrize("ntx, nrx, ns, zero_pad, extra", ORACLE_CASES,
                         ids=[f"{a}x{b}-ns{n}-zp{z}" for a, b, n, z, _ in ORACLE_CASES])
def test_range_peak_equals_range_spectrum_bit_for_bit(ntx, nrx, ns, zero_pad, extra):
    s = build_scenario(ntx=ntx, nrx=nrx, ns=ns, **extra)
    r = range_peak(s)
    assert_same_peak(r, range_spectrum(s))
    # A window of bins, not a second whole spectrum.
    assert r.spectrum.shape[:2] == (ntx, nrx)
    assert r.spectrum.shape[-1] <= 2 * PEAK_MARGIN_BINS + 2


@st.composite
def chains(draw):
    """Boards, angles, rc_m and tau_rts_s whose beat tones stay below 90%
    of the Nyquist bin."""
    ns = draw(st.sampled_from([16, 64, 256, 1024]))
    budget_s = 0.9 * ns / 2 / 1e9       # delay of that bin at B = 1 GHz
    rc_m = draw(st.floats(0.2, min(10.0, 0.2 * budget_s * C0)))
    return dict(ntx=draw(st.integers(1, 4)), nrx=draw(st.integers(1, 16)), ns=ns,
                theta_rx_deg=draw(st.floats(-60.0, 60.0)),
                theta_tx_deg=draw(st.floats(-60.0, 60.0)),
                rc_m=rc_m, tau_rts_s=draw(st.floats(0.0, 0.5 * budget_s)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(chains())
def test_range_peak_equals_range_spectrum_property(kwargs):
    s = build_scenario(**kwargs)
    assert_same_peak(range_peak(s), range_spectrum(s))


def assert_peak_bin_is_the_tones(s, peak_bin, zero_pad):
    """peak_bin maximizes the closed-form power sum, up to a tie within the
    power the tone_tolerance error can move."""
    n = s.chirp.ns * zero_pad
    power = np.sum(np.abs(tone_values(s, np.arange(n), zero_pad)) ** 2, axis=(0, 1))
    # |X| <= A*Ns, so each element's power moves by at most 2*bound*(A*Ns)^2
    # + (bound*A*Ns)^2; the chain's and the oracle's sums may each be off.
    bound = tone_tolerance(s, zero_pad)
    tie = 2 * s.array.ntx * s.array.nrx * (2 * bound + bound**2) * (
        s.rts.amplitude * s.chirp.ns) ** 2
    assert power[peak_bin] >= power.max() - tie


@settings(derandomize=True, max_examples=40, deadline=None)
@given(chains(), st.sampled_from([1, 2, 4]))
def test_chain_equals_the_tones_closed_form(kwargs, zero_pad):
    # Every bin of range_spectrum, on and off the peak, and range_peak's
    # peak values, against the geometric sum of the sampled tone.
    s = build_scenario(**kwargs)
    scale = s.rts.amplitude * s.chirp.ns
    r = range_spectrum(s, zero_pad)
    n = r.spectrum.shape[-1]
    want = tone_values(s, np.arange(n), zero_pad)
    assert np.max(np.abs(r.spectrum - want)) <= tone_tolerance(s, zero_pad) * scale
    assert_peak_bin_is_the_tones(s, r.peak_bin, zero_pad)
    p = range_peak(s)
    assert np.max(np.abs(p.peak_values - tone_values(s, p.peak_bin))) <= (
        tone_tolerance(s) * scale)
    assert_peak_bin_is_the_tones(s, p.peak_bin, 1)


def test_tone_phase_gradient_runs_at_the_scaled_frequency():
    # The tone's phase 2*pi*[c + (Ns-1)*x/2] changes between elements a, b
    # by 2*pi*dtau*(fc*scale - (B/T)*(tau_a + tau_b)/2): the (Ns-1)*x/2
    # term gives B*(Ns-1)/(2*Ns), the residual video term the last part.
    # Element 0 is on bin 8 and element 15 is 0.05 bin off it; each
    # phase is off by under its phase_tolerance.
    probe = build_scenario(ntx=1, nrx=16)
    s = build_scenario(ntx=1, nrx=16, theta_tx_deg=30.0,
                       tau_rts_s=on_bin_tau_rts(probe, 8))
    c = s.chirp
    phase = np.angle(tone_values(s, 8))[0]
    tau_tx, tau_rx = element_delays(s)
    tau = (tau_tx + tau_rx + s.rts.tau_rts_s)[0]
    rate = (c.fc_hz * bin_phase_frequency_scale(s)
            - (c.b_hz / c.t_s) * (tau[1:] + tau[:-1]) / 2)
    step = wrap_phase(np.diff(phase) - 2 * math.pi * np.diff(tau) * rate)
    tol = phase_tolerance(s, 8)[0]
    assert np.all(np.abs(step) <= tol[1:] + tol[:-1])
    # At fc alone the steps would miss by 2*pi*dtau*B/2, about 0.01 rad.
    at_fc = wrap_phase(np.diff(phase) - 2 * math.pi * np.diff(tau) * c.fc_hz)
    assert np.all(np.abs(at_fc) > 1e-3)


def test_range_peak_falls_back_when_the_window_misses(boresight, monkeypatch):
    # The boresight tone peaks at bin 7; a window of bins 0-2 misses it,
    # so the whole spectrum is made in a second pass.
    calls = []

    def spy(s, zero_pad=1):
        calls.append((s, zero_pad))
        return range_spectrum(s, zero_pad)
    monkeypatch.setattr(signal_chain, "_peak_window", lambda s, fbeat: (0, 3))
    monkeypatch.setattr(signal_chain, "range_spectrum", spy)
    r = range_peak(boresight)
    assert calls == [(boresight, 1)]
    want = range_spectrum(boresight)
    assert_same_peak(r, want)
    assert r.first_bin == 0
    assert np.array_equal(bits(r.spectrum), bits(want.spectrum))


def test_csv_dump_of_a_window_writes_absolute_bins(tmp_path, baseline):
    r = range_peak(baseline)
    lo, width = r.first_bin, r.spectrum.shape[-1]
    assert lo > 0
    write_range_csv(r, tmp_path / "window.csv")
    write_range_csv(range_spectrum(baseline), tmp_path / "whole.csv")
    with open(tmp_path / "window.csv", newline="") as fh:
        window = list(csv.reader(fh))
    with open(tmp_path / "whole.csv", newline="") as fh:
        whole = list(csv.reader(fh))
    # The whole dump's lines at the window's bins, in the same order.
    assert window == whole[:1] + [row for row in whole[1:]
                                  if lo <= int(row[2]) < lo + width]


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


def test_range_spectrum_holds_no_beat_cube():
    # The spectrum plus one element row; a beat cube would add a whole
    # spectrum's worth at zero_pad 1.
    s = build_scenario(ntx=4, nrx=16, ns=4096, theta_tx_deg=1.0)
    r, peak = traced_peak(range_spectrum, s)
    assert peak <= 1.1 * r.spectrum.nbytes


def test_range_peak_holds_a_few_rows_whatever_the_element_count():
    # One row and its temporaries, the power sum and the FFT's own work
    # buffer; the 4x16 board's spectrum would be 64 rows.
    for ntx, nrx in ((1, 1), (4, 16)):
        s = build_scenario(ntx=ntx, nrx=nrx, ns=4096, theta_tx_deg=1.0)
        _, peak = traced_peak(range_peak, s)
        assert peak <= 8 * 16 * 4096, (ntx, nrx)


def test_range_csv_equals_whole_column_write(tmp_path):
    # The index columns of np.indices over the whole spectrum, written by
    # the one CSV writer, give the same bytes.  Rows of 2000 and 5000
    # bins are no multiple of the block size.
    for ns in (2048, 1000, 2500):
        s = build_scenario(ntx=2, nrx=3, ns=ns, theta_tx_deg=4.0)
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
