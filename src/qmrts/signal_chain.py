"""Time-domain beat-signal synthesis, range DFT and bin detection.

The beat signal is the dechirped (transmit times conjugate receive) tone:
its frequency is (B/T)*tau, so with the forward DFT exp(-j*2*pi*k*n/Ns)
the echo lands at bin B*tau.  The residual video term -(B/(2T))*tau^2 is
retained so the synthesized chain matches the analytical bin phase rather
than an idealization.

One private row loop, _element_rows, runs the whole chain one virtual
element at a time: it synthesizes an element's beat row, transforms it
and adds its power to the detection sum.  Two functions sit on it.
range_spectrum stores every row, so at its peak it holds one range
spectrum plus one row.  range_peak keeps only a few bins around the
elements' beat bins, which is all beamforming reads, so it holds one row
plus that window.  No beat cube is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._csvio import write_blocks
from .scenario import Scenario, beat_tones

# Bins kept by range_peak on each side of the elements' beat bins B*tau.
# The power-sum peak of an unaliased tone lies within one bin of B*tau.
PEAK_MARGIN_BINS = 4


@dataclass(frozen=True)
class RangeSpectrum:
    """Per-element range DFT with the detected bin.

    peak_bin is the argmax over bins of the noncoherent power sum across
    elements; peak_values holds each element's complex value at that bin
    (the input consumed by beamforming).  spectrum[..., 0] is DFT bin
    first_bin, so a window of bins keeps absolute bin numbers.
    """

    spectrum: np.ndarray          # (Mtx, Mrx, K) complex
    peak_bin: int
    first_bin: int = 0

    @property
    def peak_values(self) -> np.ndarray:
        """(Mtx, Mrx) complex values at the detected bin."""
        return self.spectrum[:, :, self.peak_bin - self.first_bin]


def _checked_tones(s: Scenario, zero_pad: int):
    """Each element's beat frequency and phase constant, and the DFT length.

    Checks zero_pad, then the Nyquist bound, before anything is allocated.
    """
    if zero_pad < 1 or zero_pad & (zero_pad - 1):
        raise ValueError(f"zero_pad must be a power of two (got {zero_pad})")
    fbeat, tau_c, tau = beat_tones(s)
    c, r = s.chirp, s.rts
    const = (c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s
             - (c.b_hz / c.t_s / 2.0) * tau**2)
    return fbeat, const, c.ns * zero_pad


def _element_rows(s: Scenario, fbeat, const, outs, power):
    """Synthesize and transform every element's beat row, in (i, j) order.

    Each row's DFT is written into the next of outs and yielded, after its
    power is added to power: the running sum in (i, j) order is the order
    numpy's sum(|spec|^2, axis=(0, 1)) adds in.  This loop is the one
    place the beat signal is synthesized and transformed.
    """
    c = s.chirp
    n = power.size
    t = np.arange(c.ns) * (c.t_s / c.ns)
    row_power = np.empty(n)
    phase = np.empty_like(t)
    row = np.empty(c.ns, dtype=complex)
    # A * exp(1j * (2*pi * (const + fbeat*t))) with the same ufuncs and
    # operand order as the one-expression cube, so the same bits, each step
    # written into the row buffers.
    for f, k, out in zip(fbeat.flat, const.flat, outs):
        np.multiply(f, t, out=phase)
        np.add(k, phase, out=phase)
        np.multiply(2.0 * np.pi, phase, out=phase)
        np.multiply(1j, phase, out=row)
        np.exp(row, out=row)
        np.multiply(s.rts.amplitude, row, out=row)
        np.fft.fft(row, n=n, out=out)
        power += np.square(np.abs(out, out=row_power), out=row_power)
        yield out


def range_spectrum(s: Scenario, zero_pad: int = 1) -> RangeSpectrum:
    """Synthesize, transform and detect the beat tone of every virtual element.

    Sample n of element (ntx, nrx) is

        A * exp{ j*2*pi * [ fc*tau_c + f_rts*tau_rts
                            + (B/T)*tau*t_n - (B/(2T))*tau^2 ] }

    with t_n = n*T/Ns and tau, tau_c the element's delays.  Each element's
    row gets an unwindowed forward DFT of Ns*zero_pad points, so the
    expected peak bin is round(B*tau*zero_pad) for an unaliased tone.

    zero_pad must be a power of two, and is checked before anything is
    synthesized.  Raises ValidationError if any element's beat frequency
    reaches half the sample rate.  The detection power is
    sum(|spec|^2, axis=(0, 1)), summed as the rows are made, so only one
    row of power is alive at a time.
    """
    fbeat, const, n = _checked_tones(s, zero_pad)
    spec = np.empty((s.array.ntx, s.array.nrx, n), dtype=complex)
    power = np.zeros(n)
    for _ in _element_rows(s, fbeat, const, spec.reshape(-1, n), power):
        pass
    return RangeSpectrum(spectrum=spec, peak_bin=int(np.argmax(power)))


def _peak_window(s: Scenario, fbeat) -> tuple[int, int]:
    """Bins [lo, hi) within PEAK_MARGIN_BINS of every element's beat bin."""
    bins = fbeat * s.chirp.t_s          # B*tau
    n = s.chirp.ns
    lo = min(max(math.floor(np.min(bins)) - PEAK_MARGIN_BINS, 0), n - 1)
    hi = min(max(math.ceil(np.max(bins)) + PEAK_MARGIN_BINS + 1, lo + 1), n)
    return lo, hi


def range_peak(s: Scenario) -> RangeSpectrum:
    """range_spectrum(s)'s detected bin and peak values, holding one row.

    Runs the same row loop, but keeps each element's bins only in a window
    around the elements' beat bins; the whole power sum is still formed.
    The result's spectrum is that window, with first_bin its first bin, so
    peak_bin and peak_values equal range_spectrum(s)'s bit for bit.  If
    the power sum peaks outside the window, the whole spectrum is made
    instead.
    """
    fbeat, const, n = _checked_tones(s, 1)
    lo, hi = _peak_window(s, fbeat)
    window = np.empty((s.array.ntx, s.array.nrx, hi - lo), dtype=complex)
    power = np.zeros(n)
    rows = _element_rows(s, fbeat, const, repeat(np.empty(n, dtype=complex)), power)
    for row, cut in zip(rows, window.reshape(-1, hi - lo)):
        cut[:] = row[lo:hi]
    peak_bin = int(np.argmax(power))
    if not lo <= peak_bin < hi:
        return range_spectrum(s)
    return RangeSpectrum(spectrum=window, peak_bin=peak_bin, first_bin=lo)


def bin_phase_frequency_scale(s: Scenario) -> float:
    """Ratio of the detected-bin phase-gradient frequency to fc.

    Element e's row A*exp(j*2*pi*(c_e + f_e*n*T/Ns)), f_e = (B/T)*tau_e, sums
    at bin k of N points to A*exp(j*2*pi*[c_e + (Ns-1)*x_e/2]) times the
    real kernel sin(pi*Ns*x_e)/sin(pi*x_e), x_e = f_e*T/Ns - k/N.  With
    the delay, (Ns-1)*x_e/2 grows at B*(Ns-1)/(2*Ns) and c_e at fc, less a
    residual video (B/T)*tau_e under 1e-6 of fc here.  So detected angles
    exceed the start-frequency prediction by about this factor in sin(alpha).
    """
    c = s.chirp
    return 1.0 + c.b_hz * (c.ns - 1) / (2.0 * c.fc_hz * c.ns)


def write_range_csv(r: RangeSpectrum, path) -> None:
    """Debug dump: columns ntx, nrx, n_or_k, re, im.

    Each element's bins go to the writer as one segment: ntx and nrx are
    scalars and n_or_k is one shared range of absolute bin numbers, so no
    index column is made for the whole spectrum.
    """
    ntx, nrx, n = r.spectrum.shape
    bins = np.arange(r.first_bin, r.first_bin + n)
    write_blocks(path, ["ntx", "nrx", "n_or_k", "re", "im"],
                 ([i, j, bins, r.spectrum[i, j].real, r.spectrum[i, j].imag]
                  for i in range(ntx) for j in range(nrx)))
