"""Time-domain beat-signal synthesis, range DFT and bin detection.

The beat signal is the dechirped (transmit times conjugate receive) tone:
its frequency is (B/T)*tau, so with the forward DFT exp(-j*2*pi*k*n/Ns)
the echo lands at bin B*tau.  The residual video term -(B/(2T))*tau^2 is
retained so the synthesized chain matches the analytical bin phase rather
than an idealization.

range_spectrum runs the whole chain one virtual element at a time: it
synthesizes an element's beat row, transforms it straight into the
spectrum and adds its power to the detection sum, so at its peak it
holds one range spectrum plus one row.  synthesize_beat and range_dft
are the same two steps with the beat cube held in between.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ._csvio import write_blocks
from .propagation import element_delays
from .scenario import Scenario


@dataclass(frozen=True)
class BeatCube:
    """Noiseless beat samples per virtual element, shape (Ntx, Nrx, Ns).

    Element positions and the sample rate belong to the Scenario.
    """

    samples: np.ndarray


@dataclass(frozen=True)
class RangeSpectrum:
    """Per-element range DFT with the detected bin.

    peak_bin is the argmax over bins of the noncoherent power sum across
    elements; peak_values holds each element's complex value at that bin
    (the input consumed by beamforming).
    """

    spectrum: np.ndarray          # (Mtx, Mrx, K) complex
    peak_bin: int

    @property
    def peak_values(self) -> np.ndarray:
        """(Mtx, Mrx) complex values at the detected bin."""
        return self.spectrum[:, :, self.peak_bin]


def _beat_rows(s: Scenario) -> Iterator[np.ndarray]:
    """synthesize_beat's tone of each virtual element, one row at a time.

    Rows come in (ntx, nrx) order and share one buffer, so each is valid
    only until the next is drawn.  The Nyquist check runs before the first
    row is made.
    """
    c, r = s.chirp, s.rts
    fs = s.sample_rate_hz

    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx + tau_rx
    tau = tau_c + r.tau_rts_s

    slope = c.b_hz / c.t_s
    fbeat = slope * tau
    if np.max(fbeat) >= fs / 2.0:
        raise ValueError(
            f"Nyquist violation: beat frequency {np.max(fbeat):.6g} Hz >= "
            f"fs/2 = {fs / 2.0:.6g} Hz")

    t = np.arange(c.ns) * (c.t_s / c.ns)
    const = c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s - (slope / 2.0) * tau**2
    # A * exp(1j * (2*pi * (const + fbeat*t))) with the same ufuncs and
    # operand order as the one-expression cube, so the same bits, each step
    # written into the row buffers.
    phase = np.empty_like(t)
    row = np.empty(c.ns, dtype=complex)
    for f, k in zip(fbeat.flat, const.flat):
        np.multiply(f, t, out=phase)
        np.add(k, phase, out=phase)
        np.multiply(2.0 * np.pi, phase, out=phase)
        np.multiply(1j, phase, out=row)
        np.exp(row, out=row)
        np.multiply(r.amplitude, row, out=row)
        yield row


def synthesize_beat(s: Scenario) -> BeatCube:
    """Synthesize the beat tone of every virtual element.

    Sample n of element (ntx, nrx) is

        A * exp{ j*2*pi * [ fc*tau_c + f_rts*tau_rts
                            + (B/T)*tau*t_n - (B/(2T))*tau^2 ] }

    with t_n = n*T/Ns and tau, tau_c the element's delays.  Raises
    ValueError if any element's beat frequency reaches half the sample
    rate.
    """
    a = s.array
    samples = np.empty((a.ntx, a.nrx, s.chirp.ns), dtype=complex)
    for dst, row in zip(samples.reshape(-1, s.chirp.ns), _beat_rows(s)):
        dst[...] = row
    return BeatCube(samples=samples)


def _detect(rows: Iterable[np.ndarray], shape: tuple[int, ...], zero_pad: int,
            dtype) -> RangeSpectrum:
    """FFT each beat row into a spectrum of Ns*zero_pad bins and detect the
    range bin; shape is the (..., Ns) shape of the rows.

    zero_pad must be a power of two, and is checked before the first row
    is drawn.  The detection power is sum(|spec|^2, axis=(0, 1)) as a
    running sum in (i, j) order, the order numpy's reduction adds in, so
    only one row of power is alive at a time.
    """
    if zero_pad < 1 or zero_pad & (zero_pad - 1):
        raise ValueError(f"zero_pad must be a power of two (got {zero_pad})")
    *lead, ns = shape
    n = ns * zero_pad
    spec = np.empty((*lead, n), dtype=dtype)
    power = np.zeros(n)
    row_power = np.empty(n)
    for row, element in zip(rows, spec.reshape(-1, n)):
        np.fft.fft(row, n=n, out=element)
        power += np.square(np.abs(element, out=row_power), out=row_power)
    return RangeSpectrum(spectrum=spec, peak_bin=int(np.argmax(power)))


def range_spectrum(s: Scenario, zero_pad: int = 1) -> RangeSpectrum:
    """range_dft(synthesize_beat(s), zero_pad), bit for bit, built one
    element row at a time: no beat cube is ever held.

    zero_pad is checked before any row is synthesized.
    """
    a = s.array
    return _detect(_beat_rows(s), (a.ntx, a.nrx, s.chirp.ns), zero_pad, complex)


def range_dft(b: BeatCube, zero_pad: int = 1) -> RangeSpectrum:
    """Per-element forward DFT and noncoherent range detection.

    No window is applied.  zero_pad must be a power of two; the transform
    length is Ns*zero_pad and the expected peak bin is round(B*tau*zero_pad)
    for an unaliased tone.
    """
    shape = b.samples.shape
    return _detect(b.samples.reshape(-1, shape[-1]), shape, zero_pad,
                   np.result_type(b.samples.dtype, 1j))


def bin_phase_frequency_scale(s: Scenario) -> float:
    """Ratio of the detected-bin phase-gradient frequency to fc.

    The DFT bin phase advances with the element delay at the mid-sweep
    frequency fc + B*(Ns-1)/(2*Ns), not at fc, so detected angles exceed
    the start-frequency prediction by about this factor in sin(alpha).
    """
    c = s.chirp
    return 1.0 + c.b_hz * (c.ns - 1) / (2.0 * c.fc_hz * c.ns)


def write_range_csv(r: RangeSpectrum, path) -> None:
    """Debug dump: columns ntx, nrx, n_or_k, re, im.

    The index columns are made one block of rows at a time.
    """
    shape = r.spectrum.shape
    flat = r.spectrum.reshape(-1)

    def block(start: int, stop: int) -> list:
        values = flat[start:stop]
        return [*np.unravel_index(np.arange(start, stop), shape),
                values.real, values.imag]
    write_blocks(path, ["ntx", "nrx", "n_or_k", "re", "im"], flat.size, block)
