"""Time-domain beat-signal synthesis, range DFT and bin detection.

The beat signal is the dechirped (transmit times conjugate receive) tone:
its frequency is (B/T)*tau, so with the forward DFT exp(-j*2*pi*k*n/Ns)
the echo lands at bin B*tau.  The residual video term -(B/(2T))*tau^2 is
retained so the synthesized chain matches the analytical bin phase rather
than an idealization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .propagation import element_delays
from .scenario import Scenario


@dataclass(frozen=True)
class BeatCube:
    """Noiseless beat samples per virtual element, shape (Ntx, Nrx, Ns)."""

    samples: np.ndarray
    sample_rate_hz: float
    tx_positions_m: np.ndarray
    rx_positions_m: np.ndarray


@dataclass(frozen=True)
class RangeSpectrum:
    """Per-element range DFT with the detected bin.

    peak_bin is the argmax over bins of the noncoherent power sum across
    elements; peak_values holds each element's complex value at that bin
    (the input consumed by beamforming).
    """

    spectrum: np.ndarray          # (Mtx, Mrx, K) complex
    peak_bin: int
    peak_values: np.ndarray       # (Mtx, Mrx) complex
    tx_positions_m: np.ndarray
    rx_positions_m: np.ndarray
    sample_rate_hz: float
    pad_factor: int = 1


def synthesize_beat(s: Scenario) -> BeatCube:
    """Synthesize the beat tone of every virtual element.

    Sample n of element (ntx, nrx) is

        A * exp{ j*2*pi * [ fc*tau_c + f_rts*tau_rts
                            + (B/T)*tau*t_n - (B/(2T))*tau^2 ] }

    with t_n = n*T/Ns and tau, tau_c the element's delays.  Raises
    ValueError if any element's beat frequency reaches half the sample
    rate.
    """
    c, r = s.chirp, s.rts
    a = s.array
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
    phase = 2.0 * np.pi * (const[:, :, None] + fbeat[:, :, None] * t[None, None, :])
    samples = r.amplitude * np.exp(1j * phase)
    return BeatCube(samples=samples, sample_rate_hz=fs,
                    tx_positions_m=a.tx_positions_m(),
                    rx_positions_m=a.rx_positions_m())


def range_dft(b: BeatCube, zero_pad: int = 1) -> RangeSpectrum:
    """Per-element forward DFT and noncoherent range detection.

    No window is applied.  zero_pad must be a power of two; the transform
    length is Ns*zero_pad and the expected peak bin is round(B*tau*zero_pad)
    for an unaliased tone.
    """
    if zero_pad < 1 or zero_pad & (zero_pad - 1):
        raise ValueError(f"zero_pad must be a power of two (got {zero_pad})")
    ns = b.samples.shape[-1]
    spec = np.fft.fft(b.samples, n=ns * zero_pad, axis=-1)
    power = np.sum(np.abs(spec) ** 2, axis=(0, 1))
    k = int(np.argmax(power))
    return RangeSpectrum(spectrum=spec, peak_bin=k,
                         peak_values=spec[:, :, k].copy(),
                         tx_positions_m=b.tx_positions_m,
                         rx_positions_m=b.rx_positions_m,
                         sample_rate_hz=b.sample_rate_hz,
                         pad_factor=zero_pad)


def detected_bin_phase(r: RangeSpectrum, ntx: int, nrx: int) -> float:
    """Argument of element (ntx, nrx) at the detected bin, in (-pi, pi]."""
    _check_element(ntx, nrx, r.peak_values.shape)
    return float(np.angle(r.peak_values[ntx, nrx]))


def _check_element(ntx: int, nrx: int, shape: tuple[int, int]) -> None:
    # Explicit, because a negative index would silently wrap.
    for name, i, n in (("ntx", ntx, shape[0]), ("nrx", nrx, shape[1])):
        if not 0 <= i < n:
            raise IndexError(f"{name} index {i} out of range [0, {n})")


def expected_bin_phase(s: Scenario, ntx: int, nrx: int, f_r: float,
                       include_rvp: bool = True) -> float:
    """Analytical detected-bin phase, mod 2*pi.

    2*pi*[fc*tau_c + f_rts*tau_rts + (B*tau - f_R)/2], exact when B*tau
    falls on bin f_R.  With include_rvp the retained residual video term
    -(B/(2T))*tau^2 is added, matching the synthesized chain to machine
    precision for on-bin scenarios; without it the formula is the idealized
    prediction (the two differ by 2*pi*(B/(2T))*tau^2 radians).
    """
    c, r = s.chirp, s.rts
    _check_element(ntx, nrx, (s.array.ntx, s.array.nrx))
    tau_tx, tau_rx = element_delays(s)
    tau_c = float(tau_tx[ntx, 0] + tau_rx[0, nrx])
    tau = tau_c + r.tau_rts_s
    cycles = c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s + 0.5 * (c.b_hz * tau - f_r)
    if include_rvp:
        cycles -= (c.b_hz / (2.0 * c.t_s)) * tau**2
    return 2.0 * math.pi * (cycles % 1.0)


def bin_phase_frequency_scale(s: Scenario) -> float:
    """Ratio of the detected-bin phase-gradient frequency to fc.

    The DFT bin phase advances with the element delay at the mid-sweep
    frequency fc + B*(Ns-1)/(2*Ns), not at fc, so detected angles exceed
    the start-frequency prediction by about this factor in sin(alpha).
    """
    c = s.chirp
    return 1.0 + c.b_hz * (c.ns - 1) / (2.0 * c.fc_hz * c.ns)


def write_beat_csv(b: BeatCube, path) -> None:
    """Debug dump: columns ntx, nrx, n_or_k, re, im."""
    _write_cube_csv(b.samples, path)


def write_range_csv(r: RangeSpectrum, path) -> None:
    """Debug dump: columns ntx, nrx, n_or_k, re, im."""
    _write_cube_csv(r.spectrum, path)


def _write_cube_csv(cube: np.ndarray, path) -> None:
    ntx, nrx, k = np.indices(cube.shape).reshape(3, -1)
    flat = cube.reshape(-1)
    write_csv(path, {"ntx": ntx, "nrx": nrx, "n_or_k": k,
                     "re": flat.real, "im": flat.imag})
