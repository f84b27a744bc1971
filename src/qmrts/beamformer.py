"""Delay-and-sum angle spectrum over the MIMO virtual array.

x_A[alpha] = sum_i sum_j x_R[i,j] * exp{-j*2*pi*(p_tx_i + p_rx_j)*sin(alpha)/lambda}

The element reduction runs sequentially in index order so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .scenario import Scenario
from .signal_chain import RangeSpectrum


class PeakAtBoundaryError(ValueError):
    """Spectrum maximum sits on the grid edge; widen the angle grid."""


@dataclass(frozen=True)
class AngleSpectrum:
    """Complex beamformed spectrum on the angle grid.

    peak_angle_rad is the sub-grid refined peak (parabolic interpolation in
    the sin-alpha domain); for a boundary peak it falls back to the grid
    angle.  peak_value is the complex value at the grid maximum.
    """

    angles_rad: np.ndarray
    values: np.ndarray
    peak_index: int
    peak_angle_rad: float
    peak_value: complex


def _parabolic_vertex(x: np.ndarray, y: np.ndarray) -> float:
    """Vertex abscissa of the parabola through three (possibly nonuniform)
    points, with y[1] the largest.  Falls back to x[1] for a degenerate or
    non-concave fit (flat triple)."""
    d1 = x[0] - x[1]
    d3 = x[2] - x[1]
    det = d1 * d3 * (d1 - d3)
    a = ((y[0] - y[1]) * d3 - (y[2] - y[1]) * d1) / det
    b = ((y[2] - y[1]) * d1 * d1 - (y[0] - y[1]) * d3 * d3) / det
    if not (a < 0 and math.isfinite(b)):
        return float(x[1])
    return float(x[1] - b / (2.0 * a))


def _peak(angles_rad: np.ndarray, mag: np.ndarray) -> tuple[int, float]:
    """Grid index of the largest magnitude and the sub-grid peak angle.

    The angle is the vertex of the parabola through the power |mag|^2 of
    the maximum and its two neighbours, taken in sin(alpha); a maximum on
    the grid edge falls back to its grid angle.
    """
    # np.argmax takes the first maximum: smallest angle wins ties.
    k = int(np.argmax(mag))
    if not 0 < k < angles_rad.size - 1:
        return k, float(angles_rad[k])
    u = np.sin(angles_rad[k - 1:k + 2])
    return k, math.asin(_parabolic_vertex(u, mag[k - 1:k + 2] ** 2))


def beamform(r: RangeSpectrum, s: Scenario) -> AngleSpectrum:
    """Steer the detected-bin values across the configured angle grid."""
    angles = s.grid.angles_rad()
    sin_a = np.sin(angles)
    lam = s.wavelength_m
    out = np.zeros(angles.size, dtype=complex)
    mtx, mrx = r.peak_values.shape
    for i in range(mtx):
        for j in range(mrx):
            pos = r.tx_positions_m[i] + r.rx_positions_m[j]
            out += r.peak_values[i, j] * np.exp(-2j * np.pi * pos * sin_a / lam)
    k, peak_angle = _peak(angles, np.abs(out))
    return AngleSpectrum(angles_rad=angles, values=out, peak_index=k,
                         peak_angle_rad=peak_angle, peak_value=complex(out[k]))


def refine_peak(a: AngleSpectrum) -> float:
    """Sub-grid peak angle via parabolic interpolation of |x_A|^2 in
    sin(alpha); raises PeakAtBoundaryError when the grid maximum is an
    edge point."""
    if a.angles_rad.size < 3:
        raise PeakAtBoundaryError("angle grid needs at least 3 points to refine")
    k = a.peak_index
    if k == 0 or k == a.angles_rad.size - 1:
        raise PeakAtBoundaryError(
            f"spectrum peak at grid boundary ({math.degrees(a.angles_rad[k]):.4g} deg); "
            "widen the angle grid")
    return a.peak_angle_rad


def select_subset(r: RangeSpectrum, ntx_keep, nrx_keep) -> RangeSpectrum:
    """Restrict the spectrum to a subset of TX/RX elements.

    Kept elements retain their physical positions, so beamforming the
    subset is equivalent to processing the same data with a smaller array.
    """
    ntx_keep = list(ntx_keep)
    nrx_keep = list(nrx_keep)
    if not ntx_keep or not nrx_keep:
        raise ValueError("antenna selection must keep at least one TX and one RX element")
    mtx, mrx = r.peak_values.shape
    if len(set(ntx_keep)) != len(ntx_keep) or len(set(nrx_keep)) != len(nrx_keep):
        raise ValueError("antenna selection contains duplicate indices")
    for i in ntx_keep:
        if not 0 <= i < mtx:
            raise IndexError(f"ntx index {i} out of range [0, {mtx})")
    for j in nrx_keep:
        if not 0 <= j < mrx:
            raise IndexError(f"nrx index {j} out of range [0, {mrx})")
    spec = r.spectrum[np.ix_(ntx_keep, nrx_keep)]
    return RangeSpectrum(spectrum=spec, peak_bin=r.peak_bin,
                         peak_values=r.peak_values[np.ix_(ntx_keep, nrx_keep)],
                         tx_positions_m=r.tx_positions_m[ntx_keep],
                         rx_positions_m=r.rx_positions_m[nrx_keep],
                         sample_rate_hz=r.sample_rate_hz,
                         pad_factor=r.pad_factor)


def unit_phasor_spectrum(s: Scenario) -> RangeSpectrum:
    """Ideal detected-bin values, bypassing the time-domain chain.

    Element (i, j) carries A*Ns*exp{+j*2*pi*(dtx*i*sin(theta_rx) +
    drx*j*sin(theta_tx))/lambda} — the inter-element phase alone.
    Beamforming this spectrum evaluates the plain steering double sum.
    """
    a, r = s.array, s.rts
    lam = s.wavelength_m
    tx = a.tx_positions_m() * math.sin(r.theta_rx_rad)
    rx = a.rx_positions_m() * math.sin(r.theta_tx_rad)
    phase = 2.0 * np.pi * (tx[:, None] + rx[None, :]) / lam
    values = r.amplitude * s.chirp.ns * np.exp(1j * phase)
    return RangeSpectrum(spectrum=values[:, :, None], peak_bin=0,
                         peak_values=values,
                         tx_positions_m=a.tx_positions_m(),
                         rx_positions_m=a.rx_positions_m(),
                         sample_rate_hz=s.sample_rate_hz)


def write_angle_csv(a: AngleSpectrum, path) -> None:
    """Dump the angle spectrum: columns alpha_deg, re, im, mag_db."""
    mag = np.maximum(np.abs(a.values), 1e-30)
    write_csv(path, {"alpha_deg": np.degrees(a.angles_rad),
                     "re": a.values.real, "im": a.values.imag,
                     "mag_db": [20.0 * math.log10(m) for m in mag.tolist()]})
