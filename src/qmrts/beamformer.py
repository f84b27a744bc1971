"""Delay-and-sum angle spectrum over the MIMO virtual array.

x_A[alpha] = sum_i sum_j x_R[i,j] * exp{-j*2*pi*(p_tx_i + p_rx_j)*sin(alpha)/lambda}

The element reduction runs sequentially in index order so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import magnitude_db, write_csv
from .scenario import Scenario
from .signal_chain import RangeSpectrum


@dataclass(frozen=True)
class AngleSpectrum:
    """Complex beamformed spectrum on the angle grid.

    peak_angle_rad is the sub-grid refined peak (parabolic interpolation in
    the sin-alpha domain); for a boundary peak it falls back to the grid
    angle.
    """

    angles_rad: np.ndarray
    values: np.ndarray
    peak_index: int
    peak_angle_rad: float


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
    """Steer the detected-bin values across the configured angle grid.

    Element positions come from s.array, whose shape r must match.
    """
    return beamform_each([r], s)[0]


def beamform_each(spectra: list[RangeSpectrum], s: Scenario) -> list[AngleSpectrum]:
    """Steer several range spectra of one scenario in one pass.

    Each steering row is built once and added into every output in (i, j)
    order, so each output holds the same floats as its own pass would.
    Only one row is alive at a time.
    """
    a = s.array
    values = [r.peak_values for r in spectra]
    for v in values:
        if v.shape != (a.ntx, a.nrx):
            raise ValueError(
                f"range spectrum has {v.shape[0]}x{v.shape[1]} elements "
                f"but the scenario array is {a.ntx}x{a.nrx}")
    tx, rx = a.tx_positions_m(), a.rx_positions_m()
    angles = s.grid.angles_rad()
    sin_a = np.sin(angles)
    lam = s.wavelength_m
    outs = [np.zeros(angles.size, dtype=complex) for _ in values]
    for i in range(a.ntx):
        for j in range(a.nrx):
            pos = tx[i] + rx[j]
            row = np.exp(-2j * np.pi * pos * sin_a / lam)
            for out, v in zip(outs, values):
                out += v[i, j] * row
    return [AngleSpectrum(angles, out, *_peak(angles, np.abs(out))) for out in outs]


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
    return RangeSpectrum(spectrum=values[:, :, None], peak_bin=0)


def write_angle_csv(a: AngleSpectrum, path) -> None:
    """Dump the angle spectrum: columns alpha_deg, re, im, mag_db."""
    write_csv(path, {"alpha_deg": np.degrees(a.angles_rad),
                     "re": a.values.real, "im": a.values.imag,
                     "mag_db": magnitude_db(np.abs(a.values))})
