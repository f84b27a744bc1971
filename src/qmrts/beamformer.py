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
from .scenario import AngleGrid, Scenario
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


# A coarse-to-fine search evaluates every COARSE_STRIDE-th grid point
# first, then the grid only where the peak can be.
COARSE_STRIDE = 100


def _coarse_to_fine(grid: AngleGrid, magnitudes, sups: list[float],
                    band: float) -> list[float]:
    """Peak angles of several spectra on grid, each the float _peak gives
    over every grid point, found coarse to fine.

    magnitudes(angles) returns one array |f_k(sin alpha)| per spectrum,
    where f_k is entire of exponential type band in u = sin(alpha) and
    |f_k| <= sups[k] on the real line.  The power P = |f_k|^2 is then of
    type 2*band and bounded by sups[k]^2, so by Bernstein's inequality
    |d^2 P(sin alpha)/d alpha^2| <= sups[k]^2*(4*band^2 + 2*band).
    Between coarse neighbours at most h apart, P thus rises above the
    chord, and so above the larger endpoint, by at most
    margin = sups[k]^2*(4*band^2 + 2*band)*h^2/8, plus a float slack of
    1e-9*sups[k]^2.  Every grid point at or above the coarse maximum
    has a coarse neighbour within margin of that maximum: a candidate.

    The coarse pass evaluates every COARSE_STRIDE-th grid point and the
    last one.  The fine pass evaluates COARSE_STRIDE points either side
    of each spectrum's candidates, which holds every such point and its
    two neighbours (a point on a coarse sample is a candidate itself).
    _peak then sees the evaluated points in index order: its argmax,
    ties and vertex are those of the full grid, and an evaluated end
    point is the grid's own first or last point.  Both passes evaluate
    every spectrum at the same angles, and only those angles are
    computed (AngleGrid.angles_at).
    """
    n = grid.n_points
    coarse = np.append(np.arange(0, n - 1, COARSE_STRIDE), n - 1)
    coarse_angles = grid.angles_at(coarse)
    h = float(np.diff(coarse_angles).max())
    bound = (4.0 * band * band + 2.0 * band) * h * h / 8.0 + 1e-9
    keep = np.zeros(coarse.size, dtype=bool)
    for mag, sup in zip(magnitudes(coarse_angles), sups):
        power = mag * mag
        keep |= power >= power.max() - sup * sup * bound

    window = np.arange(-COARSE_STRIDE, COARSE_STRIDE + 1)
    windows = np.clip(coarse[keep][:, None] + window, 0, n - 1).ravel()
    # The windows ascend and overlap: keep each index where it first
    # exceeds all before it.  (np.unique would sort, and its first call
    # imports numpy.ma, about 16 ms per process.)
    seen = np.maximum.accumulate(windows)
    fine = windows[np.append(True, windows[1:] > seen[:-1])]
    angles = grid.angles_at(fine)
    return [_peak(angles, mag)[1] for mag in magnitudes(angles)]


def _steer(values: list[np.ndarray], s: Scenario, angles: np.ndarray) -> list[np.ndarray]:
    """Steering sums of several (Ntx, Nrx) element arrays at angles.

    Each steering row is built once and added into every output in (i, j)
    order, so each output holds the same floats as its own pass would.
    Only one row is alive at a time.
    """
    a = s.array
    for v in values:
        if v.shape != (a.ntx, a.nrx):
            raise ValueError(
                f"range spectrum has {v.shape[0]}x{v.shape[1]} elements "
                f"but the scenario array is {a.ntx}x{a.nrx}")
    tx, rx = a.tx_positions_m(), a.rx_positions_m()
    sin_a = np.sin(angles)
    lam = s.wavelength_m
    outs = [np.zeros(angles.size, dtype=complex) for _ in values]
    for i in range(a.ntx):
        for j in range(a.nrx):
            pos = tx[i] + rx[j]
            row = np.exp(-2j * np.pi * pos * sin_a / lam)
            for out, v in zip(outs, values):
                out += v[i, j] * row
    return outs


def beamform(r: RangeSpectrum, s: Scenario) -> AngleSpectrum:
    """Steer the detected-bin values across the configured angle grid.

    Element positions come from s.array, whose shape r must match.
    """
    angles = s.grid.angles_rad()
    (out,) = _steer([r.peak_values], s, angles)
    return AngleSpectrum(angles, out, *_peak(angles, np.abs(out)))


def beamform_peaks(spectra: list[RangeSpectrum], s: Scenario) -> list[float]:
    """beamform(r, s).peak_angle_rad of each spectrum, bit for bit,
    without steering the whole grid.

    The peaks are found coarse to fine (_coarse_to_fine).  After a phase
    shift the steering sum of v is of exponential type
    pi*aperture_m/lambda in sin(alpha) and bounded by sum |v_ij|.
    """
    values = [r.peak_values for r in spectra]
    return _coarse_to_fine(
        s.grid, lambda angles: [np.abs(out) for out in _steer(values, s, angles)],
        [float(np.abs(v).sum()) for v in values],
        math.pi * s.array.aperture_m / s.wavelength_m)


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
