"""Delay-and-sum angle spectrum over the MIMO virtual array.

x_A[alpha] = sum_i sum_j x_R[i,j] * exp{-j*2*pi*(p_tx_i + p_rx_j)*sin(alpha)/lambda}

beamform finds the peak of |x_A| coarse to fine, steering only the
angles the search evaluates; the spectrum's values over the whole grid
are steered when first read.  The element reduction runs sequentially in
index order so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._csvio import magnitude_db, write_csv
from .scenario import AngleGrid, Scenario
from .signal_chain import RangeSpectrum


@dataclass(frozen=True)
class AngleSpectrum:
    """Complex beamformed spectrum on the scenario's angle grid.

    peak_index is the grid index of the largest magnitude and
    peak_angle_rad the sub-grid refined peak (parabolic interpolation in
    the sin-alpha domain); for a boundary peak it falls back to the grid
    angle.  angles_rad and values are computed on first read from the
    element values and the scenario.
    """

    element_values: np.ndarray    # (Ntx, Nrx) complex
    scenario: Scenario
    peak_index: int
    peak_angle_rad: float

    @cached_property
    def angles_rad(self) -> np.ndarray:
        return self.scenario.grid.angles_rad()

    @cached_property
    def values(self) -> np.ndarray:
        return _steer(self.element_values, self.scenario, self.angles_rad)


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


def _coarse_to_fine(grid: AngleGrid, magnitude, sup: float,
                    band: float) -> tuple[int, float]:
    """Grid index and peak angle of a spectrum on grid, the pair _peak
    gives over every grid point, found coarse to fine.

    magnitude(angles) returns |f(sin alpha)|, where f is entire of
    exponential type band in u = sin(alpha) and |f| <= sup on the real
    line.  The power P = |f|^2 is then of type 2*band and bounded by
    sup^2, so by Bernstein's inequality
    |d^2 P(sin alpha)/d alpha^2| <= sup^2*(4*band^2 + 2*band).
    Between coarse neighbours at most h apart, P thus rises above the
    chord, and so above the larger endpoint, by at most
    margin = sup^2*(4*band^2 + 2*band)*h^2/8, plus a float slack of
    1e-9*sup^2.  Every grid point at or above the coarse maximum has a
    coarse neighbour within margin of that maximum: a candidate.

    The coarse pass evaluates every COARSE_STRIDE-th grid point and the
    last one.  The fine pass evaluates COARSE_STRIDE points either side
    of the candidates, which holds every such point and its two
    neighbours (a point on a coarse sample is a candidate itself).
    _peak then sees the evaluated points in index order: its argmax,
    ties and vertex are those of the full grid, and an evaluated end
    point is the grid's own first or last point.  Only the evaluated
    angles are computed (AngleGrid.angles_at).
    """
    n = grid.n_points
    coarse = np.append(np.arange(0, n - 1, COARSE_STRIDE), n - 1)
    coarse_angles = grid.angles_at(coarse)
    h = float(np.diff(coarse_angles).max())
    bound = (4.0 * band * band + 2.0 * band) * h * h / 8.0 + 1e-9
    mag = magnitude(coarse_angles)
    power = mag * mag
    keep = power >= power.max() - sup * sup * bound

    window = np.arange(-COARSE_STRIDE, COARSE_STRIDE + 1)
    windows = np.clip(coarse[keep][:, None] + window, 0, n - 1).ravel()
    # The windows ascend and overlap: keep each index where it first
    # exceeds all before it.  (np.unique would sort, and its first call
    # imports numpy.ma, about 16 ms per process.)
    seen = np.maximum.accumulate(windows)
    fine = windows[np.append(True, windows[1:] > seen[:-1])]
    angles = grid.angles_at(fine)
    k, angle = _peak(angles, magnitude(angles))
    return int(fine[k]), angle


def _steer(v: np.ndarray, s: Scenario, angles: np.ndarray) -> np.ndarray:
    """Steering sum of the (Ntx, Nrx) element values v at angles, added
    in (i, j) order with one steering row alive at a time."""
    a = s.array
    if v.shape != (a.ntx, a.nrx):
        raise ValueError(
            f"range spectrum has {v.shape[0]}x{v.shape[1]} elements "
            f"but the scenario array is {a.ntx}x{a.nrx}")
    tx, rx = a.tx_positions_m(), a.rx_positions_m()
    sin_a = np.sin(angles)
    lam = s.wavelength_m
    out = np.zeros(angles.size, dtype=complex)
    for i in range(a.ntx):
        for j in range(a.nrx):
            pos = tx[i] + rx[j]
            out += v[i, j] * np.exp(-2j * np.pi * pos * sin_a / lam)
    return out


def beamform(r: RangeSpectrum, s: Scenario) -> AngleSpectrum:
    """Steer the detected-bin values across the configured angle grid.

    Element positions come from s.array, whose shape r must match.  The
    peak is found coarse to fine (_coarse_to_fine) and is the one a
    search over every grid point gives: after a phase shift the steering
    sum of v is of exponential type pi*aperture_m/lambda in sin(alpha)
    and bounded by sum |v_ij|.  The values over the whole grid are
    steered only when read.
    """
    # A copy, so the spectrum does not keep r's whole range spectrum alive.
    v = r.peak_values.copy()
    peak = _coarse_to_fine(
        s.grid, lambda angles: np.abs(_steer(v, s, angles)), float(np.abs(v).sum()),
        math.pi * s.array.aperture_m / s.wavelength_m)
    return AngleSpectrum(v, s, *peak)


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
