"""Analytical angle spectrum of the displaced-antenna channel.

The steering double sum factors into two uniform-array kernels, one
centered on the RTS receiver direction (weighted by the radar TX array)
and one on the RTS transmitter direction (radar RX array):

    |x_A[alpha]| = A*Ns*Ntx*Nrx * |K_tx(sin th_rx - sin a)| * |K_rx(sin th_tx - sin a)|

"dirichlet" mode evaluates the exact geometric-sum magnitude
|sin(pi*N*d*u/lambda) / (N*sin(pi*d*u/lambda))|; "sinc" mode applies the
small-argument step sin(x) ~ x to the denominator, giving the compact
|sinc(N*d*u/lambda)| form.  The sinc form is a biased approximation for
small N (its main-lobe curvature is N^2/(N^2-1) too strong), which shifts
its peak toward the receiver for the wide-spaced two-element TX array.
The phase (closed_form_phase) is that of the full chain's steering sum at
alpha = 0, at the detected bin k of its n-point range DFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvio import magnitude_db, write_csv
from .beamformer import _coarse_to_fine
from .scenario import FINE_STEP_DEG, Scenario, beat_tones

MODES = ("sinc", "dirichlet")

# Step of the grid scanned for competing peaks by peak_separation_db [deg].
SEPARATION_STEP_DEG = 0.01


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Real magnitude spectrum plus the phase at alpha = 0 (closed_form_phase)."""

    angles_rad: np.ndarray
    magnitude: np.ndarray
    phase_rad: float          # grid-independent phase term
    mode: str


def _kernel(n: int, d_m: float, u: np.ndarray, lam: float, mode: str) -> np.ndarray:
    if mode == "dirichlet":
        # sin(n*x/2) / (n*sin(x/2)) with x = 2*pi*d*u/lambda.  Where
        # |sin(x/2)| < 1e-7 (the float64 cutoff of scipy.special.diric)
        # the removable singularity has magnitude 1.
        half = np.pi * d_m * u / lam
        den = np.sin(half)
        out = np.ones_like(half)
        np.divide(np.sin(n * half), n * den, out=out, where=np.abs(den) >= 1e-7)
        return np.abs(out)
    if mode == "sinc":
        return np.abs(np.sinc(d_m * n * u / lam))
    raise ValueError(f"mode must be one of {MODES} (got {mode!r})")


def spectrum_magnitude(s: Scenario, angles_rad: np.ndarray, mode: str) -> np.ndarray:
    """Closed-form |x_A| at arbitrary angles."""
    a, r = s.array, s.rts
    lam = s.wavelength_m
    u = np.sin(np.asarray(angles_rad, dtype=float))
    ktx = _kernel(a.ntx, a.dtx_m, math.sin(r.theta_rx_rad) - u, lam, mode)
    krx = _kernel(a.nrx, a.drx_m, math.sin(r.theta_tx_rad) - u, lam, mode)
    gain = r.amplitude * s.chirp.ns * a.ntx * a.nrx
    return gain * ktx * krx


def closed_form_spectrum(s: Scenario, mode: str, k: int, n: int) -> ClosedFormSpectrum:
    """The analytic spectrum on the angle grid, phased at bin k of an n-point DFT."""
    angles = s.grid.angles_rad()
    return ClosedFormSpectrum(angles_rad=angles,
                              magnitude=spectrum_magnitude(s, angles, mode),
                              phase_rad=closed_form_phase(s, k, n),
                              mode=mode)


def closed_form_phase(s: Scenario, k: int, n: int) -> float:
    """Phase at alpha = 0 at bin k of the n-point range DFT, mod 2*pi.

    Element 0's row A*exp(j*2*pi*(c0 + f0*t_n)) (scenario.beat_tones)
    sums at bin k to A*exp(j*2*pi*[c0 + (Ns-1)*x0/2]) times a kernel positive
    within a bin of the tone, x0 = f0*T/Ns - k/n.  Summing the elements adds
    (dtx*(Ntx-1)*sin(theta_rx) + drx*(Nrx-1)*sin(theta_tx))/(2*lambda) cycles
    at fc, not at bin_phase_frequency_scale*fc (1.1e-3 rad on the example).
    """
    c, a, r = s.chirp, s.array, s.rts
    lam = s.wavelength_m
    fbeat, const = beat_tones(s)
    x0 = float(fbeat[0, 0]) * c.t_s / c.ns - k / n
    cycles = (float(const[0, 0]) + (c.ns - 1) * x0 / 2.0
              + a.dtx_m / (2.0 * lam) * (a.ntx - 1) * math.sin(r.theta_rx_rad)
              + a.drx_m / (2.0 * lam) * (a.nrx - 1) * math.sin(r.theta_tx_rad))
    return 2.0 * math.pi * (cycles % 1.0)


def predicted_peak(s: Scenario, mode: str) -> float:
    """Analytic detected angle: argmax of the closed-form magnitude on
    the FINE_STEP_DEG grid with parabolic refinement in sin(alpha).

    Expanding each kernel to second order about its center puts the peak
    at the curvature-weighted centroid
    sin(alpha) ~ (w_tx*sin(theta_rx) + w_rx*sin(theta_tx)) / (w_tx + w_rx),
    with w = (N^2-1)*d^2 for an array of N elements at spacing d in
    dirichlet mode and N^2*d^2 in sinc mode.  The centroid is only second
    order: on the example's 2x4 board, sweeping the transmitter to
    d = 1 / 3.5 / 5 cm, it misses this argmax by 9.1e-6 / 3.9e-4 /
    1.1e-3 deg (dirichlet) and 1.2e-5 / 5.0e-4 / 1.5e-3 deg (sinc), so the
    numerical argmax is kept.

    The argmax is found coarse to fine and gives the same float as a
    search over every fine point (beamformer._coarse_to_fine holds the
    proof).  The magnitude is |g(sin alpha)|, where g is real, bounded by
    gain = A*Ns*Ntx*Nrx and of exponential type pi*W/lambda.  A kernel of
    N elements at spacing d has type pi*(N-1)*d/lambda in dirichlet mode
    and pi*N*d/lambda in sinc mode, so W is RadarArrayConfig.aperture_m
    in dirichlet mode and Ntx*dtx + Nrx*drx in sinc mode.
    """
    a = s.array
    gain = s.rts.amplitude * s.chirp.ns * a.ntx * a.nrx
    width = a.aperture_m if mode == "dirichlet" else a.ntx * a.dtx_m + a.nrx * a.drx_m
    band = math.pi * width / s.wavelength_m
    return _coarse_to_fine(replace(s.grid, step_rad=math.radians(FINE_STEP_DEG)),
                           lambda angles: spectrum_magnitude(s, angles, mode),
                           gain, band)[1]


def peak_separation_db(s: Scenario) -> float:
    """Amplitude gap in dB between the two strongest local maxima of the
    dirichlet spectrum.

    A small gap means the global peak is ambiguous (grating lobes of a
    wide-spaced array competing with the main lobe).  Returns +inf when
    the spectrum has fewer than two local maxima.
    """
    angles = replace(s.grid, step_rad=math.radians(SEPARATION_STEP_DEG)).angles_rad()
    mag = spectrum_magnitude(s, angles, "dirichlet")
    interior = np.where((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    peaks = sorted(mag[interior], reverse=True)
    if len(peaks) < 2 or peaks[1] <= 0:
        return math.inf
    return 20.0 * math.log10(peaks[0] / peaks[1])


def write_closed_form_csv(cf: ClosedFormSpectrum, path) -> None:
    """Dump spectrum: columns alpha_deg, re, im, mag_db, mode."""
    v = cf.magnitude * complex(math.cos(cf.phase_rad), math.sin(cf.phase_rad))
    write_csv(path, {"alpha_deg": np.degrees(cf.angles_rad),
                     "re": v.real, "im": v.imag,
                     "mag_db": magnitude_db(cf.magnitude),
                     "mode": cf.mode})
