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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvio import write_csv
from .beamformer import _peak
from .propagation import C0
from .scenario import Scenario

MODES = ("sinc", "dirichlet")

# Step of the fine evaluation grid used for the analytic peak search [deg].
FINE_STEP_DEG = 0.001


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Real magnitude spectrum plus the scenario-level phase constant."""

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


def closed_form_spectrum(s: Scenario, mode: str = "sinc") -> ClosedFormSpectrum:
    """Evaluate the analytic spectrum on the scenario's angle grid."""
    angles = s.grid.angles_rad()
    return ClosedFormSpectrum(angles_rad=angles,
                              magnitude=spectrum_magnitude(s, angles, mode),
                              phase_rad=closed_form_phase(s),
                              mode=mode)


def closed_form_phase(s: Scenario) -> float:
    """Scenario-level spectrum phase constant, mod 2*pi.

    2*pi*[ (fc + B/2)*2*Rc/c0 + (f_rts + B/2)*tau_rts
           + dtx/(2*lambda)*(Ntx-1)*sin(theta_rx)
           + drx/(2*lambda)*(Nrx-1)*sin(theta_tx) ]
    """
    c, a, r = s.chirp, s.array, s.rts
    lam = s.wavelength_m
    cycles = ((c.fc_hz + c.b_hz / 2.0) * 2.0 * r.rc_m / C0
              + (r.f_rts_hz + c.b_hz / 2.0) * r.tau_rts_s
              + a.dtx_m / (2.0 * lam) * (a.ntx - 1) * math.sin(r.theta_rx_rad)
              + a.drx_m / (2.0 * lam) * (a.nrx - 1) * math.sin(r.theta_tx_rad))
    return 2.0 * math.pi * (cycles % 1.0)


def predicted_peak(s: Scenario, mode: str) -> float:
    """Analytic detected angle: fine-grid argmax of the closed-form
    magnitude with parabolic refinement in sin(alpha).

    For small antenna displacements this tracks the curvature-weighted
    centroid of the two kernel centers; the numerical argmax is used
    because no closed-form peak location exists.
    """
    angles = replace(s.grid, step_rad=math.radians(FINE_STEP_DEG)).angles_rad()
    return _peak(angles, spectrum_magnitude(s, angles, mode))[1]


def peak_separation_db(s: Scenario, mode: str = "dirichlet",
                       step_deg: float = 0.01) -> float:
    """Amplitude gap in dB between the two strongest local maxima.

    A small gap means the global peak is ambiguous (grating lobes of a
    wide-spaced array competing with the main lobe).  Returns +inf when
    the spectrum has fewer than two local maxima.
    """
    angles = replace(s.grid, step_rad=math.radians(step_deg)).angles_rad()
    mag = spectrum_magnitude(s, angles, mode)
    interior = np.where((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    peaks = sorted(mag[interior], reverse=True)
    if len(peaks) < 2 or peaks[1] <= 0:
        return math.inf
    return 20.0 * math.log10(peaks[0] / peaks[1])


# Flag threshold for grating-lobe risk [dB amplitude gap].  Chosen with
# margin: a 2-element 2-lambda TX array against a 4-element half-lambda RX
# array already drops to a ~5 dB gap at 40 deg transmitter offset.
AMBIGUITY_GAP_DB = 6.0


def ambiguous_peak(s: Scenario, mode: str = "dirichlet") -> bool:
    """True when the top two closed-form peaks are within AMBIGUITY_GAP_DB."""
    return peak_separation_db(s, mode) < AMBIGUITY_GAP_DB


def write_closed_form_csv(cf: ClosedFormSpectrum, path) -> None:
    """Dump spectrum: columns alpha_deg, re, im, mag_db, mode."""
    v = cf.magnitude * complex(math.cos(cf.phase_rad), math.sin(cf.phase_rad))
    mag = np.maximum(cf.magnitude, 1e-30)
    write_csv(path, {"alpha_deg": np.degrees(cf.angles_rad),
                     "re": v.real, "im": v.imag,
                     "mag_db": [20.0 * math.log10(m) for m in mag.tolist()],
                     "mode": [cf.mode] * cf.angles_rad.size})
