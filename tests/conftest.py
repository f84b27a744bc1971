import math

import numpy as np
import pytest

from qmrts import (AngleGrid, ChirpConfig, RadarArrayConfig, RtsChannelConfig,
                   Scenario)
from qmrts.propagation import element_delays
from qmrts.scenario import beat_tones

EPS = np.finfo(float).eps

BASELINE_CFG = """\
[chirp]
fc_hz = 77e9
b_hz = 1e9
t_s = 100e-6
ns = 1024

[array]
ntx = 2
nrx = 4
dtx_lambda = 2.0
drx_lambda = 0.5

[rts]
rc_m = 1.0
theta_rx_deg = 0.0
theta_tx_deg = 2.0
tau_rts_s = 0.0
f_rts_hz = 500e6
amplitude = 1.0

[grid]
angle_min_deg = -90
angle_max_deg = 90
angle_step_deg = 0.01
"""


def build_scenario(ntx=2, nrx=4, dtx_lambda=2.0, drx_lambda=0.5,
                   theta_rx_deg=0.0, theta_tx_deg=0.0, fc_hz=77e9, b_hz=1e9,
                   t_s=100e-6, ns=1024, rc_m=1.0, tau_rts_s=0.0,
                   f_rts_hz=500e6, amplitude=1.0, grid_step_deg=0.01,
                   grid_span_deg=90.0) -> Scenario:
    """Programmatic scenario builder mirroring the 77 GHz 2x4 board setup."""
    chirp = ChirpConfig(fc_hz=fc_hz, b_hz=b_hz, t_s=t_s, ns=ns)
    lam = chirp.wavelength_m
    s = Scenario(
        chirp=chirp,
        array=RadarArrayConfig(ntx=ntx, nrx=nrx, dtx_m=dtx_lambda * lam,
                               drx_m=drx_lambda * lam),
        rts=RtsChannelConfig(rc_m=rc_m,
                             theta_rx_rad=math.radians(theta_rx_deg),
                             theta_tx_rad=math.radians(theta_tx_deg),
                             tau_rts_s=tau_rts_s, f_rts_hz=f_rts_hz,
                             amplitude=amplitude),
        grid=AngleGrid.from_degrees(-grid_span_deg, grid_span_deg,
                                    grid_step_deg),
    )
    s.validate()
    return s


def on_bin_tau_rts(s: Scenario, k: int) -> float:
    """RTS delay that puts the boresight beat tone exactly on bin k."""
    tau_rts = k / s.chirp.b_hz - 2.0 * s.rts.rc_m / 299_792_458.0
    if tau_rts < 0:
        raise ValueError(f"bin {k} not reachable with rc_m={s.rts.rc_m}")
    return tau_rts


def phase_constants(s: Scenario) -> np.ndarray:
    """Each element's beat phase constant (Ntx, Nrx) [cycles]:
    fc*tau_c + f_rts*tau_rts - (B/(2T))*tau^2, the last the residual video
    term, with tau_c the free-space round trip and tau = tau_c + tau_rts,
    built from the element delays, not from scenario.beat_tones."""
    c, r = s.chirp, s.rts
    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx + tau_rx
    tau = tau_c + r.tau_rts_s
    return (c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s
            - (c.b_hz / (2.0 * c.t_s)) * tau**2)


def tone_values(s: Scenario, k, zero_pad: int = 1) -> np.ndarray:
    """The range DFT of every element's beat row at bin k, in closed form.

    Element e's row is A*exp(j*2*pi*(c + f*t_n)), t_n = n*T/Ns, with f its
    beat frequency (scenario.beat_tones) and c its phase constant
    fc*tau_c + f_rts*tau_rts - (B/(2T))*tau^2.  Its DFT of N = Ns*zero_pad
    points at bin k is a geometric sum:

        X_k = A*exp(j*2*pi*[c + (Ns-1)*x/2]) * sin(pi*Ns*x)/sin(pi*x),

    x = f*T/Ns - k/N cycles per sample, and Ns where x = 0.  The kernel
    has period 1 in x, so x is taken in [-1/2, 1/2].  k is a bin or a 1-D
    array of bins; the result is (Ntx, Nrx), or (Ntx, Nrx, len(k)).
    Shares no code with numpy's FFT or the chain's row loop.
    """
    ns, n = s.chirp.ns, s.chirp.ns * zero_pad
    const = phase_constants(s)[..., None]
    x = beat_tones(s)[0][..., None] * s.chirp.t_s / ns - np.asarray(k) / n
    x -= np.round(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(x == 0, ns, np.sin(np.pi * ns * x) / np.sin(np.pi * x))
    out = s.rts.amplitude * np.exp(2j * np.pi * (const + (ns - 1) * x / 2)) * kernel
    return out if np.ndim(k) else out[..., 0]


def tone_tolerance(s: Scenario, zero_pad: int = 1) -> float:
    """Bound on |range DFT value - tone_values| / (A*Ns), derived, not fitted.

    Phi = 2*pi*(max|c| + max f*T) + pi*Ns bounds every phase argument
    either side evaluates: the chain's 2*pi*(c + f*t_n), the oracle's
    2*pi*(c + (Ns-1)*x/2) and pi*Ns*x.  Both sides compute c from the same
    floats in the same order, so c itself adds nothing.  Counting roundings:
    - the chain's phase is off by at most 5*eps*Phi per sample (t_n, f*t_n,
      the sum and the 2*pi product), its exp and amplitude by 4*eps; the
      DFT of that perturbation is at most Ns times it;
    - the oracle's x is off by eps*(2*f*T/Ns + 2), which moves the sum by at
      most pi*(Ns-1) times that, under 2*eps*Phi; its phase products add
      3*eps*Phi, and its sines, quotient, exp and products 14*eps;
    - the FFT of N points adds at most 7*eps*log2(N) of the spectrum's
      2-norm (Higham, Accuracy and Stability of Numerical Algorithms,
      sec. 24.1), which is sqrt(zero_pad)*A*Ns per bin.
    The sum, to first order in eps, is
    eps*(10*Phi + 7*log2(N)*sqrt(zero_pad) + 18).  phase_tolerance turns
    it into a bound on the phase error.
    """
    c = s.chirp
    f_t = beat_tones(s)[0] * c.t_s
    phi = (2 * math.pi * (np.max(np.abs(phase_constants(s))) + np.max(f_t))
           + math.pi * c.ns)
    n = c.ns * zero_pad
    return EPS * (10 * phi + 7 * math.log2(n) * math.sqrt(zero_pad) + 18)


def phase_tolerance(s: Scenario, k) -> np.ndarray:
    """Bound on the phase error [rad] of every element's range DFT value
    at bin k (zero_pad 1), (Ntx, Nrx): an error of tone_tolerance*A*Ns
    turns a value of size |X| by at most that over |X|, which is
    tone_tolerance itself only on-bin, where |X| = A*Ns."""
    scale = s.rts.amplitude * s.chirp.ns
    return tone_tolerance(s) * scale / np.abs(tone_values(s, k))


def peak_phase_tolerance(s: Scenario, a, zero_pad: int = 1) -> float:
    """Bound [rad] on |phase of a's peak value - closed_form_phase(s, k, n)|
    for a = beamform of the chain at its detected bin k of a boresight board
    (theta_rx = theta_tx = 0), derived, not fitted.

    At boresight every element's delays are element 0's, so the exact
    steering sum at the peak angle alpha is X0*K_tx*K_rx*exp(-j*pi*D*u/lambda),
    u = sin(alpha), D the aperture, with kernels K positive near u = 0.  Its
    phase is closed_form_phase less pi*D*|u|/lambda.  The computed value V
    misses it by:
    - the M element values' errors, each at most tone_tolerance*A*Ns (the
      error phase_tolerance is made from), so M times that over |V| in
      phase.  This also holds closed_form_phase's own rounding: its x0 is
      the oracle's, bit for bit, and its phase 2*pi*frac(c0 + (Ns-1)*x0/2)
      is rounded less than the oracle's;
    - _steer's rounding: each steering phase theta = 2*pi*pos*u/lambda is
      off by at most 8*eps*|theta| (2 from pos, 1 each from pi, u and
      lambda, 3 from the products and the quotient), its exp by 2*eps, the
      product with v_e by 2*eps of |v_e|, and the M - 1 additions after
      the first by eps*sum|v_e| each.
    To first order in eps the bound is
    [M*tone_tolerance*A*Ns + eps*(M + 3 + 8*Theta)*sum|v_e|]/|V| + pi*D*|u|/lambda,
    Theta = 2*pi*D*|u|/lambda the largest steering phase.
    """
    assert s.rts.theta_rx_rad == s.rts.theta_tx_rad == 0.0
    v, peak = a.element_values, a.values[a.peak_index]
    u = abs(math.sin(a.angles_rad[a.peak_index]))
    half = math.pi * s.array.aperture_m * u / s.wavelength_m
    elements = v.size * tone_tolerance(s, zero_pad) * s.rts.amplitude * s.chirp.ns
    steer = EPS * (v.size + 3 + 16 * half) * np.sum(np.abs(v))
    return float((elements + steer) / abs(peak) + half)


def reference_beat(s: Scenario) -> np.ndarray:
    """The beat cube (Ntx, Nrx, Ns) as one expression with full-size
    temporaries: the oracle that range_spectrum's synthesis must match bit
    for bit."""
    c = s.chirp
    fbeat, const = beat_tones(s)[0], phase_constants(s)
    t = np.arange(c.ns) * (c.t_s / c.ns)
    return s.rts.amplitude * np.exp(1j * (2.0 * np.pi * (const[:, :, None]
                                                         + fbeat[:, :, None] * t[None, None, :])))


def wrap_phase(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return -((-x + math.pi) % (2.0 * math.pi) - math.pi)


@pytest.fixture(scope="session")
def baseline_cfg() -> str:
    return BASELINE_CFG


@pytest.fixture(scope="session")
def baseline() -> Scenario:
    """Reference 77 GHz 2x4 board with the transmitter offset to 2 deg."""
    return build_scenario(theta_tx_deg=2.0)


@pytest.fixture(scope="session")
def boresight() -> Scenario:
    return build_scenario()
