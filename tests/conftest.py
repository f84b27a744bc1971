import math

import numpy as np
import pytest

from qmrts import (AngleGrid, ChirpConfig, RadarArrayConfig, RtsChannelConfig,
                   Scenario)
from qmrts.propagation import element_delays

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


def expected_bin_phase(s: Scenario, ntx: int, nrx: int, f_r: float,
                       include_rvp: bool = True) -> float:
    """Analytical detected-bin phase, mod 2*pi: the phase-contract oracle.

    2*pi*[fc*tau_c + f_rts*tau_rts + (B*tau - f_R)/2], exact when B*tau
    falls on bin f_R.  With include_rvp the retained residual video term
    -(B/(2T))*tau^2 is added, matching the synthesized chain to machine
    precision for on-bin scenarios; without it the formula is the idealized
    prediction (the two differ by 2*pi*(B/(2T))*tau^2 radians).
    """
    c, r = s.chirp, s.rts
    # Explicit, because a negative index would silently wrap.
    for name, i, n in (("ntx", ntx, s.array.ntx), ("nrx", nrx, s.array.nrx)):
        if not 0 <= i < n:
            raise IndexError(f"{name} index {i} out of range [0, {n})")
    tau_tx, tau_rx = element_delays(s)
    tau_c = float(tau_tx[ntx, 0] + tau_rx[0, nrx])
    tau = tau_c + r.tau_rts_s
    cycles = c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s + 0.5 * (c.b_hz * tau - f_r)
    if include_rvp:
        cycles -= (c.b_hz / (2.0 * c.t_s)) * tau**2
    return 2.0 * math.pi * (cycles % 1.0)


def reference_beat(s: Scenario) -> np.ndarray:
    """The beat cube (Ntx, Nrx, Ns) as one expression with full-size
    temporaries: the oracle that range_spectrum's synthesis must match bit
    for bit."""
    c, r = s.chirp, s.rts
    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx + tau_rx
    tau = tau_c + r.tau_rts_s
    slope = c.b_hz / c.t_s
    fbeat = slope * tau
    t = np.arange(c.ns) * (c.t_s / c.ns)
    const = c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s - (slope / 2.0) * tau**2
    return r.amplitude * np.exp(1j * (2.0 * np.pi * (const[:, :, None]
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
