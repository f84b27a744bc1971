"""Per-element propagation delays for the quasi-monostatic geometry.

The radar transmit array is phased by the direction of the RTS *receive*
antenna (outbound leg) and the radar receive array by the RTS *transmit*
antenna (return leg); the two angles cross-couple deliberately.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import Scenario

# Speed of light, exact SI value [m/s].
C0 = 299_792_458.0


def element_delays(s: "Scenario") -> tuple[np.ndarray, np.ndarray]:
    """One-way delays of every TX element (Ntx, 1) and RX element (1, Nrx).

    tau_tx[i] = (Rc + dtx*i*sin(theta_rx)) / c0
    tau_rx[j] = (Rc + extra + drx*j*sin(theta_tx)) / c0

    They broadcast to the virtual array: the free-space round trip of
    element (i, j) is tau_tx + tau_rx, and the total delay adds the RTS
    internal delay tau_rts_s (scenario.beat_tones).
    """
    a, r = s.array, s.rts
    tau_tx = (r.rc_m + a.tx_positions_m()[:, None] * math.sin(r.theta_rx_rad)) / C0
    tau_rx = (r.rc_m + r.extra_return_path_m
              + a.rx_positions_m()[None, :] * math.sin(r.theta_tx_rad)) / C0
    return tau_tx, tau_rx


def far_field_distance(s: "Scenario") -> float:
    """Fraunhofer distance 2*D^2/lambda of the virtual array [m].

    D is the virtual aperture RadarArrayConfig.aperture_m.  Compare
    against rc_m; plane-wave element phases are valid beyond this range.
    """
    d = s.array.aperture_m
    return 2.0 * d * d / s.wavelength_m
