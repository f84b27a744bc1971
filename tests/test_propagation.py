import math
from dataclasses import replace

import numpy as np
import pytest

from qmrts.propagation import C0, element_delays, far_field_distance
from conftest import build_scenario


def test_zero_index_reduces_to_arc_radius(boresight):
    tau_tx, tau_rx = element_delays(boresight)
    assert tau_tx[0, 0] == 1.0 / C0
    assert tau_rx[0, 0] == 1.0 / C0
    assert tau_tx[0, 0] == pytest.approx(3.3356409519815204e-9, abs=1e-18)
    assert tau_tx[0, 0] + tau_rx[0, 0] == pytest.approx(2.0 / C0, rel=1e-15)


def test_outbound_delay_hand_value():
    # 77 GHz, dtx = 2*lambda, ntx = 1, theta_rx = 10 deg, Rc = 1 m:
    # (1 + 0.0077868 * sin(10 deg)) / c0
    s = build_scenario(theta_rx_deg=10.0)
    tau_tx, _ = element_delays(s)
    assert tau_tx[1, 0] == pytest.approx(3.340151294258584e-9, abs=1e-18)


def test_shapes_broadcast_to_virtual_array(baseline):
    tau_tx, tau_rx = element_delays(baseline)
    assert tau_tx.shape == (2, 1)
    assert tau_rx.shape == (1, 4)
    assert (tau_tx + tau_rx).shape == (2, 4)


@pytest.mark.parametrize("theta_rx_deg, theta_tx_deg, extra",
                         [(0.0, 2.0, 0.0), (-37.0, 11.5, 0.0), (7.0, -3.0, 2e-3)])
def test_matches_scalar_formula_bit_for_bit(theta_rx_deg, theta_tx_deg, extra):
    # Reference: the per-element formula of the docstring, in Python floats.
    s = build_scenario(theta_rx_deg=theta_rx_deg, ntx=3, nrx=5)
    s = replace(s, rts=replace(s.rts, theta_tx_rad=math.radians(theta_tx_deg),
                               extra_return_path_m=extra))
    a, r = s.array, s.rts
    tau_tx, tau_rx = element_delays(s)
    for i in range(a.ntx):
        assert tau_tx[i, 0] == (r.rc_m + a.dtx_m * i * math.sin(r.theta_rx_rad)) / C0
    for j in range(a.nrx):
        assert tau_rx[0, j] == (r.rc_m + r.extra_return_path_m
                                + a.drx_m * j * math.sin(r.theta_tx_rad)) / C0


def test_boresight_kills_index_dependence(boresight):
    tau_tx, tau_rx = element_delays(boresight)
    assert np.all(tau_tx == tau_tx[0, 0])
    assert np.all(tau_rx == tau_rx[0, 0])


def test_cross_coupling_of_angles():
    # Outbound leg is phased by the RTS receiver angle, return leg by the
    # transmitter angle.
    s = build_scenario(theta_rx_deg=10.0, theta_tx_deg=0.0)
    tau_tx, tau_rx = element_delays(s)
    assert tau_tx[1, 0] > tau_tx[0, 0]
    assert tau_rx[0, 3] == tau_rx[0, 0]


def test_affine_in_indices():
    s = build_scenario(theta_rx_deg=7.0, theta_tx_deg=-3.0, ntx=4, nrx=4)
    step_tx = s.array.dtx_m * math.sin(s.rts.theta_rx_rad) / C0
    step_rx = s.array.drx_m * math.sin(s.rts.theta_tx_rad) / C0
    tau_tx, tau_rx = element_delays(s)
    assert np.diff(tau_tx[:, 0]) == pytest.approx([step_tx] * 3, rel=1e-9)
    assert np.diff(tau_rx[0, :]) == pytest.approx([step_rx] * 3, rel=1e-9)


def test_total_delay_monotonic_in_indices():
    pos = build_scenario(theta_rx_deg=5.0, theta_tx_deg=5.0, ntx=4, nrx=4)
    neg = build_scenario(theta_rx_deg=-5.0, theta_tx_deg=-5.0, ntx=4, nrx=4)
    for s, sign in ((pos, 1.0), (neg, -1.0)):
        tau_tx, tau_rx = element_delays(s)
        tau = tau_tx + tau_rx + s.rts.tau_rts_s
        assert np.all(sign * np.diff(tau, axis=0) > 0)
        assert np.all(sign * np.diff(tau, axis=1) > 0)


def test_rts_delay_enters_total_only():
    s = build_scenario(tau_rts_s=5e-8)
    tau_tx, tau_rx = element_delays(s)
    ref_tx, ref_rx = element_delays(build_scenario())
    assert np.array_equal(tau_tx, ref_tx) and np.array_equal(tau_rx, ref_rx)
    assert s.max_total_delay_s() == tau_tx.max() + tau_rx.max() + 5e-8


def test_far_field_reference_aperture(boresight):
    # D = 2*lambda + 1.5*lambda = 3.5*lambda -> 2*D^2/lambda = 24.5*lambda
    assert far_field_distance(boresight) == pytest.approx(0.09538850936363637,
                                                          abs=1e-12)
    assert far_field_distance(boresight) < boresight.rts.rc_m


def test_far_field_point_aperture():
    assert far_field_distance(build_scenario(ntx=1, nrx=1)) == 0.0


def test_far_field_quadratic_in_aperture():
    base = build_scenario()
    doubled = build_scenario(dtx_lambda=4.0, drx_lambda=1.0)
    assert far_field_distance(doubled) == pytest.approx(
        4.0 * far_field_distance(base), rel=1e-12)
