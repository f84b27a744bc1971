import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qmrts import (C0, ConfigError, ValidationError, emit_scenario,
                   load_scenario, rts_displacement, with_theta_tx)
from qmrts.cli import main
from conftest import build_scenario


def test_baseline_loads_and_resolves(baseline_cfg):
    s = load_scenario(baseline_cfg)
    lam = C0 / 77e9
    assert s.chirp.fc_hz == 77e9
    assert s.chirp.ns == 1024
    assert s.array.dtx_m == pytest.approx(2 * lam, rel=1e-15)
    assert s.array.drx_m == pytest.approx(0.5 * lam, rel=1e-15)
    assert s.rts.f_rts_hz == 500e6
    assert s.rts.theta_tx_rad == pytest.approx(math.radians(2.0), rel=1e-15)
    assert s.sample_rate_hz == pytest.approx(1024 / 100e-6)
    assert s.grid.n_points == 18001


def test_defaults_when_keys_omitted():
    s = load_scenario("""
[chirp]
fc_hz = 77e9
b_hz = 1e9

[array]
ntx = 2
nrx = 4
dtx_lambda = 2.0
drx_lambda = 0.5

[rts]
rc_m = 1.0
""")
    assert s.chirp.ns == 1024
    assert s.chirp.t_s == 100e-6
    assert s.rts.tau_rts_s == 0.0
    assert s.rts.amplitude == 1.0
    assert s.grid.n_points == 18001


def test_spacing_in_meters_accepted(baseline_cfg):
    text = baseline_cfg.replace("dtx_lambda = 2.0", "dtx_m = 0.0077868")
    s = load_scenario(text)
    assert s.array.dtx_m == 0.0077868


def test_ns_lower_bound_named(baseline_cfg):
    text = baseline_cfg.replace("ns = 1024", "ns = 1")
    with pytest.raises(ValidationError, match="ns must be >= 2"):
        load_scenario(text)


def test_theta_range_named(baseline_cfg):
    text = baseline_cfg.replace("theta_tx_deg = 2.0", "theta_tx_deg = 100")
    with pytest.raises(ValidationError, match=r"theta_tx_deg out of \[-90, 90\]"):
        load_scenario(text)


def test_missing_required_key_named(baseline_cfg):
    text = baseline_cfg.replace("fc_hz = 77e9\n", "")
    with pytest.raises(ConfigError, match="fc_hz"):
        load_scenario(text)


def test_unknown_key_rejected(baseline_cfg):
    with pytest.raises(ConfigError, match="bogus"):
        load_scenario(baseline_cfg + "bogus = 1\n")


def test_unknown_section_rejected(baseline_cfg):
    with pytest.raises(ConfigError, match=r"\[doppler\]"):
        load_scenario(baseline_cfg + "\n[doppler]\nshift_hz = 1\n")


def test_spacing_exactly_one_form(baseline_cfg):
    both = baseline_cfg.replace("dtx_lambda = 2.0",
                                "dtx_lambda = 2.0\ndtx_m = 0.008")
    with pytest.raises(ConfigError, match="dtx"):
        load_scenario(both)
    neither = baseline_cfg.replace("dtx_lambda = 2.0\n", "")
    with pytest.raises(ConfigError, match="dtx"):
        load_scenario(neither)


def test_malformed_value_rejected(baseline_cfg):
    with pytest.raises(ConfigError, match="rc_m"):
        load_scenario(baseline_cfg.replace("rc_m = 1.0", "rc_m = one"))


def test_nyquist_guard():
    # tau_rts = 1 us at the default ADC gives a 10 MHz beat vs fs/2 ~ 5 MHz
    with pytest.raises(ValidationError, match="sample rate"):
        build_scenario(tau_rts_s=1e-6)


def test_far_field_violation_is_warning_not_error():
    s = build_scenario(rc_m=0.05)
    warnings = s.validate()
    assert len(warnings) == 1
    assert "far-field" in warnings[0]
    assert build_scenario(rc_m=1.0).validate() == []


def test_displacement_coincident_is_zero():
    assert rts_displacement(build_scenario()) == 0.0
    s = build_scenario(theta_rx_deg=17.0, theta_tx_deg=17.0)
    assert rts_displacement(s) == 0.0


def test_displacement_hand_value():
    s = build_scenario(theta_tx_deg=1.0)
    # Rc * sin(1 deg)
    assert rts_displacement(s) == pytest.approx(0.0174524064, abs=1e-8)


def test_displacement_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = rng.uniform(-60, 60, 2)
        s1 = build_scenario(theta_rx_deg=a, theta_tx_deg=b)
        s2 = build_scenario(theta_rx_deg=b, theta_tx_deg=a)
        assert rts_displacement(s1) == -rts_displacement(s2)


def test_emit_round_trips_field_identical(baseline_cfg):
    s = load_scenario(baseline_cfg)
    assert load_scenario(emit_scenario(s)) == s


def test_emit_round_trip_fuzzed():
    rng = np.random.default_rng(11)
    for _ in range(50):
        text = f"""
[chirp]
fc_hz = {rng.uniform(10e9, 100e9)!r}
b_hz = {rng.uniform(1e8, 2e9)!r}
ns = {int(rng.integers(512, 4097))}

[array]
ntx = {int(rng.integers(1, 5))}
nrx = {int(rng.integers(1, 5))}
dtx_lambda = {rng.uniform(0.3, 3.0)!r}
drx_lambda = {rng.uniform(0.3, 3.0)!r}

[rts]
rc_m = {rng.uniform(0.5, 3.0)!r}
theta_rx_deg = {rng.uniform(-89, 89)!r}
theta_tx_deg = {rng.uniform(-89, 89)!r}
tau_rts_s = {rng.uniform(0, 5e-8)!r}
f_rts_hz = {rng.uniform(0, 1e9)!r}
amplitude = {rng.uniform(0.1, 10)!r}
"""
        s = load_scenario(text)
        assert load_scenario(emit_scenario(s)) == s


def test_inline_comments_tolerated(baseline_cfg):
    s = load_scenario(baseline_cfg.replace("rc_m = 1.0",
                                           "rc_m = 1.0  # nominal arc"))
    assert s.rts.rc_m == 1.0


def test_grid_validation():
    with pytest.raises(ValidationError, match="angle_step_deg"):
        build_scenario(grid_step_deg=-0.01)
    s = build_scenario()
    bad = replace(s, grid=replace(s.grid, min_rad=1.0, max_rad=0.5))
    with pytest.raises(ValidationError, match="angle_min_deg"):
        bad.validate()


FLOAT_KEYS = ("fc_hz", "b_hz", "t_s", "dtx_lambda", "drx_lambda", "rc_m",
              "theta_rx_deg", "theta_tx_deg", "tau_rts_s", "f_rts_hz",
              "amplitude", "angle_min_deg", "angle_max_deg", "angle_step_deg")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(baseline_cfg, tmp_path, capsys, key, value):
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", baseline_cfg,
                         flags=re.M)
    assert hits == 1
    name = key.removesuffix("_lambda")
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        load_scenario(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["compare", str(path)]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_extra_return_path_rejected(boresight, value):
    with pytest.raises(ValidationError, match="extra_return_path_m must be finite"):
        with_theta_tx(boresight, 0.0, value).validate()


def test_grid_step_must_divide_span(baseline_cfg):
    text = baseline_cfg.replace("angle_step_deg = 0.01", "angle_step_deg = 0.07")
    with pytest.raises(ValidationError, match="angle_step_deg"):
        load_scenario(text)


@pytest.mark.parametrize("step", [0.01, 0.002, 0.005, 0.05, 1.0])
def test_grid_steps_in_use_divide_span(step):
    assert build_scenario(grid_step_deg=step).grid.n_points == round(180 / step) + 1


def test_max_delay_and_beat(boresight):
    assert boresight.max_total_delay_s() == pytest.approx(2 / C0, rel=1e-12)
    assert boresight.max_beat_frequency_hz() == pytest.approx(66712.819, rel=1e-6)
