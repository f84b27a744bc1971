import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmrts import (AngleGrid, ChirpConfig, ConfigError, RadarArrayConfig,
                   RtsChannelConfig, Scenario, ValidationError, load_scenario,
                   load_scenario_file, load_sweep_spec_file, rts_displacement)
from qmrts.experiment import load_sweep_spec
from qmrts.scenario import (_SCHEMA, REQUIRED, beat_tones, parse_config,
                            scenario_from_config)
from qmrts.propagation import C0
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


def test_readme_config_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    load_sweep_spec(block)
    shown = set()
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
            continue
        key, _, value = line.split("#")[0].partition("=")
        if not value:
            continue
        key = key.strip()
        conv, default, *rule = _SCHEMA[section][key]
        note = re.search(r"\(default (\S+)\)", line)
        if note:
            assert conv(note.group(1)) == default, line
        elif section in ("grid", "sweep"):  # these show only defaults
            assert conv(value.strip()) == default, line
        else:
            assert default is REQUIRED or default is None, f"no default noted: {line}"
        # A key with a bound shows it, as the bound's own text; others show none.
        # A *_deg key's bound is shown in degrees.
        marks = re.findall(r"\(>=? [\d.]+\)|\[-90, 90\]|\(finite\)", line)
        if rule:
            bound = rule[1]
            if isinstance(bound, tuple) and key.endswith("_deg"):
                bound = (bound[0], math.degrees(bound[1]))
            assert marks == ["(finite)" if bound is None else "[-90, 90]" if bound == "deg"
                             else "({} {})".format(*bound)], line
        else:
            assert marks == [], line
        shown.add((section, key))
    for section, keys in _SCHEMA.items():
        for key, (_, default, *_) in keys.items():
            if default is not REQUIRED and default is not None:
                assert (section, key) in shown, f"[{section}] {key} not in README"


def test_spacing_in_meters_accepted(baseline_cfg):
    text = baseline_cfg.replace("dtx_lambda = 2.0", "dtx_m = 0.0077868")
    s = load_scenario(text)
    assert s.array.dtx_m == 0.0077868


def test_ns_lower_bound_named(baseline_cfg):
    text = baseline_cfg.replace("ns = 1024", "ns = 1")
    with pytest.raises(ValidationError, match="ns must be >= 2"):
        load_scenario(text)


BOUND_MESSAGES = [   # (line of BASELINE_CFG, its violating form, whole message)
    ("fc_hz = 77e9", "fc_hz = 0", "fc_hz must be > 0 (got 0.0)"),
    ("b_hz = 1e9", "b_hz = 0", "b_hz must be > 0 (got 0.0)"),
    ("t_s = 100e-6", "t_s = 0", "t_s must be > 0 (got 0.0)"),
    ("ns = 1024", "ns = 1", "ns must be >= 2 (got 1)"),
    ("ntx = 2", "ntx = 0", "ntx must be >= 1 (got 0)"),
    ("nrx = 4", "nrx = 0", "nrx must be >= 1 (got 0)"),
    ("dtx_lambda = 2.0", "dtx_lambda = 0", "dtx must be > 0 (got 0.0)"),
    ("dtx_lambda = 2.0", "dtx_m = 0", "dtx must be > 0 (got 0.0)"),
    ("drx_lambda = 0.5", "drx_lambda = -1",
     "drx must be > 0 (got -0.0038934085454545454)"),
    ("rc_m = 1.0", "rc_m = 0", "rc_m must be > 0 (got 0.0)"),
    ("theta_rx_deg = 0.0", "theta_rx_deg = 91",
     "theta_rx_deg out of [-90, 90] (got 91.0)"),
    ("theta_tx_deg = 2.0", "theta_tx_deg = -90.5",
     "theta_tx_deg out of [-90, 90] (got -90.5)"),
    ("tau_rts_s = 0.0", "tau_rts_s = -1e-9", "tau_rts_s must be >= 0 (got -1e-09)"),
    ("f_rts_hz = 500e6", "f_rts_hz = -1", "f_rts_hz must be >= 0 (got -1.0)"),
    ("amplitude = 1.0", "amplitude = 0", "amplitude must be > 0 (got 0.0)"),
    ("angle_min_deg = -90", "angle_min_deg = -91", "angle_min_deg out of [-90, 90] (got -91.0)"),
    ("angle_max_deg = 90", "angle_max_deg = 90.5", "angle_max_deg out of [-90, 90] (got 90.5)"),
    ("angle_step_deg = 0.01", "angle_step_deg = 0", "angle_step_deg must be >= 0.001 (got 0.0)"),
    ("angle_step_deg = 0.01", "angle_step_deg = 0.0005",
     "angle_step_deg must be >= 0.001 (got 0.0005)"),
]


@pytest.mark.parametrize("old, new, message", BOUND_MESSAGES,
                         ids=[new.split(" = ")[0] for _, new, _ in BOUND_MESSAGES])
def test_bound_message_is_whole(baseline_cfg, old, new, message):
    assert old in baseline_cfg
    with pytest.raises(ValidationError) as exc:
        load_scenario(baseline_cfg.replace(old, new))
    assert str(exc.value) == message


SWEEP_BOUND_MESSAGES = [   # ([sweep] line, whole message)
    ("points = 1", "points must be >= 2 (got 1)"),
    ("d_max_m = -0.01", "d_max_m must be >= 0 (got -0.01)"),
    ("d_max_m = nan", "d_max_m must be finite (got nan)"),
    ("d_max_m = 1.0", "d_max_m must be < rc_m (got 1.0, rc_m=1.0)"),
]


@pytest.mark.parametrize("line, message", SWEEP_BOUND_MESSAGES,
                         ids=[line.replace(" = ", "=") for line, _ in SWEEP_BOUND_MESSAGES])
def test_sweep_bound_message_is_whole(baseline_cfg, line, message):
    with pytest.raises(ValidationError) as exc:
        load_sweep_spec(f"{baseline_cfg}\n[sweep]\n{line}\n")
    assert str(exc.value) == message


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


EVERY_KEY_CFG = """\
[chirp]
fc_hz = 24e9
b_hz = 2.5e8
t_s = 50e-6
ns = 512
[array]
ntx = 3
nrx = 5
{spacing}
[rts]
rc_m = 2.5
theta_rx_deg = -10.0
theta_tx_deg = 12.5
tau_rts_s = 1e-8
f_rts_hz = 3e8
amplitude = 0.5
[grid]
angle_min_deg = -60
angle_max_deg = 45
angle_step_deg = 0.05
"""
SPACINGS = {"lambda": "dtx_lambda = 1.5\ndrx_lambda = 0.75",
            "m": "dtx_m = 0.01\ndrx_m = 0.002"}


@pytest.mark.parametrize("form", SPACINGS)
def test_builder_fills_every_field_by_hand(form):
    sections = parse_config(EVERY_KEY_CFG.format(spacing=SPACINGS[form]))
    lam = C0 / 24e9
    dtx, drx = (1.5 * lam, 0.75 * lam) if form == "lambda" else (0.01, 0.002)
    expected = Scenario(
        ChirpConfig(fc_hz=24e9, b_hz=2.5e8, t_s=50e-6, ns=512),
        RadarArrayConfig(ntx=3, nrx=5, dtx_m=dtx, drx_m=drx),
        RtsChannelConfig(rc_m=2.5, theta_rx_rad=math.radians(-10.0),
                         theta_tx_rad=math.radians(12.5), tau_rts_s=1e-8,
                         f_rts_hz=3e8, amplitude=0.5, extra_return_path_m=0.0),
        AngleGrid(math.radians(-60.0), math.radians(45.0), math.radians(0.05)))
    built = scenario_from_config(sections)
    assert built == expected
    assert repr(built) == repr(expected)   # ints stay ints
    # Every key but the other spacing form is given, off its default.
    for section in ("chirp", "array", "rts", "grid"):
        for key, (_, default, *_) in _SCHEMA[section].items():
            if key.startswith(("dtx", "drx")) and not key.endswith("_" + form):
                assert key not in sections[section]
            else:
                assert sections[section][key] != default, key


def _drop(text, *keys):
    return re.sub(rf"^({'|'.join(keys)}) = .*\n", "", text, flags=re.M)


BUILD_ERRORS = [   # (config, exception, whole message): the first fault in build order
    (_drop(EVERY_KEY_CFG.format(spacing=SPACINGS["lambda"] + "\ndtx_m = 0.01"), "rc_m"),
     ConfigError, 'exactly one of "dtx_m" or "dtx_lambda" must be given in [array]'),
    (_drop(EVERY_KEY_CFG.format(spacing=SPACINGS["lambda"]), "rc_m").replace(
        "fc_hz = 24e9", "fc_hz = 0"), ValidationError, "fc_hz must be > 0 (got 0.0)"),
    (_drop(EVERY_KEY_CFG.format(spacing=SPACINGS["lambda"]), "fc_hz", "drx_lambda"),
     ConfigError, 'missing key "fc_hz" in [chirp]'),
    (EVERY_KEY_CFG.format(spacing=SPACINGS["lambda"]).replace("fc_hz = 24e9",
                                                              "fc_hz = 1e-320"),
     ValidationError, "fc_hz = 1e-320 is too small: the wavelength overflows"),
]


@pytest.mark.parametrize("text, error, message", BUILD_ERRORS,
                         ids=["both_dtx", "zero_fc", "no_fc", "tiny_fc"])
def test_builder_names_the_first_fault(text, error, message):
    with pytest.raises(error) as exc:
        scenario_from_config(parse_config(text))
    assert type(exc.value) is error
    assert str(exc.value) == message


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


# A 4x16 board 8 lambda apart at -90 deg: the TX array reaches 24 lambda
# (93 mm) toward the RTS antenna, the RX array 7.5 lambda (29 mm).
BEHIND = dict(ntx=4, nrx=16, dtx_lambda=8.0, b_hz=4e9, ns=64,
              theta_rx_deg=-90.0, theta_tx_deg=-90.0)


def test_element_paths_must_be_positive():
    # rc_m = 1 mm is shorter than the projected extent, so most elements
    # have a one-way path <= 0; every tone still passes the Nyquist check.
    with pytest.raises(ValidationError, match="^rc_m = 0.001 m is shorter"):
        build_scenario(**BEHIND, rc_m=0.001)
    # Near field with every path positive still loads, with the warning.
    warnings = build_scenario(**BEHIND, rc_m=0.1).validate()
    assert len(warnings) == 1 and "far-field" in warnings[0]


def test_return_leg_cancelled_by_extra_path_is_rejected(boresight):
    # Element (0, 0)'s return leg is rc_m + extra_return_path_m = 0.
    bad = replace(boresight, rts=replace(boresight.rts,
                                         extra_return_path_m=-boresight.rts.rc_m))
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert str(exc.value) == "extra_return_path_m must be >= 0 (got -1.0)"


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


@pytest.mark.parametrize("loader", [load_scenario_file, load_sweep_spec_file])
def test_file_loaders_name_a_missing_file(tmp_path, loader):
    path = tmp_path / "absent.cfg"
    want = f"config file not found: {re.escape(str(path))}$"
    with pytest.raises(ConfigError, match=want):
        loader(path)
    with pytest.raises(ConfigError, match="config file not found"):
        loader(str(tmp_path))    # a directory is not a config file


SWEEP_SECTION = """
[sweep]
d_max_m = 0.1
points = 3
subsets = 2x4
range_compensation = true
"""


@pytest.mark.parametrize("loader", [load_scenario_file, load_sweep_spec_file])
def test_file_loaders_skip_a_byte_order_mark(baseline_cfg, tmp_path, loader):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(baseline_cfg + SWEEP_SECTION, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert loader(bom) == loader(plain)


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("loader", [load_scenario_file, load_sweep_spec_file])
def test_file_loaders_name_an_undecodable_byte(baseline_cfg, tmp_path, loader, mark):
    # The offset counts from the start of the file, byte-order mark included.
    path = tmp_path / "latin1.cfg"
    text = baseline_cfg.replace("b_hz = 1e9", "b_hz = 1e9 ; \xff") + SWEEP_SECTION
    data = mark + text.encode("latin-1")
    path.write_bytes(data)
    offset = data.index(b"\xff")
    want = (f"config file {re.escape(str(path))} is not UTF-8: invalid start byte "
            f"at byte offset {offset} \\(0xff\\)$")
    with pytest.raises(ConfigError, match=want):
        loader(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_file_loaders_read_any_newline(baseline_cfg, tmp_path, newline):
    path = tmp_path / "newline.cfg"
    path.write_bytes(baseline_cfg.replace("\n", newline).encode())
    assert load_scenario_file(path) == load_scenario(baseline_cfg)


def test_file_loaders_read_the_file(baseline_cfg, tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(baseline_cfg + "\n[sweep]\n", encoding="utf-8")
    assert load_scenario_file(path) == load_scenario(baseline_cfg)
    assert load_sweep_spec_file(str(path)) == load_sweep_spec(path.read_text())


SCENARIO_KEYS = [(section, key) for section in ("chirp", "array", "rts", "grid")
                 for key in _SCHEMA[section]]
# The float keys that carry a bound: every float key of BASELINE_CFG.
FLOAT_KEYS = tuple(key for section, key in SCENARIO_KEYS
                   if _SCHEMA[section][key][0] is float and len(_SCHEMA[section][key]) == 4)


# With the bounded [sweep] keys, which load_sweep_spec checks on SweepSpec.
BOUNDED_KEYS = SCENARIO_KEYS + [("sweep", key) for key, entry in _SCHEMA["sweep"].items()
                                if len(entry) == 4]


@pytest.mark.parametrize("section, key", BOUNDED_KEYS, ids=[k for _, k in BOUNDED_KEYS])
def test_every_scenario_key_has_an_invariant(baseline, baseline_cfg, section, key):
    # A spacing's _m key has no bound of its own; its _lambda pair carries it.
    owner = key if len(_SCHEMA[section][key]) == 4 else key.removesuffix("_m") + "_lambda"
    _, _, field, bound = _SCHEMA[section][owner]
    assert bound == "deg" or (bound[0] in (">", ">=") and len(bound) == 2)
    if section == "sweep":
        load = load_sweep_spec
        assert hasattr(load(baseline_cfg + "\n[sweep]\n"), field)
        text = f"{baseline_cfg}\n[sweep]\n{key} = nan\n"
    else:
        load = load_scenario
        assert hasattr(getattr(baseline, section), field)
        text, hits = re.subn(rf"^{owner} = .*$", f"{key} = nan", baseline_cfg, flags=re.M)
        assert hits == 1
    if _SCHEMA[section][key][0] is float:
        name = owner.removesuffix("_lambda")
        with pytest.raises(ValidationError, match=rf"^{name} must be finite \(got nan\)$"):
            load(text)
    else:
        with pytest.raises(ConfigError, match=rf'^bad value for "{key}" in \[{section}\]'):
            load(text)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw):
    """Config documents over the valid ranges of every key."""
    step = draw(st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.125, 0.5, 1.0]))
    lo = -step * draw(st.integers(1, int(90 / step)))
    hi = step * draw(st.integers(1, int(90 / step)))
    return f"""
[chirp]
fc_hz = {draw(_finite(1e9, 300e9))!r}
b_hz = {draw(_finite(1e6, 4e9))!r}
t_s = {draw(_finite(10e-6, 1e-3))!r}
ns = {draw(st.integers(256, 4096))}

[array]
ntx = {draw(st.integers(1, 8))}
nrx = {draw(st.integers(1, 8))}
dtx_lambda = {draw(_finite(0.1, 4.0))!r}
drx_m = {draw(_finite(1e-4, 0.05))!r}

[rts]
rc_m = {draw(_finite(0.05, 10.0))!r}
theta_rx_deg = {draw(_finite(-90.0, 90.0))!r}
theta_tx_deg = {draw(_finite(-90.0, 90.0))!r}
tau_rts_s = {draw(_finite(0.0, 1e-7))!r}
f_rts_hz = {draw(_finite(0.0, 2e9))!r}
amplitude = {draw(_finite(1e-3, 1e3))!r}

[grid]
angle_min_deg = {lo!r}
angle_max_deg = {hi!r}
angle_step_deg = {step!r}
"""


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scenario_configs())
def test_valid_range_config_is_loaded_or_rejected(text):
    # Every key lies in its valid range, so only the beat-tone check (a
    # tone past Nyquist, or an element path <= 0) may refuse the document.
    try:
        s = load_scenario(text)
    except ValidationError as exc:
        assert re.search(r"\(Nyquist\)|one-way path .* not > 0", str(exc)), exc
        return
    assert isinstance(s.validate(), list)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS), value=st.floats())
def test_any_float_value_is_loaded_or_rejected(baseline_cfg, key, value):
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value!r}", baseline_cfg,
                         flags=re.M)
    assert hits == 1
    try:
        load_scenario(text)
    except (ConfigError, ValidationError):
        pass


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


@pytest.mark.parametrize("key", ["ns", "ntx", "nrx"])
def test_int_too_large_for_a_float_rejected(baseline_cfg, tmp_path, capsys, key):
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {'9' * 400}", baseline_cfg,
                         flags=re.M)
    assert hits == 1
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"fail: {key} is too large (got 1329 bits)\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_extra_return_path_rejected(boresight, value):
    with pytest.raises(ValidationError, match="extra_return_path_m must be finite"):
        replace(boresight, rts=replace(boresight.rts,
                                       extra_return_path_m=value)).validate()


def test_grid_step_must_divide_span(baseline_cfg):
    text = baseline_cfg.replace("angle_step_deg = 0.01", "angle_step_deg = 0.07")
    with pytest.raises(ValidationError, match="angle_step_deg"):
        load_scenario(text)


@pytest.mark.parametrize("step", [0.01, 0.002, 0.005, 0.05, 1.0, 0.001])
def test_grid_steps_in_use_divide_span(step):
    assert build_scenario(grid_step_deg=step).grid.n_points == round(180 / step) + 1


def test_dense_grid_never_exceeds_its_step():
    # A valid +-1.00125 deg grid re-stepped at the 0.001 deg peak-search
    # step: the span holds 2002.5 steps, so 2003 intervals are needed.
    g = AngleGrid.from_degrees(-1.00125, 1.00125, 0.001)
    assert g.n_points == 2004
    assert np.diff(g.angles_rad()).max() <= g.step_rad
    for step in (0.001, 0.002, 0.01, 0.07, 0.3):
        g = AngleGrid.from_degrees(-90, 90, step)
        assert np.diff(g.angles_rad()).max() <= g.step_rad * (1 + 1e-9)


@pytest.mark.parametrize("bounds", [
    (-90, 90, 0.001), (-90, 90, 0.01), (-90, 90, 0.002), (-1.00125, 1.00125, 0.001),
    (-48, 57, 0.002), (-1, 1, 0.001), (0.3, 89.7, 0.001), (-17.5, -2.25, 0.05)])
def test_angles_at_reproduces_the_grid(bounds):
    g = AngleGrid.from_degrees(*bounds)
    dense = np.linspace(g.min_rad, g.max_rad, g.n_points)
    assert g.angles_rad().tobytes() == dense.tobytes()
    idx = np.arange(g.n_points)
    assert g.angles_at(idx).tobytes() == dense.tobytes()
    some = idx[::97]
    assert g.angles_at(some).tobytes() == dense[some].tobytes()
    assert g.angles_at(idx[-1:])[0] == g.max_rad


def test_zero_carrier_rejected_with_lambda_spacing(baseline_cfg, tmp_path, capsys):
    # 1e-300 Hz overflows the wavelength C0/fc_hz to inf.
    for fc, message in (
            ("0", "fc_hz must be > 0"),
            ("1e-300", "fc_hz = 1e-300 is too small: the wavelength overflows")):
        text = baseline_cfg.replace("fc_hz = 77e9", f"fc_hz = {fc}")
        with pytest.raises(ValidationError, match=message):
            load_scenario(text)
        path = tmp_path / "dc.cfg"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err


def test_grid_step_overflow_rejected(baseline_cfg, tmp_path, capsys):
    text = baseline_cfg.replace("angle_step_deg = 0.01", "angle_step_deg = 1e-306")
    with pytest.raises(ValidationError, match="angle_step_deg"):
        load_scenario(text)
    path = tmp_path / "tiny_step.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["compare", str(path)]) == 1
    assert "angle_step_deg" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-200", "0.0005"])
def test_grid_step_finer_than_search_grid_rejected(baseline_cfg, tmp_path, capsys,
                                                   step):
    text = baseline_cfg.replace("angle_step_deg = 0.01", f"angle_step_deg = {step}")
    with pytest.raises(ValidationError) as exc:
        load_scenario(text)
    assert str(exc.value) == f"angle_step_deg must be >= 0.001 (got {step})"
    path = tmp_path / "fine_step.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["compare", str(path)]) == 1
    assert "angle_step_deg" in capsys.readouterr().err


def test_max_delay_and_beat(boresight):
    # At boresight every element's tone is (B/T)*2*Rc/c0.
    c = boresight.chirp
    fbeat = beat_tones(boresight)[0]
    assert fbeat.shape == (2, 4)
    assert fbeat.max() / (c.b_hz / c.t_s) == pytest.approx(2 / C0, rel=1e-12)
    assert fbeat.max() == pytest.approx(66712.819, rel=1e-6)
