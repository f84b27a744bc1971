"""Scenario configuration: waveform, array geometry, RTS channel and angle grid.

All angles are stored in radians, all lengths in meters, all times in
seconds.  Config files quote angles in degrees and may quote element
spacings in wavelengths; both are resolved at load time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .propagation import C0, element_delays, far_field_distance


class ConfigError(ValueError):
    """Malformed or schema-violating configuration document."""


class ValidationError(ValueError):
    """A scenario invariant is violated; the message names it."""


@dataclass(frozen=True)
class ChirpConfig:
    """FMCW waveform parameters."""

    fc_hz: float        # start frequency [Hz]
    b_hz: float         # sweep bandwidth [Hz]
    t_s: float          # chirp period [s]
    ns: int             # samples per chirp

    @property
    def sample_rate_hz(self) -> float:
        return self.ns / self.t_s

    @property
    def wavelength_m(self) -> float:
        return C0 / self.fc_hz


@dataclass(frozen=True)
class RadarArrayConfig:
    """MIMO geometry of the radar under test."""

    ntx: int            # transmit element count
    nrx: int            # receive element count
    dtx_m: float        # transmit element spacing [m]
    drx_m: float        # receive element spacing [m]

    @property
    def aperture_m(self) -> float:
        """Virtual-array aperture dtx*(Ntx-1) + drx*(Nrx-1) [m]."""
        return self.dtx_m * (self.ntx - 1) + self.drx_m * (self.nrx - 1)

    def tx_positions_m(self) -> np.ndarray:
        return self.dtx_m * np.arange(self.ntx, dtype=float)

    def rx_positions_m(self) -> np.ndarray:
        return self.drx_m * np.arange(self.nrx, dtype=float)


@dataclass(frozen=True)
class RtsChannelConfig:
    """Geometry and signal modification of one target-simulator channel.

    rc_m, theta_rx and theta_tx are taken from element 0 of the radar's TX
    and RX arrays, the plane-wave reference of element_delays.

    ``extra_return_path_m`` is an additional one-way path length on the
    return leg (transmitter moved away from the nominal arc), used by the
    displacement sweep's range compensation.  It is programmatic only and
    not part of the config file schema.
    """

    rc_m: float                 # radar-to-front-end distance [m]
    theta_rx_rad: float         # azimuth of the RTS receive antenna [rad]
    theta_tx_rad: float         # azimuth of the RTS transmit antenna [rad]
    tau_rts_s: float            # internal delay [s]
    f_rts_hz: float             # intermediate frequency [Hz]
    amplitude: float            # linear amplitude scale
    extra_return_path_m: float = 0.0


# Relative tolerance within which a grid step counts as dividing the span.
STEP_RTOL = 1e-9

# Step of the fine grid of the closed-form peak search [deg], and the
# finest step an angle grid may have: a finer beamforming grid would
# resolve angles the closed form cannot.
FINE_STEP_DEG = 0.001

# Largest range spectrum a command may hold [bytes]: Ntx*Nrx*Ns*zero_pad
# complex values, the spectrum simulate dumps.  Scenario.validate checks
# it at zero_pad 1, and range_spectrum at its own, before anything is
# allocated.  16 times the largest board the tests and the benchmark run
# (4x16 at Ns 16384, 16 MiB).
MAX_SPECTRUM_BYTES = 2**28


@dataclass(frozen=True)
class AngleGrid:
    """Uniform azimuth grid for beamforming, bounded to [-90, 90] deg."""

    min_rad: float
    max_rad: float
    step_rad: float

    @classmethod
    def from_degrees(cls, min_deg: float, max_deg: float, step_deg: float) -> "AngleGrid":
        return cls(math.radians(min_deg), math.radians(max_deg),
                   math.radians(step_deg))

    @property
    def n_points(self) -> int:
        """Points of the fewest intervals no wider than step_rad (within
        STEP_RTOL), so a step that does not divide the span shrinks."""
        x = (self.max_rad - self.min_rad) / self.step_rad
        return math.ceil(x - STEP_RTOL * x) + 1

    def angles_rad(self) -> np.ndarray:
        return self.angles_at(np.arange(self.n_points))

    def angles_at(self, idx: np.ndarray) -> np.ndarray:
        """The grid's angles at indices idx, by linspace's own arithmetic:
        idx*step + min, with the last index pinned to max."""
        last = self.n_points - 1
        out = idx * ((self.max_rad - self.min_rad) / last) + self.min_rad
        out[idx == last] = self.max_rad
        return out


@dataclass(frozen=True)
class Scenario:
    """Complete simulation scenario; immutable and safe to share."""

    chirp: ChirpConfig
    array: RadarArrayConfig
    rts: RtsChannelConfig
    grid: AngleGrid

    @property
    def wavelength_m(self) -> float:
        return self.chirp.wavelength_m

    @property
    def sample_rate_hz(self) -> float:
        return self.chirp.sample_rate_hz

    def validate(self) -> list[str]:
        """Check all invariants.

        Raises ValidationError naming the first violated invariant; returns
        a list of warnings (currently only the far-field check, which is
        advisory so the violation regime can still be studied).
        """
        r, g = self.rts, self.grid
        # Each key's bound in table order, then cross-key checks; NaN fails each.
        for name, part in vars(self).items():
            _check_section(name, part)
        _check("extra_return_path_m", r, "extra_return_path_m", (">=", 0))
        if not g.min_rad < g.max_rad:
            raise ValidationError("angle_min_deg must be < angle_max_deg")
        # A step that does not divide the span would be silently changed
        # by linspace to fit.
        steps = (g.max_rad - g.min_rad) / g.step_rad
        if not abs(steps - round(steps)) <= STEP_RTOL * steps:
            raise ValidationError(
                f"angle_step_deg = {math.degrees(g.step_rad):.9g} does not divide "
                f"the angle span of {math.degrees(g.max_rad - g.min_rad):.9g} deg")
        _check_spectrum_bytes(self)
        beat_tones(self)  # the Nyquist and path checks

        warnings = []
        ff = far_field_distance(self)
        if r.rc_m < ff:
            warnings.append(
                f"far-field condition violated: rc_m = {r.rc_m:.6g} m is below "
                f"2*D^2/lambda = {ff:.6g} m")
        return warnings


def beat_tones(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Every virtual element's beat tone fbeat = (B/T)*tau [Hz] and phase
    constant const = fc*tau_c + f_rts*tau_rts - (B/(2T))*tau^2 [cycles],
    each (Ntx, Nrx), with tau_c = tau_tx + tau_rx the free-space round trip
    and tau = tau_c + tau_rts the total delay: the element's beat row is
    A*exp(j*2*pi*(const + fbeat*t_n)).

    The one beat-tone check, so every tone lies in (0, fs/2): raises
    ValidationError if the largest tone reaches half the sample rate, a
    NaN delay included (the Nyquist check), and then unless every one-way
    element delay tau_tx, tau_rx is > 0 (the path check).  A path of
    length <= 0 breaks the plane-wave model's own precondition; it occurs
    when rc_m is shorter than the array's extent projected on an RTS
    antenna's direction, or when extra_return_path_m cancels rc_m."""
    c, r = s.chirp, s.rts
    tau_tx, tau_rx = element_delays(s)
    tau_c = tau_tx + tau_rx
    tau = tau_c + r.tau_rts_s
    fbeat = (c.b_hz / c.t_s) * tau
    fs, fb = s.sample_rate_hz, np.max(fbeat)
    if not fb < fs / 2.0:
        raise ValidationError(
            f"sample rate {fs:.6g} Hz does not exceed twice the maximum beat frequency "
            f"{fb:.6g} Hz (Nyquist); increase ns or reduce delays")
    shortest = min(np.min(tau_tx), np.min(tau_rx)) * C0
    if not shortest > 0:
        raise ValidationError(
            f"rc_m = {r.rc_m:.6g} m is shorter than the array's projected extent: "
            f"an element's one-way path is {shortest:.6g} m, not > 0")
    return fbeat, (c.fc_hz * tau_c + r.f_rts_hz * r.tau_rts_s
                   - (c.b_hz / c.t_s / 2.0) * tau**2)


REQUIRED = object()   # default of a key the config must give


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low not in ("true", "false"):
        raise ValueError(raw)
    return low == "true"


# Config schema: section -> key -> (converter, default[, field, bound]).
# A bounded key also names the field it fills, of a Scenario part or of
# SweepSpec, and its bound (see _check); a spacing pair carries both on
# its _lambda key, and exactly one key of the pair is given (else None).
_SCHEMA = {
    "chirp": {"fc_hz": (float, REQUIRED, "fc_hz", (">", 0)),
              "b_hz": (float, REQUIRED, "b_hz", (">", 0)),
              "t_s": (float, 100e-6, "t_s", (">", 0)), "ns": (int, 1024, "ns", (">=", 2))},
    "array": {"ntx": (int, REQUIRED, "ntx", (">=", 1)),
              "nrx": (int, REQUIRED, "nrx", (">=", 1)),
              "dtx_m": (float, None), "dtx_lambda": (float, None, "dtx_m", (">", 0)),
              "drx_m": (float, None), "drx_lambda": (float, None, "drx_m", (">", 0))},
    "rts": {"rc_m": (float, REQUIRED, "rc_m", (">", 0)),
            "theta_rx_deg": (float, 0.0, "theta_rx_rad", "deg"),
            "theta_tx_deg": (float, 0.0, "theta_tx_rad", "deg"),
            "tau_rts_s": (float, 0.0, "tau_rts_s", (">=", 0)),
            "f_rts_hz": (float, 0.0, "f_rts_hz", (">=", 0)),
            "amplitude": (float, 1.0, "amplitude", (">", 0))},
    "grid": {"angle_min_deg": (float, -90.0, "min_rad", "deg"),
             "angle_max_deg": (float, 90.0, "max_rad", "deg"),
             "angle_step_deg": (float, 0.01, "step_rad", (">=", math.radians(FINE_STEP_DEG)))},
    "sweep": {"d_max_m": (float, 0.1, "d_max_m", (">=", 0)),
              "points": (int, 51, "points", (">=", 2)),
              "subsets": (str, "2x4, 2x2, 1x4"),
              "range_compensation": (_parse_bool, True)},
}


def _check(name: str, part, field: str, bound) -> None:
    """Raise ValidationError naming name unless part.field is finite and in
    bound: (">", low), (">=", low) or "deg" for a radian angle in [-90, 90]
    deg.  A *_deg name's value and bound are shown in degrees.  NaN fails
    every test, as does an int too big for a float."""
    value = getattr(part, field)
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large (got {value.bit_length()} bits)") from None
    show = math.degrees if name.endswith("_deg") else (lambda x: x)
    if not -math.inf < value < math.inf:
        raise ValidationError(f"{name} must be finite (got {show(value)})")
    if bound == "deg" and not -math.pi / 2 <= value <= math.pi / 2:
        raise ValidationError(f"{name} out of [-90, 90] (got {show(value)})")
    if isinstance(bound, tuple):
        op, low = bound
        if not (value > low if op == ">" else value >= low):
            raise ValidationError(f"{name} must be {op} {show(low)} (got {show(value)})")


def _check_section(section: str, part) -> None:
    """_check each bounded key of _SCHEMA[section] on part, in table order."""
    for key, (_, _, *rule) in _SCHEMA[section].items():
        if rule:
            _check(key.removesuffix("_lambda"), part, *rule)


def _check_spectrum_bytes(s: Scenario, zero_pad: int = 1) -> None:
    """Raise ValidationError naming the keys unless s's range spectrum,
    Ntx*Nrx*Ns*zero_pad complex values, fits MAX_SPECTRUM_BYTES."""
    a, ns = s.array, s.chirp.ns
    size = 16 * a.ntx * a.nrx * ns * zero_pad
    if not size <= MAX_SPECTRUM_BYTES:
        keys, counts = "ntx*nrx*ns", f"{a.ntx}*{a.nrx}*{ns}"
        if zero_pad > 1:
            keys, counts = f"{keys}*zero_pad", f"{counts}*{zero_pad}"
        raise ValidationError(
            f"{keys} = {counts} complex values take {size} bytes, over the "
            f"{MAX_SPECTRUM_BYTES}-byte range-spectrum budget")


def _parse_error(exc: configparser.Error) -> ConfigError:
    """exc as one line: the line number and what is wrong there."""
    if isinstance(exc, configparser.DuplicateOptionError):
        line, what = exc.lineno, f'key "{exc.option}" given twice in [{exc.section}]'
    elif isinstance(exc, configparser.DuplicateSectionError):
        line, what = exc.lineno, f"section [{exc.section}] given twice"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        line, what = exc.lineno, "text before the first section header"
    else:  # ParsingError; it lists every bad line, the first is named
        line, what = exc.errors[0][0], 'not a section header or "key = value"'
    return ConfigError(f"config parse error at line {line}: {what}")


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and schema-check a config document into typed section dicts.

    Unknown sections or keys are a hard error.  Absent keys are not
    defaulted (see config_section), and scenario-level invariants are not
    checked here.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise _parse_error(exc) from exc

    out: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        known = _SCHEMA[section]
        values: dict[str, object] = {}
        for key, raw in cp.items(section):
            if key not in known:
                raise ConfigError(f'unknown key "{key}" in [{section}]')
            try:
                values[key] = known[key][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    f'bad value for "{key}" in [{section}]: {raw!r}') from exc
        out[section] = values
    return out


def config_section(sections: dict[str, dict[str, object]],
                   name: str) -> dict[str, object]:
    """Every key of section [name], absent ones set to their schema default.

    A missing key without a default, or a missing section that has such a
    key, is a ConfigError; any other missing section counts as empty.
    """
    schema = _SCHEMA[name]
    if name not in sections and any(e[1] is REQUIRED for e in schema.values()):
        raise ConfigError(f"missing section [{name}]")
    given = sections.get(name, {})
    values = {}
    for key, (_, default, *_) in schema.items():
        values[key] = given.get(key, default)
        if values[key] is REQUIRED:
            raise ConfigError(f'missing key "{key}" in [{name}]')
    return values


def _resolve_spacing(values: dict, key_l: str, parts: dict) -> float:
    """The spacing pair of key_l in meters; wavelengths take parts' chirp."""
    key_m = key_l.removesuffix("_lambda") + "_m"
    if (values[key_m] is None) == (values[key_l] is None):
        raise ConfigError(
            f'exactly one of "{key_m}" or "{key_l}" must be given in [array]')
    if values[key_m] is not None:
        return values[key_m]
    # Spacings are resolved before validate() runs, so a carrier that
    # gives no finite, positive wavelength is named here.
    chirp = parts["chirp"]
    _check("fc_hz", chirp, *_SCHEMA["chirp"]["fc_hz"][2:])
    if not math.isfinite(chirp.wavelength_m):
        raise ValidationError(
            f"fc_hz = {chirp.fc_hz!r} is too small: the wavelength overflows")
    return values[key_l] * chirp.wavelength_m


def scenario_from_config(sections: dict[str, dict[str, object]]) -> Scenario:
    """Build a Scenario from parse_config output, each part from its _SCHEMA
    section in table order: a key fills the field its entry names, a *_deg
    key in radians, and a spacing pair resolves to meters at its _lambda
    entry.  Invariants are not checked."""
    parts = {}
    for name, part in get_type_hints(Scenario).items():
        values, fields = config_section(sections, name), {}
        for key, (_, _, *rule) in _SCHEMA[name].items():
            if key.endswith("_lambda"):
                fields[rule[0]] = _resolve_spacing(values, key, parts)
            elif rule:
                value = values[key]
                fields[rule[0]] = math.radians(value) if key.endswith("_deg") else value
        parts[name] = part(**fields)
    return Scenario(**parts)


def load_scenario(text: str) -> Scenario:
    """Build and validate a Scenario from a config document."""
    scenario = scenario_from_config(parse_config(text))
    scenario.validate()
    return scenario


def read_config_file(path) -> str:
    """Text of a UTF-8 config file, without a leading byte-order mark.

    A missing file, or one that is not UTF-8, is a ConfigError.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a stripped byte-order mark.
        offset = exc.start + len(data) - len(exc.object)
        raise ConfigError(
            f"config file {path} is not UTF-8: {exc.reason} at byte offset "
            f"{offset} (0x{data[offset]:02x})") from None
    # Universal newlines, as a file opened in text mode reads them.
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_scenario_file(path) -> Scenario:
    return load_scenario(read_config_file(path))

