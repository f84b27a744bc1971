"""Scenario configuration: waveform, array geometry, RTS channel and angle grid.

All angles are stored in radians, all lengths in meters, all times in
seconds.  Config files quote angles in degrees and may quote element
spacings in wavelengths; both are resolved at load time.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

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
    t_s: float = 100e-6     # chirp period [s]
    ns: int = 1024          # samples per chirp

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

    def tx_positions_m(self) -> np.ndarray:
        return self.dtx_m * np.arange(self.ntx, dtype=float)

    def rx_positions_m(self) -> np.ndarray:
        return self.drx_m * np.arange(self.nrx, dtype=float)


@dataclass(frozen=True)
class RtsChannelConfig:
    """Geometry and signal modification of one target-simulator channel.

    ``extra_return_path_m`` is an additional one-way path length on the
    return leg (transmitter moved away from the nominal arc), used by the
    displacement sweep's range compensation.  It is programmatic only and
    not part of the config file schema.
    """

    rc_m: float                 # radar-to-front-end distance [m]
    theta_rx_rad: float = 0.0   # azimuth of the RTS receive antenna [rad]
    theta_tx_rad: float = 0.0   # azimuth of the RTS transmit antenna [rad]
    tau_rts_s: float = 0.0      # internal delay [s]
    f_rts_hz: float = 0.0       # intermediate frequency [Hz]
    amplitude: float = 1.0      # linear amplitude scale
    extra_return_path_m: float = 0.0


@dataclass(frozen=True)
class AngleGrid:
    """Uniform azimuth grid for beamforming, bounded to [-90, 90] deg."""

    min_rad: float = math.radians(-90.0)
    max_rad: float = math.radians(90.0)
    step_rad: float = math.radians(0.01)

    @classmethod
    def from_degrees(cls, min_deg: float, max_deg: float, step_deg: float) -> "AngleGrid":
        return cls(math.radians(min_deg), math.radians(max_deg),
                   math.radians(step_deg))

    @property
    def n_points(self) -> int:
        return int(round((self.max_rad - self.min_rad) / self.step_rad)) + 1

    def angles_rad(self) -> np.ndarray:
        return np.linspace(self.min_rad, self.max_rad, self.n_points)


@dataclass(frozen=True)
class Scenario:
    """Complete simulation scenario; immutable and safe to share."""

    chirp: ChirpConfig
    array: RadarArrayConfig
    rts: RtsChannelConfig
    grid: AngleGrid = field(default_factory=AngleGrid)

    @property
    def wavelength_m(self) -> float:
        return self.chirp.wavelength_m

    @property
    def sample_rate_hz(self) -> float:
        return self.chirp.sample_rate_hz

    def max_total_delay_s(self) -> float:
        """Largest per-element total delay in this scenario."""
        tau_tx, tau_rx = element_delays(self)
        return float(tau_tx.max()) + float(tau_rx.max()) + self.rts.tau_rts_s

    def max_beat_frequency_hz(self) -> float:
        return (self.chirp.b_hz / self.chirp.t_s) * self.max_total_delay_s()

    def validate(self) -> list[str]:
        """Check all invariants.

        Raises ValidationError naming the first violated invariant; returns
        a list of warnings (currently only the far-field check, which is
        advisory so the violation regime can still be studied).
        """
        c, a, r, g = self.chirp, self.array, self.rts, self.grid
        # Every check below is written so that NaN fails it.
        for name, value in (
                ("fc_hz", c.fc_hz), ("b_hz", c.b_hz), ("t_s", c.t_s),
                ("dtx", a.dtx_m), ("drx", a.drx_m), ("rc_m", r.rc_m),
                ("theta_rx_deg", r.theta_rx_rad), ("theta_tx_deg", r.theta_tx_rad),
                ("tau_rts_s", r.tau_rts_s), ("f_rts_hz", r.f_rts_hz),
                ("amplitude", r.amplitude),
                ("extra_return_path_m", r.extra_return_path_m),
                ("angle_min_deg", g.min_rad), ("angle_max_deg", g.max_rad),
                ("angle_step_deg", g.step_rad)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite (got {value})")
        for name, value in (("fc_hz", c.fc_hz), ("b_hz", c.b_hz), ("t_s", c.t_s),
                            ("dtx", a.dtx_m), ("drx", a.drx_m), ("rc_m", r.rc_m),
                            ("amplitude", r.amplitude)):
            if not value > 0:
                raise ValidationError(f"{name} must be > 0 (got {value})")
        for name, value, low in (("ns", c.ns, 2), ("ntx", a.ntx, 1), ("nrx", a.nrx, 1),
                                 ("tau_rts_s", r.tau_rts_s, 0),
                                 ("f_rts_hz", r.f_rts_hz, 0)):
            if not value >= low:
                raise ValidationError(f"{name} must be >= {low} (got {value})")
        half_pi = math.pi / 2
        for name, theta in (("theta_rx_deg", r.theta_rx_rad),
                            ("theta_tx_deg", r.theta_tx_rad)):
            if not -half_pi <= theta <= half_pi:
                raise ValidationError(
                    f"{name} out of [-90, 90] (got {math.degrees(theta)})")
        if not r.rc_m + r.extra_return_path_m > 0:
            raise ValidationError("return path length must be > 0")
        if not g.step_rad > 0:
            raise ValidationError("angle_step_deg must be > 0")
        if not g.min_rad < g.max_rad:
            raise ValidationError("angle_min_deg must be < angle_max_deg")
        eps = 1e-12
        if not (g.min_rad >= -half_pi - eps and g.max_rad <= half_pi + eps):
            raise ValidationError("angle grid must lie within [-90, 90] deg")
        # A step that does not divide the span would be silently stretched
        # by linspace to fit.
        steps = (g.max_rad - g.min_rad) / g.step_rad
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ValidationError(
                f"angle_step_deg = {math.degrees(g.step_rad):.9g} does not divide "
                f"the angle span of {math.degrees(g.max_rad - g.min_rad):.9g} deg")

        fs = self.sample_rate_hz
        fb = self.max_beat_frequency_hz()
        if not fs > 2.0 * fb:
            raise ValidationError(
                f"sample rate {fs:.6g} Hz does not exceed twice the maximum beat "
                f"frequency {fb:.6g} Hz; increase ns or reduce delays")

        warnings = []
        ff = far_field_distance(self)
        if r.rc_m < ff:
            warnings.append(
                f"far-field condition violated: rc_m = {r.rc_m:.6g} m is below "
                f"2*D^2/lambda = {ff:.6g} m")
        return warnings


def rts_displacement(s: Scenario) -> float:
    """Effective lateral separation of the RTS antenna pair [m].

    Signed: negative when the transmitter sits below the receiver.
    """
    r = s.rts
    return r.rc_m * (math.sin(r.theta_tx_rad) - math.sin(r.theta_rx_rad))


# Config schema: section -> key -> converter.  Spacing keys are special-cased
# (exactly one of the _m / _lambda pair must be present).
_SCHEMA = {
    "chirp": {"fc_hz": float, "b_hz": float, "t_s": float, "ns": int},
    "array": {"ntx": int, "nrx": int,
              "dtx_m": float, "dtx_lambda": float,
              "drx_m": float, "drx_lambda": float},
    "rts": {"rc_m": float, "theta_rx_deg": float, "theta_tx_deg": float,
            "tau_rts_s": float, "f_rts_hz": float, "amplitude": float},
    "grid": {"angle_min_deg": float, "angle_max_deg": float,
             "angle_step_deg": float},
    "sweep": {"d_max_m": float, "points": int, "subsets": str,
              "range_compensation": str},
}


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and schema-check a config document into typed section dicts.

    Unknown sections or keys are a hard error.  Scenario-level invariants
    are not checked here.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    out: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        known = _SCHEMA[section]
        values: dict[str, object] = {}
        for key, raw in cp.items(section):
            if key not in known:
                raise ConfigError(f'unknown key "{key}" in [{section}]')
            conv = known[key]
            try:
                values[key] = raw if conv is str else conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f'bad value for "{key}" in [{section}]: {raw!r}') from exc
        out[section] = values
    return out


def _require(values: dict, section: str, key: str):
    if key not in values:
        raise ConfigError(f'missing key "{key}" in [{section}]')
    return values[key]


def _resolve_spacing(values: dict, name: str, wavelength_m: float) -> float:
    key_m, key_l = f"{name}_m", f"{name}_lambda"
    has_m, has_l = key_m in values, key_l in values
    if has_m == has_l:
        raise ConfigError(
            f'exactly one of "{key_m}" or "{key_l}" must be given in [array]')
    return values[key_m] if has_m else values[key_l] * wavelength_m


def scenario_from_config(sections: dict[str, dict[str, object]]) -> Scenario:
    """Build a Scenario from parse_config output; invariants are not checked."""
    for required in ("chirp", "array", "rts"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    ch = sections["chirp"]
    chirp = ChirpConfig(
        fc_hz=_require(ch, "chirp", "fc_hz"),
        b_hz=_require(ch, "chirp", "b_hz"),
        t_s=ch.get("t_s", 100e-6),
        ns=ch.get("ns", 1024),
    )

    ar = sections["array"]
    array = RadarArrayConfig(
        ntx=_require(ar, "array", "ntx"),
        nrx=_require(ar, "array", "nrx"),
        dtx_m=_resolve_spacing(ar, "dtx", chirp.wavelength_m),
        drx_m=_resolve_spacing(ar, "drx", chirp.wavelength_m),
    )

    rt = sections["rts"]
    rts = RtsChannelConfig(
        rc_m=_require(rt, "rts", "rc_m"),
        theta_rx_rad=math.radians(rt.get("theta_rx_deg", 0.0)),
        theta_tx_rad=math.radians(rt.get("theta_tx_deg", 0.0)),
        tau_rts_s=rt.get("tau_rts_s", 0.0),
        f_rts_hz=rt.get("f_rts_hz", 0.0),
        amplitude=rt.get("amplitude", 1.0),
    )

    gr = sections.get("grid", {})
    grid = AngleGrid.from_degrees(
        gr.get("angle_min_deg", -90.0),
        gr.get("angle_max_deg", 90.0),
        gr.get("angle_step_deg", 0.01),
    )

    return Scenario(chirp=chirp, array=array, rts=rts, grid=grid)


def load_scenario(text: str) -> Scenario:
    """Build and validate a Scenario from a config document."""
    scenario = scenario_from_config(parse_config(text))
    scenario.validate()
    return scenario


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def _degrees_exact(theta_rad: float) -> float:
    """Degree value whose radians() reproduces theta_rad bit-exactly.

    degrees/radians are not exact inverses in floating point; scan a few
    ulps around the nominal conversion so a loaded scenario round-trips
    field-identically through emit_scenario.
    """
    base = math.degrees(theta_rad)
    if math.radians(base) == theta_rad:
        return base
    lo = hi = base
    for _ in range(8):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        if math.radians(hi) == theta_rad:
            return hi
        if math.radians(lo) == theta_rad:
            return lo
    return base


def emit_scenario(s: Scenario) -> str:
    """Serialize a Scenario back to the config-document format.

    load_scenario(emit_scenario(s)) reproduces s field-identically
    (extra_return_path_m is programmatic only and not persisted).
    """
    c, a, r, g = s.chirp, s.array, s.rts, s.grid
    buf = io.StringIO()
    buf.write("[chirp]\n")
    buf.write(f"fc_hz = {c.fc_hz!r}\n")
    buf.write(f"b_hz = {c.b_hz!r}\n")
    buf.write(f"t_s = {c.t_s!r}\n")
    buf.write(f"ns = {c.ns}\n\n")
    buf.write("[array]\n")
    buf.write(f"ntx = {a.ntx}\n")
    buf.write(f"nrx = {a.nrx}\n")
    buf.write(f"dtx_m = {a.dtx_m!r}\n")
    buf.write(f"drx_m = {a.drx_m!r}\n\n")
    buf.write("[rts]\n")
    buf.write(f"rc_m = {r.rc_m!r}\n")
    buf.write(f"theta_rx_deg = {_degrees_exact(r.theta_rx_rad)!r}\n")
    buf.write(f"theta_tx_deg = {_degrees_exact(r.theta_tx_rad)!r}\n")
    buf.write(f"tau_rts_s = {r.tau_rts_s!r}\n")
    buf.write(f"f_rts_hz = {r.f_rts_hz!r}\n")
    buf.write(f"amplitude = {r.amplitude!r}\n\n")
    buf.write("[grid]\n")
    buf.write(f"angle_min_deg = {_degrees_exact(g.min_rad)!r}\n")
    buf.write(f"angle_max_deg = {_degrees_exact(g.max_rad)!r}\n")
    buf.write(f"angle_step_deg = {_degrees_exact(g.step_rad)!r}\n")
    return buf.getvalue()


def with_theta_tx(s: Scenario, theta_tx_rad: float,
                  extra_return_path_m: float = 0.0) -> Scenario:
    """Scenario with the RTS transmitter moved (sweep helper)."""
    rts = replace(s.rts, theta_tx_rad=theta_tx_rad,
                  extra_return_path_m=extra_return_path_m)
    return replace(s, rts=rts)
