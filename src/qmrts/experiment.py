"""Displacement sweep: detected-angle deviation vs RTS antenna separation.

Reproduces the lateral-transmitter-motion experiment in simulation: the
receiver stays fixed at theta_rx while the transmitter moves along the
arc of radius rc_m to sin(theta_tx) = sin(theta_rx) + d/rc_m, and every
displacement point is processed through the full time-domain chain and
the analytic (dirichlet) predictor for several antenna selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._csvio import write_csv
from .beamformer import beamform
from .closed_form import predicted_peak
from .scenario import (ConfigError, Scenario, ValidationError, config_section,
                       parse_config, read_config_file, scenario_from_config)
from .signal_chain import RangeSpectrum, range_peak


@dataclass(frozen=True)
class AntennaSubset:
    """The first ntx TX and the first nrx RX elements of the array."""

    ntx: int
    nrx: int

    @property
    def label(self) -> str:
        return f"{self.ntx}x{self.nrx}"

    @classmethod
    def from_label(cls, label: str, ntx: int, nrx: int) -> "AntennaSubset":
        """Parse an "MxN" label into the first M TX / first N RX elements."""
        parts = label.lower().split("x")
        try:
            mtx, mrx = (int(p) for p in parts)
        except ValueError:
            mtx = mrx = 0
        if len(parts) != 2 or mtx < 1 or mrx < 1:
            raise ConfigError(f'bad antenna subset label "{label}" (want e.g. "2x4")')
        if mtx > ntx or mrx > nrx:
            raise ConfigError(
                f'subset "{label}" exceeds the array size {ntx}x{nrx}')
        return cls(ntx=mtx, nrx=mrx)

    def apply(self, r: RangeSpectrum, s: Scenario) -> tuple[RangeSpectrum, Scenario]:
        """Cut the kept elements from r, and shrink s's array to match.

        A prefix of each array keeps its element positions, so beamforming
        the cut is equivalent to processing the same data with a smaller
        array.
        """
        cut = replace(r, spectrum=r.spectrum[:self.ntx, :self.nrx])
        array = replace(s.array, ntx=self.ntx, nrx=self.nrx)
        return cut, replace(s, array=array)


@dataclass(frozen=True)
class SweepSpec:
    """Displacement sweep definition."""

    base: Scenario
    d_max_m: float
    points: int
    subsets: tuple[AntennaSubset, ...]
    range_compensation: bool

    def __post_init__(self):
        rc = self.base.rts.rc_m
        if not 0 <= self.d_max_m < rc:
            raise ValidationError(
                f"d_max_m must lie in [0, rc_m) (got {self.d_max_m}, rc_m={rc})")
        if self.points < 2:
            raise ValidationError(f"points must be >= 2 (got {self.points})")
        labels = [sub.label for sub in self.subsets]
        if not labels:
            raise ValidationError("at least one antenna subset is required")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate subset labels: {labels}")
        # The last point must keep the transmitter within +-90 deg.
        displaced(self.base, self.d_max_m, self.range_compensation)


@dataclass(frozen=True)
class SweepRow:
    """One (displacement, subset) result."""

    d_rts_m: float
    theta_rx_deg: float
    theta_tx_deg: float
    subset: str
    detected_fullchain_deg: float
    detected_closedform_deg: float
    deviation_deg: float
    range_compensated: bool


def rts_displacement(s: Scenario) -> float:
    """Effective lateral separation of the RTS antenna pair [m].

    Signed: negative when the transmitter sits below the receiver.
    """
    r = s.rts
    return r.rc_m * (math.sin(r.theta_tx_rad) - math.sin(r.theta_rx_rad))


def displaced(s: Scenario, d_m: float, range_compensation: bool) -> Scenario:
    """s with the RTS transmitter moved to lateral displacement d_m [m].

    Inverse of rts_displacement: sin th_tx = sin th_rx + d/Rc, a
    ValidationError past +-90 deg.  With range_compensation the return
    leg gains the moved transmitter's extra path sqrt(Rc^2 + d^2) - Rc.
    """
    r = s.rts
    rc = r.rc_m
    arg = math.sin(r.theta_rx_rad) + d_m / rc
    if not -1.0 <= arg <= 1.0:
        raise ValidationError(
            f"displacement {d_m} m at rc_m={rc} puts sin(theta_tx)={arg:.6g} "
            "outside [-1, 1]: the transmitter is past 90 deg")
    extra = math.sqrt(rc * rc + d_m * d_m) - rc if range_compensation else 0.0
    return replace(s, rts=replace(r, theta_tx_rad=math.asin(arg),
                                  extra_return_path_m=extra))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Process every (displacement point x antenna subset).

    Each point runs the full-array chain once (range_peak); subsets are
    cut from the same range spectrum, mirroring reprocessing of one
    recording with different antenna selections.
    """
    base = spec.base
    theta_rx = base.rts.theta_rx_rad
    rows: list[SweepRow] = []
    for idx in range(spec.points):
        d = spec.d_max_m * idx / (spec.points - 1)
        try:
            point = displaced(base, d, spec.range_compensation)
            point.validate()  # raises on an invalid point
            rspec = range_peak(point)
            for sub in spec.subsets:
                rsub, ssub = sub.apply(rspec, point)
                full_deg = math.degrees(beamform(rsub, ssub).peak_angle_rad)
                cf_deg = math.degrees(predicted_peak(ssub, "dirichlet"))
                rows.append(SweepRow(
                    d_rts_m=d,
                    theta_rx_deg=math.degrees(theta_rx),
                    theta_tx_deg=math.degrees(point.rts.theta_tx_rad),
                    subset=sub.label,
                    detected_fullchain_deg=full_deg,
                    detected_closedform_deg=cf_deg,
                    deviation_deg=full_deg - math.degrees(theta_rx),
                    range_compensated=spec.range_compensation,
                ))
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(
                f"sweep aborted at point {idx} (d_rts = {d:.6g} m): {exc}") from exc
    return rows


CSV_HEADER = ["d_rts_m", "theta_rx_deg", "theta_tx_deg", "subset",
              "detected_fullchain_deg", "detected_closedform_deg",
              "deviation_deg", "range_compensated"]


def emit_results(rows: list[SweepRow], destination) -> None:
    """Write sweep rows as CSV (floats at 9 significant digits)."""
    if not rows:
        raise ValueError("no sweep rows to emit")
    columns = {name: [getattr(r, name) for r in rows] for name in CSV_HEADER}
    columns["range_compensated"] = [
        "true" if r.range_compensated else "false" for r in rows]
    write_csv(destination, columns)


def load_sweep_spec(text: str) -> SweepSpec:
    """Build a SweepSpec from a config document with a [sweep] section."""
    sections = parse_config(text)
    base = scenario_from_config(sections)
    base.validate()
    if "sweep" not in sections:
        raise ConfigError("missing section [sweep]")
    sw = config_section(sections, "sweep")
    labels = [tok.strip() for tok in sw["subsets"].split(",") if tok.strip()]
    subsets = tuple(AntennaSubset.from_label(lbl, base.array.ntx, base.array.nrx)
                    for lbl in labels)
    return SweepSpec(base=base, d_max_m=sw["d_max_m"], points=sw["points"],
                     subsets=subsets, range_compensation=sw["range_compensation"])


def load_sweep_spec_file(path) -> SweepSpec:
    return load_sweep_spec(read_config_file(path))
