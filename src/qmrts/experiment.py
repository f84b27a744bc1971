"""Displacement sweep: detected-angle deviation vs RTS antenna separation.

Reproduces the lateral-transmitter-motion experiment in simulation: the
receiver stays fixed at theta_rx while the transmitter slides sideways,
and every displacement point is processed through the full time-domain
chain and the analytic (dirichlet) predictor for several antenna
selections.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

from ._csvio import write_csv
from .beamformer import beamform, select_subset
from .closed_form import predicted_peak
from .scenario import (ConfigError, Scenario, ValidationError, parse_config,
                       scenario_from_config, with_theta_tx)
from .signal_chain import RangeSpectrum, range_dft, synthesize_beat

SWEEP_DEFAULTS = {"d_max_m": 0.1, "points": 51,
                  "subsets": "2x4, 2x2, 1x4", "range_compensation": True}


@dataclass(frozen=True)
class AntennaSubset:
    """Named selection of TX/RX elements (first-k of each array)."""

    label: str
    tx_keep: tuple[int, ...]
    rx_keep: tuple[int, ...]

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
        return cls(label=f"{mtx}x{mrx}", tx_keep=tuple(range(mtx)),
                   rx_keep=tuple(range(mrx)))

    def apply(self, r: RangeSpectrum, s: Scenario) -> tuple[RangeSpectrum, Scenario]:
        """Cut the kept elements from r, and shrink s's array to match."""
        array = replace(s.array, ntx=len(self.tx_keep), nrx=len(self.rx_keep))
        return (select_subset(r, self.tx_keep, self.rx_keep),
                replace(s, array=array))


@dataclass(frozen=True)
class SweepSpec:
    """Displacement sweep definition."""

    base: Scenario
    d_max_m: float
    points: int
    subsets: tuple[AntennaSubset, ...]
    range_compensation: bool = True

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
        if abs(math.sin(self.base.rts.theta_rx_rad) + self.d_max_m / rc) > 1.0:
            raise ValidationError("d_max_m pushes the transmitter past 90 deg")


@dataclass(frozen=True)
class SweepRow:
    """One (displacement, subset) result.

    far_field_ok is diagnostic only and not part of the CSV schema.
    """

    d_rts_m: float
    theta_rx_deg: float
    theta_tx_deg: float
    subset: str
    detected_fullchain_deg: float
    detected_closedform_deg: float
    deviation_deg: float
    range_compensated: bool
    far_field_ok: bool = True


def displacement_to_theta_tx(theta_rx_rad: float, d_m: float, rc_m: float) -> float:
    """Transmitter azimuth that realizes lateral displacement d.

    Inverse of the displacement relation d = Rc*(sin th_tx - sin th_rx).
    """
    arg = math.sin(theta_rx_rad) + d_m / rc_m
    if not -1.0 <= arg <= 1.0:
        raise ValueError(
            f"displacement {d_m} m at rc_m={rc_m} puts sin(theta_tx)={arg:.6g} "
            "outside [-1, 1]")
    return math.asin(arg)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Process every (displacement point x antenna subset).

    Each point synthesizes the full-array beat cube once; subsets are cut
    from the same range spectrum, mirroring reprocessing of one recording
    with different antenna selections.
    """
    base = spec.base
    rc = base.rts.rc_m
    theta_rx = base.rts.theta_rx_rad
    rows: list[SweepRow] = []
    for idx in range(spec.points):
        d = spec.d_max_m * idx / (spec.points - 1)
        try:
            theta_tx = displacement_to_theta_tx(theta_rx, d, rc)
            extra = math.sqrt(rc * rc + d * d) - rc if spec.range_compensation else 0.0
            point = with_theta_tx(base, theta_tx, extra)
            warnings = point.validate()
            far_ok = not warnings
            cube = synthesize_beat(point)
            rspec = range_dft(cube)
            for sub in spec.subsets:
                rsub, ssub = sub.apply(rspec, point)
                full_deg = math.degrees(beamform(rsub, ssub).peak_angle_rad)
                cf_deg = math.degrees(predicted_peak(ssub, "dirichlet"))
                rows.append(SweepRow(
                    d_rts_m=d,
                    theta_rx_deg=math.degrees(theta_rx),
                    theta_tx_deg=math.degrees(theta_tx),
                    subset=sub.label,
                    detected_fullchain_deg=full_deg,
                    detected_closedform_deg=cf_deg,
                    deviation_deg=full_deg - math.degrees(theta_rx),
                    range_compensated=spec.range_compensation,
                    far_field_ok=far_ok,
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


def read_results(path) -> list[SweepRow]:
    """Parse a CSV written by emit_results (formatting precision applies)."""
    rows: list[SweepRow] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected sweep CSV header: {header}")
        for rec in reader:
            rows.append(SweepRow(
                d_rts_m=float(rec[0]), theta_rx_deg=float(rec[1]),
                theta_tx_deg=float(rec[2]), subset=rec[3],
                detected_fullchain_deg=float(rec[4]),
                detected_closedform_deg=float(rec[5]),
                deviation_deg=float(rec[6]),
                range_compensated=rec[7] == "true",
            ))
    return rows


def _parse_bool(raw: str, key: str) -> bool:
    low = str(raw).strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f'"{key}" must be true or false (got {raw!r})')


def load_sweep_spec(text: str, base: Scenario | None = None) -> SweepSpec:
    """Build a SweepSpec from a config document with a [sweep] section."""
    sections = parse_config(text)
    if base is None:
        base = scenario_from_config(sections)
        base.validate()
    if "sweep" not in sections:
        raise ConfigError("missing section [sweep]")
    sw = dict(SWEEP_DEFAULTS)
    sw.update(sections["sweep"])
    labels = [tok.strip() for tok in str(sw["subsets"]).split(",") if tok.strip()]
    subsets = tuple(AntennaSubset.from_label(lbl, base.array.ntx, base.array.nrx)
                    for lbl in labels)
    comp = sw["range_compensation"]
    if isinstance(comp, str):
        comp = _parse_bool(comp, "range_compensation")
    return SweepSpec(base=base, d_max_m=float(sw["d_max_m"]),
                     points=int(sw["points"]), subsets=subsets,
                     range_compensation=comp)


def load_sweep_spec_file(path) -> SweepSpec:
    return load_sweep_spec(Path(path).read_text(encoding="utf-8"))
