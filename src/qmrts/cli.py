"""Command-line front end: validate, simulate, sweep, compare.

Exit codes: 0 success (or pass-with-warnings), 1 config/validation
failure, 2 runtime, out-of-memory or model-tolerance failure, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .beamformer import beamform, unit_phasor_spectrum, write_angle_csv
from .closed_form import (MODES, closed_form_spectrum, peak_separation_db,
                          predicted_peak, write_closed_form_csv)
from .experiment import (AntennaSubset, emit_results, load_sweep_spec,
                         rts_displacement, run_sweep)
from .propagation import far_field_distance
from .scenario import (ConfigError, Scenario, ValidationError, beat_tones,
                       parse_config, read_config_file, scenario_from_config)
from .signal_chain import range_peak, range_spectrum, write_range_csv

# Pairwise detected-angle agreement gate for the exact model levels [deg].
COMPARE_TOLERANCE_DEG = 0.02

# Flag threshold for grating-lobe risk [dB amplitude gap].  Chosen with
# margin: a 2-element 2-lambda TX array against a 4-element half-lambda RX
# array already drops to a ~5 dB gap at 40 deg transmitter offset.
AMBIGUITY_GAP_DB = 6.0


def _load(args) -> tuple[Scenario, list[str]]:
    """Scenario of the config file with the grid step override applied,
    and the warnings of its one validation."""
    sections = parse_config(read_config_file(args.config))
    if args.grid_step_deg is not None:
        sections.setdefault("grid", {})["angle_step_deg"] = args.grid_step_deg
    s = scenario_from_config(sections)
    return s, s.validate()


def _subset(label, s) -> AntennaSubset:
    """The --subset selection, the whole array when label is None."""
    a = s.array
    if label is None:
        return AntennaSubset(a.ntx, a.nrx)
    return AntennaSubset.from_label(label, a.ntx, a.nrx)


def cmd_validate(args) -> int:
    try:
        s, warnings = _load(args)
    except (ConfigError, ValidationError) as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    fs = s.sample_rate_hz
    fb = float(beat_tones(s)[0].max())
    print(f"scenario: {Path(args.config)}")
    print(f"  wavelength        {s.wavelength_m * 1e3:.6g} mm")
    print(f"  sample rate       {fs:.6g} Hz")
    print(f"  max beat freq     {fb:.6g} Hz (Nyquist margin {fs / 2 - fb:.6g} Hz)")
    print(f"  far-field bound   {far_field_distance(s):.6g} m (rc_m = {s.rts.rc_m:.6g} m)")
    print(f"  displacement      {rts_displacement(s):.6g} m")
    for msg in warnings:
        print(f"  warning: {msg}")
    print("status: warn" if warnings else "status: pass")
    return 0


def cmd_simulate(args) -> int:
    s, warnings = _load(args)
    for msg in warnings:
        print(f"warning: {msg}")
    sub = _subset(args.subset, s)
    rspec = range_spectrum(s, zero_pad=args.zero_pad)
    rsub, ssub = sub.apply(rspec, s)
    asp = beamform(rsub, ssub)

    full_deg = math.degrees(asp.peak_angle_rad)
    cf_deg = math.degrees(predicted_peak(ssub, args.mode))

    # The output directory appears only once the chain has succeeded.
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_range_csv(rspec, out / "range_spectrum.csv")
    write_angle_csv(asp, out / "angle_spectrum.csv")
    cf = closed_form_spectrum(ssub, args.mode, rspec.peak_bin, rspec.spectrum.shape[-1])
    write_closed_form_csv(cf, out / "closed_form_spectrum.csv")

    lines = [
        f"detected_bin = {rspec.peak_bin}",
        f"bin_width_hz = {s.sample_rate_hz / rspec.spectrum.shape[-1]:.9g}",
        f"detected_angle_fullchain_deg = {full_deg:.6f}",
        f"detected_angle_closedform_{args.mode}_deg = {cf_deg:.6f}",
        f"spectrum_phase_rad = {cf.phase_rad:.9f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    print(f"wrote {out / 'range_spectrum.csv'}")
    print(f"wrote {out / 'angle_spectrum.csv'}")
    print(f"wrote {out / 'closed_form_spectrum.csv'}")
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(read_config_file(args.config))
    for msg in spec.base.validate():
        print(f"warning: {msg}")
    rows = run_sweep(spec)
    emit_results(rows, args.out_csv)
    print(f"wrote {args.out_csv} ({len(rows)} rows)")
    for sub in spec.subsets:
        own = [r for r in rows if r.subset == sub.label]
        worst = max(own, key=lambda r: abs(r.deviation_deg))
        print(f"  {sub.label}: max |deviation| = {abs(worst.deviation_deg):.6f} deg "
              f"at d_rts = {worst.d_rts_m:.6g} m")
    return 0


def cmd_compare(args) -> int:
    s, warnings = _load(args)
    for msg in warnings:
        print(f"warning: {msg}")
    sub = _subset(args.subset, s)
    rsub, ssub = sub.apply(range_peak(s), s)

    full = math.degrees(beamform(rsub, ssub).peak_angle_rad)
    ideal = math.degrees(beamform(unit_phasor_spectrum(ssub), ssub).peak_angle_rad)
    dirich = math.degrees(predicted_peak(ssub, "dirichlet"))
    sinc = math.degrees(predicted_peak(ssub, "sinc"))

    print(f"full chain          {full:+.6f} deg")
    print(f"steering double sum {ideal:+.6f} deg")
    print(f"closed form (dirichlet) {dirich:+.6f} deg")
    print(f"closed form (sinc)      {sinc:+.6f} deg  [small-angle approximation]")

    gap = peak_separation_db(ssub)
    if gap < AMBIGUITY_GAP_DB:
        print(f"warning: grating-lobe risk, top-2 peak gap = {gap:.2f} dB "
              f"(< {AMBIGUITY_GAP_DB:.0f} dB)")

    exact = {"full chain": full, "double sum": ideal, "dirichlet": dirich}
    names = list(exact)
    worst = 0.0
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            diff = abs(exact[na] - exact[nb])
            worst = max(worst, diff)
            print(f"  |{na} - {nb}| = {diff:.6f} deg")
    print(f"  |dirichlet - sinc| = {abs(dirich - sinc):.6f} deg  [not gated]")
    if worst > COMPARE_TOLERANCE_DEG:
        print(f"tolerance exceeded: {worst:.6f} deg > {COMPARE_TOLERANCE_DEG} deg",
              file=sys.stderr)
        return 2
    print(f"agreement within {COMPARE_TOLERANCE_DEG} deg")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qmrts",
        description="Quasi-monostatic radar target simulator angle model")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("config", help="scenario config file")
        sp.add_argument("--grid-step-deg", type=float, default=None,
                        help="override the beamforming grid step")
        sp.add_argument("--subset", default=None, metavar="NxM",
                        help="antenna selection, e.g. 1x4")

    v = sub.add_parser("validate", help="check a config and print derived values")
    v.add_argument("config")
    v.set_defaults(func=cmd_validate, grid_step_deg=None)

    sim = sub.add_parser("simulate", help="single-shot simulation to CSV files")
    add_common(sim)
    sim.add_argument("out_dir", help="output directory")
    sim.add_argument("--zero-pad", type=int, default=1,
                     help="power-of-two DFT zero-padding factor")
    sim.add_argument("--mode", choices=MODES, default="sinc",
                     help="closed-form kernel variant")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="displacement sweep to CSV")
    sw.add_argument("config", help="config file with a [sweep] section")
    sw.add_argument("out_csv", help="output CSV path")
    sw.set_defaults(func=cmd_sweep)

    cmp_ = sub.add_parser("compare", help="detected angle at all model levels")
    add_common(cmp_)
    cmp_.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
