"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from qmrts import (AntennaSubset, ValidationError, beamform,
                   bin_phase_frequency_scale, emit_results, peak_separation_db,
                   predicted_peak, range_spectrum, run_sweep)
from qmrts.beamformer import unit_phasor_spectrum
from qmrts.closed_form import closed_form_phase, spectrum_magnitude
from qmrts.experiment import SweepSpec
from conftest import (build_scenario, on_bin_tau_rts, peak_phase_tolerance,
                      phase_tolerance, reference_beat, tone_values, wrap_phase)

DEG = math.degrees
GRID_STEP_DEG = 0.01


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def fullchain_peak_deg(s) -> float:
    return DEG(beamform(range_spectrum(s), s).peak_angle_rad)


def ideal_peak_deg(s) -> float:
    return DEG(beamform(unit_phasor_spectrum(s), s).peak_angle_rad)


def make_sweep(points=51, d_max=0.1, subsets=("2x4", "2x2", "1x4"), **kw):
    base = build_scenario(**kw)
    subs = tuple(AntennaSubset.from_label(lbl, base.array.ntx, base.array.nrx)
                 for lbl in subsets)
    return SweepSpec(base=base, d_max_m=d_max, points=points, subsets=subs,
                     range_compensation=True)


@pytest.fixture(scope="module")
def baseline_sweep():
    """51-point displacement sweep of the 77 GHz / 1 GHz 2x4 baseline."""
    spec = make_sweep()
    return spec, run_sweep(spec)


@pytest.fixture(scope="module")
def narrowband_sweep():
    """B = 100 MHz sweep with a receiver offset for the degenerate-selection
    checks at full-chain level.  The TX spacing is lambda/2 here: a
    two-element TX-only selection at a 2-lambda spacing has
    full-height grating lobes and no unambiguous angle at all."""
    spec = make_sweep(subsets=("1x4", "2x1"), b_hz=1e8, theta_rx_deg=2.0,
                      dtx_lambda=0.5)
    return spec, run_sweep(spec)


def test_criterion_1_monostatic_limit(baseline_sweep):
    spec, rows = baseline_sweep
    zero_rows = [r for r in rows if r.d_rts_m == 0.0]
    assert len(zero_rows) == 3
    worst = max(abs(r.deviation_deg) for r in zero_rows)

    t0 = time.perf_counter()
    run_sweep(make_sweep(points=2, d_max=0.002))
    per_point = (time.perf_counter() - t0) / 2.0

    ok = worst <= 0.005 and per_point < 1.0
    report(1, ok, f"d=0 deviation <= 0.005 deg for 2x4/2x2/1x4 "
           f"(worst {worst:.2e} deg), {per_point * 1e3:.0f} ms/point")


def test_criterion_2_bracketing(baseline_sweep):
    spec, rows = baseline_sweep
    tol = math.sin(math.radians(GRID_STEP_DEG))
    checked = 0
    worst_excess = -1.0
    for r in rows:
        if r.subset not in ("2x4", "2x2"):
            continue
        checked += 1
        u = math.sin(math.radians(r.detected_fullchain_deg))
        lo = math.sin(math.radians(r.theta_rx_deg))
        hi = math.sin(math.radians(r.theta_tx_deg))
        excess = max(lo - u, u - hi)
        worst_excess = max(worst_excess, excess)
        assert lo - tol <= u <= hi + tol, r
    ok = checked == 2 * 51
    report(2, ok, f"sin(th_rx) <= sin(alpha*) <= sin(th_tx) within one grid "
           f"step on {checked}/102 rows (worst excess {worst_excess:.2e})")


def test_criterion_3_degenerate_selections(baseline_sweep, narrowband_sweep):
    _, rows = baseline_sweep
    worst_cf = max(abs(r.detected_closedform_deg - r.theta_tx_deg)
                   for r in rows if r.subset == "1x4")

    _, nrows = narrowband_sweep
    worst_tx = max(abs(r.detected_fullchain_deg - r.theta_tx_deg)
                   for r in nrows if r.subset == "1x4")
    worst_rx = max(abs(r.detected_fullchain_deg - r.theta_rx_deg)
                   for r in nrows if r.subset == "2x1")

    ok = worst_cf <= 0.01 and worst_tx <= 0.01 and worst_rx <= 0.01
    report(3, ok, "1x4 tracks the transmitter / Nx1 the receiver within "
           f"0.01 deg (closed form {worst_cf:.1e}, full chain 1x4 "
           f"{worst_tx:.1e}, 2x1 {worst_rx:.1e} deg)")


def test_criterion_3_supplement_wideband_coupling(baseline_sweep):
    # Characterization, not a gate: at B = 1 GHz the full-chain 1x4
    # detection is asin(scale*sin(theta_tx)) with scale ~ 1.00649, i.e. up
    # to 0.037 deg from theta_tx over this sweep; the geometric claim is
    # exact once the sweep-bandwidth phase scale is accounted for.
    spec, rows = baseline_sweep
    scale = bin_phase_frequency_scale(spec.base)
    worst = 0.0
    for r in rows:
        if r.subset != "1x4":
            continue
        want = DEG(math.asin(scale * math.sin(math.radians(r.theta_tx_deg))))
        worst = max(worst, abs(r.detected_fullchain_deg - want))
    assert worst < 1e-3
    print(f"\n[criterion  3] note - wideband 1x4 offset matches the "
          f"mid-sweep frequency model within {worst:.1e} deg")


def test_criterion_4_three_level_equivalence():
    t0 = time.perf_counter()
    scenarios = []
    # 77 GHz board geometry, small angles (the 1 GHz sweep-bandwidth phase scale
    # bounds exact-vs-analytic agreement to ~0.007 deg per degree of peak)
    for th_rx, th_tx in ((0, 1), (0, 2), (0.5, 2), (-1, 1), (2, 0), (-2, -0.5)):
        scenarios.append(build_scenario(theta_rx_deg=th_rx, theta_tx_deg=th_tx))
    # randomized geometries, wider angles at narrower sweep bandwidth
    rng = np.random.default_rng(20260810)
    while len(scenarios) < 30:
        ntx, nrx = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if ntx == 1 and nrx == 1:
            continue
        try:
            s = build_scenario(
                ntx=ntx, nrx=nrx,
                dtx_lambda=float(rng.uniform(0.5, 2.5)),
                drx_lambda=float(rng.uniform(0.25, 1.0)),
                theta_rx_deg=float(rng.uniform(-10, 10)),
                theta_tx_deg=float(rng.uniform(-10, 10)),
                b_hz=float(rng.uniform(5e7, 1e8)),
                rc_m=float(rng.uniform(0.9, 2.0)),
                tau_rts_s=float(rng.uniform(0, 2e-7)))
        except ValidationError:
            continue
        if peak_separation_db(s) < 6.0:
            continue  # grating-lobe-ambiguous draw: not a single-target case
        scenarios.append(s)

    worst = 0.0
    for s in scenarios:
        full = fullchain_peak_deg(s)
        ideal = ideal_peak_deg(s)
        dirich = DEG(predicted_peak(s, "dirichlet"))
        spread = max(full, ideal, dirich) - min(full, ideal, dirich)
        worst = max(worst, spread)
        assert spread <= 0.02, (s.array, spread)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 60.0
    report(4, ok, f"full chain / steering sum / dirichlet argmax pairwise "
           f"<= 0.02 deg over 30 scenarios (worst {worst:.4f} deg, "
           f"{elapsed:.1f} s)")


def test_criterion_5_geometric_series_identity():
    s = build_scenario(theta_rx_deg=1.0, theta_tx_deg=3.0)
    angles = s.grid.angles_rad()
    u = np.sin(angles)
    a, r = s.array, s.rts
    lam = s.wavelength_m
    direct = np.zeros(u.size, dtype=complex)
    for i in range(a.ntx):
        for j in range(a.nrx):
            elem = 2 * np.pi * (a.dtx_m * i * math.sin(r.theta_rx_rad)
                                + a.drx_m * j * math.sin(r.theta_tx_rad)) / lam
            direct += np.exp(1j * (elem - 2 * np.pi * (a.dtx_m * i + a.drx_m * j)
                                   * u / lam))
    direct = np.abs(r.amplitude * s.chirp.ns * direct)
    cf = spectrum_magnitude(s, angles, "dirichlet")
    peak = cf.max()
    norm_err = float(np.max(np.abs(direct - cf)) / peak)
    mask = cf > 1e-4 * peak
    rel_err = float(np.max(np.abs(direct[mask] - cf[mask]) / cf[mask]))
    ok = rel_err < 1e-9 and norm_err < 1e-9
    report(5, ok, f"dirichlet closed form equals the direct double sum "
           f"grid-point-wise (rel err {rel_err:.1e}, peak-normalized "
           f"{norm_err:.1e})")


def test_criterion_6_phase_contract():
    cases = [(0.3, 4), (0.3, 5), (0.3, 6), (0.3, 8), (1.0, 7), (1.0, 8),
             (1.0, 9), (1.0, 10), (1.0, 11), (1.0, 12), (1.0, 13), (1.0, 14)]
    # Every element's detected phase is held to the sampled tone's closed
    # form at the detected bin (x = 0 for the on-bin element), within its
    # derived rounding bound, phase_tolerance.  The beamformed peak phase is
    # held to closed_form_phase, which reads the same tone, within that bound
    # plus the steering sum's rounding, peak_phase_tolerance.  Odd bins are
    # where a continuous-time phase (fc + B/2)*tau would be pi off.
    worst_bin = worst_peak = 0.0
    bin_ok = peak_ok = True
    for rc, k in cases:
        probe = build_scenario(rc_m=rc)
        s = build_scenario(rc_m=rc, tau_rts_s=on_bin_tau_rts(probe, k))
        rspec = range_spectrum(s)
        assert rspec.peak_bin == k
        err = np.abs(wrap_phase(np.angle(rspec.peak_values)
                                - np.angle(tone_values(s, k))))
        bin_ok &= bool(np.all(err <= phase_tolerance(s, k)))
        worst_bin = max(worst_bin, float(np.max(err)))
        a = beamform(rspec, s)
        peak_phase = float(np.angle(a.values[a.peak_index]))
        diff = abs(wrap_phase(peak_phase - closed_form_phase(s, k, s.chirp.ns)))
        peak_ok &= diff <= peak_phase_tolerance(s, a)
        worst_peak = max(worst_peak, diff)
    ok = bin_ok and peak_ok
    report(6, ok, f"on-bin detected phase matches the sampled tone within its "
           f"rounding bound (worst {worst_bin:.1e} rad), beamformed peak phase "
           f"the closed form within its rounding bound (worst {worst_peak:.1e} rad)")


def test_criterion_7_range_detection():
    checked = 0
    for tau_rts in np.linspace(0.0, 5e-6, 10):
        s = build_scenario(ns=16384, tau_rts_s=float(tau_rts))
        btau = s.chirp.b_hz * (2.0 / 299_792_458.0 + float(tau_rts))
        k = range_spectrum(s).peak_bin
        assert k == round(btau), (tau_rts, btau, k)
        checked += 1
    probe = build_scenario(ns=16384)
    s = build_scenario(ns=16384, tau_rts_s=on_bin_tau_rts(probe, 512))
    exact = range_spectrum(s).peak_bin
    ok = checked == 10 and exact == 512
    report(7, ok, f"detected bin equals round(B*tau) across tau_rts in "
           f"[0, 5 us] ({checked} scenarios) and exactly on-bin at k=512")


def test_criterion_8_dft_invariants(baseline):
    beat = reference_beat(baseline)
    r = range_spectrum(baseline)
    worst = 0.0
    for i in range(2):
        for j in range(4):
            lhs = float(np.sum(np.abs(beat[i, j]) ** 2))
            rhs = float(np.sum(np.abs(r.spectrum[i, j]) ** 2)) / 1024
            worst = max(worst, abs(lhs - rhs) / lhs)

    probe = build_scenario()
    tau0 = on_bin_tau_rts(probe, 8)
    k0 = range_spectrum(build_scenario(tau_rts_s=tau0)).peak_bin
    k1 = range_spectrum(build_scenario(tau_rts_s=tau0 + 1e-9)).peak_bin
    ok = worst < 1e-10 and k0 == 8 and k1 == 9
    report(8, ok, f"Parseval rel err {worst:.1e} < 1e-10; delta tau = 1/B "
           f"shifts the detected bin {k0} -> {k1}")


def test_criterion_9_invariance_fuzzing():
    rng = np.random.default_rng(97)
    n_scen, checks = 70, 0
    done = 0
    while done < n_scen:
        ntx, nrx = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dtxl = float(rng.uniform(0.5, 2.0))
        drxl = float(rng.uniform(0.25, 1.0))
        th_rx = float(rng.uniform(-8, 8))
        th_tx = th_rx + float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
        amp = float(2.0 ** rng.integers(-3, 4))
        kw = dict(ntx=ntx, nrx=nrx, dtx_lambda=dtxl, drx_lambda=drxl,
                  theta_rx_deg=th_rx, theta_tx_deg=th_tx, b_hz=1e8,
                  rc_m=float(rng.uniform(0.9, 1.5)),
                  tau_rts_s=float(rng.uniform(0, 1e-7)))
        s = build_scenario(amplitude=amp, **kw)
        if peak_separation_db(s) < 6.0:
            continue
        done += 1

        # amplitude scaling by powers of two is exact in binary floating
        # point: the refined peak must be bit-identical
        m = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
        scaled = build_scenario(amplitude=amp * 2.0 ** m, **kw)
        a1 = beamform(range_spectrum(s), s)
        a2 = beamform(range_spectrum(scaled), scaled)
        assert a1.peak_angle_rad == a2.peak_angle_rad
        checks += 1

        mirrored = build_scenario(amplitude=amp, **{
            **kw, "theta_rx_deg": -th_rx, "theta_tx_deg": -th_tx})
        a3 = beamform(range_spectrum(mirrored), mirrored)
        assert abs(a1.peak_angle_rad + a3.peak_angle_rad) < math.radians(GRID_STEP_DEG)
        checks += 1

        swapped = build_scenario(amplitude=amp, **{
            **kw, "ntx": nrx, "nrx": ntx, "dtx_lambda": drxl,
            "drx_lambda": dtxl, "theta_rx_deg": th_tx, "theta_tx_deg": th_rx})
        a4 = beamform(range_spectrum(swapped), swapped)
        assert abs(a1.peak_angle_rad - a4.peak_angle_rad) < math.radians(GRID_STEP_DEG)
        checks += 1

    ok = checks >= 200
    report(9, ok, f"amplitude argmax bit-invariance, mirror and "
           f"swap/aperture duality hold on {checks} fuzzed checks "
           f"({n_scen} scenarios, fixed seed)")


def test_criterion_10_determinism(baseline_sweep, tmp_path):
    spec, rows = baseline_sweep
    again = run_sweep(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(rows, p1)
    emit_results(again, p2)
    ok = p1.read_bytes() == p2.read_bytes()
    report(10, ok, f"repeated sweep runs emit byte-identical CSV "
           f"({len(rows)} rows)")
