"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math

import numpy as np

from ecswerner.catstates import StateFamily, cat_params, ecs_concurrence
from ecswerner.cli import main
from ecswerner.discord import (
    MeasurementBasis,
    discord_at,
    discord_min,
    discord_profile,
    discord_quasi_closed,
    werner_discord_closed,
    zurek_discord,
)
from ecswerner.entanglement import concurrence_closed, concurrence_mixed, eof
from ecswerner.qmatrix import eigvals_hermitian, partial_trace
from ecswerner.verify import convention_notes
from ecswerner.werner import WernerSpec, spectrum_closed, werner_density

A_GRID = np.linspace(0.0, 1.0, 11)
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID_19 = np.linspace(0.0, math.pi, 19)


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_zurek_endpoints():
    thetas = np.linspace(-math.pi, math.pi, 361)
    dev_one = max(abs(zurek_discord(1.0, float(t)) - 1.0) for t in thetas)
    dev_zero = max(abs(zurek_discord(0.0, t)) for t in (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi))
    ok = dev_one < 1e-12 and dev_zero < 1e-12
    report(1, "einselection-surface endpoints", ok, f"dev(a=1)={dev_one:.2e}, dev(a=0 axes)={dev_zero:.2e}")


def test_criterion_2_closed_spectra():
    dev = 0.0
    for family in StateFamily:
        for mp in MEAN_PHOTON_GRID:
            p = cat_params(mp)
            for a in A_GRID:
                spec = WernerSpec(family, float(a), p)
                rho = werner_density(spec)
                closed = spectrum_closed(spec)
                dev = max(dev, float(np.max(np.abs(closed.joint - eigvals_hermitian(rho)))))
                dev = max(
                    dev,
                    float(np.max(np.abs(closed.reduced_y - eigvals_hermitian(partial_trace(rho, "Y"))))),
                )
    report(2, "closed-form spectra vs eigensolver", dev < 1e-10, f"max dev {dev:.2e}")


def test_criterion_3_discord_oracle_equivalence():
    dev_closed = 0.0
    dev_family = 0.0
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            a = float(a)
            psi = discord_profile(werner_density(WernerSpec(StateFamily.PSI_PLUS, a, p)), THETA_GRID_19)
            phi = discord_profile(werner_density(WernerSpec(StateFamily.PHI_PLUS, a, p)), THETA_GRID_19)
            dev_family = max(dev_family, float(np.max(np.abs(psi - phi))))
            for theta, piped in zip(THETA_GRID_19, psi):
                dev_closed = max(dev_closed, abs(discord_quasi_closed(a, p, float(theta)) - piped))
            for theta, piped in zip(THETA_GRID_19, phi):
                dev_closed = max(dev_closed, abs(discord_quasi_closed(a, p, float(theta)) - piped))
    ok = dev_closed < 1e-9 and dev_family < 1e-12
    report(3, "quasi-Werner discord closed vs pipeline", ok,
           f"closed-vs-pipeline {dev_closed:.2e}, psi+ vs phi+ {dev_family:.2e}")


def test_criterion_4_corrected_werner_discord():
    dev_ends = max(abs(werner_discord_closed(0.0)), abs(werner_discord_closed(1.0) - 1.0))
    p = cat_params(0.5)
    dev_pipe = 0.0
    dev_basis = 0.0
    for family in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS):
        for a in A_GRID:
            rho = werner_density(WernerSpec(family, float(a), p))
            closed = werner_discord_closed(float(a))
            base = discord_at(rho, MeasurementBasis(0.0)).value
            for theta in THETA_GRID_19[::3]:
                for phi in (0.0, 1.0, 2.5):
                    val = discord_at(rho, MeasurementBasis(float(theta), phi)).value
                    dev_pipe = max(dev_pipe, abs(val - closed))
                    dev_basis = max(dev_basis, abs(val - base))
    notes = "\n".join(convention_notes())
    shows_rejected_constant = "-2" in notes
    ok = dev_ends < 1e-12 and dev_pipe < 1e-9 and dev_basis < 1e-10 and shows_rejected_constant
    report(4, "corrected Werner discord", ok,
           f"endpoints {dev_ends:.2e}, pipeline {dev_pipe:.2e}, basis dev {dev_basis:.2e}, "
           f"rejected-constant note={'yes' if shows_rejected_constant else 'no'}")


def test_criterion_5_concurrence_thresholds():
    p = cat_params(1.0)
    dev = 0.0
    for a in np.linspace(0.0, 1.0, 41):
        c = concurrence_mixed(werner_density(WernerSpec(StateFamily.PSI_MINUS, float(a), p))).concurrence
        dev = max(dev, abs(c - max(0.0, (3.0 * float(a) - 1.0) / 2.0)))

    def has_concurrence(a):
        return concurrence_mixed(werner_density(WernerSpec(StateFamily.PSI_PLUS, a, p))).concurrence > 0.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if has_concurrence(mid):
            hi = mid
        else:
            lo = mid
    crossing = (lo + hi) / 2.0
    expected = 1.0 / (1.0 + 2.0 * ecs_concurrence(p))
    ok = dev < 1e-10 and abs(crossing - expected) < 1e-6
    report(5, "concurrence thresholds", ok,
           f"Werner dev {dev:.2e}, crossing {crossing:.8f} vs 1/(1+2C0) {expected:.8f}")


def test_criterion_6_large_alpha_convergence():
    p = cat_params(5.0)
    dev = 0.0
    for a in np.linspace(0.0, 1.0, 101):
        for theta in THETA_GRID_19:
            dev = max(dev, abs(discord_quasi_closed(float(a), p, float(theta)) - werner_discord_closed(float(a))))
    report(6, "large-mean-photon convergence to Werner", dev < 1e-6, f"max dev {dev:.2e}")


def test_criterion_7_delta_minus_e_peak():
    locations = {}
    for mp in (2.0, 5.0):
        p = cat_params(mp)
        specs = [WernerSpec(StateFamily.PSI_PLUS, float(a), p) for a in np.linspace(0.0, 1.0, 101)]
        minima = discord_min(np.array([werner_density(spec) for spec in specs]))
        gaps = [res.value - eof(concurrence_closed(spec)) for spec, res in zip(specs, minima)]
        locations[mp] = float(np.linspace(0.0, 1.0, 101)[int(np.argmax(gaps))])
    ok = all(0.4 < loc < 0.5 for loc in locations.values())
    report(7, "delta-E peak location", ok, f"argmax a = {locations}")


def test_criterion_8_minimum_locations():
    grid_step = math.pi / 180.0
    targets = (0.0, math.pi / 2.0, math.pi)
    p = cat_params(0.1)
    worst = 0.0
    for a in (0.3, 0.6, 0.9):
        res = discord_min(werner_density(WernerSpec(StateFamily.PSI_PLUS, a, p)))
        worst = max(worst, min(abs(res.theta_min - t) for t in targets))
    report(8, "discord minimum at theta in {0, pi/2, pi}", worst <= grid_step + 1e-9,
           f"max distance {worst:.3e} (one grid step = {grid_step:.3e})")


def test_criterion_9_property_suites(tmp_path):
    failures = []

    # normalization identity of the parameter bundle
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        if abs(p.n_plus**2 * (1.0 / p.N_plus**4 + 1.0 / p.N_minus**4) / 4.0 - 1.0) >= 1e-12:
            failures.append(f"normalization identity at {mp}")

    # phase invariance across the benchmark state and all four families
    from ecswerner.discord import zurek_density

    states = [zurek_density(0.6)] + [
        werner_density(WernerSpec(f, 0.45, cat_params(0.3))) for f in StateFamily
    ]
    for i, rho in enumerate(states):
        for theta in np.linspace(0.0, math.pi, 5):
            base = discord_at(rho, MeasurementBasis(float(theta), 0.0)).value
            for phi in (0.5, 1.0, 2.0, 3.0):
                if abs(discord_at(rho, MeasurementBasis(float(theta), phi)).value - base) >= 1e-10:
                    failures.append(f"phase invariance state {i}")

    # angle periodicity of the closed-form surface
    for a in (0.0, 0.4, 0.9):
        for theta in np.linspace(-math.pi, math.pi, 13):
            if abs(zurek_discord(a, float(theta)) - zurek_discord(a, float(theta) + math.pi / 2.0)) >= 1e-12:
                failures.append("angle periodicity")

    # non-negativity and positive semidefiniteness across the grid
    for family in StateFamily:
        for mp in (0.01, 0.5, 5.0):
            p = cat_params(mp)
            for a in A_GRID[::2]:
                rho = werner_density(WernerSpec(family, float(a), p))
                if float(eigvals_hermitian(rho)[-1]) < -1e-12:
                    failures.append("PSD")
                if float(discord_profile(rho, THETA_GRID_19).min()) < -1e-9:
                    failures.append("non-negativity")

    # CLI determinism: identical config gives byte-identical files
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    args = ["quasi-surface", "--alpha2", "1", "--a-steps", "5", "--theta-steps", "7"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    if out1.read_bytes() != out2.read_bytes():
        failures.append("CLI determinism")

    report(9, "module property suites", not failures, "all property bundles" if not failures else "; ".join(failures))
