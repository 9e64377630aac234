"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 2, 3, 5 and 6 report the deviations of the `ecswerner verify`
checks that run on their grids, each held to the criterion's own tolerance.
On the grids that verify does not cover, the gate computes its own
values, one stacked call per grid.
"""

import math

import numpy as np

from ecswerner import verify
from ecswerner.catstates import StateFamily, cat_params, ecs_concurrence
from ecswerner.cli import main
from ecswerner.discord import (
    discord_min,
    discord_profile,
    werner_discord_closed,
    zurek_density,
    zurek_discord,
)
from ecswerner.entanglement import concurrence_closed, concurrence_mixed, eof
from ecswerner.qmatrix import eigvals_hermitian
from ecswerner.werner import WernerSpec, werner_density, werner_stack

A_GRID = np.linspace(0.0, 1.0, 11)
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID_19 = np.linspace(0.0, math.pi, 19)


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} {name}: {detail}"


def deviation(check):
    """The max deviation that a verify check reports, after checking that verify's grids are this module's."""
    assert verify.A_GRID == tuple(A_GRID) and verify.MEAN_PHOTON_GRID == MEAN_PHOTON_GRID
    assert verify.THETA_GRID_19 == tuple(THETA_GRID_19)
    return check().deviation


def stack(family, mean_photons):
    """werner_stack of family over A_GRID at each |alpha|^2, in one array."""
    return np.concatenate([werner_stack(family, A_GRID, cat_params(mp)) for mp in mean_photons])


def test_criterion_1_zurek_endpoints():
    thetas = np.linspace(-math.pi, math.pi, 361)
    dev_one = max(abs(zurek_discord(1.0, float(t)) - 1.0) for t in thetas)
    dev_zero = max(abs(zurek_discord(0.0, t)) for t in (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi))
    ok = dev_one < 1e-12 and dev_zero < 1e-12
    report(1, "einselection-surface endpoints", ok, f"dev(a=1)={dev_one:.2e}, dev(a=0 axes)={dev_zero:.2e}")


def test_criterion_2_closed_spectra():
    joint, reduced = deviation(verify.check_joint_spectrum), deviation(verify.check_reduced_spectrum)
    ok = joint < 1e-10 and reduced < 1e-10
    report(2, "closed-form spectra vs eigensolver", ok, f"max dev joint {joint:.2e}, reduced-Y {reduced:.2e}")


def test_criterion_3_discord_oracle_equivalence():
    dev_closed = deviation(verify.check_quasi_discord)
    # psi+ against phi+ at phi = 0 on every theta; verify compares them on theta[::3] at phi = 0.4
    psi, phi = (stack(f, MEAN_PHOTON_GRID) for f in (StateFamily.PSI_PLUS, StateFamily.PHI_PLUS))
    dev_family = float(np.max(np.abs(discord_profile(psi, THETA_GRID_19) - discord_profile(phi, THETA_GRID_19))))
    ok = dev_closed < 1e-9 and dev_family < 1e-12
    report(3, "quasi-Werner discord closed vs pipeline", ok,
           f"closed-vs-pipeline {dev_closed:.2e}, psi+ vs phi+ {dev_family:.2e}")


def test_criterion_4_corrected_werner_discord():
    dev_ends = max(abs(werner_discord_closed(0.0)), abs(werner_discord_closed(1.0) - 1.0))
    rhos = np.concatenate([stack(f, (0.5,)) for f in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS)])
    # the first value of each state is theta = 0, phi = 0: the reference basis
    values = np.concatenate([discord_profile(rhos, THETA_GRID_19[::3], phi) for phi in (0.0, 1.0, 2.5)], axis=1)
    dev_pipe = float(np.max(np.abs(values - np.tile(werner_discord_closed(A_GRID), 2)[:, None])))
    dev_basis = float(np.max(np.abs(values - values[:, :1])))
    notes = "\n".join(verify.convention_notes())
    shows_rejected_constant = "-2" in notes
    ok = dev_ends < 1e-12 and dev_pipe < 1e-9 and dev_basis < 1e-10 and shows_rejected_constant
    report(4, "corrected Werner discord", ok,
           f"endpoints {dev_ends:.2e}, pipeline {dev_pipe:.2e}, basis dev {dev_basis:.2e}, "
           f"rejected-constant note={'yes' if shows_rejected_constant else 'no'}")


def test_criterion_5_concurrence_thresholds():
    # the psi- threshold at |alpha|^2 = 1; verify checks it at |alpha|^2 = 2
    a_grid = np.linspace(0.0, 1.0, 41)
    rhos = werner_stack(StateFamily.PSI_MINUS, a_grid, cat_params(1.0))
    c = np.array([res.concurrence for res in concurrence_mixed(rhos)])
    dev = float(np.max(np.abs(c - np.maximum(0.0, (3.0 * a_grid - 1.0) / 2.0))))
    dev_crossing = deviation(verify.check_zero_crossing)
    crossing = verify.concurrence_zero_crossing(1.0)
    expected = 1.0 / (1.0 + 2.0 * ecs_concurrence(cat_params(1.0)))
    ok = dev < 1e-10 and dev_crossing < 1e-6
    report(5, "concurrence thresholds", ok,
           f"Werner dev {dev:.2e}, crossing {crossing:.8f} vs 1/(1+2C0) {expected:.8f}")


def test_criterion_6_large_alpha_convergence():
    dev = deviation(verify.check_large_alpha_collapse)
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
    states = np.array([zurek_density(0.6)] + [werner_density(WernerSpec(f, 0.45, cat_params(0.3))) for f in StateFamily])
    thetas = np.linspace(0.0, math.pi, 5)
    base = discord_profile(states, thetas, 0.0)
    for phi in (0.5, 1.0, 2.0, 3.0):
        if not np.max(np.abs(discord_profile(states, thetas, phi) - base)) < 1e-10:
            failures.append(f"phase invariance at phi = {phi}")

    # angle periodicity of the closed-form surface
    for a in (0.0, 0.4, 0.9):
        for theta in np.linspace(-math.pi, math.pi, 13):
            if abs(zurek_discord(a, float(theta)) - zurek_discord(a, float(theta) + math.pi / 2.0)) >= 1e-12:
                failures.append("angle periodicity")

    # non-negativity and positive semidefiniteness across the grid
    grid = np.concatenate([werner_stack(f, A_GRID[::2], cat_params(mp)) for f in StateFamily for mp in (0.01, 0.5, 5.0)])
    if not np.min(eigvals_hermitian(grid)[:, -1]) >= -1e-12:
        failures.append("PSD")
    if not np.min(discord_profile(grid, THETA_GRID_19)) >= -1e-9:
        failures.append("non-negativity")

    # CLI determinism: identical config gives byte-identical files
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    args = ["quasi-surface", "--alpha2", "1", "--a-steps", "5", "--theta-steps", "7"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    if out1.read_bytes() != out2.read_bytes():
        failures.append("CLI determinism")

    report(9, "module property suites", not failures, "all property bundles" if not failures else "; ".join(failures))
