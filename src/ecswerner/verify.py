"""Closed-form-vs-numeric verification suite.

Every closed-form expression shipped by this library is re-derived here
through the independent brute-force route (explicit matrices, dense
eigensolves, the generic measurement pipeline) and the worst deviation is
reported per check.  The suite also records the two sign/exponent
conventions that were adjudicated numerically when the closed forms were
fixed, so the evidence stays visible in every report.
"""

import math
from dataclasses import dataclass

import numpy as np

from .catstates import StateFamily, cat_params, ecs_concurrence
from .discord import (
    discord_profile,
    discord_quasi_closed,
    werner_discord_closed,
    zurek_density,
    zurek_discord,
)
from .entanglement import concurrence_closed, concurrence_mixed
from .qmatrix import eigvals_hermitian, partial_trace
from .werner import (
    WernerSpec,
    _plus_family_elements,
    spectrum_closed,
    werner_density,
    werner_stack,
    wootters_lambdas_closed,
)

A_GRID = tuple(np.linspace(0.0, 1.0, 11))
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID_19 = tuple(np.linspace(0.0, math.pi, 19))
ZERO_CROSSING_TOL = 1e-9

PLUS_FAMILIES = (StateFamily.PSI_PLUS, StateFamily.PHI_PLUS)
MINUS_FAMILIES = (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS)


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self):
        return self.deviation < self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name:<42s} max dev {self.deviation:9.3e}  tol {self.tolerance:g}  {status}"


def _max_dev(x, y):
    return float(np.max(np.abs(np.subtract(x, y))))


def _werner_grid(families=StateFamily):
    """The grid's WernerSpecs, by family, |alpha|^2 and a, and their states, a werner_stack per (family, |alpha|^2)."""
    params = [(family, cat_params(mp)) for family in families for mp in MEAN_PHOTON_GRID]
    specs = [WernerSpec(family, float(a), p) for family, p in params for a in A_GRID]
    return specs, np.concatenate([werner_stack(family, A_GRID, p) for family, p in params])


def check_joint_spectrum():
    specs, rhos = _werner_grid()
    dev = _max_dev([spectrum_closed(spec).joint for spec in specs], eigvals_hermitian(rhos))
    return Check("joint-spectrum closed vs numeric", dev, 1e-10)


def check_reduced_spectrum():
    specs, rhos = _werner_grid()
    dev = _max_dev([spectrum_closed(spec).reduced_y for spec in specs], eigvals_hermitian(partial_trace(rhos, "Y")))
    return Check("reduced-Y-spectrum closed vs numeric", dev, 1e-10)


def check_lambdas():
    specs, rhos = _werner_grid()
    dev = _max_dev([wootters_lambdas_closed(spec) for spec in specs], [res.lambdas for res in concurrence_mixed(rhos)])
    return Check("spin-flip lambdas closed vs numeric", dev, 1e-9)


def check_quasi_discord():
    dev = 0.0
    for family in PLUS_FAMILIES:
        for mp in MEAN_PHOTON_GRID:
            p = cat_params(mp)
            closed = discord_quasi_closed(np.array(A_GRID)[:, None], p, THETA_GRID_19)
            dev = max(dev, _max_dev(closed, discord_profile(werner_stack(family, A_GRID, p), THETA_GRID_19)))
    return Check("quasi-Werner discord closed vs pipeline", dev, 1e-9)


def check_plus_family_equality():
    dev = 0.0
    thetas = THETA_GRID_19[::3]
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        psi, phi = (discord_profile(werner_stack(family, A_GRID, p), thetas, 0.4) for family in PLUS_FAMILIES)
        dev = max(dev, _max_dev(psi, phi))
    return Check("psi+ vs phi+ discord equality", dev, 1e-12)


def check_werner_discord():
    dev = 0.0
    p = cat_params(1.0)
    closed = werner_discord_closed(A_GRID)[:, None]
    for family in MINUS_FAMILIES:
        dev = max(dev, _max_dev(discord_profile(werner_stack(family, A_GRID, p), THETA_GRID_19[::2], 1.0), closed))
    return Check("Werner discord closed vs pipeline", dev, 1e-9)


def check_werner_basis_independence():
    dev = 0.0
    p = cat_params(0.5)
    for family in MINUS_FAMILIES:
        rhos = werner_stack(family, (0.2, 0.5, 0.9), p)
        # the first value of each state is theta = 0, phi = 0: the reference basis
        values = np.concatenate([discord_profile(rhos, THETA_GRID_19, phi) for phi in (0.0, 1.3, 2.6)], axis=1)
        dev = max(dev, _max_dev(values, values[:, :1]))
    return Check("Werner discord basis independence", dev, 1e-10)


def check_zurek():
    closed = zurek_discord(np.array(A_GRID)[:, None], THETA_GRID_19)
    dev = _max_dev(closed, discord_profile(zurek_density(A_GRID), THETA_GRID_19, 1.0))
    return Check("einselection-state discord closed vs pipeline", dev, 1e-9)


def check_concurrence():
    specs, rhos = _werner_grid()
    dev = _max_dev([concurrence_closed(spec) for spec in specs], [res.concurrence for res in concurrence_mixed(rhos)])
    return Check("concurrence closed vs numeric", dev, 1e-9)


def check_werner_threshold():
    a_grid = np.linspace(0.0, 1.0, 41)
    rhos = np.concatenate([werner_stack(family, a_grid, cat_params(2.0)) for family in MINUS_FAMILIES])
    expected = np.tile(np.maximum(0.0, (3.0 * a_grid - 1.0) / 2.0), len(MINUS_FAMILIES))
    dev = _max_dev([res.concurrence for res in concurrence_mixed(rhos)], expected)
    return Check("Werner concurrence threshold (3a-1)/2", dev, 1e-10)


def concurrence_zero_crossing(mean_photon):
    """Bisect the mixing parameter where the psi+ concurrence turns on."""
    p = cat_params(mean_photon)
    lo, hi = 0.0, 1.0
    while hi - lo > ZERO_CROSSING_TOL:
        mid = (lo + hi) / 2.0
        if concurrence_mixed(werner_density(WernerSpec(StateFamily.PSI_PLUS, mid, p))).concurrence > 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def check_zero_crossing():
    found = concurrence_zero_crossing(1.0)
    expected = 1.0 / (1.0 + 2.0 * ecs_concurrence(cat_params(1.0)))
    return Check("quasi concurrence zero crossing (bisection)", abs(found - expected), 1e-6)


def check_large_alpha_collapse():
    p = cat_params(5.0)
    a_grid = np.linspace(0.0, 1.0, 101)
    werner = werner_discord_closed(a_grid)
    dev = max(_max_dev(discord_quasi_closed(a_grid, p, theta), werner) for theta in THETA_GRID_19)
    return Check("large-alpha collapse to Werner form", dev, 1e-6)


def check_psd():
    worst = max(0.0, -float(eigvals_hermitian(_werner_grid()[1])[:, -1].min()))
    return Check("Werner density PSD (min eigenvalue)", worst, 1e-12)


def check_nonnegativity():
    worst = 0.0
    for family in StateFamily:
        for mp in MEAN_PHOTON_GRID:
            values = discord_profile(werner_stack(family, A_GRID, cat_params(mp)), THETA_GRID_19[::3])
            worst = max(worst, -float(values.min()))
    return Check("discord non-negativity", worst, 1e-9)


def convention_notes():
    """Deviation evidence for the two numerically adjudicated conventions."""
    # leading constant of the Werner discord closed form
    kept_at_zero = werner_discord_closed(0.0)
    flipped_at_zero = kept_at_zero - 2.0
    const_note = (
        "Werner-discord leading constant: +1 gives {:+.3e} at a=0 (kept); "
        "-1 variant gives {:+.1f} (rejected: discord must be nonnegative)".format(kept_at_zero, flipped_at_zero)
    )

    # geometric-mean vs reciprocal bracket in the spin-flip lambda pair
    dev_kept = 0.0
    dev_flipped = 0.0
    specs, rhos = _werner_grid((StateFamily.PSI_PLUS,))
    for spec, res in zip(specs, concurrence_mixed(rhos)):
        d1, d4, r = _plus_family_elements(spec)
        b = (1.0 - spec.mixing) / 4.0
        root = math.sqrt(d1 * d4)
        flipped = np.sort([1.0 / root + r, b, b, 1.0 / root - r])[::-1]
        dev_kept = max(dev_kept, _max_dev(wootters_lambdas_closed(spec), res.lambdas))
        dev_flipped = max(dev_flipped, _max_dev(flipped, res.lambdas))
    bracket_note = (
        "spin-flip lambda bracket: sqrt(d1*d4) reading max dev {:.3e} (kept); "
        "1/sqrt(d1*d4) reading max dev {:.3e} (rejected)".format(dev_kept, dev_flipped)
    )
    return [const_note, bracket_note]


ALL_CHECKS = (
    check_joint_spectrum,
    check_reduced_spectrum,
    check_lambdas,
    check_quasi_discord,
    check_plus_family_equality,
    check_werner_discord,
    check_werner_basis_independence,
    check_zurek,
    check_concurrence,
    check_werner_threshold,
    check_zero_crossing,
    check_large_alpha_collapse,
    check_psd,
    check_nonnegativity,
)


def run_verification():
    """Run every check; returns (checks, notes)."""
    return [fn() for fn in ALL_CHECKS], convention_notes()
