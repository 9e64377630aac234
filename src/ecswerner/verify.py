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
from .entanglement import concurrence_closed, concurrence_mixed, spin_flip
from .qmatrix import eigvals_general_product, eigvals_hermitian, partial_trace
from .werner import WernerSpec, _plus_family_elements, spectrum_closed, werner_density, wootters_lambdas_closed

A_GRID = tuple(np.linspace(0.0, 1.0, 11))
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID_19 = tuple(np.linspace(0.0, math.pi, 19))

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


def _all_specs():
    for family in StateFamily:
        for mp in MEAN_PHOTON_GRID:
            p = cat_params(mp)
            for a in A_GRID:
                yield WernerSpec(family=family, mixing=float(a), params=p)


def check_joint_spectrum():
    dev = 0.0
    for spec in _all_specs():
        closed = spectrum_closed(spec).joint
        numeric = eigvals_hermitian(werner_density(spec))
        dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return Check("joint-spectrum closed vs numeric", dev, 1e-10)


def check_reduced_spectrum():
    dev = 0.0
    for spec in _all_specs():
        closed = spectrum_closed(spec).reduced_y
        numeric = eigvals_hermitian(partial_trace(werner_density(spec), "Y"))
        dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return Check("reduced-Y-spectrum closed vs numeric", dev, 1e-10)


def _lambdas_numeric(rho):
    return np.sqrt(eigvals_general_product(rho, spin_flip(rho)))


def check_lambdas():
    dev = 0.0
    for spec in _all_specs():
        closed = wootters_lambdas_closed(spec)
        numeric = _lambdas_numeric(werner_density(spec))
        dev = max(dev, float(np.max(np.abs(closed - numeric))))
    return Check("spin-flip lambdas closed vs numeric", dev, 1e-9)


def check_quasi_discord():
    dev = 0.0
    for family in PLUS_FAMILIES:
        for mp in MEAN_PHOTON_GRID:
            p = cat_params(mp)
            for a in A_GRID:
                rho = werner_density(WernerSpec(family, float(a), p))
                closed = [discord_quasi_closed(float(a), p, theta) for theta in THETA_GRID_19]
                dev = max(dev, _max_dev(closed, discord_profile(rho, THETA_GRID_19)))
    return Check("quasi-Werner discord closed vs pipeline", dev, 1e-9)


def check_plus_family_equality():
    dev = 0.0
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            rho_psi = werner_density(WernerSpec(StateFamily.PSI_PLUS, float(a), p))
            rho_phi = werner_density(WernerSpec(StateFamily.PHI_PLUS, float(a), p))
            thetas = THETA_GRID_19[::3]
            dev = max(dev, _max_dev(discord_profile(rho_psi, thetas, 0.4), discord_profile(rho_phi, thetas, 0.4)))
    return Check("psi+ vs phi+ discord equality", dev, 1e-12)


def check_werner_discord():
    dev = 0.0
    p = cat_params(1.0)
    for family in MINUS_FAMILIES:
        for a in A_GRID:
            rho = werner_density(WernerSpec(family, float(a), p))
            closed = werner_discord_closed(float(a))
            dev = max(dev, _max_dev(discord_profile(rho, THETA_GRID_19[::2], 1.0), closed))
    return Check("Werner discord closed vs pipeline", dev, 1e-9)


def check_werner_basis_independence():
    dev = 0.0
    p = cat_params(0.5)
    for family in MINUS_FAMILIES:
        for a in (0.2, 0.5, 0.9):
            rho = werner_density(WernerSpec(family, a, p))
            # the first value is theta = 0, phi = 0: the reference basis
            values = np.concatenate([discord_profile(rho, THETA_GRID_19, phi) for phi in (0.0, 1.3, 2.6)])
            dev = max(dev, _max_dev(values, values[0]))
    return Check("Werner discord basis independence", dev, 1e-10)


def check_zurek():
    dev = 0.0
    for a in A_GRID:
        rho = zurek_density(float(a))
        closed = [zurek_discord(float(a), theta) for theta in THETA_GRID_19]
        dev = max(dev, _max_dev(closed, discord_profile(rho, THETA_GRID_19, 1.0)))
    return Check("einselection-state discord closed vs pipeline", dev, 1e-9)


def check_concurrence():
    dev = 0.0
    for spec in _all_specs():
        closed = concurrence_closed(spec)
        numeric = concurrence_mixed(werner_density(spec)).concurrence
        dev = max(dev, abs(closed - numeric))
    return Check("concurrence closed vs numeric", dev, 1e-9)


def check_werner_threshold():
    dev = 0.0
    p = cat_params(2.0)
    for family in MINUS_FAMILIES:
        for a in np.linspace(0.0, 1.0, 41):
            c = concurrence_mixed(werner_density(WernerSpec(family, float(a), p))).concurrence
            dev = max(dev, abs(c - max(0.0, (3.0 * a - 1.0) / 2.0)))
    return Check("Werner concurrence threshold (3a-1)/2", dev, 1e-10)


def concurrence_zero_crossing(mean_photon, tol=1e-9):
    """Bisect the mixing parameter where the psi+ concurrence turns on."""
    p = cat_params(mean_photon)

    def positive(a):
        spec = WernerSpec(StateFamily.PSI_PLUS, a, p)
        return concurrence_mixed(werner_density(spec)).concurrence > 0.0

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if positive(mid):
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
    dev = 0.0
    for a in np.linspace(0.0, 1.0, 101):
        for theta in THETA_GRID_19:
            dev = max(dev, abs(discord_quasi_closed(float(a), p, theta) - werner_discord_closed(float(a))))
    return Check("large-alpha collapse to Werner form", dev, 1e-6)


def check_psd():
    worst = 0.0
    for spec in _all_specs():
        low = float(eigvals_hermitian(werner_density(spec))[-1])
        worst = max(worst, -low)
    return Check("Werner density PSD (min eigenvalue)", worst, 1e-12)


def check_nonnegativity():
    worst = 0.0
    for family in StateFamily:
        for mp in MEAN_PHOTON_GRID:
            p = cat_params(mp)
            for a in A_GRID:
                rho = werner_density(WernerSpec(family, float(a), p))
                worst = max(worst, -float(discord_profile(rho, THETA_GRID_19[::3]).min()))
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
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            spec = WernerSpec(StateFamily.PSI_PLUS, float(a), p)
            numeric = _lambdas_numeric(werner_density(spec))
            d1, d4, r = _plus_family_elements(spec)
            b = (1.0 - float(a)) / 4.0
            root = math.sqrt(d1 * d4)
            kept = np.sort([root + r, b, b, root - r])[::-1]
            flipped = np.sort([1.0 / root + r, b, b, 1.0 / root - r])[::-1]
            dev_kept = max(dev_kept, float(np.max(np.abs(kept - numeric))))
            dev_flipped = max(dev_flipped, float(np.max(np.abs(flipped - numeric))))
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
