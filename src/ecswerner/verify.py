"""Closed-form-vs-numeric verification suite.

Every closed-form expression shipped by this library is re-derived here
through the independent brute-force route (explicit matrices, dense
eigensolves, the generic measurement pipeline) and the worst deviation is
reported per check.  The suite also records the two sign/exponent
conventions that were adjudicated numerically when the closed forms were
fixed, so the evidence stays visible in every report.

Each check builds its states as one stack and makes one stacked pipeline
call on it (one per phase in the basis-independence check), and takes its
closed side from the array closed forms over the whole grid.  Only the
zero-crossing bisection goes one state at a time: each step needs the last.
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
from .entanglement import _closed_concurrence, concurrence_mixed
from .qmatrix import eigvals_hermitian, partial_trace
from .werner import (
    WernerSpec,
    _closed_lambdas,
    _closed_spectra,
    _plus_family_elements,
    werner_density,
    werner_stack,
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
    """The largest |x - y|, NaN if any difference is NaN."""
    return float(np.max(np.abs(np.subtract(x, y))))


def _worst(deviations):
    """The largest of the deviations, NaN if any is NaN (max() keeps a number over a later NaN)."""
    deviations = list(deviations)
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _werner_grid(families=StateFamily, mean_photons=MEAN_PHOTON_GRID, a_grid=A_GRID):
    """The (family, cat parameters) pairs, by family and |alpha|^2, and their werner_stacks over a_grid in one array."""
    params = [(family, cat_params(mp)) for family in families for mp in mean_photons]
    return params, np.concatenate([werner_stack(family, a_grid, p) for family, p in params])


def _closed(form, params):
    """An array closed form form(family, a, p) over A_GRID for each (family, p) of params, concatenated."""
    return np.concatenate([form(family, np.array(A_GRID), p) for family, p in params])


def check_joint_spectrum():
    params, rhos = _werner_grid()
    closed = _closed(lambda *key: _closed_spectra(*key).joint, params)
    return Check("joint-spectrum closed vs numeric", _max_dev(closed, eigvals_hermitian(rhos)), 1e-10)


def check_reduced_spectrum():
    params, rhos = _werner_grid()
    closed = _closed(lambda *key: _closed_spectra(*key).reduced_y, params)
    dev = _max_dev(closed, eigvals_hermitian(partial_trace(rhos, "Y")))
    return Check("reduced-Y-spectrum closed vs numeric", dev, 1e-10)


def check_lambdas():
    params, rhos = _werner_grid()
    dev = _max_dev(_closed(_closed_lambdas, params), [res.lambdas for res in concurrence_mixed(rhos)])
    return Check("spin-flip lambdas closed vs numeric", dev, 1e-9)


def check_quasi_discord():
    params, rhos = _werner_grid(PLUS_FAMILIES)
    closed = np.concatenate([discord_quasi_closed(np.array(A_GRID)[:, None], p, THETA_GRID_19) for _, p in params])
    dev = _max_dev(closed, discord_profile(rhos, THETA_GRID_19))
    return Check("quasi-Werner discord closed vs pipeline", dev, 1e-9)


def check_plus_family_equality():
    # the psi+ states are the first half of the stack, the phi+ states the second
    psi, phi = np.split(discord_profile(_werner_grid(PLUS_FAMILIES)[1], THETA_GRID_19[::3], 0.4), 2)
    return Check("psi+ vs phi+ discord equality", _max_dev(psi, phi), 1e-12)


def check_werner_discord():
    values = discord_profile(_werner_grid(MINUS_FAMILIES, (1.0,))[1], THETA_GRID_19[::2], 1.0)
    closed = np.tile(werner_discord_closed(A_GRID), len(MINUS_FAMILIES))[:, None]
    return Check("Werner discord closed vs pipeline", _max_dev(values, closed), 1e-9)


def check_werner_basis_independence():
    rhos = _werner_grid(MINUS_FAMILIES, (0.5,), (0.2, 0.5, 0.9))[1]
    # the first value of each state is theta = 0, phi = 0: the reference basis
    values = np.concatenate([discord_profile(rhos, THETA_GRID_19, phi) for phi in (0.0, 1.3, 2.6)], axis=1)
    return Check("Werner discord basis independence", _max_dev(values, values[:, :1]), 1e-10)


def check_zurek():
    closed = zurek_discord(np.array(A_GRID)[:, None], THETA_GRID_19)
    dev = _max_dev(closed, discord_profile(zurek_density(A_GRID), THETA_GRID_19, 1.0))
    return Check("einselection-state discord closed vs pipeline", dev, 1e-9)


def check_concurrence():
    params, rhos = _werner_grid()
    dev = _max_dev(_closed(_closed_concurrence, params), [res.concurrence for res in concurrence_mixed(rhos)])
    return Check("concurrence closed vs numeric", dev, 1e-9)


def check_werner_threshold():
    a_grid = np.linspace(0.0, 1.0, 41)
    rhos = _werner_grid(MINUS_FAMILIES, (2.0,), a_grid)[1]
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
    a_grid = np.linspace(0.0, 1.0, 101)
    closed = discord_quasi_closed(a_grid[:, None], cat_params(5.0), THETA_GRID_19)
    dev = _max_dev(closed, werner_discord_closed(a_grid)[:, None])
    return Check("large-alpha collapse to Werner form", dev, 1e-6)


def check_psd():
    worst = _worst([0.0, -float(eigvals_hermitian(_werner_grid()[1])[:, -1].min())])
    return Check("Werner density PSD (min eigenvalue)", worst, 1e-12)


def check_nonnegativity():
    values = discord_profile(_werner_grid()[1], THETA_GRID_19[::3])
    return Check("discord non-negativity", _worst([0.0, -float(values.min())]), 1e-9)


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
    params, rhos = _werner_grid((StateFamily.PSI_PLUS,))
    numeric = [res.lambdas for res in concurrence_mixed(rhos)]
    d1, d4, r = np.concatenate([_plus_family_elements(np.array(A_GRID), p) for _, p in params], axis=1)
    b = (1.0 - np.tile(A_GRID, len(params))) / 4.0
    root = np.sqrt(d1 * d4)
    flipped = np.sort(np.stack([1.0 / root + r, b, b, 1.0 / root - r], axis=-1))[:, ::-1]
    bracket_note = (
        "spin-flip lambda bracket: sqrt(d1*d4) reading max dev {:.3e} (kept); "
        "1/sqrt(d1*d4) reading max dev {:.3e} (rejected)".format(
            _max_dev(_closed(_closed_lambdas, params), numeric), _max_dev(flipped, numeric)
        )
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
