"""Closed-form-vs-numeric verification suite.

Every closed-form expression shipped by this library is re-derived here
through the independent brute-force route (explicit matrices, dense
eigensolves, the generic measurement pipeline) and the worst deviation is
reported per check.  The suite also records the two sign/exponent
conventions that were adjudicated numerically when the closed forms were
fixed, so the evidence stays visible in every report.

Each check builds its states as one stack and makes one stacked pipeline
call on it (one per phase in the basis-independence check), and takes its
closed side from the array closed forms over the whole grid.  A grid or
result that several checks read is made once per run_verification() call
(_once).  The zero-crossing bisection takes BISECTION_LEVELS steps per call.
"""

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .catstates import StateFamily, cat_params, ecs_concurrence
from .discord import discord_profile, discord_quasi_closed, werner_discord_closed, zurek_density, zurek_discord
from .entanglement import _closed_concurrence, concurrence_mixed
from .qmatrix import eigvals_hermitian, partial_trace
from .werner import _closed_lambdas, _closed_spectra, _plus_family_elements, werner_stack

A_GRID = tuple(np.linspace(0.0, 1.0, 11))
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID_19 = tuple(np.linspace(0.0, math.pi, 19))
ZERO_CROSSING_TOL = 1e-9
BISECTION_LEVELS = 4  # per stacked call, of 2**L - 1 states: 3 to 5 were the fastest of 1 to 7 in-process

PLUS_FAMILIES = (StateFamily.PSI_PLUS, StateFamily.PHI_PLUS)
MINUS_FAMILIES = (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS)
_MEMO = contextvars.ContextVar("verify_memo", default=None)  # the run_verification() call's memo (_once)


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


def _once(key, make):
    """make(), made once per key within a run_verification() call, and on every call outside one; never written to."""
    memo = _MEMO.get()
    if memo is not None and key not in memo:
        memo[key] = make()
    return make() if memo is None else memo[key]


def _werner_grid(families=StateFamily, mean_photons=MEAN_PHOTON_GRID, a_grid=A_GRID):
    """The (family, cat parameters) pairs, by family and |alpha|^2, and their werner_stacks over a_grid in one array."""
    params = [(family, cat_params(mp)) for family in families for mp in mean_photons]
    stack = _once((tuple(params), tuple(a_grid)), lambda: np.concatenate([werner_stack(f, a_grid, p) for f, p in params]))
    return params, stack


def _of_grid(fn, families=StateFamily, *args):
    """fn(the _werner_grid(families) stack, *args), made once per run (_once)."""
    return _once((fn, tuple(families), *args), lambda: fn(_werner_grid(families)[1], *args))


def _closed(form, params):
    """An array closed form form(family, a, p) over A_GRID for each (family, p) of params, concatenated."""
    return np.concatenate([form(family, np.array(A_GRID), p) for family, p in params])


def check_joint_spectrum():
    closed = _closed(lambda *key: _closed_spectra(*key).joint, _werner_grid()[0])
    return Check("joint-spectrum closed vs numeric", _max_dev(closed, _of_grid(eigvals_hermitian)), 1e-10)


def check_reduced_spectrum():
    params, rhos = _werner_grid()
    closed = _closed(lambda *key: _closed_spectra(*key).reduced_y, params)
    dev = _max_dev(closed, eigvals_hermitian(partial_trace(rhos, "Y")))
    return Check("reduced-Y-spectrum closed vs numeric", dev, 1e-10)


def check_lambdas():
    dev = _max_dev(_closed(_closed_lambdas, _werner_grid()[0]), [res.lambdas for res in _of_grid(concurrence_mixed)])
    return Check("spin-flip lambdas closed vs numeric", dev, 1e-9)


def check_quasi_discord():
    params = _werner_grid(PLUS_FAMILIES)[0]
    closed = np.concatenate([discord_quasi_closed(np.array(A_GRID)[:, None], p, THETA_GRID_19) for _, p in params])
    dev = _max_dev(closed, _of_grid(discord_profile, PLUS_FAMILIES, THETA_GRID_19))
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
    dev = _max_dev(_closed(_closed_concurrence, _werner_grid()[0]), [res.concurrence for res in _of_grid(concurrence_mixed)])
    return Check("concurrence closed vs numeric", dev, 1e-9)


def check_werner_threshold():
    a_grid = np.linspace(0.0, 1.0, 41)
    rhos = _werner_grid(MINUS_FAMILIES, (2.0,), a_grid)[1]
    expected = np.tile(np.maximum(0.0, (3.0 * a_grid - 1.0) / 2.0), len(MINUS_FAMILIES))
    dev = _max_dev([res.concurrence for res in concurrence_mixed(rhos)], expected)
    return Check("Werner concurrence threshold (3a-1)/2", dev, 1e-10)


def concurrence_zero_crossing(mean_photon):
    """Bisect the mixing parameter where the psi+ concurrence turns on, BISECTION_LEVELS steps per stacked call."""
    p = cat_params(mean_photon)
    lo, hi = 0.0, 1.0
    while hi - lo > ZERO_CROSSING_TOL:
        nodes = [(lo, hi)]  # the bisection tree in heap order: node k's halves are 2k + 1 (lower) and 2k + 2
        for k in range(1, 2**BISECTION_LEVELS - 1):
            a, b = nodes[(k - 1) // 2]
            nodes.append((a, (a + b) / 2.0) if k % 2 else ((a + b) / 2.0, b))
        mids = [(a + b) / 2.0 for a, b in nodes]
        results, k = concurrence_mixed(werner_stack(StateFamily.PSI_PLUS, np.array(mids), p)), 0
        while k < len(mids) and hi - lo > ZERO_CROSSING_TOL:
            if results[k].concurrence > 0.0:
                hi, k = mids[k], 2 * k + 1
            else:
                lo, k = mids[k], 2 * k + 2
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
    worst = _worst([0.0, -float(_of_grid(eigvals_hermitian)[:, -1].min())])
    return Check("Werner density PSD (min eigenvalue)", worst, 1e-12)


def check_nonnegativity():
    # each value depends only on its own state and angle: the psi+/phi+ values are columns of their profile
    plus = _of_grid(discord_profile, PLUS_FAMILIES, THETA_GRID_19)[:, ::3]
    minus = discord_profile(_werner_grid(MINUS_FAMILIES)[1], THETA_GRID_19[::3])
    return Check("discord non-negativity", _worst([0.0, -float(plus.min()), -float(minus.min())]), 1e-9)


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
    grid = _werner_grid()[0]
    params = [(family, p) for family, p in grid if family is StateFamily.PSI_PLUS]
    families = [family for family, _ in grid for _ in A_GRID]  # of each state of the grid
    numeric = [res.lambdas for res, f in zip(_of_grid(concurrence_mixed), families) if f is StateFamily.PSI_PLUS]
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
    """Run every check, with one memo for this call (_once); returns (checks, notes)."""
    token = _MEMO.set({})
    try:
        return [fn() for fn in ALL_CHECKS], convention_notes()
    finally:
        _MEMO.reset(token)
