import math
from unittest import mock

import numpy as np
import pytest

from ecswerner import entanglement, qmatrix
from ecswerner.catstates import StateFamily, cat_params, concurrence_pure, ecs_concurrence, ecs_vector
from ecswerner.discord import werner_discord_closed
from ecswerner.entanglement import concurrence_closed, concurrence_mixed, eof, spin_flip
from ecswerner.qmatrix import density_from_vector
from ecswerner.werner import WernerSpec, werner_density

A_GRID = np.linspace(0.0, 1.0, 11)
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)

# pinned from a 40-digit evaluation of the binary entropy at (1 + sqrt(3/4))/2
EOF_AT_HALF = 0.35457890266526988


def wspec(family, a, mp):
    return WernerSpec(family, a, cat_params(mp))


# -- spin flip -------------------------------------------------------------------

def test_spin_flip_fixes_fully_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.max(np.abs(spin_flip(rho) - rho)) < 1e-15


def test_spin_flip_fixes_singlet():
    rho = density_from_vector(ecs_vector(StateFamily.PSI_MINUS, cat_params(1.0)))
    assert np.max(np.abs(spin_flip(rho) - rho)) < 1e-14


def test_spin_flip_swaps_outer_diagonal():
    rho = werner_density(wspec(StateFamily.PSI_PLUS, 0.7, 0.5))
    flipped = spin_flip(rho)
    assert abs(flipped[0, 0] - rho[3, 3]) < 1e-14
    assert abs(flipped[3, 3] - rho[0, 0]) < 1e-14
    assert abs(flipped[1, 1] - rho[2, 2]) < 1e-14
    assert abs(flipped[0, 3] - rho[0, 3]) < 1e-14  # corner preserved


# -- concurrence -----------------------------------------------------------------

def test_concurrence_validates_the_state_once():
    rho = werner_density(wspec(StateFamily.PSI_PLUS, 0.7, 0.5))
    with mock.patch.object(entanglement, "require_density_matrix", wraps=entanglement.require_density_matrix) as check, \
            mock.patch.object(qmatrix, "require_hermitian", wraps=qmatrix.require_hermitian) as hermitian:
        concurrence_mixed(rho)
    assert check.call_count == 1
    # the two factors of the product spectrum, each once
    assert hermitian.call_count == 2


def test_werner_concurrence_vanishes_at_threshold():
    res = concurrence_mixed(werner_density(wspec(StateFamily.PSI_MINUS, 1.0 / 3.0, 1.0)))
    assert abs(res.concurrence) < 1e-10


def test_pure_singlet_concurrence_and_eof():
    res = concurrence_mixed(werner_density(wspec(StateFamily.PHI_MINUS, 1.0, 1.0)))
    assert abs(res.concurrence - 1.0) < 1e-10
    assert abs(res.eof - 1.0) < 1e-10


def test_quasi_concurrence_closed_formula():
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            expected = max(0.0, float(a) * p.n_plus**2 / (2.0 * p.N_plus**2 * p.N_minus**2) - (1.0 - float(a)) / 2.0)
            res = concurrence_mixed(werner_density(wspec(StateFamily.PSI_PLUS, float(a), mp)))
            assert abs(res.concurrence - expected) < 1e-9


def test_result_invariants():
    res = concurrence_mixed(werner_density(wspec(StateFamily.PHI_PLUS, 0.8, 0.4)))
    lam = res.lambdas
    assert abs(res.concurrence - max(0.0, lam[0] - lam[1] - lam[2] - lam[3])) < 1e-12
    assert abs(res.eof - eof(res.concurrence)) < 1e-12


@pytest.mark.parametrize("family", list(StateFamily))
def test_pure_limit_matches_pure_concurrence(family):
    for mp in (0.05, 0.5, 2.0):
        p = cat_params(mp)
        mixed = concurrence_mixed(werner_density(WernerSpec(family, 1.0, p))).concurrence
        pure = concurrence_pure(ecs_vector(family, p))
        assert abs(mixed - pure) < 1e-10


@pytest.mark.parametrize("family", list(StateFamily))
def test_closed_vs_numeric_concurrence(family):
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            spec = WernerSpec(family, float(a), p)
            numeric = concurrence_mixed(werner_density(spec)).concurrence
            assert abs(concurrence_closed(spec) - numeric) < 1e-9


def test_werner_threshold_piecewise():
    p = cat_params(1.0)
    for a in np.linspace(0.0, 1.0, 41):
        c = concurrence_mixed(werner_density(WernerSpec(StateFamily.PSI_MINUS, float(a), p))).concurrence
        assert abs(c - max(0.0, (3.0 * float(a) - 1.0) / 2.0)) < 1e-10


def test_zero_crossing_by_bisection():
    p = cat_params(1.0)

    def has_concurrence(a):
        return concurrence_mixed(werner_density(WernerSpec(StateFamily.PSI_PLUS, a, p))).concurrence > 0.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if has_concurrence(mid):
            hi = mid
        else:
            lo = mid
    found = (lo + hi) / 2.0
    expected = 1.0 / (1.0 + 2.0 * ecs_concurrence(p))
    assert abs(found - expected) < 1e-8
    assert abs(found - 0.34152362) < 1e-4


# -- entanglement of formation -----------------------------------------------------

def test_eof_endpoints():
    assert eof(0.0) == 0.0
    assert eof(1.0) == 1.0


def test_eof_pinned_midpoint():
    assert abs(eof(0.5) - EOF_AT_HALF) < 1e-12


def test_eof_strictly_increasing():
    grid = np.linspace(1e-3, 1.0, 200)
    values = [eof(float(c)) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eof_domain():
    with pytest.raises(ValueError):
        eof(1.1)
    with pytest.raises(ValueError):
        eof(-0.1)
    assert eof(1.0 + 1e-12) == 1.0  # in-tolerance excursion clamps
    assert eof(-1e-12) == 0.0


# -- growth of E against minimum discord -------------------------------------------

def test_eof_outpaces_discord_past_the_peak():
    # between the delta-E peak (a ~ 0.435) and the near-pure regime where the
    # two measures pinch together, the gap E - delta strictly widens
    grid = np.linspace(0.5, 0.95, 101)
    gap = [eof(max(0.0, (3.0 * a - 1.0) / 2.0)) - werner_discord_closed(float(a)) for a in grid]
    assert all(b > a for a, b in zip(gap, gap[1:]))


def test_eof_total_rise_exceeds_discord_rise():
    # over [a', 1] the total increase of E beats the total increase of discord
    # (holds until delta - E changes sign near a ~ 0.879)
    for a in np.linspace(0.35, 0.85, 26):
        e_rise = 1.0 - eof(max(0.0, (3.0 * float(a) - 1.0) / 2.0))
        d_rise = 1.0 - werner_discord_closed(float(a))
        assert e_rise > d_rise
    # both measures are maximal for the pure state
    assert abs(eof(1.0) - werner_discord_closed(1.0)) < 1e-12
