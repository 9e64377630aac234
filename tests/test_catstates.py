import math

import numpy as np
import pytest

from ecswerner.catstates import (
    ALPHA2_MIN,
    StateFamily,
    cat_params,
    concurrence_pure,
    ecs_concurrence,
    ecs_vector,
)

MEAN_PHOTON_GRID = (0.001, 0.01, 0.02, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0)


def test_cat_params_at_unit_mean_photon():
    p = cat_params(1.0)
    assert abs(p.x - 0.36787944117144233) < 1e-15
    assert abs(p.N_plus - 0.6636253001422875) < 1e-14
    # definition identities, relative
    assert abs(p.x - math.exp(-1.0)) <= 1e-15 * p.x
    assert abs(p.N_plus - (2.0 * (1.0 + p.x**2)) ** -0.5) <= 1e-14 * p.N_plus
    assert abs(p.N_minus - (2.0 * (1.0 - p.x**2)) ** -0.5) <= 1e-14 * p.N_minus
    assert abs(p.n_plus - (2.0 * (1.0 + p.x**4)) ** -0.5) <= 1e-14 * p.n_plus
    assert abs(p.n_minus - (2.0 * (1.0 - p.x**4)) ** -0.5) <= 1e-14 * p.n_minus


def test_cat_params_large_mean_photon_asymptote():
    p = cat_params(20.0)
    assert abs(p.N_plus - 2.0**-0.5) < 1e-8
    assert abs(p.N_minus - 2.0**-0.5) < 1e-8


def test_cat_params_below_cutoff():
    with pytest.raises(ValueError):
        cat_params(0.0005)
    cat_params(ALPHA2_MIN)  # boundary is allowed


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cat_params_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        cat_params(value)


@pytest.mark.parametrize("mp", MEAN_PHOTON_GRID)
def test_normalization_identity(mp):
    p = cat_params(mp)
    val = p.n_plus**2 * (1.0 / p.N_plus**4 + 1.0 / p.N_minus**4) / 4.0
    assert abs(val - 1.0) < 1e-12


def test_psi_minus_vector_is_fixed():
    v = ecs_vector(StateFamily.PSI_MINUS, cat_params(3.7))
    assert np.max(np.abs(v - np.array([0.0, 0.70710678118654752, 0.70710678118654752, 0.0]))) < 1e-15


def test_psi_plus_large_alpha_is_balanced():
    v = ecs_vector(StateFamily.PSI_PLUS, cat_params(20.0))
    assert abs(v[0] - 2.0**-0.5) < 1e-8
    assert abs(v[3] - 2.0**-0.5) < 1e-8


@pytest.mark.parametrize("mp", MEAN_PHOTON_GRID)
@pytest.mark.parametrize("family", list(StateFamily))
def test_vectors_are_normalized(family, mp):
    v = ecs_vector(family, cat_params(mp))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_concurrence_of_maximally_entangled_families():
    p = cat_params(0.3)
    assert concurrence_pure(ecs_vector(StateFamily.PSI_MINUS, p)) == 1.0
    assert concurrence_pure(ecs_vector(StateFamily.PHI_MINUS, p)) == 1.0


def test_concurrence_psi_plus_half_photon():
    # (1 - e^-2) / (1 + e^-2) = tanh(1)
    c = concurrence_pure(ecs_vector(StateFamily.PSI_PLUS, cat_params(0.5)))
    assert abs(c - 0.7615941559557649) < 1e-12


def test_concurrence_product_state():
    assert concurrence_pure(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_concurrence_requires_normalization():
    with pytest.raises(ValueError):
        concurrence_pure(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("mp", MEAN_PHOTON_GRID)
@pytest.mark.parametrize("family", [StateFamily.PSI_PLUS, StateFamily.PHI_PLUS])
def test_concurrence_matches_closed_form(family, mp):
    p = cat_params(mp)
    assert abs(concurrence_pure(ecs_vector(family, p)) - ecs_concurrence(p)) < 1e-12


def test_concurrence_is_monotone_in_mean_photon():
    # strictly increasing until the concurrence saturates at 1 within double
    # precision (x^4 drops below machine epsilon near |alpha|^2 ~ 9)
    grid = np.geomspace(ALPHA2_MIN, 8.0, 50)
    values = [concurrence_pure(ecs_vector(StateFamily.PSI_PLUS, cat_params(mp))) for mp in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    for mp in (12.0, 20.0):
        assert abs(concurrence_pure(ecs_vector(StateFamily.PSI_PLUS, cat_params(mp))) - 1.0) < 1e-12


@pytest.mark.parametrize("mp", MEAN_PHOTON_GRID)
def test_plus_family_overlap(mp):
    p = cat_params(mp)
    psi = ecs_vector(StateFamily.PSI_PLUS, p)
    phi = ecs_vector(StateFamily.PHI_PLUS, p)
    overlap = complex(np.vdot(psi, phi))
    expected = (p.n_plus**2 / 4.0) * (1.0 / p.N_plus**4 - 1.0 / p.N_minus**4)
    assert abs(overlap - expected) < 1e-12


def test_plus_family_overlap_vanishes_at_large_alpha():
    p = cat_params(20.0)
    overlap = np.vdot(ecs_vector(StateFamily.PSI_PLUS, p), ecs_vector(StateFamily.PHI_PLUS, p))
    assert abs(overlap) < 1e-8


def test_family_parse():
    assert StateFamily.parse("psi+") is StateFamily.PSI_PLUS
    assert StateFamily.parse("phi-") is StateFamily.PHI_MINUS
    with pytest.raises(ValueError):
        StateFamily.parse("chi+")
