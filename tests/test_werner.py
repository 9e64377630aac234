import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecswerner.catstates import ALPHA2_MIN, StateFamily, cat_params, ecs_vector
from ecswerner.qmatrix import SIGMA_Y, density_from_vector, eigvals_hermitian, partial_trace, tensor
from ecswerner.werner import (
    WernerSpec,
    _closed_lambdas,
    _closed_spectra,
    _plus_family_elements,
    spectrum_closed,
    werner_density,
    werner_stack,
    wootters_lambdas_closed,
)

A_GRID = np.linspace(0.0, 1.0, 11)
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
# |alpha|^2 from the cutoff to 10, log spaced
WIDE_MEAN_PHOTON_GRID = tuple(np.geomspace(1e-3, 10.0, 13).tolist())
# 0 and 1 exactly, and values whose binary expansions do not terminate
STACK_A_GRID = np.concatenate([np.linspace(0.0, 1.0, 21), [1e-3, 1.0 / 3.0, 0.7071067811865476, 1.0 - 1e-12]])

SYSY = tensor(SIGMA_Y, SIGMA_Y)


def spec(family, a, mp):
    return WernerSpec(family=family, mixing=a, params=cat_params(mp))


def product_spectrum_direct(rho):
    """Test-side oracle: general eigensolver on the raw product rho @ flipped(rho)."""
    flipped = SYSY @ rho.conj() @ SYSY
    vals = np.linalg.eigvals(rho @ flipped)
    assert np.max(np.abs(vals.imag)) < 1e-10
    return np.sort(np.clip(vals.real, 0.0, None))[::-1]


def test_mixing_range_is_validated():
    with pytest.raises(ValueError):
        spec(StateFamily.PSI_PLUS, 1.2, 1.0)
    with pytest.raises(ValueError):
        spec(StateFamily.PSI_PLUS, -0.1, 1.0)


def bits(x):
    return np.asarray(x).view(np.int64)


def reference_density(family, a, p):
    """werner_density by the one-matrix scalar code the shared formula replaces."""
    v = ecs_vector(family, p)
    return (1.0 - a) * np.eye(4, dtype=complex) / 4.0 + a * density_from_vector(v)


@pytest.mark.parametrize("family", list(StateFamily))
def test_stack_matches_per_spec_density(family):
    # every matrix of a stack equals the one-state builder bit for bit, and
    # both equal the scalar code
    for mp in WIDE_MEAN_PHOTON_GRID:
        p = cat_params(mp)
        expected = np.array([werner_density(WernerSpec(family, a, p)) for a in STACK_A_GRID.tolist()])
        reference = np.array([reference_density(family, a, p) for a in STACK_A_GRID.tolist()])
        assert np.array_equal(bits(expected), bits(reference))
        stack = werner_stack(family, STACK_A_GRID, p)
        assert stack.shape == (len(STACK_A_GRID), 4, 4)
        assert np.array_equal(bits(stack), bits(expected))
        for a, rho in zip(STACK_A_GRID.tolist(), expected):
            assert werner_stack(family, a, p).shape == (4, 4)
            assert np.array_equal(bits(werner_stack(family, a, p)), bits(rho))
        grid = werner_stack(family, STACK_A_GRID.reshape(5, 5), p)
        assert np.array_equal(bits(grid.reshape(-1, 4, 4)), bits(expected))


@pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
def test_stack_checks_mixing_range(bad):
    with pytest.raises(ValueError, match=r"mixing parameter must lie in \[0, 1\], got "):
        werner_stack(StateFamily.PSI_PLUS, [0.0, 0.5, bad], cat_params(1.0))
    with pytest.raises(ValueError, match=r"mixing parameter must lie in \[0, 1\], got "):
        werner_stack(StateFamily.PSI_PLUS, bad, cat_params(1.0))


def test_corner_weight_sites_match_spelled_out_expressions():
    # the corner weights a n+^2 / (4 N+-^4) keep the grouping they were
    # written with at each site; the two sites in discord are compared with
    # spelled-out scalar code in test_closed_forms_over_arrays_match_scalar
    for mp in WIDE_MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in STACK_A_GRID.tolist():
            d1, d4, r = _plus_family_elements(a, p)
            assert d1.hex() == ((1.0 - a) / 4.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4)).hex()
            assert d4.hex() == ((1.0 - a) / 4.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4)).hex()
            assert r.hex() == (a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)).hex()
            reduced = [
                (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4),
                (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4),
            ]
            got = spectrum_closed(spec(StateFamily.PHI_PLUS, a, mp)).reduced_y
            assert np.array_equal(bits(got), bits(np.sort(reduced)[::-1]))


def reference_spectra(family, a, p):
    """spectrum_closed by the one-state scalar code the array form replaces: (joint, reduced)."""
    joint = np.array([(1.0 + 3.0 * a) / 4.0] + [(1.0 - a) / 4.0] * 3)
    if family.maximally_entangled:
        reduced = np.array([0.5, 0.5])
    else:
        w1, w4 = a * p.n_plus**2 / (4.0 * p.N_plus**4), a * p.n_plus**2 / (4.0 * p.N_minus**4)
        reduced = np.array([(1.0 - a) / 2.0 + w1, (1.0 - a) / 2.0 + w4])
    return np.sort(joint)[::-1], np.sort(reduced)[::-1]


def reference_lambdas(family, a, p):
    """wootters_lambdas_closed by the one-state scalar code the array form replaces."""
    if family.maximally_entangled:
        return reference_spectra(family, a, p)[0]
    b = (1.0 - a) / 4.0
    d1 = (1.0 - a) / 4.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4)
    d4 = (1.0 - a) / 4.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4)
    r = a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    root = math.sqrt(d1 * d4)
    return np.sort(np.array([root + r, b, b, root - r]))[::-1]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(list(StateFamily)),
    st.floats(-3.0, 1.0),
    st.lists(st.floats(0.0, 1.0), max_size=20).map(lambda a: a + [0.0, 1.0]),
)
def test_array_closed_forms_match_one_state_calls(family, log_mp, a_values):
    # every row of the array cores equals its one-state call and the scalar
    # code they replace, bit for bit, at |alpha|^2 from the cutoff to 10
    p = cat_params(max(ALPHA2_MIN, 10.0**log_mp))
    spectra = _closed_spectra(family, np.array(a_values), p)
    lambdas = _closed_lambdas(family, np.array(a_values), p)
    assert spectra.joint.shape == lambdas.shape == (len(a_values), 4)
    assert spectra.reduced_y.shape == (len(a_values), 2)
    for k, a in enumerate(a_values):
        spec = WernerSpec(family, a, p)
        joint, reduced = reference_spectra(family, a, p)
        for got, expected in [
            (spectra.joint[k], joint),
            (spectrum_closed(spec).joint, joint),
            (spectra.reduced_y[k], reduced),
            (spectrum_closed(spec).reduced_y, reduced),
            (lambdas[k], reference_lambdas(family, a, p)),
            (wootters_lambdas_closed(spec), reference_lambdas(family, a, p)),
        ]:
            assert np.array_equal(bits(got), bits(expected))


def test_maximally_entangled_lambdas_are_the_joint_spectrum():
    for family in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS):
        for a in STACK_A_GRID.tolist():
            s = spec(family, a, 0.7)
            expected = np.sort(np.array([(1.0 + 3.0 * a) / 4.0] + [(1.0 - a) / 4.0] * 3))[::-1]
            assert np.array_equal(bits(wootters_lambdas_closed(s)), bits(expected))


def test_fully_mixed_limit():
    rho = werner_density(spec(StateFamily.PHI_PLUS, 0.0, 0.7))
    assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-15


def test_pure_limit_is_projector():
    s = spec(StateFamily.PSI_MINUS, 1.0, 0.7)
    expected = density_from_vector(ecs_vector(StateFamily.PSI_MINUS, s.params))
    assert np.max(np.abs(werner_density(s) - expected)) < 1e-15


def test_quasi_density_entries():
    a, mp = 0.5, 1.0
    p = cat_params(mp)
    rho = werner_density(spec(StateFamily.PSI_PLUS, a, mp))
    d1 = 0.25 + (a / 4.0) * (p.n_plus**2 / p.N_plus**4 - 1.0)
    d4 = 0.25 + (a / 4.0) * (p.n_plus**2 / p.N_minus**4 - 1.0)
    r = a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    expected = np.diag([d1, (1 - a) / 4.0, (1 - a) / 4.0, d4]).astype(complex)
    expected[0, 3] = expected[3, 0] = r
    assert np.max(np.abs(rho - expected)) < 1e-14


def test_quasi_density_spectrum_example():
    vals = eigvals_hermitian(werner_density(spec(StateFamily.PSI_PLUS, 0.5, 1.0)))
    assert np.max(np.abs(vals - np.array([0.625, 0.125, 0.125, 0.125]))) < 1e-12


def test_spectrum_closed_pure_singlet():
    spectra = spectrum_closed(spec(StateFamily.PSI_MINUS, 1.0, 1.0))
    assert np.allclose(spectra.joint, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(spectra.reduced_y, [0.5, 0.5])


def test_spectrum_closed_reduced_sums_to_one_at_pure_quasi():
    s = spec(StateFamily.PSI_PLUS, 1.0, 1.0)
    p = s.params
    reduced = spectrum_closed(s).reduced_y
    assert abs(reduced.sum() - 1.0) < 1e-12
    expected = sorted(
        [p.n_plus**2 / (4.0 * p.N_plus**4), p.n_plus**2 / (4.0 * p.N_minus**4)], reverse=True
    )
    assert np.max(np.abs(reduced - expected)) < 1e-14


@pytest.mark.parametrize("family", list(StateFamily))
def test_spectra_closed_vs_numeric_on_grid(family):
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            s = WernerSpec(family, float(a), p)
            rho = werner_density(s)
            closed = spectrum_closed(s)
            assert np.max(np.abs(closed.joint - eigvals_hermitian(rho))) < 1e-10
            assert np.max(np.abs(closed.reduced_y - eigvals_hermitian(partial_trace(rho, "Y")))) < 1e-10


def test_lambdas_fully_mixed():
    for family in StateFamily:
        lams = wootters_lambdas_closed(spec(family, 0.0, 0.3))
        assert np.allclose(lams, [0.25, 0.25, 0.25, 0.25])


def test_lambdas_pure_singlet():
    lams = wootters_lambdas_closed(spec(StateFamily.PSI_MINUS, 1.0, 0.3))
    assert np.allclose(lams, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("family", list(StateFamily))
def test_lambdas_squared_vs_direct_oracle(family):
    # compare at the product-spectrum level: the direct route loses absolute
    # accuracy under sqrt near rank deficiency, the spectra themselves do not
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            s = WernerSpec(family, float(a), p)
            closed_sq = np.sort(wootters_lambdas_closed(s) ** 2)[::-1]
            assert np.max(np.abs(closed_sq - product_spectrum_direct(werner_density(s)))) < 1e-10


@pytest.mark.parametrize("family", list(StateFamily))
def test_lambdas_closed_vs_numeric_route(family):
    from ecswerner.entanglement import spin_flip
    from ecswerner.qmatrix import eigvals_general_product

    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in A_GRID:
            s = WernerSpec(family, float(a), p)
            rho = werner_density(s)
            numeric = np.sqrt(eigvals_general_product(rho, spin_flip(rho)))
            assert np.max(np.abs(numeric - wootters_lambdas_closed(s))) < 1e-9


def test_density_spectrum_bounds_on_grid():
    for family in StateFamily:
        for mp in MEAN_PHOTON_GRID:
            for a in A_GRID:
                vals = eigvals_hermitian(werner_density(spec(family, float(a), mp)))
                assert vals[-1] >= -1e-12
                assert vals[0] <= 1.0 + 1e-10
                assert abs(vals.sum() - 1.0) < 1e-10


def test_plus_families_share_spectra():
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for a in (0.2, 0.5, 0.9):
            s_psi = WernerSpec(StateFamily.PSI_PLUS, a, p)
            s_phi = WernerSpec(StateFamily.PHI_PLUS, a, p)
            assert np.allclose(spectrum_closed(s_psi).joint, spectrum_closed(s_phi).joint)
            assert np.allclose(wootters_lambdas_closed(s_psi), wootters_lambdas_closed(s_phi))
            assert np.allclose(
                eigvals_hermitian(werner_density(s_psi)), eigvals_hermitian(werner_density(s_phi))
            )


def test_minus_families_share_spectra():
    p = cat_params(0.8)
    for a in (0.3, 0.7):
        s_psi = WernerSpec(StateFamily.PSI_MINUS, a, p)
        s_phi = WernerSpec(StateFamily.PHI_MINUS, a, p)
        assert np.allclose(
            eigvals_hermitian(werner_density(s_psi)), eigvals_hermitian(werner_density(s_phi))
        )
        assert np.allclose(wootters_lambdas_closed(s_psi), wootters_lambdas_closed(s_phi))
