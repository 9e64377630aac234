import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecswerner.catstates import StateFamily, cat_params, concurrence_pure, ecs_vector
from ecswerner.qmatrix import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    XLOGX_FLOOR,
    NumericalIntegrityError,
    _xlogx,
    density_from_vector,
    eigvals_general_product,
    eigvals_hermitian,
    partial_trace,
    require_density_matrix,
    require_density_stack,
    tensor,
    von_neumann_entropy,
    xlogx,
)

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def x_form_matrix(a, mean_photon):
    """The quasi-Werner matrix written out entry by entry (test-side oracle)."""
    p = cat_params(mean_photon)
    d1 = 0.25 + (a / 4.0) * (p.n_plus**2 / p.N_plus**4 - 1.0)
    d4 = 0.25 + (a / 4.0) * (p.n_plus**2 / p.N_minus**4 - 1.0)
    r = a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    b = (1.0 - a) / 4.0
    m = np.diag([d1, b, b, d4]).astype(complex)
    m[0, 3] = m[3, 0] = r
    return m


# -- tensor ------------------------------------------------------------------

def test_tensor_identity():
    assert np.array_equal(tensor(I2, I2), I4)


def test_tensor_sigmaz_identity():
    assert np.allclose(tensor(SIGMA_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_rejects_large_result():
    with pytest.raises(ValueError):
        tensor(I4, I2)


def test_singlet_is_spin_flip_invariant():
    rho = density_from_vector(SINGLET)
    sysy = tensor(SIGMA_Y, SIGMA_Y)
    rho_tilde = sysy @ rho.conj() @ sysy
    assert np.max(np.abs(rho_tilde - rho)) < 1e-14


# -- eigvals_hermitian ------------------------------------------------------

def test_eigvals_identity():
    assert np.allclose(eigvals_hermitian(I4), np.ones(4))


def test_eigvals_pauli_x():
    assert np.allclose(eigvals_hermitian(SIGMA_X), [1.0, -1.0])


def test_eigvals_quasi_werner_matrix():
    vals = eigvals_hermitian(x_form_matrix(0.5, 1.0))
    assert np.max(np.abs(vals - np.array([0.625, 0.125, 0.125, 0.125]))) < 1e-12


def test_eigvals_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian"):
        eigvals_hermitian(m)
    with pytest.raises(ValueError, match=r"^state 1: matrix is not Hermitian"):
        eigvals_hermitian(np.array([SIGMA_X, m, m]))


def test_eigvals_of_a_stack_carry_the_failing_index(monkeypatch):
    # the batched LinAlgError names no matrix; the one that fails alone is found
    marker = np.diag([0.1, 0.2]).astype(complex)
    real_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(m):
        if np.all(m == marker, axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(np.linalg.LinAlgError) as info:
        eigvals_hermitian(np.array([SIGMA_X, SIGMA_Z, marker]))
    assert info.value.index == 2


@pytest.mark.parametrize("fn", [density_from_vector, concurrence_pure])
def test_state_vector_must_be_normalized(fn):
    with pytest.raises(ValueError, match=r"^state vector must be normalized, got \|v\| = 1\.4142"):
        fn(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("fn", [density_from_vector, concurrence_pure])
def test_nan_state_vector_fails_the_unit_norm_gate(fn):
    with pytest.raises(ValueError, match=r"^state vector must be normalized, got \|v\| = nan$"):
        fn(np.array([np.nan, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("fn", [
    lambda m: partial_trace(m, "X"), eigvals_hermitian, von_neumann_entropy, lambda m: eigvals_general_product(m, m),
], ids=["partial_trace", "eigvals_hermitian", "von_neumann_entropy", "eigvals_general_product"])
@pytest.mark.parametrize("entries", [(slice(None), slice(None)), (1, 2), (3, 3)], ids=["all", "off-diagonal", "diagonal"])
def test_nan_matrix_fails_the_hermiticity_gate(fn, entries):
    # a NaN defect fails the gate rather than passing every comparison into the eigensolver
    rho = I4 / 4.0
    rho[entries] = np.nan
    with pytest.raises(ValueError, match=r"^(rho|matrix|a) is not Hermitian \(max \|M - M\^dag\| = nan\)$"):
        fn(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entry(bad):
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        require_density_matrix(rho)


def test_density_matrix_rejects_nan_matrix():
    # NaN passes every comparison-based check; without the finiteness check
    # eigvalsh raises LinAlgError instead
    with pytest.raises(ValueError, match="non-finite"):
        require_density_matrix(np.full((4, 4), np.nan), dim=4)


def test_density_matrix_trace_bound_lies_between_5e_11_and_2e_10():
    # a trace 2e-10 off 1 is rejected, one 5e-11 off is accepted
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 0] = 0.25 + 2e-10
    with pytest.raises(ValueError, match=r"^rho must have unit trace, got 1\.0000000002"):
        require_density_matrix(rho, dim=4)
    rho[0, 0] = 0.25 + 5e-11
    require_density_matrix(rho, dim=4)


def test_density_stack_reports_first_invalid_state():
    # a state that fails only the PSD check, ahead of a non-finite one, is
    # the one reported, as checking one state at a time would
    stack = np.array([I4 / 4.0, np.diag([0.5, 0.5, 0.1, -0.1]), I4 / 4.0, np.full((4, 4), np.nan)], dtype=complex)
    with pytest.raises(ValueError, match=r"^state 1: rho is not positive semidefinite"):
        require_density_stack(stack, dim=4)
    with pytest.raises(ValueError, match=r"^state 1: rho has a non-finite entry"):
        require_density_stack(stack[2:], dim=4)
    with pytest.raises(ValueError, match="stack of square matrices"):
        require_density_stack(I4 / 4.0)


# -- eigvals_general_product -------------------------------------------------

def test_product_identity():
    assert np.allclose(eigvals_general_product(I4, I4), np.ones(4))


def test_product_pure_singlet_rank_one():
    rho = density_from_vector(SINGLET)
    vals = eigvals_general_product(rho, rho)
    assert np.max(np.abs(vals - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-12


def test_product_matches_direct_eigenvalues():
    # direct non-symmetric solve on rho @ flipped(rho) as the independent route
    rho = x_form_matrix(0.5, 1.0)
    sysy = tensor(SIGMA_Y, SIGMA_Y)
    rho_tilde = sysy @ rho.conj() @ sysy
    direct = np.linalg.eigvals(rho @ rho_tilde)
    assert np.max(np.abs(direct.imag)) < 1e-10
    direct = np.sort(np.clip(direct.real, 0.0, None))[::-1]
    sandwich = eigvals_general_product(rho, rho_tilde)
    assert np.max(np.abs(direct - sandwich)) < 1e-10


def test_product_clamps_tiny_negative_eigenvalue():
    a = np.diag([1.0, -5e-11, 0.0, 0.0]).astype(complex)
    vals = eigvals_general_product(a, I4)
    assert vals.min() == 0.0


def test_product_integrity_error_on_real_negative():
    a = np.diag([1.0, -1e-8, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalIntegrityError):
        eigvals_general_product(a, I4)


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        eigvals_general_product(I2, I4)


# -- partial_trace -----------------------------------------------------------

def test_partial_trace_singlet():
    rho = density_from_vector(SINGLET)
    for keep in ("X", "Y"):
        assert np.max(np.abs(partial_trace(rho, keep) - I2 / 2.0)) < 1e-14


def test_partial_trace_product_state():
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_b = np.array([[0.2, 0.05], [0.05, 0.8]], dtype=complex)
    rho = tensor(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(rho, "X") - rho_a)) < 1e-14
    assert np.max(np.abs(partial_trace(rho, "Y") - rho_b)) < 1e-14


def test_partial_trace_quasi_werner_reduced():
    a, mp = 0.6, 0.5
    p = cat_params(mp)
    reduced = partial_trace(x_form_matrix(a, mp), "Y")
    expected = np.diag(
        [
            (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4),
            (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4),
        ]
    )
    assert np.max(np.abs(reduced - expected)) < 1e-12


def test_partial_trace_wrong_dim():
    with pytest.raises(ValueError):
        partial_trace(I2 / 2.0, "X")


def test_partial_trace_requires_unit_trace():
    with pytest.raises(ValueError):
        partial_trace(I4, "X")


def test_partial_trace_bad_label():
    with pytest.raises(ValueError):
        partial_trace(I4 / 4.0, "Z")


# -- von_neumann_entropy ------------------------------------------------------

def test_entropy_pure_state():
    assert 0.0 <= von_neumann_entropy(density_from_vector(SINGLET)) < 1e-12


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(I2 / 2.0) - 1.0) < 1e-14
    assert abs(von_neumann_entropy(I4 / 4.0) - 2.0) < 1e-14


def test_entropy_requires_unit_trace():
    with pytest.raises(ValueError):
        von_neumann_entropy(2.0 * I4)


# -- random-input invariants ---------------------------------------------------

finite = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def density_matrices(draw, dim=4):
    entries = draw(
        st.lists(st.tuples(finite, finite), min_size=dim * dim, max_size=dim * dim)
    )
    g = np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    gram = g @ g.conj().T + 1e-3 * np.eye(dim)
    return gram / np.trace(gram).real


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_eigendecomposition_sums(rho):
    vals = eigvals_hermitian(rho)
    assert abs(vals.sum() - np.trace(rho).real) < 1e-10
    assert abs((vals**2).sum() - np.trace(rho @ rho).real) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(density_matrices(), min_size=1, max_size=40))
def test_stacked_eigvals_match_per_matrix(rhos):
    stacked = eigvals_hermitian(np.array(rhos))
    assert stacked.shape == (len(rhos), 4)
    assert [v.hex() for v in stacked.ravel().tolist()] == [
        v.hex() for rho in rhos for v in eigvals_hermitian(rho).tolist()
    ]


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_eigendecomposition_reconstructs(rho):
    vals, vecs = np.linalg.eigh(rho)
    residual = np.max(np.abs(rho - (vecs * vals) @ vecs.conj().T))
    assert residual < 1e-10


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_entropy_bounds(rho):
    s = von_neumann_entropy(rho)
    assert -1e-10 <= s <= 2.0 + 1e-10


@settings(max_examples=60, deadline=None)
@given(density_matrices())
def test_partial_trace_preserves_trace(rho):
    for keep in ("X", "Y"):
        assert abs(np.trace(partial_trace(rho, keep)).real - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(density_matrices(dim=2), density_matrices(dim=2))
def test_tensor_partial_trace_adjointness(rho_a, rho_b):
    joint = tensor(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(joint, "X") - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, "Y") - rho_b)) < 1e-12


@pytest.mark.parametrize("family", list(StateFamily))
def test_projector_construction_is_hermitian(family):
    v = ecs_vector(family, cat_params(0.7))
    rho = density_from_vector(v)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


# -- xlogx over arrays ---------------------------------------------------------

# numpy links SVML, whose float64 log2 differs from libm's, into its Linux x86-64 builds, and runs it on AVX-512 CPUs
SVML = sys.platform == "linux" and platform.machine() == "x86_64" and __cpu_features__.get("AVX512_SKX", False)


def xlogx_hexes(p):
    return [v.hex() for v in np.ravel(_xlogx(p)).tolist()]


def scalar_hexes(p):
    return [xlogx(v).hex() for v in np.ravel(p).tolist()]


def test_xlogx_matches_scalar_where_simd_log2_differs():
    # _xlogx takes its logs through numpy's scalar loop, which calls libm's
    # log2 as math.log2 does; numpy's SIMD loop (SVML) differs from it in
    # the last bit on about one value in 500, so a numpy that ever sends
    # the call through SIMD fails here
    p = np.random.default_rng(32).uniform(0.0, 1.0, 250_000)
    p = p[p > 0.0]
    assert xlogx_hexes(p) == scalar_hexes(p)
    differs = p[np.log2(p) != np.array([math.log2(v) for v in p.tolist()])]
    if SVML:
        assert differs.size  # these values do test the SIMD path
    # the values where plain np.log2 differs, at lengths 0, 1, 2 and 17, as
    # a 0-d array, as an (S, n, 2) stack and as a strided view of one
    sample = np.resize(differs if differs.size else p, 200)
    stack = sample.reshape(2, 50, 2)
    for shaped in (sample[:0], sample[:1], sample[:2], sample[:17], sample[0, ...], stack, stack[:, ::-3]):
        assert xlogx_hexes(shaped) == scalar_hexes(shaped)
        assert np.shape(_xlogx(shaped)) == np.shape(shaped)
    # the floor, the values either side of it, subnormals and the non-finite
    below = np.nextafter(XLOGX_FLOOR, 0.0)
    special = np.array([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1.0, 2.0, XLOGX_FLOOR, below, below / 2.0,
                        np.nextafter(XLOGX_FLOOR, 1.0), 5e-324, 2.2250738585072014e-308])
    assert xlogx_hexes(special) == scalar_hexes(special)
