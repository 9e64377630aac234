import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecswerner import discord, qmatrix
from ecswerner.catstates import StateFamily, cat_params
from ecswerner.cli import DEFAULT_ALPHA2
from ecswerner.discord import (
    MIN_SLICE_STATES,
    MeasurementBasis,
    _measure,
    _projectors,
    _xlogx,
    conditional_states,
    discord_at,
    discord_min,
    discord_min_ranges,
    discord_profile,
    discord_profile_ranges,
    discord_quasi_closed,
    mutual_information,
    quasi_probabilities,
    werner_discord_closed,
    zurek_density,
    zurek_discord,
)
from ecswerner.qmatrix import (
    DEGENERATE_PROB,
    NumericalIntegrityError,
    eigvals_hermitian,
    partial_trace,
    require_density_matrix,
    require_density_stack,
    tensor,
    von_neumann_entropy,
    xlogx,
)
from ecswerner.werner import WernerSpec, werner_density, werner_stack

I4 = np.eye(4, dtype=complex) / 4.0

A_GRID = np.linspace(0.0, 1.0, 11)
MEAN_PHOTON_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
THETA_GRID = np.linspace(0.0, math.pi, 19)
angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)

# values pinned from the brute-force measurement pipeline before release
ZUREK_AT_EIGHTH = 0.6008760366928562
QUASI_HALF_UNIT_QUARTER = 0.2497044603024302
WERNER_AT_THIRD = 0.12581458369391152


def quasi(a, mp, family=StateFamily.PSI_PLUS):
    return werner_density(WernerSpec(family, a, cat_params(mp)))


def results_sha256(results):
    """sha256 of the repr of results: a float's repr round-trips, so it pins every bit and each field's type."""
    return hashlib.sha256(repr(results).encode()).hexdigest()


# -- measurement basis ---------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.8])
@pytest.mark.parametrize("phi", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_projectors_are_orthonormal(theta, phi):
    pi0, pi1 = MeasurementBasis(theta, phi).projector_vectors()
    assert abs(np.vdot(pi0, pi0) - 1.0) < 1e-14
    assert abs(np.vdot(pi1, pi1) - 1.0) < 1e-14
    assert abs(np.vdot(pi0, pi1)) < 1e-14


# -- conditional states --------------------------------------------------------

def test_conditional_states_fully_mixed():
    (r0, p0), (r1, p1) = conditional_states(I4, MeasurementBasis(0.83, 1.2))
    assert abs(p0 - 0.5) < 1e-14 and abs(p1 - 0.5) < 1e-14
    assert np.max(np.abs(r0 - np.eye(2) / 2.0)) < 1e-14
    assert np.max(np.abs(r1 - np.eye(2) / 2.0)) < 1e-14


def test_conditional_probability_at_theta_zero():
    a, mp = 0.4, 0.7
    p = cat_params(mp)
    (_, p0), (_, p1) = conditional_states(quasi(a, mp), MeasurementBasis(0.0))
    assert abs(p0 - ((1 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4))) < 1e-14
    assert abs(p0 + p1 - 1.0) < 1e-12


def test_conditional_spectra_match_closed_form():
    a, mp = 0.5, 1.0
    basis = MeasurementBasis(math.pi / 3, 0.7)
    pairs = conditional_states(quasi(a, mp), basis)
    for rho_c, prob in pairs:
        expected = sorted([(1 - a) / (4 * prob), 1 - (1 - a) / (4 * prob)], reverse=True)
        assert np.max(np.abs(eigvals_hermitian(rho_c) - expected)) < 1e-12


def test_conditional_entries_match_closed_form():
    a, mp, theta, phi = 0.63, 0.4, 1.05, 0.7
    p = cat_params(mp)
    w1 = p.n_plus**2 / p.N_plus**4
    w4 = p.n_plus**2 / p.N_minus**4
    r = p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    ct, st = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    (r0, p0), (r1, p1) = conditional_states(quasi(a, mp), MeasurementBasis(theta, phi))

    m0 = np.array(
        [
            [0.25 + (a / 4.0) * (w1 * ct**2 - 1.0), a * r * e * st * ct],
            [a * r * e.conjugate() * st * ct, 0.25 + (a / 4.0) * (w4 * st**2 - 1.0)],
        ]
    ) / p0
    m1 = np.array(
        [
            [0.25 + (a / 4.0) * (w1 * st**2 - 1.0), -a * r * e * st * ct],
            [-a * r * e.conjugate() * st * ct, 0.25 + (a / 4.0) * (w4 * ct**2 - 1.0)],
        ]
    ) / p1
    assert np.max(np.abs(r0 - m0)) < 1e-12
    assert np.max(np.abs(r1 - m1)) < 1e-12


def test_degenerate_branch_is_flagged_and_harmless():
    # measuring |+,+> along theta = pi/2 gives an outcome of probability ~0;
    # that branch carries the placeholder state and no entropy weight
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    rho = np.outer(v, v.conj())
    (r0, p0), (r1, p1) = conditional_states(rho, MeasurementBasis(math.pi / 2.0))
    assert p0 < 1e-14
    assert np.max(np.abs(r0 - np.eye(2) / 2.0)) < 1e-14
    assert abs(p1 - 1.0) < 1e-12
    assert abs(discord_at(rho, MeasurementBasis(math.pi / 2.0)).value) < 1e-12


def test_degenerate_branch_bound_lies_between_1e_16_and_1e_12():
    # a branch of probability 1e-12 is measured: its normalized block is |0><0|
    rho = np.diag([1.0 - 1e-12, 1e-12, 0.0, 0.0]).astype(complex)
    _, (r1, p1) = conditional_states(rho, MeasurementBasis(0.0))
    assert p1 == 1e-12
    assert np.array_equal(r1, np.diag([1.0, 0.0]))
    # a branch of probability 1e-16 is degenerate: the placeholder, and no
    # entropy weight, though its maximally mixed block would add 1e-16 bits
    rho = np.diag([1.0 - 1e-16, 5e-17, 0.0, 5e-17]).astype(complex)
    _, (r1, p1) = conditional_states(rho, MeasurementBasis(0.0))
    assert p1 == 1e-16
    assert np.array_equal(r1, np.eye(2) / 2.0)
    assert discord_at(rho, MeasurementBasis(0.0)).value.hex() == "0x0.0p+0"


def test_quasi_probabilities_match_conditionals():
    a, mp, theta = 0.8, 0.2, 2.1
    (_, p0), (_, p1) = conditional_states(quasi(a, mp), MeasurementBasis(theta))
    q0, q1 = quasi_probabilities(a, cat_params(mp), theta)
    assert abs(p0 - q0) < 1e-14
    assert abs(p1 - q1) < 1e-14


# -- mutual information --------------------------------------------------------

def test_mutual_information_product_state():
    rho_a = np.array([[0.8, 0.0], [0.0, 0.2]], dtype=complex)
    rho_b = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    assert abs(mutual_information(tensor(rho_a, rho_b))) < 1e-12


def test_mutual_information_pure_singlet():
    rho = werner_density(WernerSpec(StateFamily.PSI_MINUS, 1.0, cat_params(1.0)))
    assert abs(mutual_information(rho) - 2.0) < 1e-12


def test_mutual_information_bounds_on_grid():
    for family in StateFamily:
        for a in A_GRID[::2]:
            mi = mutual_information(quasi(float(a), 0.5, family))
            assert -1e-10 <= mi <= 2.0 + 1e-10


def test_mutual_information_splits_into_discord_plus_classical():
    rho = werner_density(WernerSpec(StateFamily.PSI_MINUS, 1.0 / 3.0, cat_params(1.0)))
    res = discord_at(rho, MeasurementBasis(0.0))
    assert abs(mutual_information(rho) - (werner_discord_closed(1.0 / 3.0) + res.classical_corr)) < 1e-9


# -- discord_at ----------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.7, 1.8])
def test_discord_fully_mixed_is_zero(theta):
    assert abs(discord_at(I4, MeasurementBasis(theta, 0.9)).value) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, 1.8])
def test_discord_pure_werner_is_one(theta):
    rho = werner_density(WernerSpec(StateFamily.PHI_MINUS, 1.0, cat_params(0.5)))
    assert abs(discord_at(rho, MeasurementBasis(theta)).value - 1.0) < 1e-9


# results_sha256 of discord_at on the states and bases below, and of
# discord_min on mixed_stack(): the fields of a state at one angle, pinned
# bit for bit
DISCORD_AT_SHA256 = "2f5a6c1e160b06d696f1905ed0f790c12f209cd5017e8bc9b932e2dfdf395ddd"
DISCORD_MIN_SHA256 = "bae5a15751c18679e4e7d1aaf12d6ad43a94e3f1ad828e6a7a1024858b09badf"


def test_discord_at_fields_are_pinned():
    states = [quasi(0.7, 1.0), quasi(0.4, 0.2, StateFamily.PHI_MINUS), zurek_density(0.6)]
    # an int theta stays an int, and phi != 0 takes the complex kernel
    bases = [MeasurementBasis(0.0), MeasurementBasis(1), MeasurementBasis(0.3, 1.2), MeasurementBasis(2.5, 0.4),
             MeasurementBasis(math.pi / 4)]
    results = [discord_at(rho, basis) for rho in states for basis in bases]
    assert type(results[1].theta_min) is int
    assert results_sha256(results) == DISCORD_AT_SHA256


def mixed_stack():
    """501 states: every family at 4 mean photon numbers x 25 mixing weights, then 101 einselection states."""
    a = np.linspace(0.0, 1.0, 25)
    stacks = [werner_stack(family, a, cat_params(mp)) for family in StateFamily for mp in (0.01, 0.5, 2.0, 7.0)]
    return np.concatenate(stacks + [zurek_density(np.linspace(0.0, 1.0, 101))])


def test_discord_min_fields_are_pinned():
    assert results_sha256(discord_min(mixed_stack())) == DISCORD_MIN_SHA256


def test_discord_result_invariants():
    res = discord_at(quasi(0.5, 1.0), MeasurementBasis(1.1, 0.3))
    assert abs(res.value - (res.mutual_info - res.classical_corr)) < 1e-12
    assert abs(sum(res.probabilities) - 1.0) < 1e-12
    assert res.value >= -1e-9


def test_plus_families_have_equal_discord():
    for mp in MEAN_PHOTON_GRID:
        for a in (0.2, 0.6, 1.0):
            basis = MeasurementBasis(0.9, 1.7)
            d_psi = discord_at(quasi(a, mp, StateFamily.PSI_PLUS), basis).value
            d_phi = discord_at(quasi(a, mp, StateFamily.PHI_PLUS), basis).value
            assert abs(d_psi - d_phi) < 1e-12


@st.composite
def measured_states(draw):
    """A Werner, quasi-Werner or einselection-benchmark density matrix."""
    a = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return zurek_density(a)
    family = draw(st.sampled_from(list(StateFamily)))
    return quasi(a, draw(st.floats(1e-3, 20.0)), family)


def scalar_reference_discord(rho, theta, phi):
    """Discord at one basis by the per-angle scalar arithmetic the kernel batches."""
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    cond = 0.0
    for pi in (np.array([c, e * s]), np.array([s, -e * c])):
        m = np.einsum("abcd,b,d->ac", rho.reshape(2, 2, 2, 2), pi.conj(), pi)
        p = float(m[0, 0].real + m[1, 1].real)
        if p < DEGENERATE_PROB:
            continue
        det = m[0, 0].real * m[1, 1].real - (m[0, 1] * m[1, 0]).real
        gap = math.sqrt(max(p * p / 4.0 - det, 0.0))
        e0 = min(max((p / 2.0 + gap) / p, 0.0), 1.0)
        e1 = min(max((p / 2.0 - gap) / p, 0.0), 1.0)
        cond += p * -(xlogx(e0) + xlogx(e1))
    s_x = von_neumann_entropy(partial_trace(rho, "X"))
    mutual = s_x + von_neumann_entropy(partial_trace(rho, "Y")) - von_neumann_entropy(rho)
    return mutual - (s_x - cond)


xlogx_args = st.one_of(
    st.floats(-1.0, 2.0),
    st.floats(0.0, 1e-14),
    st.sampled_from([0.0, -0.0, 1e-15, 1.0, math.nan, math.inf]),
)


@given(st.lists(xlogx_args, max_size=50))
def test_array_xlogx_matches_scalar(values):
    got = _xlogx(np.array(values, dtype=float))
    assert [v.hex() for v in got.tolist()] == [float(xlogx(v)).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(
    measured_states(),
    st.one_of(st.just([]), st.lists(angles, min_size=1, max_size=1), st.lists(angles, max_size=40)),
    angles,
)
def test_discord_profile_matches_pointwise(rho, thetas, phi):
    # the batched kernel gives every angle exactly the value it gives alone
    profile = discord_profile(rho, thetas, phi)
    assert profile.shape == (len(thetas),)
    assert profile.tolist() == [discord_at(rho, MeasurementBasis(t, phi)).value for t in thetas]
    assert profile.tolist() == [scalar_reference_discord(rho, t, phi) for t in thetas]


@settings(max_examples=30, deadline=None)
@given(st.lists(measured_states(), max_size=40), st.lists(angles, max_size=20), angles)
def test_stacked_profile_matches_per_state(states, thetas, phi):
    # a stacked call (crossing the slice size) gives every state exactly the
    # profile it gets alone
    stack = np.array(states, dtype=complex).reshape(-1, 4, 4)
    stacked = discord_profile(stack, thetas, phi)
    assert stacked.shape == (len(states), len(thetas))
    assert stacked.tolist() == [discord_profile(rho, thetas, phi).tolist() for rho in states]


@settings(max_examples=30, deadline=None)
@given(st.lists(measured_states(), min_size=1, max_size=40), st.lists(angles, max_size=20), angles, st.data())
def test_profile_ranges_match_the_whole_profile(states, thetas, phi, data):
    # any range of states gets exactly its rows of the whole profile, and
    # measures without an eigensolve: every one ran when the ranges were made
    stack = np.array(states, dtype=complex)
    values = discord_profile_ranges(stack, thetas, phi)
    lo = data.draw(st.integers(0, len(states)))
    hi = data.draw(st.integers(lo, len(states)))
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigensolve in a range")):
        part = values(lo, hi)
    assert part.tolist() == discord_profile(stack, thetas, phi)[lo:hi].tolist()


def test_stacked_profile_crosses_slices():
    states = [quasi(float(a), 0.3) for a in np.linspace(0.0, 1.0, 2 * MIN_SLICE_STATES + 3)]
    stacked = discord_profile(np.array(states), THETA_GRID)
    assert stacked.tolist() == [discord_profile(rho, THETA_GRID).tolist() for rho in states]


# -- measurement kernel: the real path -------------------------------------------

def einsum_blocks(rhos, vecs):
    """The complex einsum of the measurement kernel, the reference for its real path."""
    return np.einsum("sabcd,snjb,snjd->snjac", rhos.reshape(-1, 2, 2, 2, 2), vecs.conj(), vecs)


def by_einsum(fn, *args):
    """fn(*args) with the kernel's real blocks replaced by the complex einsum."""
    with mock.patch.object(discord, "_real_blocks", einsum_blocks):
        return fn(*args)


@st.composite
def real_states(draw):
    """A real density matrix: random, often with zero entries and not X-form, or a library state."""
    if draw(st.booleans()):
        return draw(measured_states())
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    g = np.array(draw(st.lists(entry, min_size=16, max_size=16))).reshape(4, 4)
    rho = g @ g.T
    trace = np.trace(rho)
    return rho / trace if trace > 1e-3 else np.eye(4) / 4.0


# angles where sin or cos vanishes or changes sign, and the rest of a period
kernel_angles = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2.0, math.pi, -math.pi / 2.0]), angles)


# a real state with -0 entries, from g g^T: at theta = 0 its real products
# give -0 in block entries (0, 1) and (1, 0) of outcome 0, the einsum +0
NEGATIVE_ZERO_STATE = np.array([
    [1 / 3, 0.0, -0.0, -1 / 6],
    [0.0, 1 / 6, -1 / 6, -1 / 6],
    [-0.0, -1 / 6, 1 / 6, 1 / 6],
    [-1 / 6, -1 / 6, 1 / 6, 1 / 3],
])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(real_states(), min_size=1, max_size=40),
    st.integers(0, 12),
    st.booleans(),
    st.sampled_from([0.0, -0.0]),
    st.data(),
)
@example([np.eye(4) / 4.0, NEGATIVE_ZERO_STATE], 1, False, 0.0, None)
def test_real_path_matches_complex_einsum(states, n, per_state, phi, data):
    # a real stack at phi = +-0 takes the real path, and its blocks, P_j and
    # conditional entropies equal the complex einsum's as float hex, signed
    # zeros included; so does a stacked profile, which measures in slices
    rhos = np.array(states, dtype=complex)
    shape = (len(states), n) if per_state else (n,)
    size = int(np.prod(shape))
    if data is None:  # the explicit example: theta = 0
        thetas = np.zeros(shape)
    else:
        thetas = np.array(data.draw(st.lists(kernel_angles, min_size=size, max_size=size))).reshape(shape)
    got = _measure(rhos, thetas, phi)
    want = by_einsum(_measure, rhos, thetas, phi)
    assert got[0].dtype == np.float64 and want[0].dtype == np.complex128
    assert got[0].shape == want[0].shape and not want[0].imag.any()
    assert hexes(got[0]) == hexes(want[0].real)
    assert hexes(got[1]) == hexes(want[1]) and hexes(got[2]) == hexes(want[2])
    if not per_state:
        assert hexes(discord_profile(rhos, thetas, phi)) == hexes(by_einsum(discord_profile, rhos, thetas, phi))


X_TWO_PAIRS = (np.eye(4) + np.eye(4)[::-1]) != 0
X_ONE_PAIR = X_TWO_PAIRS.copy()
X_ONE_PAIR[0, 3] = X_ONE_PAIR[3, 0] = False
# the entries each stack of kernel_stacks may hold nonzero: a real X state
# with one coherence pair, one with two, or any entry
KERNEL_PATTERNS = [X_ONE_PAIR, X_TWO_PAIRS, np.ones((4, 4), dtype=bool)]
# -0 diagonals and +0 coherences: at theta = 2 block entry (0, 0) of
# outcome 0 sums four -0 real products, where the einsum gives +0
NEGATIVE_ZERO_DIAGONAL = np.diag([-0.0, -0.0, 0.5, 0.5])


@st.composite
def kernel_stacks(draw):
    """A stack of real 4x4 matrices, each nonzero only inside one pattern; the rest are +0, or +-0."""
    pattern = draw(st.sampled_from(KERNEL_PATTERNS))
    zeros = st.sampled_from([0.0, -0.0]) if draw(st.booleans()) else st.just(0.0)
    # signed zeros, exact values and any value in [-1, 1]: diagonals may be 0
    # or negative, off-diagonals negative
    entry = st.one_of(zeros, st.sampled_from([1.0, -0.5, 0.25]), st.floats(-1.0, 1.0))
    nonzero = int(pattern.sum())
    stack = np.empty((draw(st.integers(1, 6)), 4, 4))
    for rho in stack:
        rho[pattern] = draw(st.lists(entry, min_size=nonzero, max_size=nonzero))
        rho[~pattern] = draw(st.lists(zeros, min_size=16 - nonzero, max_size=16 - nonzero))
    return stack


@settings(max_examples=100, deadline=None)
@given(kernel_stacks(), st.integers(1, 6), st.booleans(), st.data())
@example(NEGATIVE_ZERO_DIAGONAL[None], 1, False, None)
def test_real_blocks_equal_the_full_sum(rhos, n, per_state, data):
    # the kernel's constant 0.0 for a term whose entry is 0 in every state
    # leaves every bit of the einsum's 16-term sum, signed zeros included
    shape = (len(rhos), n) if per_state else (n,)
    if data is None:  # the explicit example: theta = 2, where cos < 0 < sin
        thetas = np.full(shape, 2.0)
    else:
        size = int(np.prod(shape))
        pool = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2.0, math.pi, -math.pi]), angles)
        thetas = np.array(data.draw(st.lists(pool, min_size=size, max_size=size))).reshape(shape)
    vecs = _projectors(np.atleast_2d(thetas), 0.0)
    rhos = rhos.astype(complex)
    assert hexes(discord._real_blocks(rhos, vecs)) == hexes(einsum_blocks(rhos, vecs).real)


class CountedProducts(np.ndarray):
    """An array that counts the products formed with it, its views, or what other ufuncs make of it.

    A product is a plain array; any other ufunc's array result, such as a
    copy r + 0.0, counts on.
    """

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.multiply and method == "__call__":
            CountedProducts.products += 1
            return out
        return out.view(CountedProducts) if isinstance(out, np.ndarray) else out


def test_real_blocks_form_only_the_nonzero_terms():
    # a psi+ state is an X state with one coherence pair: 6 of its 16
    # entries are nonzero, so each block entry forms only their products
    rhos = werner_stack(StateFamily.PSI_PLUS, np.linspace(0.0, 1.0, 5), cat_params(0.5))
    assert np.count_nonzero(rhos.real.any(axis=0)) == 6
    vecs = _projectors(np.atleast_2d(THETA_GRID), 0.0)
    CountedProducts.products = 0
    blocks = discord._real_blocks(rhos.view(CountedProducts), vecs)
    assert CountedProducts.products == 6
    assert hexes(blocks) == hexes(einsum_blocks(rhos, vecs).real)


def test_complex_inputs_keep_the_complex_einsum():
    # a complex Hermitian state at phi = 0, and a real one at phi != 0, give the
    # einsum's complex blocks bit for bit
    thetas = np.linspace(-math.pi, math.pi, 13)
    for rhos, phi in ((np.array([random_state(7), random_state(8)]), 0.0), (np.array([quasi(0.4, 0.7)]), 0.9)):
        got = _measure(rhos, thetas, phi)[0]
        want = einsum_blocks(rhos, _projectors(np.atleast_2d(thetas), phi))
        assert got.dtype == np.complex128
        assert hexes(got.real) == hexes(want.real) and hexes(got.imag) == hexes(want.imag)


@pytest.mark.parametrize("phi", [0.0, 1.3])
@pytest.mark.parametrize("rho", [quasi(0.4, 0.7), quasi(0.9, 2.0, StateFamily.PHI_MINUS), zurek_density(0.3)])
def test_conditional_states_are_complex(rho, phi):
    # complex 2x2 matrices at every phase, equal to the normalized einsum blocks
    basis = MeasurementBasis(0.3, phi)
    blocks = einsum_blocks(rho[None], _projectors([[basis.theta]], basis.phi))[0, 0]
    for (got, prob), m in zip(conditional_states(rho, basis), blocks):
        assert got.dtype == np.complex128
        want = m / prob
        assert hexes(got.real) == hexes(want.real) and hexes(got.imag) == hexes(want.imag)


def scalar_reference_entropy(rho):
    """von Neumann entropy by the per-matrix arithmetic the stacked entropy replaces."""
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    return float(0.0 - sum(xlogx(float(v)) for v in vals))


SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
entropy_states = st.one_of(
    measured_states(),
    st.sampled_from([I4, np.outer(SINGLET, SINGLET.conj()), quasi(0.0, 0.5), quasi(1.0, 0.5), zurek_density(1.0)]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(entropy_states, max_size=30))
def test_stacked_entropy_matches_per_matrix(states):
    # the entropy of a stack, joint and reduced, equals the per-matrix value
    # and the per-matrix arithmetic as float hex
    stack = np.array(states, dtype=complex).reshape(-1, 4, 4)
    for matrices in (stack, partial_trace(stack, "X"), partial_trace(stack, "Y")):
        got = hexes(von_neumann_entropy(matrices))
        assert got == [float(von_neumann_entropy(m)).hex() for m in matrices]
        assert got == [scalar_reference_entropy(m).hex() for m in matrices]


def test_stacked_entropy_of_pure_and_mixed_states():
    # pure, maximally mixed, a = 0 and a = 1 states, every one in a single stack
    stack = np.array([np.outer(SINGLET, SINGLET.conj()), I4, quasi(0.0, 0.5), quasi(1.0, 0.5), zurek_density(1.0)])
    values = von_neumann_entropy(stack)
    assert hexes(values) == [scalar_reference_entropy(m).hex() for m in stack]
    assert np.max(np.abs(values - [0.0, 2.0, 2.0, 0.0, 0.0])) < 1e-12


def invalid(kind, rho):
    """rho made invalid in one way: a NaN entry, non-Hermitian, off unit trace or not PSD."""
    rho = rho.copy()
    if kind == "nan":
        rho[1, 2] = math.nan
    elif kind == "hermitian":
        rho[0, 1] += 1e-6
    elif kind == "trace":
        rho *= 1.01
    else:
        rho = np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex)
    return rho


@settings(max_examples=40, deadline=None)
@given(
    st.lists(measured_states(), min_size=1, max_size=24),
    st.sampled_from(["nan", "hermitian", "trace", "psd"]),
    st.data(),
)
def test_invalid_stack_names_state(states, kind, data):
    # a stack with one invalid state at position k raises the per-state
    # error, its message prefixed "state k: ", from every stacked entry point
    k = data.draw(st.integers(0, len(states) - 1))
    states[k] = invalid(kind, states[k])
    with pytest.raises(ValueError) as single:
        require_density_matrix(states[k], dim=4)
    expected = f"state {k}: {single.value}"
    for call in (
        lambda stack: require_density_stack(stack, dim=4),
        lambda stack: discord_profile(stack, THETA_GRID),
        lambda stack: discord_profile_ranges(stack, THETA_GRID),
        discord_min,
        discord_min_ranges,
    ):
        with pytest.raises(ValueError) as stacked:
            call(np.array(states))
        assert str(stacked.value) == expected


def test_stacked_entropy_clamp_names_state():
    # the reduced X state of the state at position 2 has the eigenvalue
    # -1.8e-10, below the clamp tolerance
    eps = 0.9e-10
    stack = np.array([I4, I4, np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]), I4], dtype=complex)
    with pytest.raises(NumericalIntegrityError, match=r"^state 2: eigenvalue -1\.8") as info:
        discord_profile(stack, THETA_GRID)
    assert info.value.index == 2
    with pytest.raises(NumericalIntegrityError, match=r"^eigenvalue -1\.8") as info:
        von_neumann_entropy(partial_trace(stack[2], "X"))
    assert info.value.index is None


def test_the_pipeline_checks_a_stack_once():
    # state 1 is Hermitian within the tolerance, 0.8e-12 off in rho_13 and
    # rho_24, but its reduced X state adds the two, 1.6e-12 off: a check of
    # the reduced states again would reject a stack that passed its own
    good = werner_stack(StateFamily.PSI_PLUS, np.array([0.5, 0.5]), cat_params(1.0))
    rhos = good.copy()
    rhos[1, 0, 2] += 0.8e-12
    rhos[1, 1, 3] += 0.8e-12
    require_density_stack(rhos)
    for call in (lambda stack: discord_profile(stack, THETA_GRID), lambda stack: [r.value for r in discord_min(stack)]):
        with mock.patch.object(qmatrix, "_hermiticity_check", wraps=qmatrix._hermiticity_check) as check:
            values = call(rhos)
        assert check.call_count == 1
        assert np.max(np.abs(np.subtract(values, call(good)))) < 1e-9


# -- discord_min ---------------------------------------------------------------

def test_min_fully_mixed():
    res = discord_min(I4)
    assert abs(res.value) < 1e-12


def test_min_location_small_mean_photon():
    # at small |alpha|^2 the optimum sits at theta in {0, pi/2, pi}
    grid_step = math.pi / 180.0
    targets = (0.0, math.pi / 2.0, math.pi)
    for a in (0.3, 0.6, 0.9):
        res = discord_min(quasi(a, 0.1))
        assert min(abs(res.theta_min - t) for t in targets) <= grid_step + 1e-9


def test_min_is_theta_independent_for_werner():
    rho = werner_density(WernerSpec(StateFamily.PSI_MINUS, 0.7, cat_params(1.0)))
    res = discord_min(rho)
    at_zero = discord_at(rho, MeasurementBasis(0.0)).value
    assert abs(res.value - at_zero) < 1e-10


def test_min_bounds_every_sampled_basis():
    rho = quasi(0.8, 0.3)
    best = discord_min(rho).value
    for theta in THETA_GRID:
        assert best <= discord_at(rho, MeasurementBasis(theta)).value + 1e-9


def random_state(seed):
    """A generic (seeded) random state; its discord depends on the phase."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_min_rejects_phase_sensitive_input():
    with pytest.raises(NumericalIntegrityError):
        discord_min(random_state(7))


@pytest.mark.parametrize("k", [0, 5, 16, 22])
def test_stacked_min_names_phase_sensitive_state(k):
    stack = [quasi(float(a), 0.5) for a in np.linspace(0.0, 1.0, 24)]
    stack[k] = random_state(7)
    with pytest.raises(NumericalIntegrityError, match=rf"^state {k}: discord varies") as info:
        discord_min(np.array(stack))
    assert info.value.index == k


@settings(max_examples=20, deadline=None)
@given(st.lists(measured_states(), min_size=1, max_size=40))
def test_stacked_min_matches_per_state(states):
    # lockstep minimization over a stack (crossing the slice size) gives
    # every state exactly the result it gets alone
    stacked = discord_min(np.array(states))
    assert isinstance(stacked, list)
    assert stacked == [discord_min(rho) for rho in states]


def test_stacked_min_of_empty_stack():
    assert discord_min(np.zeros((0, 4, 4), dtype=complex)) == []


@settings(max_examples=20, deadline=None)
@given(st.lists(measured_states(), min_size=1, max_size=40), st.data())
def test_min_ranges_match_the_whole_minimization(states, data):
    # any range of states gets exactly its rows of the whole minimization's
    # field arrays, which are discord_min's results field for field, and
    # minimizes without an eigensolve: every one ran when the ranges were made
    stack = np.array(states, dtype=complex)
    minimize = discord_min_ranges(stack)
    lo = data.draw(st.integers(0, len(states)))
    hi = data.draw(st.integers(lo, len(states)))
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigensolve in a range")):
        part = minimize(lo, hi)
    whole = minimize(0, len(states))
    assert [np.shape(field) for field in part] == [(hi - lo,)] * 4 + [(hi - lo, 2)]
    assert [hexes(field) for field in part] == [hexes(field[lo:hi]) for field in whole]
    assert result_hexes(discord_min(stack)[lo:hi]) == [hexes([*row[:4], *row[4]]) for row in zip(*part)]


# -- discord_min: the coarse scan and the structural phase test -----------------

def exact_scan(rhos, parts, grid):
    """The coarse scan as one exact pass: every grid discord, then each row's first argmin and its value."""
    values = discord._sliced_discord(rhos, parts, grid, 0.0)
    k = np.argmin(values, axis=1)
    return k, values[np.arange(len(k)), k]


def result_hexes(results):
    return [
        hexes([r.value, r.theta_min, r.mutual_info, r.classical_corr, *r.probabilities]) for r in results
    ]


@st.composite
def complex_x_states(draw):
    """An X state with one complex coherence pair, rho_14 or rho_23: its discord does not depend on the phase."""
    d = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    d = d / d.sum()
    i, j = draw(st.sampled_from([(0, 3), (1, 2)]))
    r, chi = draw(st.floats(0.0, 1.0)), draw(angles)
    rho = np.diag(d).astype(complex)
    rho[i, j] = r * math.sqrt(d[i] * d[j]) * complex(math.cos(chi), math.sin(chi))
    rho[j, i] = rho[i, j].conjugate()
    return rho


# library states whose lowest grid discord is reached, to within 1.2e-16, at
# two grid points, so the scan's first argmin decides (found by a search
# over the four families)
CLOSE_MINIMA = (
    (0.13625118258762414, 8.612238187780266, StateFamily.PSI_MINUS),
    (0.02715373512239183, 1.5127941902634963, StateFamily.PSI_MINUS),
    (6.920593441383789e-07, 1.6413434770864046, StateFamily.PHI_PLUS),
    (0.32803786201280594, 7.6569941421649705, StateFamily.PSI_PLUS),
    (0.016921535237545898, 0.001264790721547033, StateFamily.PHI_MINUS),
)

min_states = st.one_of(
    measured_states(),
    st.sampled_from([I4, quasi(0.0, 0.5), quasi(1e-6, 0.5), quasi(1e-6, 5.0, StateFamily.PHI_MINUS)]),
    st.sampled_from(CLOSE_MINIMA).map(lambda args: quasi(*args)),
    st.builds(quasi, st.floats(0.0, 1.0), st.floats(1e-3, 20.0), st.sampled_from([StateFamily.PSI_MINUS, StateFamily.PHI_MINUS])),
    complex_x_states(),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(min_states, min_size=MIN_SLICE_STATES + 1, max_size=40))
def test_min_matches_the_exact_scan(states):
    # the coarse scan finds the exact scan's k and value, so every field of
    # every result is the same float, on stacks that cross the slice size and
    # mix flat (Werner psi-/phi-, I/4), nearly flat (a = 1e-6) and complex
    # states
    stack = np.array(states)
    with mock.patch.object(discord, "_coarse_minimum", exact_scan):
        want = discord_min(stack)
    assert result_hexes(discord_min(stack)) == result_hexes(want)


def test_min_matches_the_exact_scan_where_grid_minima_are_close():
    stack = np.array([quasi(*args) for args in CLOSE_MINIMA])
    with mock.patch.object(discord, "_coarse_minimum", exact_scan):
        want = discord_min(stack)
    assert result_hexes(discord_min(stack)) == result_hexes(want)


def bell_diagonal(c, c3):
    """(I + c (XX + YY) + c3 ZZ) / 4, an X state with one coherence pair, rho_23 = c / 2."""
    rho = np.diag([1.0 + c3, 1.0 - c3, 1.0 - c3, 1.0 + c3]).astype(complex) / 4.0
    rho[1, 2] = rho[2, 1] = c / 2.0
    return rho


quasi_specs = st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 400.0), st.sampled_from(list(StateFamily)))
# (c, c3) with |c| <= (1 - c3) / 2, so that bell_diagonal(c, c3) is positive
bell_specs = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(lambda f: (f[0] * (1.0 - f[1]) / 2.0, f[1]))

# theta on [0, pi] in quarter degrees, 0 and pi/2 among them
EXACT_SCAN_THETAS = np.linspace(0.0, math.pi, 721)


@settings(max_examples=25, deadline=None)
@given(st.lists(quasi_specs, min_size=MIN_SLICE_STATES + 1, max_size=40), st.lists(bell_specs, min_size=1, max_size=4))
@example(
    specs=[(1e-6, 0.5, StateFamily.PSI_PLUS), (1e-6, 5.0, StateFamily.PHI_MINUS), (1.0, 400.0, StateFamily.PHI_PLUS)] * 6,
    bells=[(0.4, 0.1)],
)
def test_min_matches_the_closed_forms(specs, bells):
    # each minimum against formulas that share no code with the minimizer:
    # a scan of the closed form for psi+/phi+, the theta-free Werner discord
    # for psi-/phi- (the largest deviation seen is 1.4e-15), and for the
    # Bell-diagonal states the lower of sigma_z (theta = 0) and sigma_x
    # (theta = pi/4) by the scalar arithmetic, one of which is optimal when
    # c1 = c2 (Luo, PRA 77, 042303, 2008); where |c| > |c3| sigma_x wins, a
    # minimum strictly inside (0, pi/2) that the first grid point misses
    want = [
        float(np.min(discord_quasi_closed(a, cat_params(mp), EXACT_SCAN_THETAS)))
        if family in (StateFamily.PSI_PLUS, StateFamily.PHI_PLUS)
        else werner_discord_closed(a)
        for a, mp, family in specs
    ]
    want += [min(scalar_reference_discord(bell_diagonal(*b), t, 0.0) for t in (0.0, math.pi / 4.0)) for b in bells]
    stack = np.array([quasi(*spec) for spec in specs] + [bell_diagonal(*b) for b in bells])
    assert np.max(np.abs(np.array([res.value for res in discord_min(stack)]) - want)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(real_states(), min_size=1, max_size=20), st.lists(kernel_angles, min_size=1, max_size=30))
def test_entropy_sum_of_the_spectra_is_the_kernel_value(states, thetas):
    rhos = require_density_stack(np.array(states, dtype=complex), dim=4)
    parts = discord._discord_parts(rhos)
    spectra = discord._spectra(rhos, thetas, 0.0)[1]
    exact = discord._discord(parts, discord._entropy_sum(spectra))
    assert hexes(exact) == hexes(discord_profile(rhos, thetas))


def real_x_state_with_two_pairs():
    """A real X state with diagonal 1/4, rho_14 = 0.25 and rho_23 = 0.1: its discord moves with the phase."""
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = rho[3, 0] = 0.25
    rho[1, 2] = rho[2, 1] = 0.1
    return rho


def test_phase_free_states():
    library = [quasi(a, mp, f) for f in StateFamily for a in (0.0, 0.4, 1.0) for mp in (1e-3, 0.5, 5.0)]
    library += [I4, zurek_density(0.3)]
    assert discord._phase_free(np.array(library)).all()
    off_x = quasi(0.4, 0.5)
    off_x[0, 1] = off_x[1, 0] = 1e-3
    assert not discord._phase_free(np.array([real_x_state_with_two_pairs(), random_state(7), off_x])).any()


@pytest.mark.parametrize("k", [0, 5, 16, 22])
def test_two_pair_x_state_is_probed(k):
    # X form is not enough to skip the phase probe: with both coherence
    # pairs nonzero the state is probed, and raises with the probe's
    # deviation and its position
    stack = [quasi(float(a), 0.5) for a in np.linspace(0.0, 1.0, 24)]
    stack[k] = real_x_state_with_two_pairs()
    probe = np.array([discord_profile(stack[k], discord.PHI_PROBE_THETAS, phi) for phi in discord.PHI_PROBE])
    worst = float(np.max(np.abs(probe[1:] - probe[:1])))
    assert worst > 0.1
    expected = (
        f"state {k}: discord varies with measurement phase by {worst:.3e}; "
        "input is outside the X-form class this minimizer assumes"
    )
    with pytest.raises(NumericalIntegrityError) as info:
        discord_min(np.array(stack))
    assert str(info.value) == expected and info.value.index == k


def test_sweep_min_skips_the_probe_and_screens_the_scan():
    # the default quasi-curves stacks of psi+ and of psi- (flat in theta):
    # no complex einsum call (the phase probe's), and the scan takes every
    # log2 through numpy, none through math.log2
    rhos = np.concatenate([werner_stack(family, np.linspace(0.0, 1.0, 101), cat_params(mp))
                           for family in (StateFamily.PSI_PLUS, StateFamily.PSI_MINUS) for mp in DEFAULT_ALPHA2])
    subscripts, values = [], []
    real_einsum = np.einsum

    def einsum(spec, *operands, **kwargs):
        subscripts.append(spec)
        return real_einsum(spec, *operands, **kwargs)

    def counting_xlogx(p):
        values.append(np.size(p))
        return _xlogx(p)

    with mock.patch.object(discord.np, "einsum", einsum), mock.patch.object(discord, "_xlogx", counting_xlogx), \
            mock.patch.object(qmatrix.math, "log2", side_effect=AssertionError("math.log2 called")):
        discord_min(rhos)
    assert "sabcd,snjb,snjd->snjac" not in subscripts
    assert sum(values) > 0


# -- closed forms ---------------------------------------------------------------

def test_zurek_endpoints():
    for theta in np.linspace(-math.pi, math.pi, 361):
        assert abs(zurek_discord(1.0, float(theta)) - 1.0) < 1e-12
    for theta in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, -math.pi):
        assert abs(zurek_discord(0.0, theta)) < 1e-12


def test_zurek_pinned_value():
    assert abs(zurek_discord(0.0, math.pi / 8.0) - ZUREK_AT_EIGHTH) < 1e-12


def test_zurek_matches_pipeline():
    for a in (0.0, 0.3, 0.8, 1.0):
        rho = zurek_density(a)
        for theta in (0.0, math.pi / 8.0, 1.0, 2.5):
            piped = discord_at(rho, MeasurementBasis(theta, 1.0)).value
            assert abs(zurek_discord(a, theta) - piped) < 1e-9


NON_FINITE_ANGLE_CALLS = {
    "MeasurementBasis theta": lambda x: MeasurementBasis(x),
    "MeasurementBasis phi": lambda x: MeasurementBasis(0.3, x),
    "discord_at": lambda x: discord_at(quasi(0.7, 1.0), MeasurementBasis(x)),
    "conditional_states": lambda x: conditional_states(quasi(0.7, 1.0), MeasurementBasis(0.3, x)),
    "discord_profile theta": lambda x: discord_profile(quasi(0.7, 1.0), [0.3, x]),
    "discord_profile phi": lambda x: discord_profile(np.array([I4, quasi(0.7, 1.0)]), [0.3], x),
    "discord_profile_ranges": lambda x: discord_profile_ranges(quasi(0.7, 1.0), [x]),
    "quasi_probabilities": lambda x: quasi_probabilities(0.5, cat_params(1.0), np.array([0.3, x])),
    "discord_quasi_closed": lambda x: discord_quasi_closed(0.5, cat_params(1.0), x),
    "zurek_discord": lambda x: zurek_discord(0.5, np.array([[0.3], [x]])),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", NON_FINITE_ANGLE_CALLS.values(), ids=NON_FINITE_ANGLE_CALLS.keys())
def test_non_finite_measurement_angle_is_rejected(call, bad):
    # a NaN branch probability fails P_j >= DEGENERATE_PROB and would count as
    # degenerate, giving a finite, negative discord; sin(inf) is a domain error
    with pytest.raises(ValueError, match=f"^measurement angle must be finite, got {bad!r}$"):
        call(bad)


def test_zurek_rejects_out_of_range():
    with pytest.raises(ValueError):
        zurek_discord(1.5, 0.0)
    with pytest.raises(ValueError):
        zurek_density(-0.2)


def test_quasi_closed_fully_mixed_is_zero():
    for mp in MEAN_PHOTON_GRID:
        p = cat_params(mp)
        for theta in THETA_GRID:
            assert abs(discord_quasi_closed(0.0, p, float(theta))) < 1e-12


def test_quasi_closed_pinned_value():
    p = cat_params(1.0)
    assert abs(discord_quasi_closed(0.5, p, math.pi / 4.0) - QUASI_HALF_UNIT_QUARTER) < 1e-12


def test_quasi_closed_matches_pipeline_on_grid():
    for mp in (0.01, 0.5, 2.0):
        p = cat_params(mp)
        rho_by_a = {a: quasi(float(a), mp) for a in A_GRID}
        for a in A_GRID:
            piped = discord_profile(rho_by_a[a], THETA_GRID)
            for theta, d_pipe in zip(THETA_GRID, piped):
                assert abs(discord_quasi_closed(float(a), p, float(theta)) - d_pipe) < 1e-9


def test_quasi_closed_collapses_at_large_alpha():
    p = cat_params(5.0)
    for a in A_GRID:
        for theta in THETA_GRID:
            assert abs(discord_quasi_closed(float(a), p, float(theta)) - werner_discord_closed(float(a))) < 1e-6


def test_quasi_small_alpha_nearly_vanishes_at_pure_limit():
    # tiny mean photon number: discord at a=1 drops almost to zero off axis
    assert discord_quasi_closed(1.0, cat_params(0.01), math.pi / 4.0) < 0.1


def test_werner_closed_endpoints():
    assert abs(werner_discord_closed(0.0)) < 1e-12
    assert abs(werner_discord_closed(1.0) - 1.0) < 1e-12


def test_werner_closed_at_third():
    assert abs(werner_discord_closed(1.0 / 3.0) - WERNER_AT_THIRD) < 1e-12


def test_werner_closed_matches_pipeline():
    p = cat_params(0.7)
    for family in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS):
        for a in A_GRID:
            rho = werner_density(WernerSpec(family, float(a), p))
            piped = discord_at(rho, MeasurementBasis(0.4, 2.2)).value
            assert abs(werner_discord_closed(float(a)) - piped) < 1e-9


def test_closed_forms_reject_out_of_range():
    p = cat_params(1.0)
    with pytest.raises(ValueError):
        discord_quasi_closed(-0.01, p, 0.0)
    with pytest.raises(ValueError):
        werner_discord_closed(1.01)


# -- closed forms over arrays ---------------------------------------------------

def scalar_reference_zurek(a, theta):
    """zurek_discord by the per-value scalar arithmetic the array form replaces."""
    g = math.sqrt(1.0 - (1.0 - a * a) * math.sin(2.0 * theta) ** 2)
    return 1.0 + xlogx((1.0 + a) / 2.0) + xlogx((1.0 - a) / 2.0) - xlogx((1.0 + g) / 2.0) - xlogx((1.0 - g) / 2.0)


def scalar_reference_probabilities(a, p, theta):
    w1 = p.n_plus**2 / (4.0 * p.N_plus**4)
    w4 = p.n_plus**2 / (4.0 * p.N_minus**4)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return (1.0 - a) / 2.0 + a * (c2 * w1 + s2 * w4), (1.0 - a) / 2.0 + a * (c2 * w4 + s2 * w1)


def scalar_reference_quasi(a, p, theta):
    e1 = (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4)
    e2 = (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4)
    d = -xlogx(e1) - xlogx(e2)
    d += 3.0 * xlogx((1.0 - a) / 4.0) + xlogx((1.0 + 3.0 * a) / 4.0)
    for prob in scalar_reference_probabilities(a, p, theta):
        if prob < DEGENERATE_PROB:
            continue
        c = (1.0 - a) / (4.0 * prob)
        d -= prob * (xlogx(c) + xlogx(1.0 - c))
    return d


def scalar_reference_werner(a):
    """werner_discord_closed by the scalar arithmetic the array form replaces."""
    return (
        1.0
        + 3.0 * xlogx((1.0 - a) / 4.0)
        + xlogx((1.0 + 3.0 * a) / 4.0)
        - xlogx((1.0 - a) / 2.0)
        - xlogx((1.0 + a) / 2.0)
    )


def scalar_reference_zurek_density(a):
    """zurek_density by the one-matrix code the array form replaces."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = a / 2.0
    return m


def hexes(values):
    return [float(v).hex() for v in np.ravel(values).tolist()]


# angles where libm's pow(x, 2) differs from x * x in the last bit, for x the
# sin, cos and sin(2 theta) of the angle
POW_SENSITIVE_ANGLES = (0.1819244772364523, 3.0097935309886945, 2.808192918797231)
mixings = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=12)
theta_lists = st.lists(angles, max_size=20).map(lambda t: [0.0, math.pi / 2.0, math.pi, *POW_SENSITIVE_ANGLES] + t)


@settings(max_examples=80, deadline=None)
@given(mixings, st.floats(1e-3, 10.0), theta_lists)
def test_closed_forms_over_arrays_match_scalar(a_values, mp, theta_values):
    # every entry of a broadcast (a, theta) call equals the scalar arithmetic bit for bit
    p = cat_params(mp)
    a, theta = np.array(a_values)[:, None], np.array(theta_values)
    points = [(x, t) for x in a_values for t in theta_values]
    assert hexes(zurek_discord(a, theta)) == [scalar_reference_zurek(x, t).hex() for x, t in points]
    assert hexes(discord_quasi_closed(a, p, theta)) == [scalar_reference_quasi(x, p, t).hex() for x, t in points]
    for j, got in enumerate(quasi_probabilities(a, p, theta)):
        assert hexes(got) == [scalar_reference_probabilities(x, p, t)[j].hex() for x, t in points]
    # scalars in, floats out
    x, t = points[-1]
    assert type(zurek_discord(x, t)) is float and type(discord_quasi_closed(x, p, t)) is float
    assert discord_quasi_closed(x, p, t).hex() == scalar_reference_quasi(x, p, t).hex()
    assert [type(v) for v in quasi_probabilities(x, p, t)] == [float, float]


def array_reference_zurek(a, theta):
    """zurek_discord written out over arrays from the array xlogx."""
    a = np.asarray(a, dtype=float)
    g = np.sqrt(1.0 - (1.0 - a * a) * discord._squared(math.sin, 2.0 * np.asarray(theta, dtype=float)))
    return discord._scalar_or_array(
        1.0
        + _xlogx((1.0 + a) / 2.0)
        + _xlogx((1.0 - a) / 2.0)
        - _xlogx((1.0 + g) / 2.0)
        - _xlogx((1.0 - g) / 2.0)
    )


ZUREK_A = np.linspace(0.0, 1.0, 41)
ZUREK_THETA = np.linspace(-math.pi, math.pi, 73)


@pytest.mark.parametrize(
    "a, theta",
    [
        (0.3, 0.7),
        (0.0, math.pi / 8.0),
        (1.0, -2.0),
        (ZUREK_A[:, None], ZUREK_THETA),
        (np.array([[0.0], [1.0]]), ZUREK_THETA),
        (np.array([0.0, 1.0]), np.array([0.4, 0.4])),
        (np.random.default_rng(5).uniform(0.0, 1.0, 50), np.random.default_rng(6).uniform(-4.0, 4.0, 50)),
        (np.full(30, 0.5), np.repeat(ZUREK_THETA[:10], 3)),
    ],
)
def test_zurek_matches_the_every_g_reference(a, theta):
    got, want = zurek_discord(a, theta), array_reference_zurek(a, theta)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert hexes(got) == hexes(want)


def test_zurek_default_grid_takes_distinct_g_through_the_logs():
    # the default zurek-surface grid: 361,361 points, each g through the
    # logs once, so 2 x 361,361 + 2 x 1,001 values, all through numpy's
    # log2 and none through math.log2
    values = []

    def counting_xlogx(p):
        values.append(np.size(p))
        return _xlogx(p)

    with mock.patch.object(discord, "_xlogx", counting_xlogx), \
            mock.patch.object(qmatrix.math, "log2", side_effect=AssertionError("math.log2 called")):
        zurek_discord(np.linspace(0.0, 1.0, 1001)[:, None], np.linspace(-math.pi, math.pi, 361))
    assert sum(values) == 2 * 361 * 1001 + 2 * 1001


@settings(max_examples=80, deadline=None)
@given(mixings)
def test_werner_closed_and_zurek_density_over_arrays_match_scalar(a_values):
    a = np.array(a_values)
    assert hexes(werner_discord_closed(a)) == [scalar_reference_werner(x).hex() for x in a_values]
    assert hexes(werner_discord_closed(a.reshape(1, -1))) == hexes(werner_discord_closed(a))
    expected = np.array([scalar_reference_zurek_density(x) for x in a_values])
    assert np.array_equal(zurek_density(a).view(np.int64), expected.view(np.int64))
    # scalars in: a float, and one 4x4 matrix
    x = a_values[-1]
    assert type(werner_discord_closed(x)) is float and werner_discord_closed(x).hex() == scalar_reference_werner(x).hex()
    assert np.array_equal(zurek_density(x).view(np.int64), scalar_reference_zurek_density(x).view(np.int64))


@pytest.mark.parametrize("bad", [-0.01, 1.5, math.nan])
def test_closed_forms_reject_bad_entry_in_array(bad):
    a = np.array([0.0, 0.5, bad, 1.0])
    with pytest.raises(ValueError, match="must lie in"):
        zurek_discord(a, 0.3)
    with pytest.raises(ValueError, match="mixing parameter must lie in"):
        werner_discord_closed(a)
    with pytest.raises(ValueError, match="coherence parameter must lie in"):
        zurek_density(a)
    with pytest.raises(ValueError, match="must lie in"):
        discord_quasi_closed(a[:, None], cat_params(1.0), THETA_GRID)
    with pytest.raises(ValueError, match="mixing parameter must lie in"):
        quasi_probabilities(a[:, None], cat_params(1.0), THETA_GRID)


@pytest.mark.parametrize("closed_form", [discord_quasi_closed, quasi_probabilities])
def test_quasi_closed_forms_reject_bad_params(closed_form):
    with pytest.raises(TypeError, match="^p must be CatParams, got float$"):
        closed_form(0.5, 1.0, 0.3)


# -- invariants -----------------------------------------------------------------

def test_phase_invariance():
    states = [zurek_density(0.6)]
    for family in StateFamily:
        states.append(werner_density(WernerSpec(family, 0.45, cat_params(0.3))))
    for rho in states:
        for theta in np.linspace(0.0, math.pi, 7):
            base = discord_at(rho, MeasurementBasis(float(theta), 0.0)).value
            for phi in (0.5, 1.0, 2.0, 3.0):
                assert abs(discord_at(rho, MeasurementBasis(float(theta), phi)).value - base) < 1e-10


def test_zurek_theta_periodicity():
    for a in (0.0, 0.4, 0.9):
        for theta in np.linspace(-math.pi, math.pi, 25):
            assert abs(zurek_discord(a, float(theta)) - zurek_discord(a, float(theta) + math.pi / 2.0)) < 1e-12


def test_discord_nonnegative_on_grid():
    for family in StateFamily:
        for mp in (0.01, 0.5, 2.0):
            for a in A_GRID[::2]:
                rho = quasi(float(a), mp, family)
                assert discord_profile(rho, THETA_GRID).min() >= -1e-9


def test_werner_discord_is_basis_independent():
    for family in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS):
        rho = werner_density(WernerSpec(family, 0.55, cat_params(0.9)))
        values = discord_profile(rho, THETA_GRID)
        assert float(np.std(values)) < 1e-10


def test_quasi_closed_nondecreasing_in_mixing():
    for mp in (0.5, 1.0, 2.0, 5.0):
        p = cat_params(mp)
        for theta in (0.0, math.pi / 2.0):
            values = [discord_quasi_closed(float(a), p, theta) for a in np.linspace(0.0, 1.0, 101)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
