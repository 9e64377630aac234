import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecswerner.catstates import StateFamily, cat_params
from ecswerner.discord import (
    MeasurementBasis,
    _xlogx,
    conditional_states,
    discord_at,
    discord_min,
    discord_profile,
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
    tensor,
    von_neumann_entropy,
    xlogx,
)
from ecswerner.werner import WernerSpec, werner_density

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
