"""Quantum discord of two-qubit states under projective measurement of Y.

D = I - J from the entropies of the joint, reduced and post-measurement
conditional states.  One batched kernel (_spectra) measures Y on a stack of
states at arrays of (theta, phi) angles; discord_at, discord_profile,
discord_min and conditional_states wrap it, and the _ranges forms split a
stack's work into ranges of its states.  Closed forms cover the Werner and
quasi-Werner families and the einselection benchmark state; they and
zurek_density take a scalar or an array of a.
"""

import math
from dataclasses import dataclass

import numpy as np

from .catstates import CatParams
from .qmatrix import (
    DEGENERATE_PROB,
    NumericalIntegrityError,
    _density_states,
    _entropy,
    _finite,
    _partial_trace,
    _scalar_or_array,
    _unit_interval,
    _xlogx,
    require_density_matrix,
)
from .werner import _corner_weights

# Angles used by the runtime check that discord does not depend on the
# measurement phase, for the states that _phase_free does not clear.
PHI_PROBE = (0.0, 0.5, 1.0, 2.0, 3.0)
PHI_PROBE_THETAS = (0.7, 1.9)
PHI_SENSITIVITY_TOL = 1e-8

THETA_COARSE_STEPS = 181
THETA_REFINE_TOL = 1e-8
# the most states a many-angle kernel call measures (_slices), a cap on its
# temporaries: a whole 101-state sweep column at once raises the peak
# memory of quasi-curves by about a fifth
MIN_SLICE_STATES = 16
# the off-diagonal, off-anti-diagonal entries of a 4x4 matrix
_OFF_X = (np.eye(4) + np.eye(4)[::-1]) == 0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _projectors(thetas, phis):
    """The pair |pi0>, |pi1> of MeasurementBasis at each (theta, phi).

    thetas and phis broadcast together; the result has their broadcast
    shape plus (2, 2), indexed [..., outcome j, component].
    """
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    ct, st = np.cos(thetas), np.sin(thetas)
    e = np.empty(phis.shape, dtype=complex)
    e.real, e.imag = np.cos(phis), np.sin(phis)
    vecs = np.empty(np.broadcast(thetas, phis).shape + (2, 2), dtype=complex)
    vecs[..., 0, 0] = ct
    vecs[..., 0, 1] = e * st
    vecs[..., 1, 0] = st
    vecs[..., 1, 1] = -e * ct
    return vecs


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement angles on subsystem Y.

    The projectors are built from the orthonormal pair
        |pi0> = cos(theta)|+> + e^{i phi} sin(theta)|->
        |pi1> = sin(theta)|+> - e^{i phi} cos(theta)|->
    Canonical ranges are theta in [0, pi], phi in [0, 2 pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _finite((self.theta, self.phi), "measurement angle")

    def projector_vectors(self):
        return tuple(_projectors(self.theta, self.phi))


@dataclass(frozen=True)
class DiscordResult:
    value: float
    theta_min: float
    mutual_info: float
    classical_corr: float
    probabilities: tuple


def _squared(fn, x):
    """fn(x) ** 2 over an array, bit for bit with the scalar math expression.

    Goes through Python floats: numpy's sin and cos match math's, but
    its power and square differ from libm's pow in the last bit on about
    one argument in a thousand.
    """
    x = np.asarray(x, dtype=float)
    values = (fn(v) ** 2 for v in x.ravel().tolist())
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


def _real_blocks(rhos, vecs):
    """The conditional X blocks of real states measured with real projectors.

    The real part of the complex einsum in _spectra, computed in einsum's
    own order: each term is (rho[s, a, b, c, d] * v_b) * v_d, and the four
    terms are summed as (b0d0 + b0d1) + (b1d0 + b1d1).  A -0 entry of rho
    counts as +0, as in the einsum's complex products.

    A term whose entry of rho is 0 in every state is the constant 0.0 in
    its place in the sum, so a stack of X states with one coherence pair
    (6 nonzero entries of 16) forms 6 products.  At finite angles this
    keeps every bit of each sum: +0 in place of a term changes a sum only
    where the sum is -0, which needs all four terms to be -0, and of the
    two terms b = d the one whose |v_b| is the larger (at least
    1/sqrt(2)) is -0 only if its entry is negative and the product
    underflows.
    """
    r = rhos.real.reshape(-1, 2, 2, 2, 2) + 0.0
    zero = ~r.any(axis=0)
    v = [np.ascontiguousarray(vecs.real[..., b]) for b in (0, 1)]
    blocks = np.empty(np.broadcast_shapes((len(r), 1, 1), v[0].shape) + (2, 2))
    for a, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t = [
            0.0 if zero[a, b, c, d] else (r[:, a, b, c, d, None, None] * v[b]) * v[d]
            for b in (0, 1)
            for d in (0, 1)
        ]
        blocks[..., a, c] = (t[0] + t[1]) + (t[2] + t[3])
    return blocks


def _spectra(rhos, thetas, phis):
    """Measure Y on a stack of validated states at arrays of angles.

    rhos has shape (S, 4, 4); thetas and phis broadcast together to shape
    (S, n), one (theta, phi) pair per measurement, or to (n,) for angles
    shared by every state.  Returns the unnormalized conditional X blocks,
    shape (S, n, 2, 2, 2) indexed [state, angle, outcome j, row, col], and
    the conditional spectra: the outcome probabilities P_j, whether each
    P_j reaches DEGENERATE_PROB, and the two eigenvalues of each
    normalized block, from the closed-form spectrum of a Hermitian 2x2
    matrix, each of shape (S, n, 2).  Every value depends only on its own
    state and angle, not on what else the call measures.
    """
    vecs = _projectors(np.atleast_2d(thetas), phis)
    if not np.any(phis) and not rhos.imag.any():
        blocks = _real_blocks(rhos, vecs)
    else:
        blocks = np.einsum("sabcd,snjb,snjd->snjac", rhos.reshape(-1, 2, 2, 2, 2), vecs.conj(), vecs)
    m00, m11 = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    m01, m10 = blocks[..., 0, 1], blocks[..., 1, 0]
    probs = m00 + m11
    # Re(m01 m10) spelled out: numpy's array complex product can differ
    # from the scalar one in the last bit
    det = m00 * m11 - (m01.real * m10.real - m01.imag * m10.imag)
    gap = np.sqrt(np.maximum(probs * probs / 4.0 - det, 0.0))
    live = probs >= DEGENERATE_PROB
    norm = np.where(live, probs, 1.0)
    e0 = np.clip((probs / 2.0 + gap) / norm, 0.0, 1.0)
    e1 = np.clip((probs / 2.0 - gap) / norm, 0.0, 1.0)
    return blocks, (probs, live, e0, e1)


def _entropy_sum(spectra):
    """The measured conditional entropy sum_j P_j S(rho_X|j) from the spectra of _spectra.

    The spectra may be indexed down to any shape (..., 2); a branch with
    P_j below DEGENERATE_PROB contributes nothing.
    """
    probs, live, e0, e1 = spectra
    # one xlogx call for both eigenvalues (it is elementwise): half the fixed cost
    x = _xlogx(np.stack([e0, e1]))
    terms = np.where(live, probs * -(x[0] + x[1]), 0.0)
    # leading 0.0 keeps a zero entropy from coming out as -0.0
    return 0.0 + terms[..., 0] + terms[..., 1]


def _measure(rhos, thetas, phis):
    """The blocks of _spectra, the outcome probabilities P_j, shape (S, n, 2), and the conditional entropies, (S, n)."""
    blocks, spectra = _spectra(rhos, thetas, phis)
    return blocks, spectra[0], _entropy_sum(spectra)


def conditional_states(rho, basis):
    """Post-measurement states of X and outcome probabilities.

    Returns ((rho_0, P_0), (rho_1, P_1)), each rho_j a complex 2x2 matrix.
    A branch with probability below DEGENERATE_PROB is degenerate; it is
    reported with the maximally mixed placeholder state and contributes
    nothing to conditional entropies.
    """
    rho = require_density_matrix(rho, dim=4)
    blocks, probs, _ = _measure(rho[None], [basis.theta], basis.phi)
    # the kernel's blocks are real for a real state at phi = 0
    return tuple(
        (m.astype(complex) / p, p) if p >= DEGENERATE_PROB else (np.eye(2, dtype=complex) / 2.0, p)
        for m, p in zip(blocks[0, 0], probs[0, 0].tolist())
    )


def _discord_parts(rhos):
    """S(rho_X) and the mutual information S(rho_X) + S(rho_Y) - S(rho_XY) of each state, as an (S, 2) array.

    rhos is a validated stack, whose reduced states are not checked again;
    each entropy is one eigensolve of the whole stack, and a clamp failure
    names its state k as "state k: ".
    """
    s_x = _entropy(_partial_trace(rhos, "X"))
    return np.stack([s_x, s_x + _entropy(_partial_trace(rhos, "Y")) - _entropy(rhos)], axis=1)


def mutual_information(rho):
    """Quantum mutual information S(rho_X) + S(rho_Y) - S(rho_XY) in bits."""
    return float(_discord_parts(require_density_matrix(rho, dim=4)[None])[0, 1])


def _discord(parts, cond):
    """Discord I - J from the parts of each state and its measured conditional entropies, shape (S, n)."""
    return parts[:, 1:] - (parts[:, :1] - cond)


def _results(cls, *fields):
    """A cls per state from its fields as arrays of S entries, in field order; the last, of shape (S, n), as a tuple."""
    return [cls(*row[:-1], tuple(row[-1])) for row in zip(*(np.asarray(f).tolist() for f in fields))]


def _at(rhos, parts, thetas, phis):
    """The DiscordResult fields, as arrays in field order, of each state s at its own angle thetas[s] (phis broadcasts to (S,))."""
    _, probs, cond = _measure(rhos, thetas[:, None], phis)
    return _discord(parts, cond)[:, 0], thetas, parts[:, 1], parts[:, 0] - cond[:, 0], probs[:, 0]


def discord_at(rho, basis):
    """Discord of rho for one fixed measurement basis on Y."""
    rhos = require_density_matrix(rho, dim=4)[None]
    return _results(DiscordResult, *_at(rhos, _discord_parts(rhos), np.array([basis.theta]), basis.phi))[0]


def discord_profile(rho, thetas, phi=0.0):
    """Discord values over a sequence of measurement angles at a shared phase.

    rho is one 4x4 state, giving shape (n,) for n angles, or an (S, 4, 4)
    stack, giving (S, n).  Same values as discord_at per state and angle,
    bit for bit.  A failing state k of a stack is named "state k: " in the
    message.
    """
    return _of_every_state(discord_profile_ranges(rho, thetas, phi), rho)


def _of_every_state(ranged, rho):
    """ranged(lo, hi) over every state of rho: the whole result of a stack, or the one entry of a 4x4 state."""
    if np.ndim(rho) == 3:
        return ranged(0, len(rho))
    return ranged(0, 1)[0]


def discord_profile_ranges(rho, thetas, phi=0.0):
    """discord_profile as a function of a range of states: values(lo, hi) is the profile of states lo to hi - 1.

    rho is one 4x4 state or an (S, 4, 4) stack.  This call validates the
    whole stack and runs its eigensolves, so every error a check or an
    entropy can raise comes from here, naming the state's position in the
    whole stack.  values only measures: it calls numpy ufuncs, no BLAS
    or LAPACK routine, and each state's values are the same bits in any
    range.
    """
    rhos, _ = _density_states(rho)
    _finite(phi, "measurement angle")
    parts, thetas = _discord_parts(rhos), _finite(np.reshape(thetas, -1), "measurement angle")
    return lambda lo, hi: _sliced_discord(rhos[lo:hi], parts[lo:hi], thetas, phi)


def _slices(n):
    """Slices of at most MIN_SLICE_STATES states covering a stack of n."""
    return (slice(start, start + MIN_SLICE_STATES) for start in range(0, n, MIN_SLICE_STATES))


def _sliced_discord(rhos, parts, thetas, phis):
    """Discord of every state at the angles shared by all, shape (S, n), measured in slices."""
    values = np.empty((len(rhos), len(thetas)))
    for part in _slices(len(rhos)):
        values[part] = _discord(parts[part], _measure(rhos[part], thetas, phis)[2])
    return values


def _phase_free(rhos):
    """Whether each state's discord cannot depend on the measurement phase, by its structure alone.

    True for an X state (every entry off the diagonal and the anti-diagonal
    exactly 0) with one coherence pair (rho_14 = rho_41 = 0 or
    rho_23 = rho_32 = 0): a phase phi on Y's basis then multiplies the one
    pair by e^{-+i phi}, which a local unitary on X undoes, and that leaves
    every conditional entropy as it was (Ali, Rau & Alber, PRA 81, 042105,
    2010).  X form alone is not enough: with both pairs nonzero the
    discord can move with phi.
    """
    zero = rhos == 0
    one_pair = (zero[:, 0, 3] & zero[:, 3, 0]) | (zero[:, 1, 2] & zero[:, 2, 1])
    return zero[:, _OFF_X].all(axis=1) & one_pair


def _coarse_minimum(rhos, parts, grid):
    """Each state's first grid argmin k (a NaN's, in a row that holds one) and its discord there, as (S,) arrays.

    The scan holds one slice's grid discords at a time.
    """
    k, k_value = np.empty(len(rhos), dtype=np.intp), np.empty(len(rhos))
    for part in _slices(len(rhos)):
        values = _discord(parts[part], _measure(rhos[part], grid, 0.0)[2])
        k[part] = np.argmin(values, axis=1)
        k_value[part] = values[np.arange(len(values)), k[part]]
    return k, k_value


def discord_min(rho):
    """Minimum discord over projective measurements of Y.

    rho is one 4x4 state, giving one DiscordResult, or an (S, 4, 4) stack,
    giving a list of S results equal field for field to one call per state.
    The phase angle is fixed to 0 once each state is known to be phase
    insensitive, by structure (_phase_free) or else by a runtime probe,
    which raises NumericalIntegrityError naming the state if the discord
    moves with the phase.  theta is then minimized by a coarse scan of
    [0, pi] and a golden-section refinement.
    """
    minimize = discord_min_ranges(rho)
    return _of_every_state(lambda lo, hi: _results(DiscordResult, *minimize(lo, hi)), rho)


def discord_min_ranges(rho):
    """discord_min as a function of a range of states: minimize(lo, hi) is the results of states lo to hi - 1 as arrays.

    The arrays are the DiscordResult fields in order: value, theta_min,
    mutual_info and classical_corr of shape (S,), and the probabilities
    P_j of shape (S, 2).

    rho is one 4x4 state or an (S, 4, 4) stack.  This call validates the
    whole stack, runs its eigensolves and the phase probe, so every error a
    check, an entropy or the probe can raise comes from here, naming the
    state's position in the whole stack.  minimize only computes, with
    numpy ufuncs and no BLAS or LAPACK routine, and each state's result is
    the same in any range.
    """
    rhos, stacked = _density_states(rho)
    parts = _discord_parts(rhos)

    # the phase probe, every PHI_PROBE_THETAS angle at every PHI_PROBE
    # phase, on the states that _phase_free does not clear
    probed = np.flatnonzero(~_phase_free(rhos))
    thetas = np.tile(PHI_PROBE_THETAS, len(PHI_PROBE))
    phis = np.repeat(PHI_PROBE, len(PHI_PROBE_THETAS))
    probe = _sliced_discord(rhos[probed], parts[probed], thetas, phis)
    probe = probe.reshape(len(probed), len(PHI_PROBE), len(PHI_PROBE_THETAS))
    worst = np.max(np.abs(probe[:, 1:] - probe[:, :1]), axis=(1, 2))
    sensitive = np.flatnonzero(worst > PHI_SENSITIVITY_TOL)
    if sensitive.size:
        i = sensitive[0]
        k = int(probed[i])
        prefix = f"state {k}: " if stacked else ""
        raise NumericalIntegrityError(
            prefix + f"discord varies with measurement phase by {worst[i]:.3e}; "
            "input is outside the X-form class this minimizer assumes",
            index=k,
        )

    grid = np.linspace(0.0, math.pi, THETA_COARSE_STEPS)
    return lambda lo, hi: _minimize(rhos[lo:hi], parts[lo:hi], grid)


def _minimize(rhos, parts, grid):
    """The DiscordResult fields of each state at its theta minimum, as arrays: the coarse scan on grid, the golden section, the final evaluation."""
    k, k_value = _coarse_minimum(rhos, parts, grid)

    # golden-section search on [grid[k-1], grid[k+1]], one kernel call per
    # step for every state whose bracket is still wider than the tolerance
    a = grid[np.maximum(k - 1, 0)]
    b = grid[np.minimum(k + 1, len(grid) - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _discord(parts, _measure(rhos, np.stack([c, d], axis=1), 0.0)[2]).T
    live = np.flatnonzero(b - a > THETA_REFINE_TOL)
    while live.size:
        left = fc[live] < fd[live]
        la, lb, lc, ld = a[live], b[live], c[live], d[live]
        na, nb = np.where(left, la, lc), np.where(left, ld, lb)
        nc = np.where(left, nb - _INVPHI * (nb - na), ld)
        nd = np.where(left, lc, na + _INVPHI * (nb - na))
        cond = _measure(rhos[live], np.where(left, nc, nd)[:, None], 0.0)[2]
        f = _discord(parts[live], cond)[:, 0]
        a[live], b[live], c[live], d[live] = na, nb, nc, nd
        fc[live], fd[live] = np.where(left, f, fd[live]), np.where(left, fc[live], f)
        live = live[nb - na > THETA_REFINE_TOL]

    # the refined midpoint unless the grid point is strictly better
    mid = (a + b) / 2.0
    f_mid = _discord(parts, _measure(rhos, mid[:, None], 0.0)[2])[:, 0]
    return _at(rhos, parts, np.where(k_value < f_mid, grid[k], mid), 0.0)


def zurek_density(a):
    """Two-qubit einselection benchmark state.

    Equal diagonal weight on |0,0> and |1,1> with off-diagonal coherence a/2
    between them, written in the fixed orthonormal basis of this library.
    a is a scalar, giving one 4x4 matrix, or an array, giving shape
    a.shape + (4, 4).
    """
    a = _unit_interval(a, "coherence parameter")
    m = np.zeros(a.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = 0.5
    m[..., 0, 3] = m[..., 3, 0] = a / 2.0
    return m


def zurek_discord(a, theta):
    """Closed-form discord of the einselection benchmark state.

    Depends on theta only through sin^2(2 theta) and not at all on the
    measurement phase; equals 1 at a = 1 and vanishes at a = 0 for
    theta in {0, pi/2, pi}.  a and theta broadcast together; scalars give
    a float.
    """
    a = _unit_interval(a, "coherence parameter")
    g = np.sqrt(1.0 - (1.0 - a * a) * _squared(math.sin, 2.0 * _finite(theta, "measurement angle")))
    return _scalar_or_array(
        1.0 + _xlogx((1.0 + a) / 2.0) + _xlogx((1.0 - a) / 2.0) - _xlogx((1.0 + g) / 2.0) - _xlogx((1.0 - g) / 2.0)
    )


def _quasi_probabilities(a, p, theta):
    """a as a float array and the arrays (P_0, P_1), raising ValueError unless a lies in [0, 1] and theta is finite and TypeError unless p is CatParams."""
    a = _unit_interval(a, "mixing parameter")
    if not isinstance(p, CatParams):
        raise TypeError(f"p must be CatParams, got {type(p).__name__}")
    theta = _finite(theta, "measurement angle")
    w1, w4 = _corner_weights(1.0, p)
    c2 = _squared(math.cos, theta)
    s2 = _squared(math.sin, theta)
    return a, ((1.0 - a) / 2.0 + a * (c2 * w1 + s2 * w4), (1.0 - a) / 2.0 + a * (c2 * w4 + s2 * w1))


def quasi_probabilities(a, p, theta):
    """Outcome probabilities (P_0, P_1) for the quasi-Werner measurement.

    a and theta broadcast together; scalars give two floats.
    """
    return tuple(map(_scalar_or_array, _quasi_probabilities(a, p, theta)[1]))


def discord_quasi_closed(a, p, theta):
    """Closed-form discord of the psi+/phi+ quasi-Werner state.

    Assembled from the reduced-Y spectrum, the joint spectrum, and the
    conditional spectra {(1-a)/4P_j, 1 - (1-a)/4P_j}; agrees with the
    brute-force pipeline on werner_density to 1e-9.  a and theta broadcast
    together; scalars give a float.
    """
    a, probs = _quasi_probabilities(a, p, theta)
    w1, w4 = _corner_weights(a, p)
    d = -_xlogx((1.0 - a) / 2.0 + w1) - _xlogx((1.0 - a) / 2.0 + w4)
    d = d + (3.0 * _xlogx((1.0 - a) / 4.0) + _xlogx((1.0 + 3.0 * a) / 4.0))
    for prob in probs:
        # a branch below DEGENERATE_PROB contributes nothing
        live = prob >= DEGENERATE_PROB
        c = (1.0 - a) / (4.0 * np.where(live, prob, 1.0))
        d = d - np.where(live, prob * (_xlogx(c) + _xlogx(1.0 - c)), 0.0)
    return _scalar_or_array(d)


def werner_discord_closed(a):
    """Closed-form discord of the perfect Werner state.

    Independent of the measurement basis and of the mean photon number.
    The leading constant is +1: the conditional spectra are
    {(1-a)/2, (1+a)/2} at every basis, and S(rho_Y) = 1 bit, which fixes
    the constant so that the fully mixed state gives exactly 0.  a is a
    scalar, giving a float, or an array.
    """
    a = _unit_interval(a, "mixing parameter")
    return _scalar_or_array(
        1.0
        + 3.0 * _xlogx((1.0 - a) / 4.0)
        + _xlogx((1.0 + 3.0 * a) / 4.0)
        - _xlogx((1.0 - a) / 2.0)
        - _xlogx((1.0 + a) / 2.0)
    )
