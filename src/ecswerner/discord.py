"""Quantum discord of two-qubit states under projective measurement of Y.

The generic pipeline computes D = I - J from entropies of the joint,
reduced, and post-measurement conditional states.  One batched kernel
measures Y on a stack of states, each at its own array of (theta, phi)
angles; discord_at, discord_profile, discord_min and conditional_states
are thin wrappers over it.  Closed forms are provided for the Werner and
quasi-Werner families and for the two-level einselection benchmark state,
and a 1-D minimizer finds the optimal measurement angle.  The closed forms
and zurek_density take a scalar or an array of a.

discord_profile and discord_min take one 4x4 state or an (S, 4, 4) stack.
A stack goes through one stacked path: it is validated at once (a failing
state k is named "state k: " in the message), the entropies of its joint
and reduced states come from one eigensolve each, and its values equal
those of one call per state bit for bit.  discord_min minimizes a stack in
lockstep: each kernel call (phase probe, coarse scan, golden-section
step, final evaluation) covers many states at once.  The many-angle
calls, a profile and discord_min's probe and scan, take at most
MIN_SLICE_STATES states each, which caps the kernel's temporaries.

The kernel multiplies real arrays when every phase is zero and every state
is real, which covers every sweep and every minimizer step on the states
this library builds; its blocks then have the same bits as the complex
einsum it otherwise runs (a phase probe, phi != 0, or a complex state).
"""

import math
from dataclasses import dataclass

import numpy as np

from .catstates import CatParams
from .qmatrix import (
    DEGENERATE_PROB,
    NumericalIntegrityError,
    _density_states,
    _partial_trace,
    _unit_interval,
    _xlogx,
    require_density_matrix,
    von_neumann_entropy,
)
from .werner import _corner_weights

# Angles used by the runtime check that discord does not depend on the
# measurement phase (true for every X-form state this library builds).
PHI_PROBE = (0.0, 0.5, 1.0, 2.0, 3.0)
PHI_PROBE_THETAS = (0.7, 1.9)
PHI_SENSITIVITY_TOL = 1e-8

THETA_COARSE_STEPS = 181
THETA_REFINE_TOL = 1e-8
# discord_min's phase probe and coarse scan measure at most this many
# states per kernel call, a cap on the kernel's temporaries: a whole
# 101-state sweep column at once raises the peak memory of quasi-curves by
# about a fifth
MIN_SLICE_STATES = 16

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


def _scalar_or_array(x):
    """A 0-d result as a Python float, any other as the array."""
    return float(x) if x.ndim == 0 else x


def _real_blocks(rhos, vecs):
    """The conditional X blocks of real states measured with real projectors.

    The real part of the complex einsum in _measure, computed in einsum's
    own order: each term is (rho[s, a, b, c, d] * v_b) * v_d, and the four
    terms are summed as (b0d0 + b0d1) + (b1d0 + b1d1).
    """
    r = rhos.real.reshape(-1, 1, 1, 2, 2, 2, 2)
    v = vecs.real[..., None, None]

    def term(b, d):
        return (r[..., :, b, :, d] * v[..., b, :, :]) * v[..., d, :, :]

    return (term(0, 0) + term(0, 1)) + (term(1, 0) + term(1, 1))


def _measure(rhos, thetas, phis):
    """Measure Y on a stack of validated states at arrays of angles.

    rhos has shape (S, 4, 4); thetas and phis broadcast together to shape
    (S, n), one (theta, phi) pair per measurement, or to (n,) for angles
    shared by every state.  Returns the unnormalized conditional X blocks,
    shape (S, n, 2, 2, 2) indexed [state, angle, outcome j, row, col]; the
    outcome probabilities P_j, shape (S, n, 2); and the measured
    conditional entropy sum_j P_j S(rho_X|j), shape (S, n), from the
    closed-form spectrum of each Hermitian 2x2 block.  A branch with P_j
    below DEGENERATE_PROB contributes nothing.  Every value depends only
    on its own state and angle, not on what else the call measures.

    When every phi is zero and every state is real (all states this
    library builds, at every angle of a sweep or of the minimizer), the
    projectors are real and the blocks come from _real_blocks as real
    arrays, with the same bits as the real part of the complex einsum,
    whose imaginary part is then zero.  Any other input goes through the
    complex einsum.
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
    terms = np.where(live, probs * -(_xlogx(e0) + _xlogx(e1)), 0.0)
    # leading 0.0 keeps a zero entropy from coming out as -0.0
    return blocks, probs, 0.0 + terms[..., 0] + terms[..., 1]


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
    """S(rho_X) and the mutual information S(rho_X) + S(rho_Y) - S(rho_XY) of each state, as two (S,) arrays.

    rhos is a validated stack; each entropy is one eigensolve of the whole
    stack.  The partial traces skip their checks: the entropy checks the
    reduced states again.
    """
    s_x = von_neumann_entropy(_partial_trace(rhos, "X"))
    return s_x, s_x + von_neumann_entropy(_partial_trace(rhos, "Y")) - von_neumann_entropy(rhos)


def mutual_information(rho):
    """Quantum mutual information S(rho_X) + S(rho_Y) - S(rho_XY) in bits."""
    return float(_discord_parts(require_density_matrix(rho, dim=4)[None])[1][0])


def _discord(parts, cond):
    """Discord I - J from the parts of each state and its measured conditional entropies."""
    s_x, mutual = parts
    return mutual[:, None] - (s_x[:, None] - cond)


def _result(parts, k, theta, probs, cond):
    """DiscordResult of state k measured at theta, with its P_j and conditional entropy."""
    s_x, mutual = (float(v[k]) for v in parts)
    classical = s_x - cond
    return DiscordResult(
        value=mutual - classical,
        theta_min=theta,
        mutual_info=mutual,
        classical_corr=classical,
        probabilities=tuple(probs),
    )


def discord_at(rho, basis):
    """Discord of rho for one fixed measurement basis on Y."""
    rhos = require_density_matrix(rho, dim=4)[None]
    _, probs, cond = _measure(rhos, [basis.theta], basis.phi)
    return _result(_discord_parts(rhos), 0, basis.theta, probs[0, 0].tolist(), float(cond[0, 0]))


def discord_profile(rho, thetas, phi=0.0):
    """Discord values over a sequence of measurement angles at a shared phase.

    rho is one 4x4 state, giving shape (n,) for n angles, or an (S, 4, 4)
    stack, giving (S, n).  Same values as discord_at per state and angle,
    bit for bit.  The stack is validated at once (a failing state k is
    named "state k: " in the message), its entropies come from one
    eigensolve per subsystem, and the kernel measures at most
    MIN_SLICE_STATES states per call.
    """
    rhos, stacked = _density_states(rho)
    values = _sliced_discord(rhos, _discord_parts(rhos), np.reshape(thetas, -1), phi)
    return values if stacked else values[0]


def _sliced_discord(rhos, parts, thetas, phis):
    """Discord of every state at the angles shared by all, shape (S, n).

    The kernel sees at most MIN_SLICE_STATES states per call, which caps
    its temporaries for the many-angle calls.
    """
    values = np.empty((len(rhos), len(thetas)))
    for start in range(0, len(rhos), MIN_SLICE_STATES):
        part = slice(start, start + MIN_SLICE_STATES)
        values[part] = _discord(tuple(v[part] for v in parts), _measure(rhos[part], thetas, phis)[2])
    return values


def discord_min(rho):
    """Minimum discord over projective measurements of Y.

    rho is one 4x4 state, giving one DiscordResult, or an (S, 4, 4) stack,
    giving a list of S results equal field for field to one call per state.
    The stack is validated first, as in discord_profile.  The phase angle is fixed to 0 after a
    runtime check that discord is phase insensitive for each input (raises
    NumericalIntegrityError otherwise; for a stack, the error's index and
    message name the offending state's position); the angle theta is then
    minimized by a coarse scan of [0, pi] followed by golden-section
    refinement.  A stack is minimized in lockstep: each golden-section
    step and the final evaluation is one kernel call for all its states,
    and the phase probe and the coarse scan, whose temporaries grow with
    states x angles, are one call per slice of at most MIN_SLICE_STATES
    states.
    """
    rhos, stacked = _density_states(rho)
    parts = _discord_parts(rhos)

    # the phase probe: every PHI_PROBE_THETAS angle at every PHI_PROBE phase
    thetas = np.tile(PHI_PROBE_THETAS, len(PHI_PROBE))
    phis = np.repeat(PHI_PROBE, len(PHI_PROBE_THETAS))
    probe = _sliced_discord(rhos, parts, thetas, phis).reshape(len(rhos), len(PHI_PROBE), len(PHI_PROBE_THETAS))
    worst = np.max(np.abs(probe[:, 1:] - probe[:, :1]), axis=(1, 2))
    sensitive = np.flatnonzero(worst > PHI_SENSITIVITY_TOL)
    if sensitive.size:
        k = int(sensitive[0])
        prefix = f"state {k}: " if stacked else ""
        raise NumericalIntegrityError(
            prefix + f"discord varies with measurement phase by {worst[k]:.3e}; "
            "input is outside the X-form class this minimizer assumes",
            index=k,
        )

    grid = np.linspace(0.0, math.pi, THETA_COARSE_STEPS)
    values = _sliced_discord(rhos, parts, grid, 0.0)
    k = np.argmin(values, axis=1)
    k_value = values[np.arange(len(rhos)), k]

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
        f = _discord(tuple(v[live] for v in parts), cond)[:, 0]
        a[live], b[live], c[live], d[live] = na, nb, nc, nd
        fc[live], fd[live] = np.where(left, f, fd[live]), np.where(left, fc[live], f)
        live = live[nb - na > THETA_REFINE_TOL]

    # the refined midpoint unless the grid point is strictly better
    final = np.stack([(a + b) / 2.0, grid[k]], axis=1)
    _, probs, cond = _measure(rhos, final, 0.0)
    pick = (k_value < _discord(parts, cond)[:, 0]).astype(int)
    results = [
        _result(parts, i, float(final[i, j]), probs[i, j].tolist(), float(cond[i, j]))
        for i, j in enumerate(pick)
    ]
    return results if stacked else results[0]


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
    g = np.sqrt(1.0 - (1.0 - a * a) * _squared(math.sin, 2.0 * np.asarray(theta, dtype=float)))
    return _scalar_or_array(
        1.0
        + _xlogx((1.0 + a) / 2.0)
        + _xlogx((1.0 - a) / 2.0)
        - _xlogx((1.0 + g) / 2.0)
        - _xlogx((1.0 - g) / 2.0)
    )


def quasi_probabilities(a, p, theta):
    """Outcome probabilities (P_0, P_1) for the quasi-Werner measurement.

    a and theta broadcast together; scalars give two floats.
    """
    a = np.asarray(a, dtype=float)
    w1, w4 = _corner_weights(1.0, p)
    c2 = _squared(math.cos, theta)
    s2 = _squared(math.sin, theta)
    p0 = (1.0 - a) / 2.0 + a * (c2 * w1 + s2 * w4)
    p1 = (1.0 - a) / 2.0 + a * (c2 * w4 + s2 * w1)
    return _scalar_or_array(p0), _scalar_or_array(p1)


def discord_quasi_closed(a, p, theta):
    """Closed-form discord of the psi+/phi+ quasi-Werner state.

    Assembled from the reduced-Y spectrum, the joint spectrum, and the
    conditional spectra {(1-a)/4P_j, 1 - (1-a)/4P_j}; agrees with the
    brute-force pipeline on werner_density to 1e-9.  a and theta broadcast
    together; scalars give a float.
    """
    a = _unit_interval(a, "mixing parameter")
    if not isinstance(p, CatParams):
        raise TypeError(f"p must be CatParams, got {type(p).__name__}")
    w1, w4 = _corner_weights(a, p)
    d = -_xlogx((1.0 - a) / 2.0 + w1) - _xlogx((1.0 - a) / 2.0 + w4)
    d = d + (3.0 * _xlogx((1.0 - a) / 4.0) + _xlogx((1.0 + 3.0 * a) / 4.0))
    for prob in quasi_probabilities(a, p, theta):
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
