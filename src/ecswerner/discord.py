"""Quantum discord of two-qubit states under projective measurement of Y.

The generic pipeline computes D = I - J from entropies of the joint,
reduced, and post-measurement conditional states.  One batched kernel
measures Y on a stack of states, each at its own array of (theta, phi)
angles; discord_at, discord_profile, discord_min and conditional_states
are thin wrappers over it.  Closed forms are provided for the Werner and
quasi-Werner families and for the two-level einselection benchmark state,
and a 1-D minimizer finds the optimal measurement angle.

discord_min takes one state or a stack of them.  A stack is minimized in
lockstep: each kernel call (phase probe, coarse scan, golden-section step,
final evaluation) covers many states at once, and the results equal those
of one call per state bit for bit.  The many-angle calls, probe and scan,
take at most MIN_SLICE_STATES states each, which caps the kernel's
temporaries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .catstates import CatParams
from .qmatrix import (
    DEGENERATE_PROB,
    XLOGX_FLOOR,
    NumericalIntegrityError,
    partial_trace,
    require_density_matrix,
    von_neumann_entropy,
    xlogx,
)

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


def _xlogx(p):
    """xlogx over an array, bit for bit: math.log2 on the entries it does not zero."""
    out = np.zeros(p.shape)
    live = ~(p < XLOGX_FLOOR)  # NaN stays live, as in xlogx
    vals = p[live]
    out[live] = vals * np.fromiter(map(math.log2, vals.tolist()), dtype=float, count=vals.size)
    return out


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
    """
    vecs = _projectors(np.atleast_2d(thetas), phis)
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

    Returns ((rho_0, P_0), (rho_1, P_1)).  A branch with probability below
    DEGENERATE_PROB is degenerate; it is reported with the maximally mixed
    placeholder state and contributes nothing to conditional entropies.
    """
    rho = require_density_matrix(rho, dim=4)
    blocks, probs, _ = _measure(rho[None], [basis.theta], basis.phi)
    return tuple(
        (m / p, p) if p >= DEGENERATE_PROB else (np.eye(2, dtype=complex) / 2.0, p)
        for m, p in zip(blocks[0, 0], probs[0, 0].tolist())
    )


def mutual_information(rho):
    """Quantum mutual information S(rho_X) + S(rho_Y) - S(rho_XY) in bits."""
    rho = require_density_matrix(rho, dim=4)
    return (
        von_neumann_entropy(partial_trace(rho, "X"))
        + von_neumann_entropy(partial_trace(rho, "Y"))
        - von_neumann_entropy(rho)
    )


def _discord_parts(rhos):
    """S(rho_X) and the mutual information of each state, as two (S,) arrays."""
    s_x, mutual = [], []
    for rho in rhos:
        x = von_neumann_entropy(partial_trace(rho, "X"))
        s_x.append(x)
        mutual.append(x + von_neumann_entropy(partial_trace(rho, "Y")) - von_neumann_entropy(rho))
    return np.array(s_x), np.array(mutual)


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

    Same values as discord_at per angle, from one batched evaluation of
    the measurement kernel; rho is validated and decomposed once.
    """
    rhos = require_density_matrix(rho, dim=4)[None]
    return _discord(_discord_parts(rhos), _measure(rhos, np.reshape(thetas, -1), phi)[2])[0]


def _sliced_discord(rhos, parts, thetas, phis):
    """Discord of every state at the angles shared by all, shape (S, n).

    The kernel sees at most MIN_SLICE_STATES states per call, which caps
    its temporaries for the many-angle calls of discord_min.
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
    Every state is validated first.  The phase angle is fixed to 0 after a
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
    rho = np.asarray(rho, dtype=complex)
    stacked = rho.ndim == 3
    rhos = np.array([require_density_matrix(r, dim=4) for r in (rho if stacked else [rho])])
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
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"coherence parameter must lie in [0, 1], got {a!r}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = a / 2.0
    return m


def zurek_discord(a, theta):
    """Closed-form discord of the einselection benchmark state.

    Depends on theta only through sin^2(2 theta) and not at all on the
    measurement phase; equals 1 at a = 1 and vanishes at a = 0 for
    theta in {0, pi/2, pi}.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"coherence parameter must lie in [0, 1], got {a!r}")
    g = math.sqrt(1.0 - (1.0 - a * a) * math.sin(2.0 * theta) ** 2)
    return (
        1.0
        + xlogx((1.0 + a) / 2.0)
        + xlogx((1.0 - a) / 2.0)
        - xlogx((1.0 + g) / 2.0)
        - xlogx((1.0 - g) / 2.0)
    )


def quasi_probabilities(a, p, theta):
    """Outcome probabilities (P_0, P_1) for the quasi-Werner measurement."""
    w1 = p.n_plus**2 / (4.0 * p.N_plus**4)
    w4 = p.n_plus**2 / (4.0 * p.N_minus**4)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    p0 = (1.0 - a) / 2.0 + a * (c2 * w1 + s2 * w4)
    p1 = (1.0 - a) / 2.0 + a * (c2 * w4 + s2 * w1)
    return p0, p1


def discord_quasi_closed(a, p, theta):
    """Closed-form discord of the psi+/phi+ quasi-Werner state.

    Assembled from the reduced-Y spectrum, the joint spectrum, and the
    conditional spectra {(1-a)/4P_j, 1 - (1-a)/4P_j}; agrees with the
    brute-force pipeline on werner_density to 1e-9.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {a!r}")
    if not isinstance(p, CatParams):
        raise TypeError(f"p must be CatParams, got {type(p).__name__}")
    e1 = (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_plus**4)
    e2 = (1.0 - a) / 2.0 + a * p.n_plus**2 / (4.0 * p.N_minus**4)
    d = -xlogx(e1) - xlogx(e2)
    d += 3.0 * xlogx((1.0 - a) / 4.0) + xlogx((1.0 + 3.0 * a) / 4.0)
    for prob in quasi_probabilities(a, p, theta):
        if prob < DEGENERATE_PROB:
            continue
        c = (1.0 - a) / (4.0 * prob)
        d -= prob * (xlogx(c) + xlogx(1.0 - c))
    return d


def werner_discord_closed(a):
    """Closed-form discord of the perfect Werner state.

    Independent of the measurement basis and of the mean photon number.
    The leading constant is +1: the conditional spectra are
    {(1-a)/2, (1+a)/2} at every basis, and S(rho_Y) = 1 bit, which fixes
    the constant so that the fully mixed state gives exactly 0.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {a!r}")
    return (
        1.0
        + 3.0 * xlogx((1.0 - a) / 4.0)
        + xlogx((1.0 + 3.0 * a) / 4.0)
        - xlogx((1.0 - a) / 2.0)
        - xlogx((1.0 + a) / 2.0)
    )
