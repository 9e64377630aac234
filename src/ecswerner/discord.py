"""Quantum discord of two-qubit states under projective measurement of Y.

The generic pipeline computes D = I - J from entropies of the joint,
reduced, and post-measurement conditional states.  One batched kernel
measures Y at an array of angles at a shared phase; discord_at,
discord_profile, discord_min and conditional_states are thin wrappers
over it.  Closed forms are provided for the Werner and quasi-Werner
families and for the two-level einselection benchmark state, and a 1-D
minimizer finds the optimal measurement angle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .catstates import CatParams
from .qmatrix import (
    DEGENERATE_PROB,
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _projectors(thetas, phi):
    """The pair |pi0>, |pi1> of MeasurementBasis for each angle in thetas.

    Shape (n, 2, 2), indexed [angle, outcome j, component].
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    ct, st = np.cos(thetas), np.sin(thetas)
    e = complex(math.cos(phi), math.sin(phi))
    vecs = np.empty((thetas.size, 2, 2), dtype=complex)
    vecs[:, 0, 0] = ct
    vecs[:, 0, 1] = e * st
    vecs[:, 1, 0] = st
    vecs[:, 1, 1] = -e * ct
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
        return tuple(_projectors(self.theta, self.phi)[0])


@dataclass(frozen=True)
class DiscordResult:
    value: float
    theta_min: float
    mutual_info: float
    classical_corr: float
    probabilities: tuple


_xlogx = np.vectorize(xlogx, otypes=[float])


def _measure(rho, thetas, phi):
    """Measure Y on a validated rho at every angle of thetas, phase phi.

    Returns the unnormalized conditional X blocks, shape (n, 2, 2, 2)
    indexed [angle, outcome j, row, col]; the outcome probabilities P_j,
    shape (n, 2); and the measured conditional entropy sum_j P_j S(rho_X|j),
    shape (n,), from the closed-form spectrum of each Hermitian 2x2 block.
    A branch with P_j below DEGENERATE_PROB contributes nothing.
    """
    vecs = _projectors(thetas, phi)
    blocks = np.einsum("abcd,njb,njd->njac", rho.reshape(2, 2, 2, 2), vecs.conj(), vecs)
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
    return blocks, probs, 0.0 + terms[:, 0] + terms[:, 1]


def conditional_states(rho, basis):
    """Post-measurement states of X and outcome probabilities.

    Returns ((rho_0, P_0), (rho_1, P_1)).  A branch with probability below
    DEGENERATE_PROB is degenerate; it is reported with the maximally mixed
    placeholder state and contributes nothing to conditional entropies.
    """
    rho = require_density_matrix(rho, dim=4)
    blocks, probs, _ = _measure(rho, basis.theta, basis.phi)
    return tuple(
        (m / p, p) if p >= DEGENERATE_PROB else (np.eye(2, dtype=complex) / 2.0, p)
        for m, p in zip(blocks[0], probs[0].tolist())
    )


def mutual_information(rho):
    """Quantum mutual information S(rho_X) + S(rho_Y) - S(rho_XY) in bits."""
    rho = require_density_matrix(rho, dim=4)
    return (
        von_neumann_entropy(partial_trace(rho, "X"))
        + von_neumann_entropy(partial_trace(rho, "Y"))
        - von_neumann_entropy(rho)
    )


def _discord_parts(rho):
    s_x = von_neumann_entropy(partial_trace(rho, "X"))
    s_y = von_neumann_entropy(partial_trace(rho, "Y"))
    s_xy = von_neumann_entropy(rho)
    return s_x, s_x + s_y - s_xy


def _profile(rho, parts, thetas, phi):
    s_x, mutual = parts
    return mutual - (s_x - _measure(rho, thetas, phi)[2])


def _result(rho, parts, theta, phi):
    s_x, mutual = parts
    _, probs, cond = _measure(rho, theta, phi)
    classical = s_x - cond[0]
    return DiscordResult(
        value=mutual - classical,
        theta_min=theta,
        mutual_info=mutual,
        classical_corr=classical,
        probabilities=tuple(probs[0].tolist()),
    )


def discord_at(rho, basis):
    """Discord of rho for one fixed measurement basis on Y."""
    rho = require_density_matrix(rho, dim=4)
    return _result(rho, _discord_parts(rho), basis.theta, basis.phi)


def discord_profile(rho, thetas, phi=0.0):
    """Discord values over a sequence of measurement angles at a shared phase.

    Same values as discord_at per angle, from one batched evaluation of
    the measurement kernel; rho is validated and decomposed once.
    """
    rho = require_density_matrix(rho, dim=4)
    return _profile(rho, _discord_parts(rho), thetas, phi)


def _golden_min(f, lo, hi, tol=THETA_REFINE_TOL):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def discord_min(rho):
    """Minimum discord over projective measurements of Y.

    The phase angle is fixed to 0 after a runtime check that discord is
    phase insensitive for this input (raises NumericalIntegrityError
    otherwise); the angle theta is then minimized by a coarse scan of
    [0, pi] followed by golden-section refinement.
    """
    rho = require_density_matrix(rho, dim=4)
    parts = _discord_parts(rho)

    probe = np.array([_profile(rho, parts, PHI_PROBE_THETAS, phi) for phi in PHI_PROBE])
    worst = float(np.max(np.abs(probe[1:] - probe[0])))
    if worst > PHI_SENSITIVITY_TOL:
        raise NumericalIntegrityError(
            f"discord varies with measurement phase by {worst:.3e}; "
            "input is outside the X-form class this minimizer assumes"
        )

    grid = np.linspace(0.0, math.pi, THETA_COARSE_STEPS)
    values = _profile(rho, parts, grid, 0.0)
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    theta_best, val_best = _golden_min(lambda t: _profile(rho, parts, t, 0.0)[0], lo, hi)
    if values[k] < val_best:
        theta_best = float(grid[k])
    return _result(rho, parts, theta_best, 0.0)


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
