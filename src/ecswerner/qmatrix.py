"""Minimal dense linear algebra for 2x2 and 4x4 Hermitian matrices.

Everything downstream (state construction, measurement, entropy) runs
through the handful of operations in this module.  Matrices are plain
complex numpy arrays in the fixed product-basis ordering

    index 0 -> |+,+>   index 1 -> |+,->   index 2 -> |-,+>   index 3 -> |-,->

with the X subsystem in the first slot.
"""

import math

import numpy as np

# Largest matrix the library handles; states here live in a 4-dim space.
MAX_DIM = 4

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# Eigenvalues in [-NEG_EIGENVALUE_TOL, 0) are treated as roundoff and
# clamped to 0; anything more negative indicates a construction bug.
NEG_EIGENVALUE_TOL = 1e-10
DEGENERATE_PROB = 1e-14
# xlogx is exactly 0 below this argument (the 0 log 0 = 0 convention)
XLOGX_FLOOR = 1e-15

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class NumericalIntegrityError(ArithmeticError):
    """Numerical result violates a bound that roundoff alone cannot explain.

    index, when not None, is the position of the offending state in a
    stacked input.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def require_hermitian(m, tol=HERMITICITY_TOL, name="matrix"):
    m = _as_square(m, name)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (max |M - M^dag| = {defect:.3e})")
    return m


def require_density_matrix(rho, dim=None, name="rho"):
    """Validate a density matrix: finite, Hermitian, unit trace, PSD up to roundoff."""
    rho = _as_square(rho, name)
    # NaN fails no comparison below; it would reach eigvalsh and raise LinAlgError
    if not np.isfinite(rho).all():
        raise ValueError(f"{name} has a non-finite entry")
    rho = require_hermitian(rho, name=name)
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {rho.shape}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace, got {tr!r}")
    low = float(np.min(np.linalg.eigvalsh(rho)))
    if low < -NEG_EIGENVALUE_TOL:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {low:.3e})")
    return rho


def density_from_vector(v):
    """Projector |v><v| for a unit vector; Hermitian by construction."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector must be normalized, got |v| = {norm!r}")
    return np.outer(v, v.conj())


def tensor(a, b):
    """Kronecker product with the first factor on the X slot.

    The resulting dimension must not exceed MAX_DIM; this library is
    fixed-small-size by design.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor result dimension {dim} exceeds supported maximum {MAX_DIM}")
    return np.kron(a, b)


def _clamp_spectrum(vals, what="eigenvalue"):
    vals = np.asarray(vals, dtype=float)
    low = float(vals.min()) if vals.size else 0.0
    if low < -NEG_EIGENVALUE_TOL:
        raise NumericalIntegrityError(f"{what} {low!r} below -{NEG_EIGENVALUE_TOL:g}")
    return np.clip(vals, 0.0, None)


def eigvals_hermitian(m):
    """Real spectrum of a Hermitian matrix, sorted descending.

    Raises ValueError if the input fails the Hermiticity check.
    """
    m = require_hermitian(m)
    vals = np.linalg.eigvalsh(m)
    return np.sort(vals)[::-1]


def sqrtm_psd(m):
    """Hermitian square root of a PSD matrix, negative roundoff clamped to 0."""
    m = require_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    vals = _clamp_spectrum(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def eigvals_general_product(a, b):
    """Spectrum of the product A @ B for Hermitian PSD A and B.

    The product shares its spectrum with the Hermitian sandwich
    sqrt(A) B sqrt(A) = G G^dag with G = sqrt(A) sqrt(B), so the
    eigenvalues are the squared singular values of G.  Computing the
    singular values directly keeps near-zero values accurate in absolute
    terms, so square roots taken downstream do not amplify roundoff at
    rank deficiency.  Output is real, non-negative, sorted descending.

    A genuinely negative eigenvalue in either factor (below the clamp
    tolerance) raises NumericalIntegrityError: the product spectrum would
    no longer be real non-negative.
    """
    a = require_hermitian(a, name="a")
    b = require_hermitian(b, name="b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    gram_factor = sqrtm_psd(a) @ sqrtm_psd(b)
    singular = np.linalg.svd(gram_factor, compute_uv=False)
    return np.sort(singular**2)[::-1]


def partial_trace(rho, keep):
    """Reduced 2x2 state of one subsystem of a two-qubit density matrix.

    Parameters
    ----------
    rho : 4x4 density matrix (Hermitian, unit trace).
    keep : "X" or "Y", the subsystem that survives.
    """
    rho = require_hermitian(rho, name="rho")
    if rho.shape[0] != 4:
        raise ValueError(f"partial_trace needs a 4x4 matrix, got {rho.shape}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"rho must have unit trace, got {tr!r}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "X":
        return np.einsum("ikjk->ij", r)
    if keep == "Y":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'X' or 'Y', got {keep!r}")


def xlogx(p):
    """p * log2(p) with the 0 log 0 = 0 convention (exactly 0 below XLOGX_FLOOR)."""
    if p < XLOGX_FLOOR:
        return 0.0
    return p * math.log2(p)


def binary_entropy(p):
    """Shannon entropy in bits of the distribution {p, 1-p}."""
    # leading 0.0 keeps the degenerate case from returning -0.0
    return 0.0 - xlogx(p) - xlogx(1.0 - p)


def von_neumann_entropy(rho):
    """Entropy -Tr(rho log2 rho) in bits.

    Eigenvalues are clamped to [0, 1] before the log; a pure state gives 0,
    the maximally mixed d-dim state gives log2(d).
    """
    rho = require_hermitian(rho, name="rho")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"rho must have unit trace, got {tr!r}")
    vals = _clamp_spectrum(np.linalg.eigvalsh(rho))
    vals = np.clip(vals, 0.0, 1.0)
    return float(0.0 - sum(xlogx(float(v)) for v in vals))
