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


def _as_stack(m, name="matrix"):
    """m as an (S, d, d) stack, and whether it was one (rather than a single d x d matrix)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return (m, True) if m.ndim == 3 else (m[None], False)


def _raise_first(checks, stacked):
    """Raise ValueError for the first matrix failing one of checks, with its first failing check's text.

    checks are (bad, message) pairs in the order one matrix is checked:
    bad is a boolean mask over the stack, message(k) the text for matrix k.
    In a stacked input the message is prefixed "state k: ".
    """
    failing = [mask for mask, _ in checks if mask.any()]
    if failing:
        k = min(int(mask.argmax()) for mask in failing)
        message = next(message(k) for mask, message in checks if mask[k])
        raise ValueError((f"state {k}: " if stacked else "") + message)


def _hermiticity_check(m, name):
    """The Hermiticity check (max |M - M^dag| within HERMITICITY_TOL, which a NaN fails) of each matrix of a stack."""
    with np.errstate(invalid="ignore"):  # an infinite diagonal entry gives inf - inf: a NaN defect, which fails
        defect = np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    return ~(defect <= HERMITICITY_TOL), lambda k: f"{name} is not Hermitian (max |M - M^dag| = {defect[k]:.3e})"


def _hermitian_unit_trace_checks(m, name, dim=None, wrong_dim=None):
    """The Hermiticity, dimension and unit-trace checks of each matrix of a stack, for _raise_first.

    The dimension check, when dim is given, fails every matrix with the text wrong_dim; a NaN fails the other two.
    """
    with np.errstate(invalid="ignore"):  # +inf and -inf on the diagonal give a NaN trace, which fails
        tr = m.trace(axis1=-2, axis2=-1).real
    checks = [_hermiticity_check(m, name)]
    if dim is not None and m.shape[-1] != dim:
        checks.append((np.ones(len(m), dtype=bool), lambda k: wrong_dim))
    checks.append((~(np.abs(tr - 1.0) <= TRACE_TOL), lambda k: f"{name} must have unit trace, got {float(tr[k])!r}"))
    return checks


def _unit_interval(a, what, tol=0.0):
    """a as a float array, raising ValueError unless every entry lies in [0, 1], widened by tol at both ends."""
    a = np.asarray(a, dtype=float)
    bad = ~((-tol <= a) & (a <= 1.0 + tol))  # NaN is bad
    if bad.any():
        raise ValueError(f"{what} must lie in [0, 1], got {float(a[bad][0])!r}")
    return a


def _finite(x, what):
    """x as a float array, raising ValueError unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"{what} must be finite, got {float(x[bad][0])!r}")
    return x


def _eigvalsh(m):
    """eigvalsh over a stack; a LinAlgError carries the position of its first failing matrix in index."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        # the batched solver does not say which matrix failed
        for k, single in enumerate(m):
            try:
                np.linalg.eigvalsh(single)
            except np.linalg.LinAlgError:
                exc.index = k
                break
        raise


def require_hermitian(m, name="matrix"):
    m = _as_square(m, name)
    _raise_first([_hermiticity_check(m[None], name)], stacked=False)
    return m


def _require_density(rhos, dim, name, stacked):
    """The checks of require_density_matrix on each matrix of an (S, d, d) stack."""
    checks = [(~np.isfinite(rhos).all(axis=(1, 2)), lambda k: f"{name} has a non-finite entry")]
    checks += _hermitian_unit_trace_checks(rhos, name, dim, f"{name} must be {dim}x{dim}, got {rhos.shape[1:]}")
    # eigensolve only the matrices ahead of the first one failing a check above: that one
    # is named before any later one, and a NaN would make eigvalsh raise LinAlgError
    ahead = min((int(mask.argmax()) for mask, _ in checks if mask.any()), default=len(rhos))
    low = np.zeros(len(rhos))
    low[:ahead] = _eigvalsh(rhos[:ahead]).min(axis=-1)
    checks.append((low < -NEG_EIGENVALUE_TOL, lambda k: f"{name} is not positive semidefinite (min eigenvalue {low[k]:.3e})"))
    _raise_first(checks, stacked)
    return rhos


def require_density_matrix(rho, dim=None, name="rho"):
    """Validate a density matrix: finite, Hermitian, unit trace, PSD up to roundoff."""
    return _require_density(_as_square(rho, name)[None], dim, name, stacked=False)[0]


def require_density_stack(rhos, dim=None, name="rho"):
    """Validate an (S, d, d) stack of density matrices at once.

    Every matrix gets the checks of require_density_matrix, in the same
    order and with the same messages; the first failing matrix k raises
    ValueError with its message prefixed "state k: ".
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError(f"{name} must be a stack of square matrices, got shape {rhos.shape}")
    return _require_density(rhos, dim, name, stacked=True)


def _density_states(rho):
    """A 4x4 density matrix or an (S, 4, 4) stack as a validated stack, and whether rho was a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 3:
        return require_density_stack(rho, dim=4), True
    return require_density_matrix(rho, dim=4)[None], False


def _unit_vector(v):
    """v as a flat complex vector, raising ValueError unless its norm is 1 within 1e-12 (a NaN norm is not)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"state vector must be normalized, got |v| = {norm!r}")
    return v


def density_from_vector(v):
    """Projector |v><v| for a unit vector; Hermitian by construction."""
    v = _unit_vector(v)
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


def _clamp_spectrum(vals, upper=None):
    """vals with roundoff below 0 clamped to 0, and clipped to upper when given.

    vals is one spectrum, or a stack of them (S, d); the first failing
    spectrum k of a stack is named "state k: " in the message and carried
    in the error's index.
    """
    vals = np.asarray(vals, dtype=float)
    low = vals.min(axis=-1, initial=0.0)
    bad = low < -NEG_EIGENVALUE_TOL
    if bad.any():
        k, prefix = None, ""
        if vals.ndim > 1:
            k = int(bad.argmax())
            low, prefix = low[k], f"state {k}: "
        raise NumericalIntegrityError(f"{prefix}eigenvalue {float(low)!r} below -{NEG_EIGENVALUE_TOL:g}", index=k)
    return vals.clip(0.0, upper)


def eigvals_hermitian(m):
    """Real spectrum of a Hermitian matrix, sorted descending.

    m is one matrix or an (S, d, d) stack, giving (S, d).  Raises ValueError if a matrix
    fails the Hermiticity check, prefixed "state k: " in a stack; a LinAlgError carries k in its index.
    """
    ms, stacked = _as_stack(m)
    _raise_first([_hermiticity_check(ms, "matrix")], stacked)
    vals = np.sort(_eigvalsh(ms), axis=-1)[:, ::-1]
    return vals if stacked else vals[0]


def _sqrtm_psd(m):
    """Hermitian square root of a Hermitian PSD matrix or stack, negative roundoff clamped to 0; m is not checked."""
    vals, vecs = np.linalg.eigh(m)
    vals = _clamp_spectrum(vals)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
    return _product_spectrum(a, b)


def _product_spectrum(a, b):
    """eigvals_general_product of one pair of matrices, or of each pair of two stacks, without its checks."""
    gram_factor = _sqrtm_psd(a) @ _sqrtm_psd(b)
    singular = np.linalg.svd(gram_factor, compute_uv=False)
    return np.sort(singular**2, axis=-1)[..., ::-1]


def partial_trace(rho, keep):
    """Reduced 2x2 state of one subsystem of a two-qubit density matrix.

    Parameters
    ----------
    rho : 4x4 density matrix (Hermitian, unit trace), or an (S, 4, 4) stack
        of them, giving an (S, 2, 2) stack; a stack's failing matrix k is
        named "state k: " in the message.
    keep : "X" or "Y", the subsystem that survives.
    """
    rhos, stacked = _as_stack(rho, "rho")
    wrong_dim = f"partial_trace needs a 4x4 matrix, got {rhos.shape[1:]}"
    _raise_first(_hermitian_unit_trace_checks(rhos, "rho", 4, wrong_dim), stacked)
    reduced = _partial_trace(rhos, keep)
    return reduced if stacked else reduced[0]


def _partial_trace(rhos, keep):
    """partial_trace of each matrix of an (S, 4, 4) stack, without its checks."""
    r = rhos.reshape(-1, 2, 2, 2, 2)
    if keep == "X":
        return np.einsum("sikjk->sij", r)
    if keep == "Y":
        return np.einsum("skikj->sij", r)
    raise ValueError(f"keep must be 'X' or 'Y', got {keep!r}")


def xlogx(p):
    """p * log2(p) with the 0 log 0 = 0 convention (exactly 0 below XLOGX_FLOOR)."""
    if p < XLOGX_FLOOR:
        return 0.0
    return p * math.log2(p)


def binary_entropy(p):
    """Shannon entropy in bits of the distribution {p, 1-p}; a scalar p gives a float, an array an array."""
    p = np.asarray(p, dtype=float)
    # leading 0.0 keeps the degenerate case from returning -0.0
    return _scalar_or_array(0.0 - _xlogx(p) - _xlogx(1.0 - p))


def _xlogx(p):
    """xlogx over an array, bit for bit; NaN stays NaN, as in xlogx."""
    p = np.asarray(p, dtype=float)
    return np.where(p < XLOGX_FLOOR, 0.0, p * _log2(np.maximum(p, XLOGX_FLOOR)))


def _log2(x):
    """math.log2 of each entry of a float64 array, bit for bit.

    numpy's float64 log2 calls libm's log2 per entry, as math.log2 does,
    except in its SIMD loop (SVML on AVX-512 builds), which differs in the
    last bit on about one argument in 500.  numpy takes that loop only for
    operands with a positive stride, so the log runs over the reversed flat
    view.  tests/test_qmatrix.py::test_xlogx_matches_scalar_where_simd_log2_differs
    fails if a numpy build ever sends this call through SIMD.
    """
    backwards = np.ravel(x)[::-1]
    return np.log2(backwards)[::-1].reshape(np.shape(x))


def _scalar_or_array(x):
    """A 0-d result as a Python float, any other as the array."""
    return float(x) if x.ndim == 0 else x


def von_neumann_entropy(rho):
    """Entropy -Tr(rho log2 rho) in bits.

    Eigenvalues are clamped to [0, 1] before the log; a pure state gives 0,
    the maximally mixed d-dim state gives log2(d).  rho is one matrix,
    giving a float, or an (S, d, d) stack, giving an (S,) array from one
    eigensolve of the whole stack; each entry equals the matrix's own
    entropy bit for bit.  A stack's failing matrix k is named "state k: "
    in a check's message, and a clamp failure carries k in its index.
    """
    rhos, stacked = _as_stack(rho, "rho")
    _raise_first(_hermitian_unit_trace_checks(rhos, "rho"), stacked)
    entropy = _entropy(rhos, stacked)
    return entropy if stacked else float(entropy[0])


def _entropy(rhos, stacked=True):
    """von_neumann_entropy of each matrix of an (S, d, d) stack, without its checks; the clamp still applies."""
    vals = _eigvalsh(rhos)
    terms = _xlogx(_clamp_spectrum(vals if stacked else vals[0], 1.0).reshape(vals.shape))
    # the terms summed in the order of sum(): 0 + x0 + x1 + ...
    total = np.zeros(len(rhos))
    for column in terms.T:
        total = total + column
    return 0.0 - total
