"""Coherent-state parameter layer.

A coherent amplitude alpha enters every formula only through its mean
photon number |alpha|^2, via x = exp(-|alpha|^2).  The orthonormal qubit
basis is the even/odd cat pair

    |+> = N+ (|alpha> + |-alpha>),   N+- = [2(1 +- x^2)]^(-1/2),

and the four two-mode superpositions of |+-alpha, +-alpha> close in the
4-dim cat basis with normalizations n+- = [2(1 +- x^4)]^(-1/2).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import _unit_vector

# Below this mean photon number the odd cat normalization 1/N-^4 = 4(1-x^2)^2
# is dominated by cancellation error; the odd cat state itself is ill-defined
# at alpha = 0.
ALPHA2_MIN = 1e-3


class StateFamily(enum.Enum):
    """The four entangled-coherent-state families."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def maximally_entangled(self):
        """psi-/phi- carry unit concurrence; psi+/phi+ do not."""
        return self in (StateFamily.PSI_MINUS, StateFamily.PHI_MINUS)

    @classmethod
    def parse(cls, label):
        try:
            return cls(label)
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown state family {label!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class CatParams:
    """Derived scalars for a fixed mean photon number.

    x is exp(-mean_photon); N_plus/N_minus normalize the even/odd cat
    states and n_plus/n_minus the two-mode superpositions.
    """

    mean_photon: float
    x: float
    N_plus: float
    N_minus: float
    n_plus: float
    n_minus: float


def cat_params(mean_photon):
    """Compute the scalar bundle (x, N+-, n+-) for a mean photon number.

    Raises ValueError for a non-finite value or one below the ALPHA2_MIN
    cutoff.
    """
    mean_photon = float(mean_photon)
    if not math.isfinite(mean_photon):
        raise ValueError(f"mean photon number must be finite, got {mean_photon!r}")
    if mean_photon < ALPHA2_MIN:
        raise ValueError(
            f"mean photon number {mean_photon!r} below minimum {ALPHA2_MIN:g}; "
            "the odd cat state degenerates as alpha -> 0"
        )
    x = math.exp(-mean_photon)
    return CatParams(
        mean_photon=mean_photon,
        x=x,
        N_plus=(2.0 * (1.0 + x**2)) ** -0.5,
        N_minus=(2.0 * (1.0 - x**2)) ** -0.5,
        n_plus=(2.0 * (1.0 + x**4)) ** -0.5,
        n_minus=(2.0 * (1.0 - x**4)) ** -0.5,
    )


def ecs_vector(family, p):
    """Entangled-coherent-state vector in the cat basis {|++>,|+->,|-+>,|-->}.

    psi+/phi+ live on the outer components (|++>, |-->) with weights set by
    the cat normalizations; psi-/phi- are the maximally entangled inner pair.
    """
    c = p.n_plus / 2.0
    inv_np2 = 1.0 / p.N_plus**2
    inv_nm2 = 1.0 / p.N_minus**2
    # sqrt(0.5) rounds up, so 2*s*s clamps to exactly 1.0 in concurrence_pure
    s = math.sqrt(0.5)
    if family is StateFamily.PSI_PLUS:
        amps = [c * inv_np2, 0.0, 0.0, c * inv_nm2]
    elif family is StateFamily.PHI_PLUS:
        amps = [c * inv_np2, 0.0, 0.0, -c * inv_nm2]
    elif family is StateFamily.PSI_MINUS:
        amps = [0.0, s, s, 0.0]
    elif family is StateFamily.PHI_MINUS:
        amps = [0.0, s, -s, 0.0]
    else:
        raise TypeError(f"family must be a StateFamily, got {family!r}")
    return np.array(amps, dtype=complex)


def concurrence_pure(v):
    """Concurrence 2|c1*c4 - c2*c3| of a normalized two-qubit pure state."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-component state vector, got shape {v.shape}")
    v = _unit_vector(v)
    c = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
    return float(min(c, 1.0))


def ecs_concurrence(p):
    """Closed-form concurrence (1 - x^4) / (1 + x^4) of the psi+/phi+ pair."""
    return (1.0 - p.x**4) / (1.0 + p.x**4)
