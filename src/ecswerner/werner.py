"""Werner-form mixtures of the entangled-coherent-state families.

rho(a) = (1-a) I/4 + a |v><v| in the orthonormal cat basis.  The psi-/phi-
families reproduce the standard Werner state; psi+/phi+ give its
"quasi" variant whose spectra pick up the cat normalizations.  werner_stack
builds one family at an array of a; werner_density is its one-state case.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catstates import CatParams, StateFamily, ecs_vector
from .qmatrix import _unit_interval, density_from_vector


@dataclass(frozen=True)
class WernerSpec:
    """A Werner-form state: family, mixing weight a in [0,1], cat parameters."""

    family: StateFamily
    mixing: float
    params: CatParams

    def __post_init__(self):
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {self.mixing!r}")


class WernerSpectra(NamedTuple):
    joint: np.ndarray      # 4 eigenvalues of rho, descending
    reduced_y: np.ndarray  # 2 eigenvalues of Tr_X rho, descending


def _werner_form(family, a, p):
    """(1-a) I/4 + a |v><v| at each entry of a, shape a.shape + (4, 4); a is not checked."""
    a = np.asarray(a, dtype=float)[..., None, None]
    return (1.0 - a) * np.eye(4, dtype=complex) / 4.0 + a * density_from_vector(ecs_vector(family, p))


def werner_stack(family, a, p):
    """Density matrices (1-a) I/4 + a |v><v| of family at each mixing weight a.

    a is a scalar or an array, every entry in [0, 1] (ValueError
    otherwise); the result has shape a.shape + (4, 4), each matrix equal
    to werner_density of its WernerSpec bit for bit.
    """
    return _werner_form(family, _unit_interval(a, "mixing parameter"), p)


def werner_density(spec):
    """Explicit 4x4 density matrix (1-a) I/4 + a |v><v|."""
    return _werner_form(spec.family, spec.mixing, spec.params)


def _corner_weights(a, p):
    """The quasi-Werner corner weights a n+^2 / (4 N+^4) and a n+^2 / (4 N-^4), a scalar or array."""
    return a * p.n_plus**2 / (4.0 * p.N_plus**4), a * p.n_plus**2 / (4.0 * p.N_minus**4)


def _plus_family_elements(spec):
    """Diagonal corners d1, d4 and off-diagonal corner r of the X-form matrix."""
    a, p = spec.mixing, spec.params
    w1, w4 = _corner_weights(a, p)
    r = a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    return (1.0 - a) / 4.0 + w1, (1.0 - a) / 4.0 + w4, r


def spectrum_closed(spec):
    """Closed-form joint and reduced-Y spectra.

    The joint spectrum {(1+3a)/4, (1-a)/4 x3} is family independent.  The
    reduced spectrum is {1/2, 1/2} for the maximally entangled families and
    picks up the cat normalizations for psi+/phi+.
    """
    a = spec.mixing
    joint = np.array([(1.0 + 3.0 * a) / 4.0] + [(1.0 - a) / 4.0] * 3)
    if spec.family.maximally_entangled:
        reduced = np.array([0.5, 0.5])
    else:
        w1, w4 = _corner_weights(a, spec.params)
        reduced = np.array([(1.0 - a) / 2.0 + w1, (1.0 - a) / 2.0 + w4])
    return WernerSpectra(
        joint=np.sort(joint)[::-1],
        reduced_y=np.sort(reduced)[::-1],
    )


def wootters_lambdas_closed(spec):
    """Closed-form spin-flip eigenvalues lambda_i, sorted descending.

    These are the non-negative square roots of the spectrum of
    rho @ spin_flip(rho).  For psi-/phi- the state is flip invariant and
    the lambdas coincide with the joint spectrum; for psi+/phi+ the outer
    2x2 block contributes the pair sqrt(d1*d4) +- r.
    """
    if spec.family.maximally_entangled:
        return spectrum_closed(spec).joint
    b = (1.0 - spec.mixing) / 4.0
    d1, d4, r = _plus_family_elements(spec)
    root = np.sqrt(d1 * d4)
    return np.sort(np.array([root + r, b, b, root - r]))[::-1]
