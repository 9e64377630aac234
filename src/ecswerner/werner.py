"""Werner-form mixtures of the entangled-coherent-state families.

rho(a) = (1-a) I/4 + a |v><v| in the orthonormal cat basis.  The psi-/phi-
families reproduce the standard Werner state; psi+/phi+ give its
"quasi" variant whose spectra pick up the cat normalizations.  werner_stack
builds one family at an array of a; werner_density is its one-state case.
The closed-form spectra and spin-flip lambdas take an array of a the same
way (_closed_spectra, _closed_lambdas); spectrum_closed and
wootters_lambdas_closed are their one-state case.
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


def _plus_family_elements(a, p):
    """Diagonal corners d1, d4 and off-diagonal corner r of the X-form matrix, a scalar or array a."""
    w1, w4 = _corner_weights(a, p)
    r = a * p.n_plus**2 / (4.0 * p.N_plus**2 * p.N_minus**2)
    return (1.0 - a) / 4.0 + w1, (1.0 - a) / 4.0 + w4, r


def _descending(values):
    """Each spectrum along the last axis, sorted descending."""
    return np.sort(values, axis=-1)[..., ::-1]


def _closed_spectra(family, a, p):
    """spectrum_closed of family at each mixing weight a, shapes a.shape + (4,) and a.shape + (2,); a is not checked."""
    a = np.asarray(a, dtype=float)
    joint = np.stack([(1.0 + 3.0 * a) / 4.0] + [(1.0 - a) / 4.0] * 3, axis=-1)
    if family.maximally_entangled:
        reduced = np.full(a.shape + (2,), 0.5)
    else:
        w1, w4 = _corner_weights(a, p)
        reduced = np.stack([(1.0 - a) / 2.0 + w1, (1.0 - a) / 2.0 + w4], axis=-1)
    return WernerSpectra(joint=_descending(joint), reduced_y=_descending(reduced))


def _closed_lambdas(family, a, p):
    """wootters_lambdas_closed of family at each mixing weight a, shape a.shape + (4,); a is not checked."""
    if family.maximally_entangled:
        return _closed_spectra(family, a, p).joint
    a = np.asarray(a, dtype=float)
    b = (1.0 - a) / 4.0
    d1, d4, r = _plus_family_elements(a, p)
    root = np.sqrt(d1 * d4)
    return _descending(np.stack([root + r, b, b, root - r], axis=-1))


def spectrum_closed(spec):
    """Closed-form joint and reduced-Y spectra, each sorted descending.

    The joint spectrum {(1+3a)/4, (1-a)/4 x3} is family independent.  The
    reduced spectrum is {1/2, 1/2} for the maximally entangled families and
    picks up the cat normalizations for psi+/phi+.
    """
    return _closed_spectra(spec.family, spec.mixing, spec.params)


def wootters_lambdas_closed(spec):
    """Closed-form spin-flip eigenvalues lambda_i, sorted descending.

    These are the non-negative square roots of the spectrum of
    rho @ spin_flip(rho).  For psi-/phi- the state is flip invariant and
    the lambdas coincide with the joint spectrum; for psi+/phi+ the outer
    2x2 block contributes the pair sqrt(d1*d4) +- r.
    """
    return _closed_lambdas(spec.family, spec.mixing, spec.params)
