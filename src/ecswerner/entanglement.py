"""Mixed-state entanglement: spin flip, concurrence, entanglement of formation.

spin_flip and concurrence_mixed take one 4x4 state or an (S, 4, 4) stack, as
discord_profile does; a stack's values equal one call per state bit for bit.
eof takes a scalar or an array; concurrence_closed is the one-state case of
the array closed form _closed_concurrence.
"""

from dataclasses import dataclass

import numpy as np

from .discord import _results
from .qmatrix import (
    SIGMA_Y,
    _density_states,
    _product_spectrum,
    _unit_interval,
    binary_entropy,
    tensor,
)
from .werner import _closed_lambdas

_SY_SY = tensor(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class EntanglementResult:
    concurrence: float
    eof: float
    lambdas: tuple  # the four spin-flip eigenvalues, descending


def spin_flip(rho):
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y), of one 4x4 state or each of a stack."""
    rhos, stacked = _density_states(rho)
    flipped = _SY_SY @ rhos.conj() @ _SY_SY
    return flipped if stacked else flipped[0]


def concurrence_mixed(rho):
    """Concurrence max{0, l1 - l2 - l3 - l4} of a two-qubit density matrix.

    The l_i are the non-negative square roots of the spectrum of
    rho @ spin_flip(rho), in decreasing order.  A stack gives a list of
    results; spin_flip validates the state, once.
    """
    flipped = spin_flip(rho)
    lams = np.sqrt(_product_spectrum(np.asarray(rho, dtype=complex), flipped)).reshape(-1, 4)
    c = _wootters(lams)
    results = _results(EntanglementResult, c, eof(c), lams)
    return results if flipped.ndim == 3 else results[0]


def _wootters(lams):
    """max{0, l1 - l2 - l3 - l4} of each row of descending lambdas, as max(0.0, .) gives it."""
    d = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    return np.where(d > 0.0, d, 0.0)


def eof(concurrence):
    """Entanglement of formation as the binary-entropy monotone of concurrence.

    concurrence is a scalar, giving a float, or an array.  Every entry must
    lie in [0, 1] within 1e-10 (ValueError otherwise, NaN included); an
    excursion within that tolerance is clamped to 0 or 1.
    """
    c = np.clip(_unit_interval(concurrence, "concurrence", 1e-10), 0.0, 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def _closed_concurrence(family, a, p):
    """concurrence_closed of family at each mixing weight a, shape a.shape; a is not checked."""
    return _wootters(_closed_lambdas(family, a, p))


def concurrence_closed(spec):
    """Closed-form concurrence of a Werner-form state.

    Evaluates max{0, l1 - l2 - l3 - l4} on the closed-form spin-flip
    eigenvalues: (3a-1)/2 for the perfect Werner families and
    a*C0 - (1-a)/2 for psi+/phi+ with C0 the pure-state concurrence.
    """
    return float(_closed_concurrence(spec.family, spec.mixing, spec.params))
