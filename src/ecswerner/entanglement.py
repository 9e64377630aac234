"""Mixed-state entanglement: spin flip, concurrence, entanglement of formation.

spin_flip and concurrence_mixed take one 4x4 state or an (S, 4, 4) stack, as
discord_profile does; a stack's values equal one call per state bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import (
    SIGMA_Y,
    _density_states,
    _product_spectrum,
    binary_entropy,
    tensor,
)
from .werner import wootters_lambdas_closed

_SY_SY = tensor(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class EntanglementResult:
    concurrence: float
    eof: float
    lambdas: np.ndarray  # the four spin-flip eigenvalues, descending


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
    lams = np.sqrt(_product_spectrum(np.asarray(rho, dtype=complex), flipped))
    results = []
    for lam in lams.reshape(-1, 4):
        c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
        results.append(EntanglementResult(concurrence=c, eof=eof(c), lambdas=lam))
    return results if flipped.ndim == 3 else results[0]


def eof(concurrence):
    """Entanglement of formation as the binary-entropy monotone of concurrence."""
    if not -1e-10 <= concurrence <= 1.0 + 1e-10:
        raise ValueError(f"concurrence must lie in [0, 1], got {concurrence!r}")
    c = min(max(concurrence, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def concurrence_closed(spec):
    """Closed-form concurrence of a Werner-form state.

    Evaluates max{0, l1 - l2 - l3 - l4} on the closed-form spin-flip
    eigenvalues: (3a-1)/2 for the perfect Werner families and
    a*C0 - (1-a)/2 for psi+/phi+ with C0 the pure-state concurrence.
    """
    lams = wootters_lambdas_closed(spec)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
