"""Mixed-state entanglement: spin flip, concurrence, entanglement of formation."""

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import (
    SIGMA_Y,
    binary_entropy,
    eigvals_general_product,
    require_density_matrix,
    tensor,
)
from .werner import wootters_lambdas_closed

_SY_SY = tensor(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class EntanglementResult:
    concurrence: float
    eof: float
    lambdas: np.ndarray  # the four spin-flip eigenvalues, descending


def _spin_flip(rho):
    """spin_flip of an already validated state."""
    return _SY_SY @ rho.conj() @ _SY_SY


def spin_flip(rho):
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return _spin_flip(require_density_matrix(rho, dim=4))


def concurrence_mixed(rho):
    """Concurrence max{0, l1 - l2 - l3 - l4} of a two-qubit density matrix.

    The l_i are the non-negative square roots of the spectrum of
    rho @ spin_flip(rho), in decreasing order.
    """
    rho = require_density_matrix(rho, dim=4)
    lams = np.sqrt(eigvals_general_product(rho, _spin_flip(rho)))
    c = max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
    return EntanglementResult(concurrence=c, eof=eof(c), lambdas=lams)


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
