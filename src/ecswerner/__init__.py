"""Discord and entanglement of Werner states built from entangled coherent states."""

from .catstates import (
    ALPHA2_MIN,
    CatParams,
    StateFamily,
    cat_params,
    concurrence_pure,
    ecs_concurrence,
    ecs_vector,
)
from .discord import (
    DiscordResult,
    MeasurementBasis,
    conditional_states,
    discord_at,
    discord_min,
    discord_profile,
    discord_quasi_closed,
    mutual_information,
    quasi_probabilities,
    werner_discord_closed,
    zurek_density,
    zurek_discord,
)
from .entanglement import (
    EntanglementResult,
    concurrence_closed,
    concurrence_mixed,
    eof,
    spin_flip,
)
from .qmatrix import (
    NumericalIntegrityError,
    eigvals_general_product,
    eigvals_hermitian,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from .werner import WernerSpec, WernerSpectra, spectrum_closed, werner_density, werner_stack, wootters_lambdas_closed

__version__ = "0.1.0"

__all__ = [
    "ALPHA2_MIN",
    "CatParams",
    "DiscordResult",
    "EntanglementResult",
    "MeasurementBasis",
    "NumericalIntegrityError",
    "StateFamily",
    "WernerSpec",
    "WernerSpectra",
    "cat_params",
    "concurrence_closed",
    "concurrence_mixed",
    "concurrence_pure",
    "conditional_states",
    "discord_at",
    "discord_min",
    "discord_profile",
    "discord_quasi_closed",
    "ecs_concurrence",
    "ecs_vector",
    "eigvals_general_product",
    "eigvals_hermitian",
    "eof",
    "mutual_information",
    "partial_trace",
    "quasi_probabilities",
    "spectrum_closed",
    "spin_flip",
    "tensor",
    "von_neumann_entropy",
    "werner_density",
    "werner_discord_closed",
    "werner_stack",
    "wootters_lambdas_closed",
    "zurek_density",
    "zurek_discord",
]
