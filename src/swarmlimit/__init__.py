"""Coupled swarm dynamics: second-order particle optimization, its
first-order consensus limit, and the experiments that measure the gap
between them under shared noise."""

from .consensus import consensus_point, costs_of, laplace_value
from .dynamics import (
    MemoryParams,
    NonFiniteStateError,
    Params,
    RunRecord,
    SwarmState,
    lockstep,
    run,
)
from .experiments import (
    CompareTable,
    LimitStudyConfig,
    NonFiniteValueError,
    StudyResult,
    compare_distributions,
    compare_ladder,
    laplace_sweep,
    optimize,
    zero_inertia_study,
)
from .metrics import (
    default_bins,
    empirical_moments,
    kl_histogram,
    paired_msq_gap,
    w2_and_kl,
    wasserstein2_1d,
)
from .noise import NoiseTape, initial_positions
from .objectives import (
    Objective,
    ackley,
    make_objective,
    rastrigin,
    sphere,
)

__version__ = "0.1.0"

__all__ = [
    "CompareTable",
    "LimitStudyConfig",
    "MemoryParams",
    "NoiseTape",
    "NonFiniteStateError",
    "NonFiniteValueError",
    "Objective",
    "Params",
    "RunRecord",
    "StudyResult",
    "SwarmState",
    "ackley",
    "compare_distributions",
    "compare_ladder",
    "consensus_point",
    "costs_of",
    "default_bins",
    "empirical_moments",
    "initial_positions",
    "kl_histogram",
    "laplace_sweep",
    "laplace_value",
    "lockstep",
    "make_objective",
    "optimize",
    "paired_msq_gap",
    "rastrigin",
    "run",
    "sphere",
    "w2_and_kl",
    "wasserstein2_1d",
    "zero_inertia_study",
]
