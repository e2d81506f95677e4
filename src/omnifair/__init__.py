"""Fair rate allocation for communication for omniscience.

Solve the minimum sum-rate problem for a multi-user source, enumerate the
optimal rate region (the core of the induced cost-sharing game), and pick
fair points in it: exact or approximate Shapley values, and (fractional)
egalitarian solutions found by steepest descent on a grid or exactly in the
continuum, with fundamental-partition decomposition throughout.
"""

from .egalitarian import (
    ConvergenceError,
    SdaTrace,
    SplitError,
    SplitPlan,
    dep,
    egalitarian_continuous,
    egalitarian_decomposed,
    is_locally_optimal,
    objective_g,
    packet_split_plan,
    sda,
)
from .omniscience import (
    DecompositionError,
    GameContext,
    Partition,
    RateVector,
    conditional_mi_given_U,
    core_membership,
    decompose,
    dilworth_truncation,
    f_alpha,
    l1_size,
    min_sum_rate,
)
from .setfn import (
    GroundSetTooLarge,
    InfeasibleLattice,
    SetFunction,
    SfmResult,
    is_submodular,
    sfm_min,
    subsets,
)
from .shapley import (
    enumerate_extreme_points,
    sample_permutations,
    shapley_approx,
    shapley_decomposed,
    shapley_exact,
)
from .sources import (
    LinearSource,
    PmfSource,
    Source,
    SourceSpecError,
    gf_rank,
    load_source,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DecompositionError",
    "GameContext",
    "GroundSetTooLarge",
    "InfeasibleLattice",
    "LinearSource",
    "Partition",
    "PmfSource",
    "RateVector",
    "SdaTrace",
    "SetFunction",
    "SfmResult",
    "Source",
    "SourceSpecError",
    "SplitError",
    "SplitPlan",
    "conditional_mi_given_U",
    "core_membership",
    "decompose",
    "dep",
    "dilworth_truncation",
    "egalitarian_continuous",
    "egalitarian_decomposed",
    "enumerate_extreme_points",
    "f_alpha",
    "gf_rank",
    "is_locally_optimal",
    "is_submodular",
    "l1_size",
    "load_source",
    "min_sum_rate",
    "objective_g",
    "packet_split_plan",
    "sample_permutations",
    "sda",
    "sfm_min",
    "shapley_approx",
    "shapley_decomposed",
    "shapley_exact",
    "subsets",
]
