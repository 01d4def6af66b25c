"""Skew-information uncertainty bound chains for quantum channels.

Compute the Wigner-Yanase skew information of states against channels in
Kraus form, the refinement chains of lower bounds for products and sums of
two channel skew informations, permutation-optimized and convex-mixed
variants, and numerical certification of every claimed inequality.
"""

from .chains import (
    BoundChain,
    ChainData,
    ChainStage,
    ChainVerdict,
    InvarianceReport,
    PermutedBound,
    Reading,
    Strategy,
    SumBounds,
    chain_batch,
    chain_data,
    chain_from_data,
    chain_stage,
    compute_chain,
    cross_term_bound,
    invariance_from_data,
    invariance_from_trials,
    kraus_invariance_check,
    lattice_order,
    mixed_bound,
    optimize_batch,
    optimize_from_data,
    optimize_permutations,
    permute_s,
    sum_chain,
    verify_chain,
    verify_from_data,
)
from .errors import (
    BudgetError,
    CompletenessError,
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    SkewchainError,
    TraceNotOneError,
)
from .example import (
    ClosedForms,
    ExampleParams,
    SweepTable,
    closed_forms,
    discrepancy_report,
    example_channels,
    rho_theta,
    sweep,
)
from .linalg import (
    HermitianEig,
    commutator,
    hermitian_eigendecompose,
    hs_inner,
    psd_sqrt,
)
from .objects import (
    Convention,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    channel_stack,
    density_stack,
    derive_seed,
    mix_kraus,
    mix_kraus_families,
    random_channel,
    random_channels,
    random_densities,
    random_density,
    random_unitaries,
    random_unitary,
    validate_channel,
    validate_channels,
    validate_densities,
    validate_density,
)
from .serialize import load_channel, load_state, save_channel, save_state
from .skew import (
    observable_commutator_bound,
    skew_info_channel,
    skew_info_observable,
    skew_info_operator,
)

__version__ = "0.1.0"
