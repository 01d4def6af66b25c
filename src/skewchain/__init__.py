"""Skew-information uncertainty bound chains for quantum channels.

Compute the Wigner-Yanase skew information of states against channels in
Kraus form, the refinement chains of lower bounds for products and sums of
two channel skew informations, permutation-optimized and convex-mixed
variants, and numerical certification of every claimed inequality.
"""

from .chains import (
    ChainStage,
    Reading,
    VerdictColumns,
    chain_stage,
    compute_chain,
    invariance_columns,
    kraus_invariance_check,
    lattice_order,
    mixed_columns,
    optimize_batch,
    permute_s,
    verdict_columns,
)
from .errors import (
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
    SweepTable,
    closed_forms,
    discrepancy_report,
    example_channels,
    rho_theta,
    sweep,
)
from .linalg import (
    hermitian_eigendecompose,
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
    random_density,
    random_unitary,
    validate_channel,
    validate_density,
)
from .serialize import load_channel, load_state, save_channel, save_state
from .skew import (
    skew_info_channel,
    skew_info_operator,
)

__version__ = "0.1.0"
