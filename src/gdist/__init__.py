"""Homodyne distinguishability of single-mode Gaussian states.

Computes quantum fidelity and homodyne-overlap profiles for pairs of
single-mode Gaussian states, finds the measurement angle minimizing the
overlap, and classifies when homodyne detection attains the fidelity bound.
A truncated Fock-space oracle cross-validates every closed form.
"""

from .errors import (
    GdistError,
    NonPhysicalStateError,
    NumericalFailureError,
    StateFormatError,
    TruncationError,
    UnsupportedPairError,
)
from .fidelity import (
    FidelityReport,
    fidelity_params,
)
from .fock import (
    FockOperator,
    adequate_dim,
    auto_state,
    build_state,
    fidelity_fock,
    marginal_fock,
    overlap_fock,
)
from .homodyne import (
    overlap_at,
)
from .optimality import (
    OptimalityVerdict,
    PairClass,
    S2Root,
    classify_pair,
    minimize_overlap,
    minimize_overlap_general,
    ratio_extremes,
    solve_s2_for_optimality,
    thermal_ratio_sum,
)
from .povm import (
    ConjectureScan,
    PovmFamilySpec,
    conjecture_scan,
    povm_overlap,
)
from .states import (
    CovarianceState,
    GaussianParams,
    covariance_from_params,
    is_physical,
    load_state,
    params_from_covariance,
    state_from_dict,
)

__version__ = "0.1.0"
