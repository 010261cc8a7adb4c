"""Homodyne distinguishability of single-mode Gaussian states.

Computes quantum fidelity and homodyne-overlap profiles for pairs of
single-mode Gaussian states, finds the measurement angle minimizing the
overlap, and classifies when homodyne detection attains the fidelity bound.
A truncated Fock-space oracle cross-validates every closed form.
"""

from .errors import (
    GdistError,
    MeanMismatchError,
    NonPhysicalStateError,
    NotSymplecticError,
    NumericalFailureError,
    StateFormatError,
    TruncationError,
    UnsupportedPairError,
)
from .fidelity import (
    FidelityReport,
    fidelity_gaussian,
    fidelity_params,
    fidelity_same_mean,
)
from .fock import (
    FockOperator,
    adequate_dim,
    auto_state,
    build_state,
    choose_dim,
    fidelity_fock,
    marginal_fock,
    overlap_fock,
)
from .homodyne import (
    OverlapProfile,
    overlap_at,
    overlap_profile,
)
from .optimality import (
    OptimalityVerdict,
    PairClass,
    S2Root,
    check_different_mean_symmetric,
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
    SymplecticMap,
    apply_symplectic,
    covariance_from_params,
    is_physical,
    load_state,
    params_from_covariance,
    state_from_dict,
    state_to_dict,
)

__version__ = "0.1.0"
