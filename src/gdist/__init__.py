"""Homodyne distinguishability of single-mode Gaussian states.

Computes quantum fidelity and homodyne-overlap profiles for pairs of
single-mode Gaussian states, finds the measurement angle minimizing the
overlap, and classifies when homodyne detection attains the fidelity bound.
A truncated Fock-space oracle cross-validates every closed form.

Exports load lazily (PEP 562), each name with its submodule on first access,
so a process that needs only the scalar closed forms never loads numpy.
"""

import importlib

#: Every public name, keyed to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "GdistError NonPhysicalStateError StateFormatError TruncationError"),
        ("errors", "UnsupportedPairError"),
        ("fidelity", "FidelityReport S2Root fidelity_params solve_s2_for_optimality"),
        ("fidelity", "thermal_ratio_sum"),
        ("fock", "FockOperator auto_states build_state fidelity_fock"),
        ("fock", "marginal_fock overlap_fock"),
        ("homodyne", "overlap_at"),
        ("optimality", "OptimalityVerdict PairClass classify_pair minimize_overlap"),
        ("optimality", "minimize_overlap_general ratio_extremes"),
        ("povm", "ConjectureScan conjecture_scan povm_overlap"),
        ("states", "CovarianceState GaussianParams covariance_from_params"),
        ("states", "load_state params_from_covariance state_from_dict"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
