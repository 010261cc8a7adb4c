"""Outside-in tracing of gdist: wrappers around its module-level names.

gdist has no tracing of its own, so the traced run replaces selected
functions with wrappers, in every gdist module that bound them (for example
``fidelity_params`` in ``optimality``, ``homodyne``, ``validation``, ``povm``
and ``cli``).  A wrapper records a span (name, start, end, parent) or, for
functions too small to time, only a call count.  ``scipy.linalg.expm`` is
wrapped as ``gdist.fock`` bound it, and ``FockOperator`` construction is
counted as a build.  Spans stay in memory; ``summary`` turns them into self
times (duration minus the part covered by child spans) at the end.

A name a later version of gdist no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: (module, attribute, span name).  Spans time a call; COUNTED only count.
#: ``overlap_grid`` is spanned so figure formatting time excludes it.
SPANNED = (
    ("gdist.fock", "expm", "fock.expm"),
    ("gdist.fock", "FockOperator", "fock.FockOperator"),
    ("gdist.fock", "choose_dim", "fock.choose_dim"),
    ("gdist.fock", "fidelity_fock", "fock.fidelity_fock"),
    ("gdist.fock", "marginal_fock", "fock.marginal_fock"),
    ("gdist.fock", "quadrature_moments", "fock.quadrature_moments"),
    ("gdist.fock", "hermite_functions", "fock.hermite_functions"),
    ("gdist.fidelity", "fidelity_params", "fidelity.fidelity_params"),
    ("gdist.fidelity", "fidelity_same_mean", "fidelity.fidelity_same_mean"),
    ("gdist.homodyne", "overlap_grid", "homodyne.overlap_grid"),
    ("gdist.homodyne", "minimize_overlap_scan", "homodyne.minimize_overlap_scan"),
    ("gdist.optimality", "minimize_overlap", "optimality.minimize_overlap"),
    ("gdist.optimality", "minimize_overlap_general", "optimality.minimize_overlap_general"),
    ("gdist.optimality", "classify_pair", "optimality.classify_pair"),
    ("gdist.povm", "conjecture_scan", "povm.conjecture_scan"),
    ("gdist.cli", "emit_figure_data", "cli.emit_figure_data"),
)
COUNTED = (
    ("gdist.states", "params_from_covariance", "states.params_from_covariance"),
    ("gdist.states", "covariance_from_params", "states.covariance_from_params"),
    ("gdist.states", "default_tol", "states.default_tol"),
)


class Tracer:
    """Span and count recorder for one traced worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.expm_dim3 = 0
        self.build_dims: list[int] = []
        self.build_keys: set = set()
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter_ns()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _expm(self, fn):
        def sized(matrix, *args, **kwargs):
            self.expm_dim3 += matrix.shape[0] ** 3
            return fn(matrix, *args, **kwargs)

        return self._spanned("fock.expm", sized)

    def _fock_operator(self, cls):
        def build(matrix, *args, **kwargs):
            op = cls(matrix, *args, **kwargs)
            m = op.matrix
            # a build is useful the first time its (state, dim) appears; the
            # diagonal and first row identify the state cheaply
            self.build_keys.add((m.shape[0], m.diagonal().tobytes(), m[0].tobytes()))
            self.build_dims.append(m.shape[0])
            return op

        return self._spanned("fock.FockOperator", build)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Import every traced gdist module and patch each name wherever bound."""
        for module_name, attr, name in SPANNED + COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if name == "fock.expm":
                wrapper = self._expm(original)
            elif name == "fock.FockOperator":
                wrapper = self._fock_operator(original)
            elif (module_name, attr, name) in COUNTED:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._spanned(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gdist" or mod_name.startswith("gdist.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def wrap_call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (for calls made by the harness)."""
        return self._spanned(name, fn)(*args, **kwargs)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total self seconds, per-call durations (ns).

        Self time is a span's duration minus its children's durations; spans
        nest strictly in one thread, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations_ns": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start - inner) / 1e9
            entry["durations_ns"].append(end - start)
        return out


def median_ms(summary: dict, name: str) -> float:
    entry = summary.get(name)
    return statistics.median(entry["durations_ns"]) / 1e6 if entry else 0.0


def self_s(summary: dict, name: str) -> float:
    entry = summary.get(name)
    return entry["self_s"] if entry else 0.0


def calls(summary: dict, name: str) -> int:
    entry = summary.get(name)
    return entry["calls"] if entry else 0
