"""In-process side of the benchmark: one fresh interpreter per call.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py machine
    python3 perfbench/worker.py run --workload W --seed N --seconds S
                                    [--max-ops N] [--trace 0|1] [--workdir D]

``setup`` times the gdist import plus warm-up, raw and scaled by the speed
probe timed after it; ``machine`` reports library versions and the BLAS
setting; ``run`` drives one caller in a closed loop and prints one JSON object
on stdout.  ``speed`` imports numpy, so it is imported only after gdist.
gdist is found through PYTHONPATH, which ``run.py`` points at the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import sys
import time

import checks
import inputs
from tracer import Tracer, calls, median_ms, self_s

PAIRS_CYCLES = 128
WIDE_PAIRS = 256
ORACLE_COUNT = 400
CLI_ROUNDS = 64
WARMUP_PAIRS = (
    ((2.0, 2.0, 0.0, 0.0, 0.0), (4.0, 1.4, 1.0471975512, 0.0, 0.0)),
    ((2.0, 1.0, 0.0, 0.0, 0.0), (3.0, 1.0, 0.0, 0.5, -0.3)),
)


def blas_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_runtime": threads,
        "blas_thread_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _pairs_op(gdist, q1, q2):
    fid = gdist.fidelity_params(q1, q2).fidelity
    _, omin = gdist.minimize_overlap(q1, q2)
    try:
        kind = gdist.classify_pair(q1, q2).kind.value
    except gdist.UnsupportedPairError:
        kind = None
    return fid, omin, kind


def _warm_up(gdist) -> None:
    """One op per class, so lazy imports (scipy.optimize) happen before timing."""
    for p1, p2 in WARMUP_PAIRS:
        _pairs_op(gdist, gdist.GaussianParams(*p1), gdist.GaussianParams(*p2))


def _setup(workload: str) -> float:
    """Seconds to import gdist plus the workload's warm-up."""
    start = time.perf_counter()
    if workload == "cli":
        import gdist.cli  # noqa: F401
    else:
        import gdist

        if workload == "pairs":
            _warm_up(gdist)
        else:
            _warm_up_linalg()
    return time.perf_counter() - start


class Loop:
    """Closed-loop bookkeeping: per op its class, start, latency and outcome.

    The buffers have a fixed size and are written once up front, so the
    bookkeeping's memory does not grow with the number of operations and a
    faster gdist does not read as a larger ``peak_rss_mb``.  ``more`` also
    runs the machine-speed probe (speed.py) between operations.
    """

    OK, FAILED, REFUSED = 0, 1, 2
    CAPACITY = 1 << 20

    def __init__(self, seconds: float, max_ops: int | None):
        self.deadline = time.perf_counter() + seconds
        self.max_ops = min(max_ops or self.CAPACITY, self.CAPACITY)
        self.start_ns = array.array("q", bytes(8 * self.CAPACITY))
        self.latency_ns = array.array("q", bytes(8 * self.CAPACITY))
        self.keys = array.array("q", bytes(8 * self.CAPACITY))  # which input
        self.tags = bytearray(self.CAPACITY)  # 4 * class (0 = a, 1 = b) + outcome
        self.count = 0
        self.violations: list[str] = []
        from speed import SpeedLog

        self.speed = SpeedLog()

    def more(self) -> bool:
        self.speed.tick()
        return self.count < self.max_ops and time.perf_counter() < self.deadline

    def record(self, key, cls, start, ns, problems, refused=False, where=""):
        if problems:
            outcome = self.FAILED
            if len(self.violations) < 20:
                self.violations.append(f"{where}: {problems[0]}")
        else:
            outcome = self.REFUSED if refused else self.OK
        self.start_ns[self.count] = start
        self.latency_ns[self.count] = ns
        self.keys[self.count] = key
        self.tags[self.count] = 4 * (cls == "b") + outcome
        self.count += 1

    def ops(self) -> list[list]:
        """[class, scaled latency_ns, outcome, key, raw latency_ns] per operation.

        The scaled latency is the raw one times the speed scale around it.
        """
        self.speed.sample(5)
        out = []
        for i, tag in enumerate(self.tags[: self.count]):
            ns = self.latency_ns[i]
            scaled = ns * self.speed.scale(self.start_ns[i], ns)
            out.append(["ab"[tag >> 2], scaled, tag & 3, self.keys[i], ns])
        return out


def run_pairs(gdist, loop: Loop, seed: int, extra: dict) -> None:
    plan = inputs.pairs_plan(seed, PAIRS_CYCLES)
    cases = [(case, gdist.GaussianParams(*case["p1"]), gdist.GaussianParams(*case["p2"])) for case in plan]
    failed_by_stratum: dict[str, int] = {}
    perf = time.perf_counter_ns
    i = 0
    while loop.more():
        key = i % len(cases)
        case, q1, q2 = cases[key]
        i += 1
        start = perf()
        try:
            fid, omin, kind = _pairs_op(gdist, q1, q2)
        except Exception as exc:  # a raised error is a failed operation
            ns = perf() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            ns = perf() - start
            problems = checks.check_pair(case, fid, omin, kind)
        stratum = case["stratum"]
        if problems:
            failed_by_stratum[stratum] = failed_by_stratum.get(stratum, 0) + 1
        cls = "b" if stratum in inputs.DISPLACED_STRATA else "a"
        refused = not problems and kind is None
        loop.record(key, cls, start, ns, problems, refused, where=stratum)
    extra["failed_by_stratum"] = failed_by_stratum


def check_wide(gdist, seed: int) -> float:
    """Share of wide-domain pairs whose output breaks a rule (untimed)."""
    plan = inputs.wide_plan(seed, WIDE_PAIRS)
    failed = 0
    for case in plan:
        try:
            out = _pairs_op(gdist, gdist.GaussianParams(*case["p1"]), gdist.GaussianParams(*case["p2"]))
        except Exception:
            failed += 1
        else:
            failed += bool(checks.check_pair(case, *out))
    return failed / len(plan)


def _warm_up_linalg() -> None:
    """First calls of scipy's expm and the BLAS thread pool, outside gdist.

    gdist's own caches stay cold: the matrix is not one gdist builds.
    """
    import numpy as np
    from scipy.linalg import expm

    m = np.diag(np.sqrt(np.arange(1.0, 150.0)), k=1).astype(complex)
    for _ in range(2):
        expm(0.3 * (m.T - m))


def run_oracle(gdist, loop: Loop, seed: int, extra: dict) -> None:
    from gdist import validation

    _warm_up_linalg()
    plan = inputs.oracle_plan(seed, ORACLE_COUNT)
    cases = [(case, gdist.GaussianParams(*case["p1"]), gdist.GaussianParams(*case["p2"])) for case in plan]
    max_dev = 0.0
    perf = time.perf_counter_ns
    for key, (case, q1, q2) in enumerate(cases):
        if not loop.more():
            break
        start = perf()
        try:
            row = validation.oracle_check_pair(q1, q2)
        except Exception as exc:
            ns = perf() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            ns = perf() - start
            problems = checks.check_oracle_row(
                row.fid_closed, row.fid_fock, row.fid_dev, row.overlap_dev_max
            )
            max_dev = max(max_dev, row.fid_dev, row.overlap_dev_max)
        cls = "a" if case["kind"] == "shared" else "b"
        loop.record(key, cls, start, ns, problems, where=case["kind"])
    extra["max_dev"] = max_dev


def run_cli_inprocess(loop: Loop, seed: int, workdir: str, extra: dict, tracer) -> None:
    """The cli workload's commands through ``gdist.cli.main(argv)`` in-process."""
    from gdist import cli

    plan = inputs.cli_plan(seed, CLI_ROUNDS)
    stdout_bytes: dict[str, list[int]] = {}
    perf = time.perf_counter_ns
    for k, case in enumerate(plan):
        a_path, b_path = (os.path.join(workdir, f"r{k:03d}{x}.json") for x in "ab")
        ctx: dict = {}
        for j, command in enumerate(inputs.CLI_SINGLE + inputs.CLI_SWEEP):
            if not loop.more():
                break
            argv = inputs.cli_argv(command, case, a_path, b_path)
            out, err = io.StringIO(), io.StringIO()
            start = perf()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.wrap_call(f"cli.main.{command}", cli.main, argv)
            ns = perf() - start
            text = out.getvalue()
            stdout_bytes.setdefault(command, []).append(len(text.encode()))
            if code != 0:
                problems = [f"exit {code}: {err.getvalue().strip()}"]
            else:
                try:
                    problems = checks.check_cli(command, io.StringIO(text), case, ctx)
                except (ValueError, KeyError, IndexError) as exc:
                    problems = [f"unparsable output: {exc}"]
            cls = "a" if command in inputs.CLI_SINGLE else "b"
            loop.record(8 * k + j, cls, start, ns, problems, where=command)
        if not loop.more():
            break
    extra["stdout_bytes"] = {c: statistics.median(v) for c, v in stdout_bytes.items()}


def per_layer(tracer, extra: dict, ops: int) -> dict:
    """Per-layer numbers of a traced run (names as in BENCHMARK.json)."""
    s = tracer.summary()
    per_op = max(ops, 1)
    builds = len(tracer.build_dims)
    out = {
        "fock.expm.calls": calls(s, "fock.expm"),
        "fock.expm.s": self_s(s, "fock.expm"),
        "fock.expm.dim3_sum": tracer.expm_dim3,
        "fock.builds": builds,
        "fock.build_useful_ratio": len(tracer.build_keys) / builds if builds else 0.0,
        "fock.dim.max": max(tracer.build_dims, default=0),
        "optimality.minimize_overlap_general.ms": median_ms(s, "optimality.minimize_overlap_general"),
        "optimality.minimize_overlap_general.calls_per_pair": calls(s, "optimality.minimize_overlap_general") / per_op,
        "homodyne.minimize_overlap_scan.ms": median_ms(s, "homodyne.minimize_overlap_scan"),
        "fidelity.fidelity_params.us": 1e3 * median_ms(s, "fidelity.fidelity_params"),
        "fidelity.fidelity_same_mean.us": 1e3 * median_ms(s, "fidelity.fidelity_same_mean"),
        "optimality.minimize_overlap.us": 1e3 * median_ms(s, "optimality.minimize_overlap"),
        "optimality.classify_pair.us": 1e3 * median_ms(s, "optimality.classify_pair"),
        "povm.conjecture_scan.ms": median_ms(s, "povm.conjecture_scan"),
        "oracle.max_dev": extra.get("max_dev", 0.0),
        "checks.wide_domain_failed_frac": extra.get("wide_failed_frac", 0.0),
    }
    for stage in ("choose_dim", "fidelity_fock", "marginal_fock", "quadrature_moments", "hermite_functions"):
        out[f"fock.{stage}.s"] = self_s(s, f"fock.{stage}")
    for name in ("params_from_covariance", "covariance_from_params", "default_tol"):
        out[f"states.{name}.calls_per_pair"] = tracer.counts.get(f"states.{name}", 0) / per_op
    for command in inputs.CLI_SINGLE + inputs.CLI_SWEEP:
        out[f"cli.main.{command}.ms"] = median_ms(s, f"cli.main.{command}")
        out[f"cli.stdout_bytes.{command}"] = extra.get("stdout_bytes", {}).get(command, 0)
    figure_calls = calls(s, "cli.emit_figure_data")
    out["cli.figure.format_ms"] = 1e3 * self_s(s, "cli.emit_figure_data") / figure_calls if figure_calls else 0.0
    return out


def run(args) -> dict:
    import gdist

    if gdist.__file__ is None or not os.path.abspath(gdist.__file__).startswith(os.path.abspath("src") + os.sep):
        raise SystemExit(f"gdist imported from {gdist.__file__}, not from ./src")
    if args.workload == "pairs":
        _warm_up(gdist)
    tracer = None
    extra: dict = {}
    if args.trace:
        if args.workload == "pairs":
            extra["wide_failed_frac"] = check_wide(gdist, args.seed)
        tracer = Tracer()
        tracer.install()
    loop = Loop(args.seconds, args.max_ops)
    if args.workload == "pairs":
        run_pairs(gdist, loop, args.seed, extra)
    elif args.workload == "oracle":
        run_oracle(gdist, loop, args.seed, extra)
    else:
        run_cli_inprocess(loop, args.seed, args.workdir, extra, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ops": loop.ops(),
        "violations": loop.violations,
        "peak_rss_kb": peak_rss_kb,
        "extra": {k: v for k, v in extra.items() if k != "stdout_bytes"},
        "probe_us": loop.speed.median_us(),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, extra, loop.count)
        result["missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "machine", "run"))
    parser.add_argument("--workload", choices=("pairs", "oracle", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        seconds = _setup(args.workload)
        from speed import SpeedLog

        log = SpeedLog()
        log.sample(10)
        out = {"setup_s": seconds, "setup_scaled_s": seconds * log.overall_scale()}
    elif args.mode == "machine":
        out = blas_info()
    else:
        out = run(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
