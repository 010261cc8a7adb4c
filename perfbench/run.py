"""gdist benchmark: three seeded workloads, output checks, per-layer tracing.

Run from the root of a checkout (the directory holding ``src/gdist``):

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (one caller, closed loop; BLAS threads left at their default):

- ``pairs``: in-process fidelity_params, minimize_overlap and classify_pair
  on seeded pairs.  Class a = same-mean pairs, class b = displaced pairs.
- ``oracle``: validation.oracle_check_pair with automatic truncation in a
  fresh interpreter.  Class a = pairs from a small shared pool of states,
  class b = pairs of one-off states.
- ``cli``: cold ``python -m gdist.cli`` processes, one at a time.  Class a =
  single-pair commands, class b = the sweep commands (figure, profile,
  povm-scan).

``pairs`` and ``cli`` timings are scaled to a reference machine speed by a
probe timed alongside them (speed.py); the unscaled figures go to stderr.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced pass (see
tracer.py) and the tracing overhead.  The line before it records the machine.
The benchmark exits non-zero without a result when gdist is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = Path.cwd()
PY = sys.executable
SETUP_REPS = 7
COLD_REPS = 3

E2E = {
    "ops_per_s": "1/s",
    "a_per_s": "1/s",
    "b_per_s": "1/s",
    "a_p50_ms": "ms",
    "b_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_FOCK_S = ("choose_dim", "fidelity_fock", "marginal_fock", "quadrature_moments", "hermite_functions")
_COMMANDS = inputs.CLI_SINGLE + inputs.CLI_SWEEP
PER_LAYER = {
    "fock.expm.calls": "count",
    "fock.expm.s": "s",
    "fock.expm.dim3_sum": "count",
    "fock.builds": "count",
    "fock.build_useful_ratio": "ratio",
    **{f"fock.{stage}.s": "s" for stage in _FOCK_S},
    "fock.dim.max": "count",
    "optimality.minimize_overlap_general.ms": "ms",
    "optimality.minimize_overlap_general.calls_per_pair": "calls/pair",
    "homodyne.minimize_overlap_scan.ms": "ms",
    "fidelity.fidelity_params.us": "us",
    "fidelity.fidelity_same_mean.us": "us",
    "optimality.minimize_overlap.us": "us",
    "optimality.classify_pair.us": "us",
    "states.params_from_covariance.calls_per_pair": "calls/pair",
    "states.covariance_from_params.calls_per_pair": "calls/pair",
    "states.default_tol.calls_per_pair": "calls/pair",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    **{f"cli.main.{command}.ms": "ms" for command in _COMMANDS},
    "cli.figure.format_ms": "ms",
    **{f"cli.stdout_bytes.{command}": "bytes" for command in _COMMANDS},
    "povm.conjecture_scan.ms": "ms",
    "oracle.max_dev": "abs",
    "checks.wide_domain_failed_frac": "frac",
    "checks.failed_frac": "frac",
    "checks.refused_frac": "frac",
    "trace.overhead_ratio": "ratio",
}

OK, FAILED, REFUSED = 0, 1, 2
#: Workloads whose timings are scaled by the speed probe (speed.py), timed in
#: the process that did the work: the ``pairs`` worker between operations,
#: each cold CLI child at exit, each set-up interpreter after its warm-up.
#: ``oracle`` reports raw times: there OpenBLAS threads still spin next to the
#: probe after each operator exponential, and scaling widened its spread.
SCALED = {"pairs", "cli"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env(probe_out: Path | None = None) -> dict:
    """The children's environment; with ``probe_out``, the exit probe is on."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if probe_out is not None:
        paths.append(str(HERE / "childprobe"))
        env["PERFBENCH_PROBE_OUT"] = str(probe_out)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _call(args, timeout: float, stdout=subprocess.PIPE, probe_out=None) -> subprocess.CompletedProcess:
    """Run a child to completion (killed on timeout) from the checkout root."""
    return subprocess.run(
        args, cwd=ROOT, env=_env(probe_out), stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout
    )


def _worker(*args, timeout: float = 170.0) -> dict:
    proc = _call([PY, str(HERE / "worker.py"), *map(str, args)], timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _machine(seed: int) -> dict:
    info = _worker("machine")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = _call(["git", "rev-parse", "HEAD"], 30)
        commit = proc.stdout.strip() or commit
    info.update(
        nproc=os.cpu_count(),
        cpu=cpu,
        git_commit=commit,
        gdist_source_sha256=digest.hexdigest()[:16],
        seed=seed,
    )
    return info


def _setup_s(workload: str, reps: int) -> tuple[float, float]:
    """Medians over fresh interpreters of gdist import plus warm-up: (scaled, raw).

    Each interpreter times the speed probe after its warm-up and scales its
    own set-up time by it.
    """
    outs = [_worker("setup", "--workload", workload) for _ in range(reps)]
    return tuple(statistics.median(o[key] for o in outs) for key in ("setup_scaled_s", "setup_s"))


def _class_metrics(a_ns, b_ns) -> dict:
    """Throughput and percentiles; a class with no samples reads 0."""

    def rate(xs):
        return len(xs) / (sum(xs) / 1e9) if xs else 0.0

    def pct(xs, q):
        return percentile(xs, q) / 1e6 if xs else 0.0

    return {
        "ops_per_s": rate(a_ns + b_ns),
        "a_per_s": rate(a_ns),
        "b_per_s": rate(b_ns),
        "a_p50_ms": pct(a_ns, 0.5),
        "a_p90_ms": pct(a_ns, 0.9),
        "b_p50_ms": pct(b_ns, 0.5),
        "b_p90_ms": pct(b_ns, 0.9),
    }


def _latencies(ops, cls: str, per_input: bool, column: int = 1) -> list:
    """Latencies of a class; with ``per_input``, one median per distinct input.

    ``pairs`` runs its inputs many times over, so a pair's latency is the
    median of its repeats: a stall of the machine during one repeat does not
    move it.  Oracle and CLI inputs run once each (fresh caches, cold start).
    ``column`` 1 is the scaled latency, 4 the raw one.
    """
    if not per_input:
        return [op[column] for op in ops if op[0] == cls]
    repeats: dict[int, list] = {}
    for op in ops:
        if op[0] == cls:
            repeats.setdefault(op[3], []).append(op[column])
    return [statistics.median(v) for v in repeats.values()]


def _write_cli_files(plan, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for k, case in enumerate(plan):
        for tag, p in (("a", case["p1"]), ("b", case["p2"])):
            (workdir / f"r{k:03d}{tag}.json").write_text(json.dumps(inputs.state_json(p)))


def _cold_cli(seconds: float, plan, workdir: str, max_rounds: int | None) -> dict:
    """Cold CLI processes, one at a time, a round of commands per seeded pair.

    A command's stdout goes to a file that the checks read line by line.  A
    child's peak resident set, as the kernel reports it, includes that of
    the parent it was spawned from, so the parent must stay smaller than the
    CLI it measures; figure output (about 14 MB) held in memory would not.
    Each child times the speed probe at exit (childprobe/sitecustomize.py);
    its latency is the wall time less the probing, times the probe's scale.
    """
    ops, violations = [], []
    out_path = ROOT / workdir / "stdout.txt"
    probe_path = ROOT / workdir / "probe.json"
    deadline = time.perf_counter() + seconds
    for k, case in enumerate(plan):
        if time.perf_counter() >= deadline or (max_rounds is not None and k >= max_rounds):
            break
        a_path, b_path = (f"{workdir}/r{k:03d}{x}.json" for x in "ab")
        ctx: dict = {}
        for j, command in enumerate(_COMMANDS):
            if time.perf_counter() >= deadline:
                break
            argv = inputs.cli_argv(command, case, a_path, b_path)
            probe_path.unlink(missing_ok=True)
            with open(out_path, "w+", encoding="utf-8") as out:
                start = time.perf_counter_ns()
                proc = _call([PY, "-m", "gdist.cli", *argv], 120, stdout=out, probe_out=probe_path)
                ns = time.perf_counter_ns() - start
                out.seek(0)
                if proc.returncode != 0:
                    problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                else:
                    try:
                        problems = checks.check_cli(command, out, case, ctx)
                    except (ValueError, KeyError, IndexError) as exc:
                        problems = [f"unparsable output: {exc}"]
            try:
                probe = json.loads(probe_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise BenchError(f"{command} child left no speed probe: {exc}") from exc
            ns -= probe["cost_ns"]
            if problems and len(violations) < 20:
                violations.append(f"{command}: {problems[0]}")
            cls = "a" if command in inputs.CLI_SINGLE else "b"
            ops.append([cls, ns * probe["scale"], FAILED if problems else OK, j, ns])
    return {"ops": ops, "violations": violations}


def _importtime_scipy_ms() -> float:
    """Cumulative import time of the outermost scipy modules under gdist.cli."""
    proc = _call([PY, "-X", "importtime", "-c", "import gdist.cli"], 60)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    # lines come in post-order; walking them backwards gives each its parent
    total_us, stack = 0, []
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
        stack.append((indent, name))
    return total_us / 1e3


def _cold_start_ms(reps: int) -> dict:
    interp = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        _call([PY, "-c", "pass"], 60)
        interp.append((time.perf_counter_ns() - start) / 1e6)
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": 1e3 * _setup_s("cli", reps)[1],
        "cli.import_scipy_ms": _importtime_scipy_ms(),
    }


def _outcome(ops) -> dict:
    failed = sum(1 for op in ops if op[2] == FAILED)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed}


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, dict]:
    """One run: returns (result line, diagnostics)."""
    setup_reps = 1 if smoke else SETUP_REPS
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    rel_workdir = workdir.relative_to(ROOT).as_posix()
    plan = inputs.cli_plan(seed, 64) if workload == "cli" else None
    # smoke mode bounds work by count so every class is exercised once
    max_ops = {"pairs": 64, "oracle": 2, "cli": len(_COMMANDS)}[workload] if smoke else None
    run_args = ["run", "--workload", workload, "--seed", seed, "--workdir", rel_workdir]
    try:
        if plan is not None:
            _write_cli_files(plan, workdir)
        if not trace:
            setup_scaled, setup_raw = _setup_s(workload, setup_reps)
            if workload == "cli":
                out = _cold_cli(600 if smoke else seconds, plan, rel_workdir, 1 if smoke else None)
                rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                limit = ["--max-ops", max_ops, "--seconds", 600] if smoke else ["--seconds", seconds]
                out = _worker(*run_args, *limit, "--trace", 0)
                rss_kb = out["peak_rss_kb"]
            ops = out["ops"]
            per_input = workload == "pairs"
            column = 1 if workload in SCALED else 4
            metrics = _class_metrics(*(_latencies(ops, cls, per_input, column) for cls in "ab"))
            extra = out.setdefault("extra", {})
            # too few oracle and CLI samples for a steady p90: reported, not gated
            extra["p90_ms"] = {"a": metrics["a_p90_ms"], "b": metrics["b_p90_ms"]}
            extra["probe_us"] = out.get("probe_us")
            extra["raw"] = _class_metrics(*(_latencies(ops, cls, per_input, 4) for cls in "ab"))
            extra["raw"]["setup_s"] = setup_raw
            metrics["setup_s"] = setup_scaled if workload in SCALED else setup_raw
            metrics["peak_rss_mb"] = rss_kb / 1024.0
            units = E2E
        else:
            # untraced then traced pass over the same ops, each in a fresh
            # interpreter; their ratio is the tracing overhead
            limit = ["--max-ops", max_ops, "--seconds", 600] if smoke else ["--seconds", seconds / 2]
            plain = _worker(*run_args, *limit, "--trace", 0)
            count = len(plain["ops"])
            out = _worker(*run_args, "--max-ops", count, "--seconds", 600 if smoke else 2 * seconds, "--trace", 1)
            common = min(count, len(out["ops"]))
            column = 1 if workload in SCALED else 4
            base_ns = sum(op[column] for op in plain["ops"][:common])
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            metrics.update(out["per_layer"])
            metrics["trace.overhead_ratio"] = sum(op[column] for op in out["ops"][:common]) / base_ns
            if workload == "cli":
                metrics.update(_cold_start_ms(1 if smoke else COLD_REPS))
            ops = plain["ops"] + out["ops"]
            metrics["checks.failed_frac"] = sum(op[2] == FAILED for op in ops) / len(ops)
            metrics["checks.refused_frac"] = sum(op[2] == REFUSED for op in ops) / len(ops)
            out["violations"] = plain["violations"] + out["violations"]
            out.setdefault("extra", {})["missing_names"] = out.get("missing", [])
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = _outcome(ops)
    result["metrics"] = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    diagnostics = {
        "samples": {cls: sum(1 for op in ops if op[0] == cls) for cls in ("a", "b")},
        "violations": out["violations"],
        **out.get("extra", {}),
    }
    return result, diagnostics


def smoke() -> int:
    """Tiny run of every workload, traced and untraced; checks names only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            result, diag = measure(workload, seed=1, seconds=0.1, trace=trace, smoke=True)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["attempted"] < 1 or not diag["samples"]["a"] or not diag["samples"]["b"]:
                problems.append(f"{where}: a class ran no checked operation ({diag['samples']})")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            print(f"smoke {where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for line in problems:
        print(f"smoke problem: {line}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gdist benchmark")
    parser.add_argument("--workload", choices=("pairs", "oracle", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    if not (ROOT / "src" / "gdist" / "__init__.py").is_file():
        print(f"error: no src/gdist under {ROOT}; run from the root of a gdist checkout", file=sys.stderr)
        return 2
    # byte-compiles the package once, so no timed process pays for it
    proc = _call([PY, "-c", "import gdist.cli"], 120)
    if proc.returncode != 0:
        print(f"error: gdist does not import: {proc.stderr.strip()}", file=sys.stderr)
        return 1
    try:
        if args.smoke:
            return smoke()
        result, diagnostics = measure(args.workload, args.seed, args.seconds, args.trace)
        machine = _machine(args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(diagnostics), file=sys.stderr)
    print(json.dumps({"machine": machine, "workload": args.workload, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
