"""Tests of the benchmark itself (run with pytest from the repository root)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, self_s  # noqa: E402


def test_same_seed_same_inputs():
    assert inputs.pairs_plan(7, 2) == inputs.pairs_plan(7, 2)
    assert inputs.oracle_plan(7, 5) == inputs.oracle_plan(7, 5)
    assert inputs.cli_plan(7, 3) == inputs.cli_plan(7, 3)
    assert inputs.pairs_plan(7, 1) != inputs.pairs_plan(8, 1)


def test_pairs_cycle_mix():
    plan = inputs.pairs_plan(3, 4)
    counts = {}
    for case in plan:
        counts[case["stratum"]] = counts.get(case["stratum"], 0) + 1
    assert counts == {name: 4 * n for name, n in inputs.PAIRS_CYCLE}


def test_on_surface_pairs_solve_the_surface_equation():
    for case in inputs.pairs_plan(5, 4) + inputs.wide_plan(5, 16):
        if case["stratum"] not in ("mixed_on", "mixed_off", "wide"):
            continue
        squeeze, thermal = inputs.surface_terms(case["p1"], case["p2"])
        if case["stratum"] == "mixed_on":
            assert abs(squeeze - thermal) <= 1e-12 * (4.0 + thermal)
        else:
            assert abs(squeeze - thermal) > 1e-3 * max(squeeze, thermal)


def test_speed_scale_uses_probes_around_the_operation():
    log = speed.SpeedLog()
    log.t_ns, log.probe_ns = [0, 10, 10**9, 10**9 + 10], [100, 100, 400, 400]
    assert log.scale(20, 5) == speed.REF_PROBE_NS / 100
    assert log.scale(10**9 + 20, 5) == speed.REF_PROBE_NS / 400
    # an operation longer than the window takes probes on both sides
    assert log.scale(20, 10**9) == speed.REF_PROBE_NS / 250


def test_child_probe_reports_scale_and_cost(tmp_path):
    out = tmp_path / "probe.json"
    env = dict(os.environ, PYTHONPATH=str(HERE / "childprobe"), PERFBENCH_PROBE_OUT=str(out))
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    probe = json.loads(out.read_text())
    assert probe["scale"] > 0 and probe["cost_ns"] > 0


def test_overlap_closed_form_bounds():
    p = (2.0, 3.0, 0.4, 0.1, -0.2)
    assert abs(checks.overlap_closed(p, p, 1.1) - 1.0) < 1e-15
    q = (2.0, 3.0, 0.4, 1.1, -0.2)
    assert 0.0 < checks.overlap_closed(p, q, 0.0) < 1.0


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        time.sleep(0.05)

    def parent():
        time.sleep(0.01)
        tracer.wrap_call("child", child)

    tracer.wrap_call("parent", parent)
    summary = tracer.summary()
    assert summary["parent"]["calls"] == 1
    assert 0.01 <= self_s(summary, "parent") < 0.045
    assert self_s(summary, "child") >= 0.05


def test_smoke_every_workload_reports_every_metric():
    root = HERE.parent
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pairs", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
