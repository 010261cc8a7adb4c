"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Stated runtime limits are asserted on the computation itself (library calls),
not on interpreter or collection startup.
"""

import math
import time

import numpy as np

from gdist import (
    GaussianParams,
    fidelity_params,
    minimize_overlap,
    minimize_overlap_general,
    overlap_at,
    povm_overlap,
    solve_s2_for_optimality,
)
from gdist.validation import oracle_check_pair, stratified_pairs

from conftest import quadrature_overlap
from crosscheck import scan_numpy


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_equality_surface_root():
    theta = 1.0471975512
    solve_s2_for_optimality(2.0, 4.0, 2.0, theta)  # warmup
    start = time.perf_counter()
    roots = solve_s2_for_optimality(2.0, 4.0, 2.0, theta)
    elapsed = time.perf_counter() - start
    dev = abs(roots[0].s2 - 1.4)
    ok = dev < 1e-9 and elapsed < 1e-3
    _report(1, "reference root s2=1.4", ok, f"dev={dev:.2e}, {elapsed*1e6:.0f}us")


def test_criterion_2_pure_pairs_always_optimal():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = -math.inf
    for _ in range(10_000):
        s1, s2 = rng.uniform(1.0, 20.0, 2)
        th1, th2 = rng.uniform(0.0, math.pi, 2)
        p1 = GaussianParams(1.0, s1, th1)
        p2 = GaussianParams(1.0, s2, th2)
        gap = minimize_overlap(p1, p2)[1] - fidelity_params(p1, p2).fidelity
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(2, "pure/pure gap <= 1e-8 on 1e4 pairs", ok, f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_pure_mixed_strict_gap():
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    min_gap = math.inf
    violations = 0
    for _ in range(1000):
        p1 = GaussianParams(1.0, rng.uniform(1.0, 8.0), rng.uniform(0.0, math.pi))
        p2 = GaussianParams(
            rng.uniform(1.1, 6.0), rng.uniform(1.0, 8.0), rng.uniform(0.0, math.pi)
        )
        fid = fidelity_params(p1, p2).fidelity
        gap = minimize_overlap(p1, p2)[1] - fid
        scan_gap = scan_numpy(p1, p2)[1] - fid
        if gap <= 0.0 or scan_gap <= 0.0:
            violations += 1
        min_gap = min(min_gap, gap)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(
        3,
        "pure/mixed gap > 0 on 1e3 pairs (scan-verified)",
        ok,
        f"min gap={min_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_equality_only_at_surface():
    start = time.perf_counter()
    p1 = GaussianParams(2.0, 2.0, 0.0)
    grid = np.linspace(1.0, 3.0, 200)
    step = grid[1] - grid[0]
    offenders = []
    for s2 in grid:
        p2 = GaussianParams(4.0, float(s2), math.pi / 3)
        gap = minimize_overlap(p1, p2)[1] - fidelity_params(p1, p2).fidelity
        if gap < 1e-7 and abs(s2 - 1.4) > step:
            offenders.append((float(s2), gap))
    elapsed = time.perf_counter() - start
    ok = not offenders and elapsed < 5.0
    _report(4, "gap < 1e-7 only near s2=1.4 on the slice", ok, f"{elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rows = [oracle_check_pair(p1, p2, label=label) for label, p1, p2 in stratified_pairs()]
    fid_dev = max(row.fid_dev for row in rows)
    overlap_dev = max(row.overlap_dev_max for row in rows)
    quad_dev = 0.0
    for row in rows[::6]:
        closed = overlap_at(row.p1, row.p2, math.pi / 3)
        quad_dev = max(quad_dev, abs(closed - quadrature_overlap(row.p1, row.p2, math.pi / 3)))
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 144
        and fid_dev <= 1e-6
        and overlap_dev <= 1e-6
        and quad_dev <= 1e-6
        and elapsed < 300.0
    )
    _report(
        5,
        "144-case Fock/quadrature sweep within 1e-6",
        ok,
        f"fid={fid_dev:.2e}, overlap={overlap_dev:.2e}, quad={quad_dev:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_fuchs_caves_bound():
    rng = np.random.default_rng(13)
    angles = np.linspace(0.1, 3.0, 5)
    start = time.perf_counter()
    violations = 0
    for _ in range(20_000):
        p1 = GaussianParams(
            rng.uniform(1.0, 6.0), rng.uniform(1.0, 8.0), rng.uniform(0.0, math.pi),
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
        )
        p2 = GaussianParams(
            rng.uniform(1.0, 6.0), rng.uniform(1.0, 8.0), rng.uniform(0.0, math.pi),
            rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
        )
        fid = fidelity_params(p1, p2).fidelity
        for phi in angles:
            if overlap_at(p1, p2, float(phi)) < fid - 1e-9:
                violations += 1
    povm_violations = 0
    for _ in range(2000):
        p1 = GaussianParams(
            rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0), rng.uniform(0.0, math.pi),
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
        )
        p2 = GaussianParams(
            rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0), rng.uniform(0.0, math.pi),
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
        )
        fid = fidelity_params(p1, p2).fidelity
        for _ in range(5):
            r, theta_u = rng.uniform(0.0, 5.0), rng.uniform(0.0, math.pi)
            if povm_overlap(p1, p2, r, theta_u) < fid - 1e-9:
                povm_violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and povm_violations == 0 and elapsed < 30.0
    _report(
        6,
        "overlap >= F - 1e-9 on 1e5 homodyne and 1e4 POVM samples",
        ok,
        f"violations={violations}+{povm_violations}, {elapsed:.1f}s",
    )


def test_criterion_7_known_closed_values():
    thermal = fidelity_params(GaussianParams(3.0), GaussianParams(5.0)).fidelity
    ok_thermal = abs(thermal - 0.9659258) <= 1e-7

    rng = np.random.default_rng(14)
    ok_coherent = True
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0, 2)
        b = rng.uniform(-2.0, 2.0, 2)
        fid = fidelity_params(
            GaussianParams(1.0, 1.0, 0.0, *a), GaussianParams(1.0, 1.0, 0.0, *b)
        ).fidelity
        if abs(fid - math.exp(-float(np.sum((b - a) ** 2)) / 2.0)) > 1e-12:
            ok_coherent = False

    p1 = GaussianParams(1.0, 1.0, 0.0)
    p2 = GaussianParams(1.0, 4.0, 0.0)
    fid = fidelity_params(p1, p2).fidelity
    _, val = minimize_overlap(p1, p2)
    target = 2.0 / math.sqrt(5.0)
    ok_squeezed = abs(fid - target) <= 1e-12 and abs(val - target) <= 1e-12

    ok = ok_thermal and ok_coherent and ok_squeezed
    _report(
        7,
        "thermal, coherent, and pure-squeezed closed values",
        ok,
        f"thermal dev={abs(thermal - 0.9659258):.2e}",
    )


def test_criterion_8_round_states_iff_equal_widths():
    rng = np.random.default_rng(15)
    start = time.perf_counter()
    equal_worst = -math.inf
    strict_ok = True
    for _ in range(1000):
        gamma = rng.uniform(1.0, 6.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.2, 2.0)
        beta = (radius * math.cos(angle), radius * math.sin(angle))
        p1 = GaussianParams(gamma)
        p2 = GaussianParams(gamma, 1.0, 0.0, *beta)
        gap = minimize_overlap_general(p1, p2)[1] - fidelity_params(p1, p2).fidelity
        equal_worst = max(equal_worst, abs(gap))
        g2 = gamma + rng.uniform(0.1, 2.0)
        p2 = GaussianParams(g2, 1.0, 0.0, *beta)
        gap = minimize_overlap_general(p1, p2)[1] - fidelity_params(p1, p2).fidelity
        if gap <= 0.0:
            strict_ok = False
    elapsed = time.perf_counter() - start
    ok = equal_worst <= 1e-8 and strict_ok and elapsed < 10.0
    _report(
        8,
        "round pairs: equality iff equal widths (1e3 draws)",
        ok,
        f"worst |gap|={equal_worst:.2e}, {elapsed:.1f}s",
    )
