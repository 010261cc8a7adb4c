"""Seeded inputs for the three workloads.

Everything here is standard library only, so inputs are generated before
gdist is imported and cost nothing in the timed regions.  A state is the
tuple ``(gamma, s, theta, alpha_x, alpha_y)`` with s >= 1 and theta in
[0, pi); the worker turns it into a ``GaussianParams``.  Each pair carries the
class it was built in, so the checks never ask gdist what the answer is.
"""

from __future__ import annotations

import math
import random

PI = math.pi

# Classes as gdist spells them (PairClass values).
PURE_PURE = "PurePureAlwaysOptimal"
PURE_MIXED = "PureMixedNeverOptimal"
MIXED_ON = "MixedMixedOptimal"
MIXED_OFF = "MixedMixedNotOptimal"
ROUND_EQUAL = "DifferentMeanSymmetricOptimal"
ROUND_UNEQUAL = "DifferentMeanSymmetricNotOptimal"

#: One cycle of the ``pairs`` workload: (stratum, count).  The mix is fixed so
#: every run sees the same shares; displaced pairs are 6 of 30.  Round
#: displaced pairs outnumber squeezed ones so the displaced percentiles sit
#: inside one cost mode (two grid scans) instead of on the edge of two.
#: The wide-domain stratum is not in the timed mix: gdist fails on part of it
#: (ROADMAP item 3), so the traced run checks it apart (``wide_plan``).
PAIRS_CYCLE = (
    ("pure_pure", 6),
    ("pure_mixed", 6),
    ("mixed_off", 6),
    ("mixed_on", 6),
    ("displaced_round", 4),
    ("displaced_squeezed", 2),
)
DISPLACED_STRATA = ("displaced_round", "displaced_squeezed")

#: Distinct states in the oracle's shared pool (30 ordered pairs).
ORACLE_POOL = 6


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _canonical(gamma, s, theta, ax, ay):
    if s < 1.0:
        s, theta = 1.0 / s, theta + PI / 2.0
    return (gamma, s, theta % PI, ax, ay)


def thermal_ratio_sum(g1: float, g2: float) -> float:
    t1, t2 = g1 - 1.0 / g1, g2 - 1.0 / g2
    return t2 / t1 + t1 / t2


def surface_terms(p1, p2) -> tuple[float, float]:
    """(D - 4, 2*ratio_sum - 4) in sum-of-squares form, free of cancellation.

    D - 4 = 2 (s1 - s2)^2 / (s1 s2) + 2 (s1 - 1/s1)(s2 - 1/s2) sin^2(theta2 - theta1)
    2*ratio_sum - 4 = 2 (t1 - t2)^2 / (t1 t2),  t = gamma - 1/gamma.
    The pair lies on the equality surface where the two agree.
    """
    g1, s1, th1 = p1[:3]
    g2, s2, th2 = p2[:3]
    squeeze = 2.0 * (s1 - s2) ** 2 / (s1 * s2) + 2.0 * (s1 - 1.0 / s1) * (
        s2 - 1.0 / s2
    ) * math.sin(th2 - th1) ** 2
    t1, t2 = g1 - 1.0 / g1, g2 - 1.0 / g2
    return squeeze, 2.0 * (t1 - t2) ** 2 / (t1 * t2)


def surface_s2(g1: float, g2: float, s1: float, theta_tilde: float) -> list[float]:
    """Raw roots s2 of qa s2^2 - 2 R s2 + qc = 0, the equality surface.

    qa = s1p - s1m c, qc = s1p + s1m c, c = cos(2 theta_tilde), R the thermal
    ratio sum.  The larger root comes from the textbook formula and the
    smaller from Vieta (qc / (qa r1)), so neither loses digits.
    """
    ratio = thermal_ratio_sum(g1, g2)
    c = math.cos(2.0 * theta_tilde)
    s1p, s1m = s1 + 1.0 / s1, s1 - 1.0 / s1
    qa, qc = s1p - s1m * c, s1p + s1m * c
    disc = ratio * ratio - qa * qc
    if disc < 0.0:
        return []
    big = (ratio + math.sqrt(disc)) / qa
    return [big, qc / (qa * big)]


def _pure(rng, mean):
    return (1.0, _log_uniform(rng, 1.0, 10.0), rng.uniform(0.0, PI), *mean)


def _mixed(rng, mean):
    return (rng.uniform(1.2, 6.0), _log_uniform(rng, 1.0, 10.0), rng.uniform(0.0, PI), *mean)


def _off_surface(p1, p2, margin: float) -> bool:
    squeeze, thermal = surface_terms(p1, p2)
    return abs(squeeze - thermal) > margin * max(squeeze, thermal, 1e-300)


def _pair(rng: random.Random, stratum: str):
    """One pair of the ``pairs`` workload: (p1, p2, expected class or None)."""
    mean = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    if stratum == "pure_pure":
        return _pure(rng, mean), _pure(rng, mean), PURE_PURE
    if stratum == "pure_mixed":
        pair = [_pure(rng, mean), _mixed(rng, mean)]
        rng.shuffle(pair)
        return pair[0], pair[1], PURE_MIXED
    if stratum == "mixed_off":
        while True:
            p1, p2 = _mixed(rng, mean), _mixed(rng, mean)
            if _off_surface(p1, p2, 1e-3):
                return p1, p2, MIXED_OFF
    if stratum == "mixed_on":
        while True:
            g1, g2 = rng.uniform(1.2, 5.0), rng.uniform(1.2, 5.0)
            s1, tt = rng.uniform(1.0, 4.0), rng.uniform(0.0, PI)
            roots = surface_s2(g1, g2, s1, tt)
            if roots:
                th1 = rng.uniform(0.0, PI)
                p1 = (g1, s1, th1, *mean)
                p2 = _canonical(g2, rng.choice(roots), th1 + tt, *mean)
                return p1, p2, MIXED_ON
    if stratum == "wide":
        # gamma up to 1e8, s up to 1e6; half the pairs nearly identical.  The
        # squeeze perturbation dominates the thermal one, so the pair stays
        # off the equality surface by a wide margin.
        while True:
            g1, s1 = _log_uniform(rng, 1.5, 1e8), _log_uniform(rng, 2.0, 1e6)
            p1 = (g1, s1, rng.uniform(0.0, PI), *mean)
            if rng.random() < 0.5:
                eps = _log_uniform(rng, 3e-4, 3e-3) * rng.choice((-1.0, 1.0))
                g2 = g1 * (1.0 + rng.uniform(-1.0, 1.0) * abs(eps) / 30.0)
                th2 = p1[2] + rng.uniform(-1.0, 1.0) * abs(eps) / s1
                p2 = _canonical(g2, s1 * (1.0 + eps), th2, *mean)
            else:
                p2 = (
                    _log_uniform(rng, 1.5, 1e8),
                    _log_uniform(rng, 1.0, 1e6),
                    rng.uniform(0.0, PI),
                    *mean,
                )
            if _off_surface(p1, p2, 1e-3):
                return p1, p2, MIXED_OFF
    angle = rng.uniform(0.0, 2.0 * PI)
    size = rng.uniform(0.3, 2.0)
    mean2 = (mean[0] + size * math.cos(angle), mean[1] + size * math.sin(angle))
    if stratum == "displaced_round":
        g1 = rng.uniform(1.0, 5.0)
        if rng.random() < 0.5:
            return (g1, 1.0, 0.0, *mean), (g1, 1.0, 0.0, *mean2), ROUND_EQUAL
        g2 = rng.uniform(1.0, 5.0)
        while abs(g2 - g1) < 0.05:
            g2 = rng.uniform(1.0, 5.0)
        return (g1, 1.0, 0.0, *mean), (g2, 1.0, 0.0, *mean2), ROUND_UNEQUAL
    if stratum == "displaced_squeezed":
        p1 = (rng.uniform(1.0, 4.0), rng.uniform(1.2, 5.0), rng.uniform(0.0, PI), *mean)
        p2 = (rng.uniform(1.0, 4.0), rng.uniform(1.2, 5.0), rng.uniform(0.0, PI), *mean2)
        return p1, p2, None
    raise ValueError(f"unknown stratum {stratum!r}")


def _case(rng: random.Random, stratum: str) -> dict:
    p1, p2, expected = _pair(rng, stratum)
    offset = rng.uniform(0.0, PI / 8.0)
    return {
        "stratum": stratum,
        "p1": p1,
        "p2": p2,
        "expected": expected,
        "probes": [offset + k * PI / 8.0 for k in range(8)],
    }


def pairs_plan(seed: int, cycles: int) -> list[dict]:
    """``cycles`` shuffled copies of PAIRS_CYCLE, each pair with probe angles."""
    rng = random.Random(f"pairs:{seed}")
    plan = []
    for _ in range(cycles):
        strata = [name for name, count in PAIRS_CYCLE for _ in range(count)]
        rng.shuffle(strata)
        plan += [_case(rng, stratum) for stratum in strata]
    return plan


def wide_plan(seed: int, count: int) -> list[dict]:
    """``count`` wide-domain pairs (gamma up to 1e8, s up to 1e6)."""
    rng = random.Random(f"wide:{seed}")
    return [_case(rng, "wide") for _ in range(count)]


#: What each oracle state needs built: a squeeze exponential, a displacement
#: exponential, both or neither.  Every oracle pair needs two exponentials per
#: build of the pair, so per-pair cost depends on the code, not on the seed:
#: pool states are squeezed or displaced, one-off pairs alternate between the
#: kind combinations below.
ORACLE_POOL_KINDS = ("squeezed", "displaced")
ORACLE_FRESH_KINDS = (("squeezed_displaced", "thermal"), ("squeezed", "displaced"))


def _oracle_state(rng: random.Random, kind: str):
    """A state the oracle handles at its default truncation (dim 150)."""
    gamma = 1.0 if rng.random() < 0.25 else rng.uniform(1.2, 4.0)
    s, theta, alpha = 1.0, 0.0, (0.0, 0.0)
    if kind.startswith("squeezed"):
        s, theta = rng.uniform(1.2, 3.0), rng.uniform(0.0, PI)
    if kind.endswith("displaced"):
        size, angle = rng.uniform(0.5, 1.2), rng.uniform(0.0, 2.0 * PI)
        alpha = (size * math.cos(angle), size * math.sin(angle))
    return (gamma, s, theta, *alpha)


def oracle_plan(seed: int, count: int) -> list[dict]:
    """Alternating shared-pool and one-off pairs, ``count`` of each.

    The first shared pairs cover the pool once, so the pool's first builds
    fall in a fixed few pairs; the other ordered pairs follow shuffled, and
    the list repeats.  One-off pairs use two states never seen before.
    """
    rng = random.Random(f"oracle:{seed}")
    pool = [_oracle_state(rng, ORACLE_POOL_KINDS[i % 2]) for i in range(ORACLE_POOL)]
    first = [(i, i + 1) for i in range(0, ORACLE_POOL, 2)]
    rest = [
        (i, j) for i in range(ORACLE_POOL) for j in range(ORACLE_POOL) if i != j and (i, j) not in first
    ]
    rng.shuffle(rest)
    order = first + rest
    plan = []
    for k in range(count):
        i, j = order[k % len(order)]
        plan.append({"kind": "shared", "p1": pool[i], "p2": pool[j]})
        kinds = ORACLE_FRESH_KINDS[k % 2]
        plan.append({"kind": "fresh", "p1": _oracle_state(rng, kinds[0]), "p2": _oracle_state(rng, kinds[1])})
    return plan


CLI_PAIR_STRATA = ("pure_mixed", "mixed_off", "mixed_on", "displaced_round")
#: Order matters: later commands are checked against what earlier ones said.
CLI_SINGLE = ("fidelity", "classify", "overlap", "min-overlap", "solve-s2")
CLI_SWEEP = ("figure", "profile", "povm-scan")


def cli_plan(seed: int, rounds: int) -> list[dict]:
    """Per round: one seeded pair, a probe angle and a solve-s2 configuration."""
    rng = random.Random(f"cli:{seed}")
    plan = []
    for k in range(rounds):
        p1, p2, expected = _pair(rng, CLI_PAIR_STRATA[k % len(CLI_PAIR_STRATA)])
        while True:
            g1, g2 = rng.uniform(1.2, 5.0), rng.uniform(1.2, 5.0)
            s1, tt = rng.uniform(1.0, 4.0), rng.uniform(0.0, PI)
            roots = surface_s2(g1, g2, s1, tt)
            # keep both roots well separated so the count of roots is certain
            if roots and roots[0] > 1.01 * roots[1]:
                break
        plan.append(
            {
                "p1": p1,
                "p2": p2,
                "expected": expected,
                "phi": rng.uniform(0.0, PI),
                "solve_s2": (g1, g2, s1, tt),
            }
        )
    return plan


def state_json(p) -> dict:
    gamma, s, theta, ax, ay = p
    return {"params": {"gamma": gamma, "s": s, "theta": theta, "alpha": [ax, ay]}}


def cli_argv(command: str, case: dict, a_path: str, b_path: str) -> list[str]:
    """gdist CLI arguments of one command on a round's pair files."""
    pair = ["--a", a_path, "--b", b_path]
    if command in ("classify", "fidelity", "profile", "povm-scan"):
        return [command, *pair]
    if command == "overlap":
        return [command, *pair, "--phi", repr(case["phi"])]
    if command == "min-overlap":
        return [command, *pair, "--method", "both"]
    if command == "solve-s2":
        g1, g2, s1, tt = case["solve_s2"]
        return [command, "--g1", repr(g1), "--g2", repr(g2), "--s1", repr(s1), "--theta", repr(tt)]
    if command == "figure":
        return [command, "--which", "fig4"]
    raise ValueError(f"unknown command {command!r}")
