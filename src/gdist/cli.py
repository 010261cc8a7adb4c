"""Command-line interface.

Subcommands cover the pair computations (fidelity, overlap, profile,
min-overlap, classify, solve-s2), the figure-data sweeps, the Fock-oracle
validation, and the POVM-family scan.  All angles are radians; output floats
use the shortest round-trip representation, so CSV output is byte-identical
between runs.  Exit codes: 0 success, 2 invalid input, 1 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    GdistError,
    NonPhysicalStateError,
    StateFormatError,
    TruncationError,
    UnsupportedPairError,
)
from .fidelity import fidelity_params
from .homodyne import minimize_overlap_scan, overlap_at, overlap_grid
from .optimality import classify_pair, minimize_overlap, solve_s2_for_optimality
from .povm import conjecture_scan
from .states import GaussianParams, load_state
from .validation import oracle_check_pair, run_oracle_sweep


class Figure(Enum):
    FIG2 = "fig2"
    FIG3 = "fig3"
    FIG4 = "fig4"


#: Fixed parameters (gamma1, gamma2, s1, theta_tilde) of each figure sweep.
FIGURE_FIXED = {
    Figure.FIG2: (1.0, 1.0, 2.0, math.pi / 3),
    Figure.FIG3: (1.0, 4.0, 2.0, math.pi / 3),
    Figure.FIG4: (2.0, 4.0, 2.0, math.pi / 3),
}


@dataclass(frozen=True)
class FigureRequest:
    which: Figure
    s2_range: tuple[float, float, int] = (1.0, 5.0, 200)
    phi_steps: int = 720

    @property
    def fixed(self) -> tuple[float, float, float, float]:
        return FIGURE_FIXED[self.which]


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_figure_data(req: FigureRequest, stream=None) -> None:
    """Write the figure surface as CSV: s2, phi, I_phi, F, norm_diff.

    norm_diff is the fractional excess (I_phi - F) / F; the surface touches
    zero exactly where homodyne detection attains the fidelity.
    """
    stream = sys.stdout if stream is None else stream
    g1, g2, s1, theta_tilde = req.fixed
    lo, hi, steps = req.s2_range
    if steps < 2 or req.phi_steps < 2:
        raise ValueError("figure sweep needs at least 2 steps on each axis")
    stream.write("s2,phi,I_phi,F,norm_diff\n")
    phis = np.linspace(0.0, math.pi, req.phi_steps, endpoint=False)
    phi_strs = [repr(phi) for phi in phis.tolist()]
    p1 = GaussianParams(g1, s1, 0.0)
    for s2 in np.linspace(lo, hi, steps).tolist():
        p2 = GaussianParams(g2, s2, theta_tilde)
        fid = fidelity_params(p1, p2).fidelity
        vals = overlap_grid(p1, p2, phis)
        # elementwise IEEE ops: the same bits as the scalar (val - fid) / fid
        norm_diff = (vals - fid) / fid
        s2_str, fid_str = _fmt(s2), _fmt(fid)
        # one write per s2 block, so memory stays one block whatever the grid
        stream.write(
            "".join(
                f"{s2_str},{phi},{val!r},{fid_str},{diff!r}\n"
                for phi, val, diff in zip(phi_strs, vals.tolist(), norm_diff.tolist())
            )
        )


def _load_pair(args) -> tuple[GaussianParams, GaussianParams]:
    return load_state(args.a), load_state(args.b)


def _cmd_fidelity(args) -> int:
    p1, p2 = _load_pair(args)
    report = fidelity_params(p1, p2)
    fields = [
        ("fidelity", report.fidelity),
        ("delta_cap", report.delta_cap),
        ("delta_low", report.delta_low),
        ("exponent", report.exponent),
        ("bures_distance_sq", report.bures_distance_sq),
        ("uhlmann_angle", report.uhlmann_angle),
    ]
    if args.json:
        print(json.dumps(dict(fields)))
    elif args.csv:
        print(",".join(name for name, _ in fields))
        print(",".join(_fmt(val) for _, val in fields))
    else:
        for name, val in fields:
            print(f"{name}={_fmt(val)}")
    return 0


def _cmd_overlap(args) -> int:
    p1, p2 = _load_pair(args)
    print(_fmt(overlap_at(p1, p2, args.phi)))
    return 0


def _cmd_profile(args) -> int:
    p1, p2 = _load_pair(args)
    if args.steps < 2:
        raise ValueError("profile needs at least 2 steps")
    phis = np.linspace(0.0, math.pi, args.steps, endpoint=False)
    vals = overlap_grid(p1, p2, phis)
    fid = _fmt(fidelity_params(p1, p2).fidelity)
    print("phi,I_phi,F")
    for phi, val in zip(phis.tolist(), vals.tolist()):
        print(f"{_fmt(phi)},{_fmt(val)},{fid}")
    return 0


def _cmd_min_overlap(args) -> int:
    p1, p2 = _load_pair(args)
    fid = fidelity_params(p1, p2).fidelity
    results = {}
    if args.method in ("analytic", "both"):
        results["analytic"] = minimize_overlap(p1, p2)
    if args.method in ("scan", "both"):
        results["scan"] = minimize_overlap_scan(p1, p2)
    if args.method == "both":
        diff = abs(results["analytic"][1] - results["scan"][1])
        if diff > 1e-8:
            raise ArithmeticError(
                f"analytic and scan minima disagree by {diff:.3g}"
            )
    phi_min, val_min = results.get("analytic", results.get("scan"))
    out = {
        "phi_min": phi_min,
        "overlap_min": val_min,
        "fidelity": fid,
        "gap": val_min - fid,
        "method": args.method,
    }
    if args.method == "both":
        out["scan_overlap_min"] = results["scan"][1]
    print(json.dumps(out))
    return 0


def _cmd_classify(args) -> int:
    p1, p2 = _load_pair(args)
    verdict = classify_pair(p1, p2)
    print(
        json.dumps(
            {
                "class": verdict.kind.value,
                "gap": verdict.gap,
                "witness_phi": verdict.witness_phi,
                "condition_residual": verdict.condition_residual,
            }
        )
    )
    return 0


def _cmd_solve_s2(args) -> int:
    roots = solve_s2_for_optimality(args.g1, args.g2, args.s1, args.theta)
    print(json.dumps([{"s2": r.s2, "theta_tilde": r.theta_tilde} for r in roots]))
    return 0


def _cmd_figure(args) -> int:
    req = FigureRequest(
        Figure(args.which),
        s2_range=(args.s2_min, args.s2_max, args.s2_steps),
        phi_steps=args.phi_steps,
    )
    emit_figure_data(req)
    return 0


_ORACLE_HEADER = (
    "label,gamma1,s1,theta1,gamma2,s2,theta2,dim,"
    "fid_closed,fid_fock,fid_dev,overlap_dev_max,pass"
)


def _oracle_row_csv(row) -> str:
    p1, p2 = row.p1, row.p2
    return ",".join(
        [
            row.label,
            _fmt(p1.gamma),
            _fmt(p1.s),
            _fmt(p1.theta),
            _fmt(p2.gamma),
            _fmt(p2.s),
            _fmt(p2.theta),
            str(row.dim),
            _fmt(row.fid_closed),
            _fmt(row.fid_fock),
            _fmt(row.fid_dev),
            _fmt(row.overlap_dev_max),
            "pass" if row.passed else "fail",
        ]
    )


def _random_pairs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    pairs = []
    for idx in range(count):
        g = rng.uniform(1.0, 5.0, size=2)
        s = rng.uniform(1.0, 5.0, size=2)
        th = rng.uniform(0.0, math.pi, size=2)
        off = rng.uniform(-1.4, 1.4, size=2)
        p1 = GaussianParams(g[0], s[0], th[0])
        p2 = GaussianParams(g[1], s[1], th[1], off[0], off[1])
        pairs.append((f"rand{idx:03d}", p1, p2))
    return pairs


def _cmd_oracle_check(args) -> int:
    print(_ORACLE_HEADER)
    if args.a or args.b:
        if not (args.a and args.b):
            raise StateFormatError("oracle-check needs both --a and --b (or --sweep)")
        p1, p2 = _load_pair(args)
        rows = [oracle_check_pair(p1, p2, dim=args.dim)]
    elif args.sweep == "default":
        rows = run_oracle_sweep(dim=args.dim)
    else:
        rows = [
            oracle_check_pair(p1, p2, dim=args.dim, label=label)
            for label, p1, p2 in _random_pairs(args.count, args.seed)
        ]
    failed = 0
    for row in rows:
        print(_oracle_row_csv(row))
        failed += 0 if row.passed else 1
    if failed:
        print(f"{failed} of {len(rows)} cases failed", file=sys.stderr)
        return 1
    return 0


def _cmd_povm_scan(args) -> int:
    p1, p2 = _load_pair(args)
    r_grid = np.linspace(0.0, args.r_max, args.r_steps)
    theta_grid = np.linspace(0.0, math.pi, args.theta_steps, endpoint=False)
    scan = conjecture_scan(p1, p2, r_grid, theta_grid)
    print("r,min_theta_overlap,homodyne_min,fidelity")
    for row in scan.rows:
        print(
            f"{_fmt(row.r)},{_fmt(row.min_overlap)},"
            f"{_fmt(scan.homodyne_min)},{_fmt(scan.fidelity)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdist",
        description=(
            "Homodyne distinguishability of single-mode Gaussian states: "
            "fidelity, overlap profiles, and optimality classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_args(p):
        p.add_argument("--a", required=True, help="first state JSON file")
        p.add_argument("--b", required=True, help="second state JSON file")

    p = sub.add_parser("fidelity", help="fidelity report for a state pair")
    pair_args(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("overlap", help="homodyne overlap I_phi at one angle")
    pair_args(p)
    p.add_argument("--phi", type=float, required=True, help="measurement angle (rad)")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("profile", help="CSV of I_phi over [0, pi)")
    pair_args(p)
    p.add_argument("--steps", type=int, default=720)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("min-overlap", help="minimize I_phi over the angle")
    pair_args(p)
    p.add_argument("--method", choices=("analytic", "scan", "both"), default="analytic")
    p.set_defaults(func=_cmd_min_overlap)

    p = sub.add_parser("classify", help="optimality verdict for a state pair")
    pair_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve-s2", help="s2 values on the mixed/mixed equality surface")
    p.add_argument("--g1", type=float, required=True)
    p.add_argument("--g2", type=float, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--theta", type=float, required=True, help="relative angle (rad)")
    p.set_defaults(func=_cmd_solve_s2)

    p = sub.add_parser("figure", help="CSV surface data for the reference figures")
    p.add_argument("--which", choices=[f.value for f in Figure], required=True)
    p.add_argument("--s2-min", type=float, default=1.0)
    p.add_argument("--s2-max", type=float, default=5.0)
    p.add_argument("--s2-steps", type=int, default=200)
    p.add_argument("--phi-steps", type=int, default=720)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("oracle-check", help="closed forms vs the Fock oracle (CSV)")
    p.add_argument("--sweep", choices=("default", "random"), default="default")
    p.add_argument("--a", help="first state JSON file (overrides --sweep)")
    p.add_argument("--b", help="second state JSON file")
    p.add_argument("--dim", type=int, default=None, help="Fock truncation")
    p.add_argument("--count", type=int, default=20, help="random-sweep size")
    p.add_argument("--seed", type=int, default=0, help="random-sweep seed")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("povm-scan", help="squeezed-POVM overlap vs squeeze degree (CSV)")
    pair_args(p)
    p.add_argument("--r-max", type=float, default=8.0)
    p.add_argument("--r-steps", type=int, default=32)
    p.add_argument("--theta-steps", type=int, default=64)
    p.set_defaults(func=_cmd_povm_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        StateFormatError,
        NonPhysicalStateError,
        UnsupportedPairError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (TruncationError, GdistError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never traceback on user input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
