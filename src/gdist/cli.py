"""Command-line interface.

Subcommands cover the pair computations (fidelity, overlap, profile,
min-overlap, classify, solve-s2), the figure-data sweeps, the Fock-oracle
validation, and the POVM-family scan.  All angles are radians; output floats
use the shortest round-trip representation, so CSV output is byte-identical
between runs.  Exit codes: 0 success, 2 invalid input, 1 numeric failure.
Every printed float passes one finiteness check (``_fmt``, ``_json``): a
non-finite result is a numeric failure, so a single-result command prints
nothing and a CSV command stops before the row that holds it.
Only ``oracle-check`` and the minimum of a squeezed displaced pair
(``min-overlap --method analytic|both``, ``povm-scan``) load numpy.
"""

import argparse
import json
import math
import sys

from .errors import GdistError, NonPhysicalStateError, StateFormatError, UnsupportedPairError
from .fidelity import fidelity_params, solve_s2_for_optimality
from .homodyne import _overlap, _width, linspace, minimize_overlap_scan, overlap_at
from .states import GaussianParams, default_tol, load_state


#: Fixed parameters (gamma1, gamma2, s1, theta_tilde) of each figure sweep, by --which.
FIGURES = {
    "fig2": (1.0, 1.0, 2.0, math.pi / 3),
    "fig3": (1.0, 4.0, 2.0, math.pi / 3),
    "fig4": (2.0, 4.0, 2.0, math.pi / 3),
}


def _fmt(x: float) -> str:
    """Shortest round-trip text of a float; a non-finite one raises ArithmeticError."""
    x = float(x)
    if not math.isfinite(x):
        raise ArithmeticError(f"non-finite result {x}")
    return repr(x)


def _json(obj) -> str:
    """``obj`` as JSON, under the same finiteness check as ``_fmt``."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite result: {exc}") from None


def finite_float(text: str) -> float:
    """argparse type of every float option: nan and inf exit 2 like any bad value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """argparse type of the counts that size a scan, a sweep or a truncation: at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def emit_figure_data(which: str, s2_range: tuple, phi_steps: int, stream=None) -> None:
    """Write the figure surface as CSV: s2, phi, I_phi, F, norm_diff.

    ``which`` keys ``FIGURES``; ``s2_range`` is (lo, hi, steps) of the s2 axis.

    norm_diff is the fractional excess (I_phi - F) / F; the surface touches
    zero exactly where homodyne detection attains the fidelity.
    """
    stream = sys.stdout if stream is None else stream
    g1, g2, s1, theta_tilde = FIGURES[which]
    lo, hi, steps = s2_range
    if steps < 2 or phi_steps < 2:
        raise ValueError("figure sweep needs at least 2 steps on each axis")
    sweep = [(s2, GaussianParams(g2, s2, theta_tilde)) for s2 in linspace(lo, hi, steps)]
    stream.write("s2,phi,I_phi,F,norm_diff\n")  # only once every state of the sweep is valid
    phis = linspace(0.0, math.pi, phi_steps, endpoint=False)
    phi_strs = [repr(phi) for phi in phis]
    p1 = GaussianParams(g1, s1, 0.0)
    # overlap_at's arithmetic, with each term that depends on the angle alone computed once
    b1s = [_width(p1, math.cos(phi - p1.theta), math.sin(phi - p1.theta)) for phi in phis]
    trig = {}  # cos, sin of phi - theta for each theta p2 takes (s2 <= 1 turns it)
    for s2, p2 in sweep:
        if p2.theta not in trig:
            trig[p2.theta] = [(math.cos(phi - p2.theta), math.sin(phi - p2.theta)) for phi in phis]
        fid = fidelity_params(p1, p2).fidelity
        # both means are 0, so beta_phi^2 is 0 at every angle
        vals = [_overlap(b1, _width(p2, c, s), 0.0) for b1, (c, s) in zip(b1s, trig[p2.theta])]
        s2_str, fid_str = _fmt(s2), _fmt(fid)
        diffs = [(val - fid) / fid for val in vals]
        if not all(map(math.isfinite, diffs)):  # _fmt checked fid; a finite diff means a finite val
            raise ArithmeticError(f"non-finite overlap at s2={s2_str}")
        # one write per s2 block, so memory stays one block whatever the grid
        stream.write(
            "".join(
                f"{s2_str},{phi},{val!r},{fid_str},{diff!r}\n"
                for phi, val, diff in zip(phi_strs, vals, diffs)
            )
        )


def _load_pair(args) -> tuple[GaussianParams, GaussianParams]:
    return load_state(args.a), load_state(args.b)


def _cmd_fidelity(args) -> int:
    p1, p2 = _load_pair(args)
    fields = fidelity_params(p1, p2)._asdict()  # the FidelityReport fields, in order
    if args.json:
        print(_json(fields))
    elif args.csv:
        print(",".join(fields) + "\n" + ",".join(_fmt(val) for val in fields.values()))
    else:
        print("\n".join(f"{name}={_fmt(val)}" for name, val in fields.items()))
    return 0


def _cmd_overlap(args) -> int:
    p1, p2 = _load_pair(args)
    print(_fmt(overlap_at(p1, p2, args.phi)))
    return 0


def _cmd_profile(args) -> int:
    p1, p2 = _load_pair(args)
    if args.steps < 2:
        raise ValueError("profile needs at least 2 steps")
    fid = _fmt(fidelity_params(p1, p2).fidelity)
    print("phi,I_phi,F")
    for phi in linspace(0.0, math.pi, args.steps, endpoint=False):
        print(f"{_fmt(phi)},{_fmt(overlap_at(p1, p2, phi))},{fid}")
    return 0


def _cmd_min_overlap(args) -> int:
    from .optimality import minimize_overlap
    p1, p2 = _load_pair(args)
    fid = fidelity_params(p1, p2).fidelity
    results = {}
    if args.method in ("analytic", "both"):
        results["analytic"] = minimize_overlap(p1, p2)
    if args.method in ("scan", "both"):
        results["scan"] = minimize_overlap_scan(p1, p2)
    if args.method == "both":
        analytic, scanned = results["analytic"][1], results["scan"][1]
        # relative: a tiny minimum wrong by a large factor must fail as well;
        # the q <= tol gate holds the analytic minimum only to a factor e^-q
        if abs(analytic - scanned) > max(1e-8, default_tol()) * max(analytic, scanned):
            raise ArithmeticError(f"analytic minimum {analytic:.4g} but scan {scanned:.4g}")
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
    print(_json(out))
    return 0


def _cmd_classify(args) -> int:
    from .optimality import classify_pair
    p1, p2 = _load_pair(args)
    verdict = classify_pair(p1, p2)
    print(
        _json(
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
    print(_json([{"s2": r.s2, "theta_tilde": r.theta_tilde} for r in roots]))
    return 0


def _cmd_figure(args) -> int:
    emit_figure_data(args.which, (args.s2_min, args.s2_max, args.s2_steps), args.phi_steps)
    return 0


_ORACLE_HEADER = (
    "label,gamma1,s1,theta1,gamma2,s2,theta2,dim,"
    "fid_closed,fid_fock,fid_dev,overlap_dev_max,pass"
)


def _oracle_row_csv(row) -> str:
    p1, p2 = row.p1, row.p2
    states = map(_fmt, (p1.gamma, p1.s, p1.theta, p2.gamma, p2.s, p2.theta))
    devs = map(_fmt, (row.fid_closed, row.fid_fock, row.fid_dev, row.overlap_dev_max))
    return ",".join([row.label, *states, str(row.dim), *devs, "pass" if row.passed else "fail"])


def _random_pairs(count: int, seed: int):
    import numpy as np
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
    from .validation import oracle_check_pair, stratified_pairs
    if args.a or args.b:
        if not (args.a and args.b):
            raise StateFormatError("oracle-check needs both --a and --b (or --sweep)")
        pairs = [("pair", *_load_pair(args))]
    elif args.sweep == "default":
        pairs = stratified_pairs()
    else:
        pairs = _random_pairs(args.count, args.seed)
    rows = [oracle_check_pair(p1, p2, dim=args.dim, label=label) for label, p1, p2 in pairs]
    failed = 0
    print(_ORACLE_HEADER)  # only once every row is computed, so a bad input prints nothing
    for row in rows:
        print(_oracle_row_csv(row))
        failed += 0 if row.passed else 1
    if failed:
        print(f"{failed} of {len(rows)} cases failed", file=sys.stderr)
        return 1
    return 0


def _cmd_povm_scan(args) -> int:
    from .povm import conjecture_scan
    p1, p2 = _load_pair(args)
    r_grid = linspace(0.0, args.r_max, args.r_steps)
    theta_grid = linspace(0.0, math.pi, args.theta_steps, endpoint=False)
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
    p.add_argument("--phi", type=finite_float, required=True, help="measurement angle (rad)")
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("profile", help="CSV of I_phi over [0, pi)")
    pair_args(p)
    p.add_argument("--steps", type=positive_int, default=720)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("min-overlap", help="minimize I_phi over the angle")
    pair_args(p)
    p.add_argument("--method", choices=("analytic", "scan", "both"), default="analytic")
    p.set_defaults(func=_cmd_min_overlap)

    p = sub.add_parser("classify", help="optimality verdict for a state pair")
    pair_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve-s2", help="s2 values on the mixed/mixed equality surface")
    p.add_argument("--g1", type=finite_float, required=True)
    p.add_argument("--g2", type=finite_float, required=True)
    p.add_argument("--s1", type=finite_float, required=True)
    p.add_argument("--theta", type=finite_float, required=True, help="relative angle (rad)")
    p.set_defaults(func=_cmd_solve_s2)

    p = sub.add_parser("figure", help="CSV surface data for the reference figures")
    p.add_argument("--which", choices=list(FIGURES), required=True)
    p.add_argument("--s2-min", type=finite_float, default=1.0)
    p.add_argument("--s2-max", type=finite_float, default=5.0)
    p.add_argument("--s2-steps", type=positive_int, default=200)
    p.add_argument("--phi-steps", type=positive_int, default=720)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("oracle-check", help="closed forms vs the Fock oracle (CSV)")
    p.add_argument("--sweep", choices=("default", "random"), default="default")
    p.add_argument("--a", help="first state JSON file (overrides --sweep)")
    p.add_argument("--b", help="second state JSON file")
    p.add_argument("--dim", type=positive_int, help="the pair's one truncation (default: measured)")
    p.add_argument("--count", type=positive_int, default=20, help="random-sweep size")
    p.add_argument("--seed", type=int, default=0, help="random-sweep seed")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("povm-scan", help="squeezed-POVM overlap vs squeeze degree (CSV)")
    pair_args(p)
    p.add_argument("--r-max", type=finite_float, default=8.0)
    p.add_argument("--r-steps", type=positive_int, default=32)
    p.add_argument("--theta-steps", type=positive_int, default=64)
    p.set_defaults(func=_cmd_povm_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateFormatError, NonPhysicalStateError, UnsupportedPairError, ValueError) as exc:
        linalg = sys.modules.get("numpy.linalg")  # no LinAlgError before it loads
        if linalg is not None and isinstance(exc, linalg.LinAlgError):  # never the user's input
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (GdistError, ArithmeticError) as exc:  # TruncationError is a GdistError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # never traceback on user input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
