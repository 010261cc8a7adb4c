"""Output checks that hold whatever the implementation.

Each rule follows from the physics, not from how gdist computes it:

- 0 < F <= 1;
- the minimum homodyne overlap is at least F - 1e-9 (fidelity bounds the
  outcome overlap of every measurement);
- the minimum overlap is no larger than the overlap at probe angles, which
  this module evaluates with its own closed form;
- a verdict matches the class the pair was built in;
- oracle rows stay inside the 1e-6 gate.

A check returns a list of violation strings; empty means the output passed.
"""

from __future__ import annotations

import json
import math

from inputs import surface_terms

BOUND_SLACK = 1e-9
ORACLE_GATE = 1e-6


def overlap_closed(p1, p2, phi: float) -> float:
    """Bhattacharyya overlap of the homodyne marginals at ``phi``.

    B(phi) = gamma (s cos^2(phi - theta) + sin^2(phi - theta) / s) and the
    outcome means are the mean amplitudes projected onto the angle.
    """

    def width(p):
        d = phi - p[2]
        return p[0] * (p[1] * math.cos(d) ** 2 + math.sin(d) ** 2 / p[1])

    b1, b2 = width(p1), width(p2)
    beta = (p2[3] - p1[3]) * math.cos(phi) + (p2[4] - p1[4]) * math.sin(phi)
    return math.sqrt(2.0 / (b1 + b2)) * math.sqrt(math.sqrt(b1 * b2)) * math.exp(
        -beta * beta / (b1 + b2)
    )


def check_fidelity(fid) -> list[str]:
    if not isinstance(fid, float) or not 0.0 < fid <= 1.0:
        return [f"fidelity {fid!r} outside (0, 1]"]
    return []


def check_minimum(fid: float, omin: float, p1, p2, probes) -> list[str]:
    """Minimum overlap against the fidelity bound and the probe angles."""
    out = []
    if not omin >= fid - BOUND_SLACK:
        out.append(f"min overlap {omin!r} below F {fid!r} - 1e-9")
    probe = min(overlap_closed(p1, p2, phi) for phi in probes)
    if not omin <= probe * (1.0 + BOUND_SLACK):
        out.append(f"min overlap {omin!r} above probe overlap {probe!r}")
    return out


def check_verdict(kind: str | None, expected: str | None) -> list[str]:
    """``kind`` is the verdict's class value, or None for a refusal.

    ``expected`` None marks a pair outside the classified regimes: either a
    refusal or any verdict is accepted there.
    """
    if expected is None or kind == expected:
        return []
    return [f"verdict {kind or 'refused'} for a pair built as {expected}"]


def check_pair(case, fid, omin, kind) -> list[str]:
    out = check_fidelity(fid)
    if out:
        return out
    out += check_minimum(fid, omin, case["p1"], case["p2"], case["probes"])
    out += check_verdict(kind, case["expected"])
    return out


def check_oracle_row(fid_closed, fid_fock, fid_dev, overlap_dev) -> list[str]:
    out = check_fidelity(fid_closed)
    if not 0.0 < fid_fock <= 1.0 + ORACLE_GATE:
        out.append(f"oracle fidelity {fid_fock!r} outside (0, 1]")
    if not (fid_dev <= ORACLE_GATE and overlap_dev <= ORACLE_GATE):
        out.append(f"oracle deviations {fid_dev:.3g}, {overlap_dev:.3g} exceed {ORACLE_GATE}")
    return out


# ---------------------------------------------------------------------------
# CLI outputs.  ``ctx`` carries what earlier commands of the same round said
# about the pair, so later commands are checked against them.
# ---------------------------------------------------------------------------


def _csv_min(stream, header: str, columns) -> tuple[int, float]:
    """Row count and smallest value in ``columns`` of a CSV text stream.

    Reads line by line: figure output is 144000 rows, and a parent process
    holding it parsed would outgrow the CLI children it measures.
    """
    if stream.readline().rstrip("\n") != header:
        raise ValueError(f"expected header {header!r}")
    count, lowest = 0, math.inf
    for line in stream:
        row = line.rstrip("\n").split(",")
        count += 1
        lowest = min(lowest, *(float(row[c]) for c in columns))
    return count, lowest


def check_cli(command: str, stdout, case: dict, ctx: dict) -> list[str]:
    """Check one command's stdout, a text stream; raises ValueError on unparsable output."""
    p1, p2 = case["p1"], case["p2"]
    if command == "figure":
        count, worst = _csv_min(stdout, "s2,phi,I_phi,F,norm_diff", (4,))
        out = [] if count == 200 * 720 else [f"figure has {count} rows"]
        if not worst >= -BOUND_SLACK:
            out.append(f"figure norm_diff {worst!r} below -1e-9")
        return out
    if command == "profile":
        count, lowest = _csv_min(stdout, "phi,I_phi,F", (1,))
        out = [] if count == 720 else [f"profile has {count} rows"]
        if not lowest >= ctx["omin"] - BOUND_SLACK:
            out.append(f"profile sample {lowest!r} below the minimum overlap")
        return out
    if command == "povm-scan":
        count, lowest = _csv_min(stdout, "r,min_theta_overlap,homodyne_min,fidelity", (1, 2))
        out = [] if count == 32 else [f"povm-scan has {count} rows"]
        if not lowest >= ctx["fid"] - BOUND_SLACK:
            out.append(f"povm-scan overlap {lowest!r} below F")
        return out
    text = stdout.read()
    if command == "fidelity":
        fields = dict(line.split("=", 1) for line in text.split())
        ctx["fid"] = float(fields["fidelity"])
        return check_fidelity(ctx["fid"])
    fid = ctx["fid"]
    if command == "classify":
        verdict = json.loads(text)
        out = check_verdict(verdict["class"], case["expected"])
        if not verdict["gap"] >= -BOUND_SLACK:
            out.append(f"classify gap {verdict['gap']!r} below -1e-9")
        return out
    if command == "overlap":
        ctx["overlap"] = float(text)
        if not fid - BOUND_SLACK <= ctx["overlap"] <= 1.0 + BOUND_SLACK:
            return [f"overlap {ctx['overlap']!r} outside [F, 1]"]
        return []
    if command == "min-overlap":
        data = json.loads(text)
        ctx["omin"] = data["overlap_min"]
        out = check_minimum(fid, data["overlap_min"], p1, p2, [case["phi"]])
        if abs(data["fidelity"] - fid) > 1e-12:
            out.append("min-overlap fidelity differs from the fidelity command")
        if data["overlap_min"] > ctx["overlap"] * (1.0 + BOUND_SLACK):
            out.append("min-overlap above the overlap command at its angle")
        return out
    if command == "solve-s2":
        g1, g2, s1, _ = case["solve_s2"]
        roots = json.loads(text)
        out = [] if len(roots) == 2 else [f"solve-s2 gave {len(roots)} roots, expected 2"]
        for root in roots:
            squeeze, thermal = surface_terms((g1, s1, 0.0), (g2, root["s2"], root["theta_tilde"]))
            if abs(squeeze - thermal) > 1e-9 * (4.0 + thermal):
                out.append(f"solve-s2 root {root['s2']!r} is off the surface")
        return out
    raise ValueError(f"no check for command {command!r}")
