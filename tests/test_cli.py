import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import gdist
from gdist import GaussianParams, fidelity_params, minimize_overlap_general
from gdist.cli import FIGURES, emit_figure_data, main
from gdist.homodyne import linspace, minimize_overlap_scan, overlap_at

from conftest import NARROW_DIPS
from crosscheck import mpmath_povm_overlap


def write_state(tmp_path, name, params):
    path = tmp_path / name
    alpha = [params.alpha_x, params.alpha_y]
    data = {"gamma": params.gamma, "s": params.s, "theta": params.theta, "alpha": alpha}
    path.write_text(json.dumps({"params": data}))
    return str(path)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def vac(tmp_path):
    return write_state(tmp_path, "vac.json", GaussianParams(1.0))


@pytest.fixture
def fig4_pair(tmp_path):
    a = write_state(tmp_path, "a.json", GaussianParams(2.0, 2.0, 0.0))
    b = write_state(tmp_path, "b.json", GaussianParams(4.0, 1.4, math.pi / 3))
    return a, b


class TestFidelityCommand:
    def test_self_fidelity(self, vac):
        code, out = run_cli(["fidelity", "--a", vac, "--b", vac])
        assert code == 0
        assert "fidelity=1.0" in out

    def test_json_output(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(["fidelity", "--a", vac, "--b", coh, "--json"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["fidelity"] - math.exp(-0.5)) < 1e-12

    def test_csv_output(self, vac):
        code, out = run_cli(["fidelity", "--a", vac, "--b", vac, "--csv"])
        lines = out.strip().splitlines()
        assert lines[0].startswith("fidelity,")
        assert len(lines) == 2

    def test_accepts_cov_form(self, tmp_path, vac):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"cov": [[1.0, 0.0], [0.0, 1.0]], "mean": [0.0, 0.0]}))
        code, out = run_cli(["fidelity", "--a", vac, "--b", str(path)])
        assert code == 0
        assert "fidelity=1.0" in out

    @pytest.mark.parametrize(
        "state",
        [
            {"cov": [[0.9999999, 0.0], [0.0, 0.9999999]]},  # det = 1 - 2e-7
            # the same gamma = 1 - 5e-7 in both forms gets the same verdict
            {"params": {"gamma": 1.0 - 5e-7, "s": 1.0, "theta": 0.0}},
            {"cov": [[1.0 - 5e-7, 0.0], [0.0, 1.0 - 5e-7]]},
        ],
    )
    def test_tolerance_governs_physicality(self, tmp_path, vac, monkeypatch, capsys, state):
        # physical under GDIST_TOL=1e-6 and read as the vacuum; rejected at the default
        path = tmp_path / "near_vacuum.json"
        path.write_text(json.dumps(state))
        sq = write_state(tmp_path, "sq.json", GaussianParams(2.0, 3.0, 0.4))
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        code, out = run_cli(["classify", "--a", str(path), "--b", sq])
        assert code == 0
        assert out == run_cli(["classify", "--a", vac, "--b", sq])[1]
        monkeypatch.delenv("GDIST_TOL")
        assert main(["classify", "--a", str(path), "--b", sq]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "physical" in err


class TestErrorHandling:
    def test_malformed_json_names_field(self, tmp_path, vac, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {"s": 2.0, "theta": 0.0}}))
        code = main(["fidelity", "--a", vac, "--b", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "gamma" in err

    def test_unparseable_json(self, tmp_path, vac, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["fidelity", "--a", vac, "--b", str(bad)])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_unphysical_state(self, tmp_path, vac, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cov": [[0.5, 0.0], [0.0, 0.5]], "mean": [0.0, 0.0]}))
        code = main(["fidelity", "--a", vac, "--b", str(bad)])
        assert code == 2
        assert "physical" in capsys.readouterr().err

    def test_missing_file(self, vac, capsys):
        code = main(["fidelity", "--a", vac, "--b", "/nonexistent/state.json"])
        assert code == 2

    def test_unclassified_pair(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", GaussianParams(1.0, 2.0, 0.0))
        b = write_state(tmp_path, "b.json", GaussianParams(1.0, 2.0, 0.0, 1.0, 0.0))
        code = main(["classify", "--a", a, "--b", b])
        assert code == 2

    def test_invalid_tolerance_named(self, tmp_path, monkeypatch, capsys):
        # same-mean squeezed states: a NaN tolerance must not read as unequal means
        a = write_state(tmp_path, "a.json", GaussianParams(1.0, 2.0, 0.0))
        b = write_state(tmp_path, "b.json", GaussianParams(1.0, 3.0, 0.0))
        monkeypatch.setenv("GDIST_TOL", "nan")
        code = main(["classify", "--a", a, "--b", b])
        assert code == 2
        assert "GDIST_TOL" in capsys.readouterr().err

    def test_negative_squeeze_degree(self, tmp_path, vac, capsys):
        code = main(["povm-scan", "--a", vac, "--b", vac, "--r-max", "-1"])
        assert code == 2
        assert "squeeze parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state",
        [
            {"params": {"gamma": 2.0, "s": 1.0, "theta": 0.0, "alpha": [math.nan, 0.0]}},
            {"cov": [[2.0, 0.0], [0.0, 2.0]], "mean": [math.inf, 0.0]},
            {"params": {"gamma": 2.0, "s": 5e-324, "theta": 0.0}},  # 1/s overflows
            {"cov": [["4", 0.0], [0.0, 1.0]]},
            {"cov": [[True, 0.0], [0.0, 4.0]]},
            {"params": {"gamma": 10**399, "s": 1.0, "theta": 0.0}},  # too large for a float
            {"cov": [[4.0, 0.0], [0.0, 10**399]]},
            # an integer past the interpreter's digit limit fails in json.load itself
            pytest.param('{"params": {"gamma": 1' + "0" * 5000 + ', "s": 1.0}}', id="digits"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            "fidelity",
            "overlap --phi 0.3",
            "profile",
            "min-overlap --method both",
            "classify",
            "povm-scan",
            "oracle-check",
        ],
    )
    def test_invalid_state_exits_2(self, tmp_path, vac, capsys, command, state):
        bad = tmp_path / "bad.json"
        # NaN and Infinity as json.load reads them
        bad.write_text(state if isinstance(state, str) else json.dumps(state))
        assert main([*command.split(), "--a", vac, "--b", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err
        if isinstance(state, str):
            assert f"malformed JSON in {bad}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "solve-s2 --g1 2 --g2 4 --s1 1e200 --theta 0",
            "fidelity --a BIG --b BIG2",
            "fidelity --json --a BIG --b BIG2",
            "classify --a BIG --b BIG2",
        ],
    )
    def test_overflowing_result_exits_1(self, tmp_path, argv, capsys):
        # finite inputs whose results overflow: (s - 1)(s + 1) at s = 1e200
        big = write_state(tmp_path, "big.json", GaussianParams(1.0, 1e200, 0.0))
        big2 = write_state(tmp_path, "big2.json", GaussianParams(1.0, 1e200, 0.3))
        argv = [{"BIG": big, "BIG2": big2}.get(arg, arg) for arg in argv.split()]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "numeric failure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "oracle-check --a STATE --b STATE --dim 0",
            "oracle-check --a STATE --b STATE --dim -3",
            "oracle-check --a STATE --b STATE --dim 1025",
            "solve-s2 --g1 nan --g2 4 --s1 2 --theta 1",
            "solve-s2 --g1 inf --g2 4 --s1 2 --theta 1",
            "solve-s2 --g1 2 --g2 4 --s1 nan --theta 1",
            "overlap --a STATE --b STATE --phi nan",
            "profile --a STATE --b STATE --steps 0",
            "figure --which fig4 --s2-steps 0",
            "figure --which fig4 --phi-steps 0",
            "figure --which fig4 --s2-min 0",  # invalid second states: no header either
            "figure --which fig4 --s2-min -1",
            "figure --which fig4 --s2-min 1e-320",  # 1/s overflows
            "povm-scan --a STATE --b STATE --theta-steps 0",
            "povm-scan --a STATE --b STATE --r-steps 0",
            "oracle-check --sweep random --count 0",
        ],
    )
    def test_invalid_numbers_exit_2(self, tmp_path, argv, capsys):
        # argparse rejects a bad option value by SystemExit(2) before main's handlers
        state = write_state(tmp_path, "state.json", GaussianParams(2.0))
        argv = [state if arg == "STATE" else arg for arg in argv.split()]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert "error" in err
        assert out == ""


class TestOverlapCommands:
    def test_overlap_value(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(["overlap", "--a", vac, "--b", coh, "--phi", "0.0"])
        assert code == 0
        assert abs(float(out) - math.exp(-0.5)) < 1e-12

    def test_profile_csv(self, tmp_path, vac):
        sq = write_state(tmp_path, "sq.json", GaussianParams(1.0, 4.0, 0.0))
        code, out = run_cli(["profile", "--a", vac, "--b", sq, "--steps", "8"])
        lines = out.strip().splitlines()
        assert lines[0] == "phi,I_phi,F"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) - 2.0 / math.sqrt(5.0)) < 1e-12
        assert abs(float(first[2]) - 2.0 / math.sqrt(5.0)) < 1e-12
        assert run_cli(["profile", "--a", vac, "--b", sq, "--steps", "1"]) == (2, "")

    def test_profile_rows_are_overlap_at(self, tmp_path):
        # each row is the overlap command at its angle, to the last bit
        p1 = GaussianParams(2.0, 3.0, 0.3, -0.2, 0.4)
        p2 = GaussianParams(1.5, 2.0, 1.1, 0.8, -0.4)
        a, b = write_state(tmp_path, "a.json", p1), write_state(tmp_path, "b.json", p2)
        code, out = run_cli(["profile", "--a", a, "--b", b, "--steps", "360"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        phis = np.linspace(0.0, math.pi, 360, endpoint=False).tolist()
        assert [float(row[0]) for row in rows] == phis
        assert [row[1] for row in rows] == [repr(overlap_at(p1, p2, phi)) for phi in phis]

    def test_min_overlap_methods_agree(self, tmp_path, vac):
        sq = write_state(tmp_path, "sq.json", GaussianParams(1.0, 4.0, 0.3))
        code, out = run_cli(["min-overlap", "--a", vac, "--b", sq, "--method", "both"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["overlap_min"] - data["scan_overlap_min"]) < 1e-8
        assert abs(data["gap"]) < 1e-9

    def test_min_overlap_scan_stays_independent(self, tmp_path):
        p1 = GaussianParams(2.0, 3.0, 0.3)
        p2 = GaussianParams(1.5, 2.0, 1.1, 0.8, -0.4)
        a = write_state(tmp_path, "a.json", p1)
        b = write_state(tmp_path, "b.json", p2)
        code, out = run_cli(["min-overlap", "--a", a, "--b", b, "--method", "both"])
        assert code == 0
        data = json.loads(out)
        assert data["overlap_min"] == minimize_overlap_general(p1, p2)[1]
        assert data["scan_overlap_min"] == minimize_overlap_scan(p1, p2)[1]
        assert abs(data["overlap_min"] - data["scan_overlap_min"]) < 1e-12

    def test_min_overlap_both_on_a_flat_profile(self, tmp_path):
        # q = 3e-21: the analytic same-mean route, on a profile where every I_phi is 1.0
        a = write_state(tmp_path, "a.json", GaussianParams(1e8, 2.0, 0.3))
        b = write_state(tmp_path, "b.json", GaussianParams(1e8, 2.0, 0.3, 1e-6, 0.0))
        code, out = run_cli(["min-overlap", "--a", a, "--b", b, "--method", "both"])
        assert code == 0
        data = json.loads(out)
        assert data["overlap_min"] == data["scan_overlap_min"] == 1.0

    def test_min_overlap_both_under_a_loose_tolerance(self, tmp_path, monkeypatch):
        # q = 5.7e-7 <= 1e-6 sends the pair to the same-mean minimum, which then
        # holds only to a factor e^-q: 3.7e-7 relative above the scan's
        a = write_state(tmp_path, "a.json", GaussianParams(2.0, 2.0, 0.3))
        b = write_state(tmp_path, "b.json", GaussianParams(2.0, 3.0, 0.3, 0.002, 0.0))
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        code, out = run_cli(["min-overlap", "--a", a, "--b", b, "--method", "both"])
        assert code == 0
        data = json.loads(out)
        assert 0.0 < data["overlap_min"] / data["scan_overlap_min"] - 1.0 < 1e-6


class TestNarrowDips:
    @pytest.mark.parametrize("p1, p2, reference", NARROW_DIPS)
    def test_scan_finds_the_dip(self, tmp_path, p1, p2, reference):
        a, b = write_state(tmp_path, "a.json", p1), write_state(tmp_path, "b.json", p2)
        code, out = run_cli(["min-overlap", "--a", a, "--b", b, "--method", "scan"])
        assert code == 0
        assert json.loads(out)["overlap_min"] == pytest.approx(reference, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("p1, p2, reference", NARROW_DIPS)
    def test_both_refuses_the_missed_minimum(self, tmp_path, monkeypatch, p1, p2, reference):
        # the analytic minimum is 58, 3.2 and 65 times too high; the gate is
        # relative, so the two tiny ones fail it as well, at a loose tolerance too
        a, b = write_state(tmp_path, "a.json", p1), write_state(tmp_path, "b.json", p2)
        assert run_cli(["min-overlap", "--a", a, "--b", b, "--method", "both"]) == (1, "")
        monkeypatch.setenv("GDIST_TOL", "1e-6")
        assert run_cli(["min-overlap", "--a", a, "--b", b, "--method", "both"]) == (1, "")


class TestClassifyCommand:
    def test_tangency_pair(self, fig4_pair):
        a, b = fig4_pair
        code, out = run_cli(["classify", "--a", a, "--b", b])
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "MixedMixedOptimal"
        assert abs(data["gap"]) < 1e-9
        assert data["witness_phi"] is not None

    def test_gap_matches_min_overlap(self, fig4_pair):
        a, b = fig4_pair
        _, cls_out = run_cli(["classify", "--a", a, "--b", b])
        _, min_out = run_cli(["min-overlap", "--a", a, "--b", b])
        gap_cls = json.loads(cls_out)["gap"]
        gap_min = json.loads(min_out)["gap"]
        assert abs(gap_cls - gap_min) < 1e-12


class TestSolveS2Command:
    def test_reference_configuration(self):
        code, out = run_cli(
            ["solve-s2", "--g1", "2", "--g2", "4", "--s1", "2", "--theta", "1.0471975512"]
        )
        assert code == 0
        roots = json.loads(out)
        assert abs(roots[0]["s2"] - 1.4) < 1e-9

    def test_pure_input_rejected(self, capsys):
        code = main(["solve-s2", "--g1", "1", "--g2", "4", "--s1", "2", "--theta", "0"])
        assert code == 2


class TestFigureCommand:
    def test_deterministic_output(self):
        args = ["figure", "--which", "fig4", "--s2-steps", "5", "--phi-steps", "16"]
        _, first = run_cli(args)
        _, second = run_cli(args)
        assert first == second

    def test_header_and_shape(self):
        code, out = run_cli(
            ["figure", "--which", "fig2", "--s2-steps", "3", "--phi-steps", "4"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "s2,phi,I_phi,F,norm_diff"
        assert len(lines) == 1 + 3 * 4

    def test_fig2_touches_zero_fig3_does_not(self):
        buf = io.StringIO()
        emit_figure_data("fig2", (1.5, 4.0, 6), 256, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        norm = {}
        for s2, phi, i_phi, fid, nd in rows:
            norm.setdefault(s2, []).append(float(nd))
        for vals in norm.values():
            assert min(vals) >= -1e-12
            assert min(vals) < 1e-3  # grid resolution; refined min is ~0

        buf = io.StringIO()
        emit_figure_data("fig3", (1.0, 3.0, 6), 256, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert min(float(r[4]) for r in rows) > 1e-3


def rowwise_figure_csv(which, s2_range, phi_steps):
    """The figure CSV row by row from ``overlap_at``, five reprs per row: the byte reference."""
    g1, g2, s1, theta_tilde = FIGURES[which]
    lo, hi, steps = s2_range
    out = ["s2,phi,I_phi,F,norm_diff\n"]
    phis = np.linspace(0.0, math.pi, phi_steps, endpoint=False)
    p1 = GaussianParams(g1, s1, 0.0)
    for s2 in np.linspace(lo, hi, steps):
        p2 = GaussianParams(g2, float(s2), theta_tilde)
        fid = fidelity_params(p1, p2).fidelity
        for phi in phis:
            val = overlap_at(p1, p2, float(phi))
            cells = (s2, phi, val, fid, (val - fid) / fid)
            out.append(",".join(repr(float(x)) for x in cells) + "\n")
    return "".join(out)


class TestFigureBytes:
    @pytest.mark.parametrize("which", list(FIGURES))
    @pytest.mark.parametrize(
        "grid", [None, ((1.0, 5.0, 7), 33), ((0.25, 1.0, 4), 9)], ids=["default", "7x33", "s2<=1"]
    )
    def test_matches_rowwise_formatter(self, which, grid):
        if grid is None:  # the grid the command defaults to
            code, got = run_cli(["figure", "--which", which])
            assert code == 0
            grid = ((1.0, 5.0, 200), 720)
        else:
            buf = io.StringIO()
            emit_figure_data(which, *grid, buf)
            got = buf.getvalue()
        want = rowwise_figure_csv(which, *grid)
        if got != want:  # name the first differing row, not a 13 MB diff
            pairs = zip(got.splitlines(), want.splitlines())
            row, (line, ref) = next((k, lr) for k, lr in enumerate(pairs) if lr[0] != lr[1])
            pytest.fail(f"row {row}: {line!r} != {ref!r}")
        assert got == want


class TestLinspace:
    @pytest.mark.parametrize(
        "start, stop, num, endpoint",
        [
            (0.0, math.pi, 720, False),  # figure and profile angles
            (1.0, 5.0, 200, True),  # figure s2 axis
            (0.0, 8.0, 32, True),  # povm-scan r
            (0.0, math.pi, 64, False),  # povm-scan theta_u
            (0.0, math.pi, 4096, False),  # the scan's first pass
            (0.5 - math.pi / 4096, 0.5 + math.pi / 4096, 4096, False),  # a zoom pass
            (0.0, 8.0, 1, True),
            (-0.0, 8.0, 1, True),
            (0.0, math.pi, 1, False),
            (2.5, 2.5, 5, True),
            (3.0, -1.0, 7, True),
            (0.0, 5e-324, 4, True),  # the step underflows to 0
            (1e-300, 1e300, 11, False),
        ],
    )
    def test_bits_of_numpy(self, start, stop, num, endpoint):
        got = linspace(start, stop, num, endpoint=endpoint)
        want = np.linspace(start, stop, num, endpoint=endpoint).tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_bits_of_numpy_on_random_ranges(self, rng):
        for _ in range(500):
            start, stop = rng.uniform(-1e3, 1e3, size=2) * 10.0 ** rng.integers(-8, 8, size=2)
            num, endpoint = int(rng.integers(1, 300)), bool(rng.integers(2))
            got = linspace(float(start), float(stop), num, endpoint=endpoint)
            want = np.linspace(start, stop, num, endpoint=endpoint).tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, want))


class TestOracleCheckCommand:
    def test_explicit_pair(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(["oracle-check", "--a", vac, "--b", coh, "--dim", "60"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,")
        assert lines[1].endswith(",pass")

    def test_numeric_failure_exits_1(self, tmp_path, vac, monkeypatch, capsys):
        # a state whose factor is not finite is a numeric failure of the
        # oracle, not invalid user input
        import numpy as np

        from gdist import FockOperator, validation

        broken = FockOperator(np.full((4, 1), np.nan, dtype=complex))
        monkeypatch.setattr(validation, "build_state", lambda p, dim: broken)
        code, _ = run_cli(["oracle-check", "--a", vac, "--b", vac, "--dim", "4"])
        assert code == 1
        assert "numeric failure" in capsys.readouterr().err

    def test_linalg_error_exits_1(self, tmp_path, vac, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would otherwise read as bad input
        import numpy as np

        from gdist import validation

        def fail(a, b):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(validation, "fidelity_fock", fail)
        code, _ = run_cli(["oracle-check", "--a", vac, "--b", vac, "--dim", "40"])
        assert code == 1
        assert "numeric failure: SVD did not converge" in capsys.readouterr().err

    def test_missing_state_file_prints_nothing(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out = run_cli(["oracle-check", "--a", missing, "--b", missing])
        assert code == 2
        assert out == ""

    def test_state_past_the_ladder_exits_1(self, tmp_path, vac, capsys):
        # nearly all of this thermal state's weight lies past the top rung,
        # though too little piles up at any cutoff for the boundary test to see
        hot = write_state(tmp_path, "hot.json", GaussianParams(1e12))
        code, out = run_cli(["oracle-check", "--a", hot, "--b", vac])
        assert code == 1
        assert out == ""
        assert "needs dim > 1024 (leakage 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(5))
    def test_random_sweep_passes(self, seed):
        # automatic truncation, as ``oracle-check --sweep random`` runs by default
        code, out = run_cli(["oracle-check", "--sweep", "random", "--seed", str(seed)])
        assert code == 0
        assert len(out.splitlines()) == 21

    def test_random_sweep_seeded(self):
        args = ["oracle-check", "--sweep", "random", "--count", "2", "--seed", "7", "--dim", "150"]
        code, first = run_cli(args)
        assert code == 0
        _, second = run_cli(args)
        assert first == second


class TestPovmScanCommand:
    def test_coherent_pair_scan(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(
            ["povm-scan", "--a", vac, "--b", coh, "--r-max", "4", "--r-steps", "5",
             "--theta-steps", "16"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,min_theta_overlap,homodyne_min,fidelity"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert abs(float(first[1]) - math.exp(-0.25)) < 1e-9

    def test_single_step_is_heterodyne(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(["povm-scan", "--a", vac, "--b", coh, "--r-steps", "1"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.0"

    @pytest.mark.parametrize("r_max", [40.0, 360.0])
    def test_extreme_r_rows_match_mpmath(self, tmp_path, r_max):
        # e^{2r} is finite up to r = 354.9; r = 360 must not print inf or nan either
        p1, p2 = GaussianParams(2.0), GaussianParams(3.0, 1.7, 0.4, 0.3, -0.2)
        a, b = write_state(tmp_path, "a.json", p1), write_state(tmp_path, "b.json", p2)
        code, out = run_cli(
            ["povm-scan", "--a", a, "--b", b, "--r-max", repr(r_max), "--r-steps", "4",
             "--theta-steps", "8"]
        )
        assert code == 0
        thetas = np.linspace(0.0, math.pi, 8, endpoint=False)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == np.linspace(0.0, r_max, 4).tolist()
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row)
            r, value = float(row[0]), float(row[1])
            reference = min(mpmath_povm_overlap(p1, p2, r, float(t)) for t in thetas)
            assert abs(value / reference - 1) < 1e-13, row


#: Every public name of ``gdist``; each must resolve through the lazy exports.
EAGER_EXPORTS = """
    GdistError NonPhysicalStateError StateFormatError TruncationError UnsupportedPairError
    FidelityReport fidelity_params FockOperator auto_states build_state
    fidelity_fock marginal_fock overlap_fock overlap_at OptimalityVerdict PairClass S2Root
    classify_pair minimize_overlap minimize_overlap_general ratio_extremes
    solve_s2_for_optimality thermal_ratio_sum ConjectureScan conjecture_scan povm_overlap
    CovarianceState GaussianParams covariance_from_params load_state
    params_from_covariance state_from_dict
""".split()


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports gdist from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gdist.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


class TestColdImports:
    def test_scalar_commands_leave_numpy_unloaded(self, tmp_path):
        a = write_state(tmp_path, "a.json", GaussianParams(2.0))
        b = write_state(tmp_path, "b.json", GaussianParams(3.0, 1.4, 0.5, 0.5, -0.3))
        c = write_state(tmp_path, "c.json", GaussianParams(4.0, 1.4, math.pi / 3))
        d = write_state(tmp_path, "d.json", GaussianParams(3.0, 1.0, 0.0, 0.5, -0.3))
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"cov": [[4.0, 0.5], [0.5, 1.0]], "mean": [0.2, -0.1]}))
        argvs = [
            ["fidelity", "--a", a, "--b", b],
            ["overlap", "--a", a, "--b", b, "--phi", "0.7"],
            ["solve-s2", "--g1", "2", "--g2", "4", "--s1", "2", "--theta", "1"],
            ["fidelity", "--a", str(cov), "--b", b],
            ["overlap", "--a", str(cov), "--b", b, "--phi", "0.7"],
            ["classify", "--a", a, "--b", c],  # same mean
            ["classify", "--a", a, "--b", d],  # round, displaced
            ["min-overlap", "--a", a, "--b", c, "--method", "analytic"],
            ["min-overlap", "--a", a, "--b", d, "--method", "analytic"],
            ["min-overlap", "--a", a, "--b", c, "--method", "both"],
            ["min-overlap", "--a", a, "--b", d, "--method", "both"],
            ["min-overlap", "--a", a, "--b", c, "--method", "scan"],
            ["min-overlap", "--a", a, "--b", d, "--method", "scan"],
            ["profile", "--a", a, "--b", b, "--steps", "16"],
            ["figure", "--which", "fig4", "--s2-steps", "3", "--phi-steps", "8"],
            ["povm-scan", "--a", a, "--b", c, "--r-steps", "4", "--theta-steps", "8"],
            # the boundary: a squeezed displaced minimum takes the companion matrix
            ["min-overlap", "--a", a, "--b", b, "--method", "analytic"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import gdist, gdist.cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gdist.cli.main(argv) == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(loaded)\n"
            "assert 'dataclasses' not in sys.modules\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([False] * 17 + [True])

    def test_lazy_exports_resolve_to_their_modules(self):
        assert set(EAGER_EXPORTS) <= set(gdist.__all__)
        for name in gdist.__all__:
            obj = getattr(gdist, name)
            assert obj.__module__.startswith("gdist."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        with pytest.raises(AttributeError):
            gdist.no_such_name

    def test_pair_and_sweep_commands_leave_scipy_unloaded(self, tmp_path):
        a = write_state(tmp_path, "a.json", GaussianParams(2.0))
        b = write_state(tmp_path, "b.json", GaussianParams(3.0, 1.0, 0.0, 0.5, -0.3))
        c = write_state(tmp_path, "c.json", GaussianParams(4.0, 1.4, math.pi / 3))
        pair = ["--a", a, "--b", b]
        argvs = [
            ["fidelity", *pair],
            ["classify", *pair],
            ["classify", "--a", a, "--b", c],
            ["overlap", *pair, "--phi", "0.7"],
            ["min-overlap", *pair, "--method", "both"],
            ["min-overlap", "--a", a, "--b", c, "--method", "both"],
            ["solve-s2", "--g1", "2.0", "--g2", "4.0", "--s1", "2.0", "--theta", "1.0471975511965976"],
            ["profile", *pair, "--steps", "16"],
            ["povm-scan", *pair, "--r-steps", "4", "--theta-steps", "8"],
            ["figure", "--which", "fig4", "--s2-steps", "3", "--phi-steps", "8"],
            ["oracle-check", *pair],
            ["oracle-check", "--sweep", "random", "--count", "1"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import gdist, gdist.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gdist.cli.main(argv) == 0, argv\n"
            "G = gdist.GaussianParams\n"
            "p1, p2 = G(1.5, 2.0, 0.3), G(2.0, 1.5, 1.1, 0.4, -0.2)\n"
            "fid = gdist.fidelity_fock(gdist.build_state(p1, 80), gdist.build_state(p2, 80))\n"
            "print(fid - gdist.fidelity_params(p1, p2).fidelity)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        fid_dev, loaded = proc.stdout.splitlines()
        assert abs(float(fid_dev)) < 1e-8
        assert loaded == "[]"


class TestConsoleScript:
    def test_installed_entry_point(self, vac):
        proc = subprocess.run(
            [sys.executable, "-m", "gdist.cli", "fidelity", "--a", vac, "--b", vac],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fidelity=1.0" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gdist.cli", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
