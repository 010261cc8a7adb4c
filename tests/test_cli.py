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
from gdist.cli import Figure, FigureRequest, emit_figure_data, main
from gdist.homodyne import minimize_overlap_scan, overlap_grid


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
        req2 = FigureRequest(Figure.FIG2, s2_range=(1.5, 4.0, 6), phi_steps=256)
        buf = io.StringIO()
        emit_figure_data(req2, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        norm = {}
        for s2, phi, i_phi, fid, nd in rows:
            norm.setdefault(s2, []).append(float(nd))
        for vals in norm.values():
            assert min(vals) >= -1e-12
            assert min(vals) < 1e-3  # grid resolution; refined min is ~0

        req3 = FigureRequest(Figure.FIG3, s2_range=(1.0, 3.0, 6), phi_steps=256)
        buf = io.StringIO()
        emit_figure_data(req3, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert min(float(r[4]) for r in rows) > 1e-3


def rowwise_figure_csv(req):
    """The figure CSV formatted one row at a time, five reprs per row: the byte reference."""
    g1, g2, s1, theta_tilde = req.fixed
    lo, hi, steps = req.s2_range
    out = ["s2,phi,I_phi,F,norm_diff\n"]
    phis = np.linspace(0.0, math.pi, req.phi_steps, endpoint=False)
    p1 = GaussianParams(g1, s1, 0.0)
    for s2 in np.linspace(lo, hi, steps):
        p2 = GaussianParams(g2, float(s2), theta_tilde)
        fid = fidelity_params(p1, p2).fidelity
        vals = overlap_grid(p1, p2, phis)
        for phi, val in zip(phis, vals):
            cells = (s2, phi, val, fid, (val - fid) / fid)
            out.append(",".join(repr(float(x)) for x in cells) + "\n")
    return "".join(out)


class TestFigureBytes:
    @pytest.mark.parametrize("which", list(Figure))
    @pytest.mark.parametrize("grid", [None, ((1.0, 5.0, 7), 33)], ids=["default", "7x33"])
    def test_matches_rowwise_formatter(self, which, grid):
        if grid is None:
            req = FigureRequest(which)
        else:
            req = FigureRequest(which, s2_range=grid[0], phi_steps=grid[1])
        buf = io.StringIO()
        emit_figure_data(req, buf)
        got, want = buf.getvalue(), rowwise_figure_csv(req)
        if got != want:  # name the first differing row, not a 13 MB diff
            pairs = zip(got.splitlines(), want.splitlines())
            row, (line, ref) = next((k, lr) for k, lr in enumerate(pairs) if lr[0] != lr[1])
            pytest.fail(f"row {row}: {line!r} != {ref!r}")
        assert got == want


class TestOracleCheckCommand:
    def test_explicit_pair(self, tmp_path, vac):
        coh = write_state(tmp_path, "coh.json", GaussianParams(1.0, 1.0, 0.0, 1.0, 0.0))
        code, out = run_cli(["oracle-check", "--a", vac, "--b", coh, "--dim", "60"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,")
        assert lines[1].endswith(",pass")

    def test_numeric_failure_exits_1(self, tmp_path, vac, monkeypatch, capsys):
        # a state with a clearly negative eigenvalue is a numeric failure of
        # the oracle, not invalid user input
        import numpy as np

        from gdist import FockOperator, validation

        broken = FockOperator(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
        monkeypatch.setattr(validation, "build_state", lambda p, dim: broken)
        code, _ = run_cli(["oracle-check", "--a", vac, "--b", vac, "--dim", "4"])
        assert code == 1
        assert "numeric failure" in capsys.readouterr().err

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


class TestColdImports:
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
            ["solve-s2", "--g1", "2.0", "--g2", "4.0", "--s1", "2.0", "--theta", "1.0471975511965976"],
            ["profile", *pair, "--steps", "16"],
            ["povm-scan", *pair, "--r-steps", "4", "--theta-steps", "8"],
            ["figure", "--which", "fig4", "--s2-steps", "3", "--phi-steps", "8"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import gdist, gdist.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gdist.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "G = gdist.GaussianParams\n"
            "p1, p2 = G(1.5, 2.0, 0.3), G(2.0, 1.5, 1.1, 0.4, -0.2)\n"
            "fid = gdist.fidelity_fock(gdist.build_state(p1, 80), gdist.build_state(p2, 80))\n"
            "print(fid - gdist.fidelity_params(p1, p2).fidelity)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(gdist.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded, fid_dev, linalg_loaded = proc.stdout.splitlines()
        assert loaded == "[]"
        # the deferred import inside the Fock oracle still runs on first use
        assert abs(float(fid_dev)) < 1e-8
        assert linalg_loaded == "True"


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
