"""Command line behavior: outputs, manifests, exit codes, reproducibility."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import renyiconv
from renyiconv import cli, grid, solver
from renyiconv.grid import read_csv
from renyiconv.solver import SolverConfig, initial_iterate, iterate_once


def run(argv):
    return cli.main(argv)


def run_process(argv):
    """The CLI in a fresh interpreter, with this checkout's package first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(renyiconv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "renyiconv.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def argv_id(value):
    """A case's test id: its argv joined, never its expected message."""
    return " ".join(value) if isinstance(value, list) else ""


def load(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestExactBytes:
    """sha256 of exact-lane outputs, recorded before iterate and solve
    shared one iteration loop.  Every value in these files is an exact
    rational or a correctly rounded float of one, so the digests do not
    depend on FFT roundoff or the platform."""

    def test_iterate_exact_steps_3(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["iterate", "--mode", "exact", "--steps", "3", "--out", out]) == 0
        assert sha256(os.path.join(out, "steps.json")) == \
            "44b99f50d9df2b3ad6c1fcf0008bf326a2ff17293e8ed01b7ca4e503ba4ae73c"
        assert sha256(os.path.join(out, "f3.json")) == \
            "bc08238853fb2061a34a8366c2e40f123b054038f34bc11d6e5eebd00c72f186"
        assert sha256(os.path.join(out, "f3.csv")) == \
            "14fe0dcf017daacb66131b37f45badd2f2e002865103b4ebc7bc99e7671433fc"

    def test_iterate_exact_steps_4(self, tmp_path):
        # the degree-80 iterate; digests as recorded in perfbench/reference.json
        out = str(tmp_path / "o")
        assert run(["iterate", "--mode", "exact", "--steps", "4", "--out", out]) == 0
        assert sha256(os.path.join(out, "f4.csv")) == \
            "e2cbb5e8a09dc6f91db0035a85c3df2da6b6a42a290fcbb9fec8b65fd085509f"

    def test_solve_exact_default(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["solve", "--mode", "exact", "--out", out]) == 0
        assert sha256(os.path.join(out, "solution.json")) == \
            "056ff68ee0b9c522d2a7716345050ce2d2b83bcbbb1f63edc802977ac83e1ff6"
        assert sha256(os.path.join(out, "solution.csv")) == \
            "e2cbb5e8a09dc6f91db0035a85c3df2da6b6a42a290fcbb9fec8b65fd085509f"
        # sup steps of the iterates sampled at the float nodes -1 + k/1000
        assert sha256(os.path.join(out, "history.json")) == \
            "bce12d86583e83d6dc0f49a33236967353239945d2d94d23772583afaaca342d"

    def test_solve_exact_max_iter_3(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["solve", "--mode", "exact", "--max-iter", "3", "--out", out]) == 0
        assert sha256(os.path.join(out, "history.json")) == \
            "1741aa533ced5280b46d847bc90bd3d775c13c5003d3c23e0b377d8cf036ed5c"


@pytest.mark.parametrize("argv", [
    ["solve", "--tol", "0"],
    ["solve", "--dx", "0.3"],
    ["solve", "--max-iter", "-1"],
    ["solve", "--n", "1"],
    ["solve", "--mode", "exact", "--n", "3"],
    ["compare", "--p", "1"],
    ["iterate", "--mode", "grid", "--dx", "0.3"],
    ["counterexample", "--grid-check", "--dx", "0.03"],
    ["gengauss", "--dx", "0"],
    ["gengauss", "--M", "1e300", "--p", "1.01"],
    # M at the ends of the float range: the rescaling of the fixed point,
    # or the generalized Gaussian, would leave it
    ["compare", "--n", "2", "--p", "2", "--M", "1e300", "--dx", "0.01"],
    ["compare", "--n", "2", "--p", "1.5", "--M", "1e-300", "--dx", "0.01"],
    ["compare", "--n", "2", "--p", "1.5", "--M", "1e300", "--dx", "0.01"],
    ["compare", "--n", "2", "--p", "1.5", "--M", "1e100", "--dx", "0.01"],
    ["gengauss", "--M", "inf"],
    ["gengauss", "--beta", "inf"],
    # grids beyond the generalized Gaussian's node limit
    ["gengauss", "--p", "3", "--M", "1e-150"],
    ["gengauss", "--beta", "1e-10"],
    ["compare", "--n", "2", "--p", "3", "--M", "1e-150", "--dx", "0.01"],
], ids=" ".join)
def test_invalid_flag_values_exit_2(tmp_path, argv):
    # run as a process, as a user would, so a traceback would be visible
    proc = run_process(argv + ["--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["gengauss", "--p", "inf"], "p must be finite, got inf"),
    (["solve", "--p", "inf"], "p must be finite, got inf"),
    (["compare", "--p", "inf"], "p must be finite, got inf"),
    (["solve", "--dx", "inf"], "dx must divide 1 so that 0 and +-1 are grid nodes"),
    (["compare", "--dx", "inf"], "dx must divide 1 so that 0 and +-1 are grid nodes"),
    (["iterate", "--mode", "grid", "--dx", "inf"], "dx must divide 1 so that 0 and +-1 are grid nodes"),
    (["solve", "--mode", "exact", "--dx", "inf"], "dx must divide 1 so that 0 and +-1 are grid nodes"),
], ids=argv_id)
def test_infinite_p_or_dx_exits_2_naming_it(tmp_path, capsys, argv, message):
    # gengauss --p inf once wrote NaN for lp_mass and renyi_entropy and exited 0
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


GRID_LIMIT = "16777216 grid nodes"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--mode", "grid", "--dx", "1e-12"], f"dx = 1e-12 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["iterate", "--mode", "grid", "--dx", "1e-12"], f"dx = 1e-12 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["compare", "--dx", "1e-12"], f"dx = 1e-12 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["solve", "--mode", "grid", "--dx", "5e-324"], f"dx = 5e-324 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["solve", "--mode", "exact", "--dx", "1e-12"], f"dx = 1e-12 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["counterexample", "--grid-check", "--dx", "1e-12"], f"dx = 1e-12 needs more than {GRID_LIMIT} on [-1, 1]"),
    (["counterexample", "--grid-check", "--dx", "1e-300"], f"dx = 1e-300 needs more than {GRID_LIMIT} on [-1, 1]"),
], ids=argv_id)
def test_grid_beyond_the_node_limit_exits_2_naming_dx(tmp_path, capsys, argv, message):
    # these once ended in numpy's _ArrayMemoryError, or its bare
    # "Maximum allowed size exceeded", with exit 1
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "exact", "--max-iter", "6"],
    ["iterate", "--mode", "exact", "--steps", "7"],
], ids=" ".join)
def test_an_exact_budget_past_f5_exits_2_naming_the_degree(tmp_path, capsys, argv):
    # solve --max-iter 6 reads C_3 of f6 in its final fit, and iterate
    # --steps 7 builds it for f7: both once ran for minutes
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: exact runs build C_3 of f0 .. f5 only, not of f6, of degree 3^6 - 1 = 728\n"
    assert os.listdir(out) == []


def test_iterate_steps_6_is_within_the_exact_budget(tmp_path, monkeypatch):
    # f6 needs C_3 of f5 only; the updates themselves are left out here
    monkeypatch.setattr(cli, "iterations", lambda *args: iter(()))
    assert run(["iterate", "--mode", "exact", "--steps", "6", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("dx", ["inf", "0.0007", "1e-12", "5e-324", "1e-300"])
def test_a_bad_dx_gets_one_message_in_every_lane(tmp_path, capsys, dx):
    # grid.unit_nodes lays out and checks [-1, 1] for every lane; the
    # exact solve and --grid-check once spelled these their own way, and
    # --grid-check --dx 5e-324 ended in an OverflowError traceback
    with pytest.raises(ValueError) as exc:
        grid.unit_nodes(float(dx))
    lanes = (["solve", "--mode", "grid"], ["solve", "--mode", "exact"], ["iterate", "--mode", "grid"],
             ["compare"], ["counterexample", "--grid-check"])
    for k, argv in enumerate(lanes):
        out = tmp_path / str(k)
        assert run(argv + ["--dx", dx, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert os.listdir(out) == []


@pytest.mark.parametrize("dx", ["0.0007", "0.3"])
def test_exact_solve_refuses_a_dx_that_does_not_divide_1_before_iterating(tmp_path, capsys, monkeypatch, dx):
    # these once ran all four exact updates, then exited 2 with
    # "x = -1.0 is not a grid node", which names neither dx nor the flag
    def no_updates(*args, **kwargs):
        raise AssertionError("iterated before refusing dx")

    monkeypatch.setattr(solver, "iterations", no_updates)
    out = tmp_path / "o"
    assert run(["solve", "--mode", "exact", "--dx", dx, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: dx must divide 1 so that 0 and +-1 are grid nodes\n"
    assert os.listdir(out) == []


def test_gengauss_infinite_dx_exits_2_without_a_warning(tmp_path):
    # dx = inf once reached numpy as inf * 0: a RuntimeWarning, then
    # "values must be finite", which does not name dx
    out = tmp_path / "o"
    proc = run_process(["gengauss", "--dx", "inf", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: dx must be positive and finite, got inf\n"
    assert "Warning" not in proc.stderr
    assert not os.path.exists(out / "gengauss.json")


def test_el_residual_beyond_float_range_exits_2(tmp_path):
    # a solution the CLI wrote (lam overflows), and a density of mass 0.3,
    # for which M * mass^p underflows to 0
    assert run(["solve", "--p", "1.5", "--dx", "0.01", "--out", str(tmp_path / "s")]) == 0
    light = tmp_path / "light.csv"
    light.write_text("x,value\n" + "".join(f"{k / 100},0.15\n" for k in range(-100, 101)))
    for csv, p, M in [(tmp_path / "s" / "solution.csv", "1.5", "1e-300"), (light, "2", "5e-324")]:
        proc = run_process(["el-residual", "--input", str(csv), "--p", p, "--M", M, "--out", str(tmp_path / "e")])
        assert proc.returncode == 2
        assert proc.stderr == f"error: M = {float(M)} at p = {float(p)} rescales the density beyond the float range\n"
        assert not os.path.exists(tmp_path / "e" / "manifest.json")


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "grid", "--p", "1100", "--dx", "0.01"],
    ["compare", "--p", "5000", "--dx", "0.01"],
    ["solve", "--mode", "grid", "--p", "1012", "--dx", "0.01"],
], ids=" ".join)
def test_a_p_whose_kernel_overflows_exits_2_naming_it(tmp_path, argv):
    # the p != 2 kernel raises C_n to the power p - 1, and C_2 of the
    # indicator peaks at 2; at p = 1012 the power is finite but its
    # product with C_1 is not.  These once printed numpy's overflow
    # RuntimeWarning, then "values must be finite"
    out = tmp_path / "o"
    proc = run_process(argv + ["--out", str(out)])
    p = float(argv[argv.index("--p") + 1])
    assert proc.returncode == 2
    assert proc.stderr == f"error: p = {p} takes the stationarity kernel beyond the float range\n"
    assert "Warning" not in proc.stderr
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv, code, stderr", [
    (["compare", "--p", "155", "--dx", "0.01"], 0, ""),
    (["compare", "--p", "400", "--dx", "0.01"], 0, ""),
    (["compare", "--n", "2", "--p", "2", "--M", "1e300", "--dx", "0.01"], 2,
     "error: M = 1e+300 at p = 2.0 rescales the density beyond the float range\n"),
    (["compare", "--p", "5000", "--dx", "0.01"], 2,
     "error: p = 5000.0 takes the stationarity kernel beyond the float range\n"),
], ids=argv_id)
def test_rescaling_guard_bounds_the_spectra_and_the_peak(tmp_path, argv, code, stderr):
    # the guard once charged (n + p - 2) |log(lam dx)|, as if one sample held
    # all the mass, and refused p = 155 although every number was a float
    proc = run_process(argv + ["--out", str(tmp_path / "o")])
    assert (proc.returncode, proc.stderr) == (code, stderr)


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "48", "--dx", "1e-3"],
    ["compare", "--n", "100", "--dx", "0.01"],
    ["solve", "--n", "150", "--p", "3", "--dx", "0.01"],
], ids=" ".join)
def test_an_n_whose_kernel_overflows_exits_2_naming_it(tmp_path, argv):
    # the unscaled product of the kernel's spectra peaks near (1/dx)^(2n-1)
    # at p = 2 and (1/dx)^n otherwise.  These once printed numpy's overflow
    # and invalid-value RuntimeWarnings, then "values must be finite"
    out = tmp_path / "o"
    proc = run_process(argv + ["--out", str(out)])
    n, dx = int(argv[argv.index("--n") + 1]), float(argv[argv.index("--dx") + 1])
    assert proc.returncode == 2
    assert proc.stderr == f"error: n = {n} at dx = {dx} takes the update kernel beyond the float range\n"
    assert os.listdir(out) == []


def test_compare_at_an_n_whose_gengauss_objective_overflows_exits_2(tmp_path):
    # a large M narrows the generalized Gaussian, which compare samples
    # finer than --dx: its C_40 overflowed where the fixed point's did not
    out = tmp_path / "o"
    proc = run_process(["compare", "--n", "40", "--p", "3", "--M", "1e10", "--dx", "0.01", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: n = 40 at dx = ")
    assert proc.stderr.endswith(" takes C_n beyond the float range\n") and proc.stderr.count("\n") == 1
    assert os.listdir(out) == []


def test_el_residual_at_an_n_whose_stationarity_kernel_overflows_exits_2(tmp_path):
    # a feasible density is scored as it is, with no rescaling guard before C_n
    csv = tmp_path / "flat.csv"
    csv.write_text("x,value\n" + "".join(f"{k / 100!r},{1 / 2.01!r}\n" for k in range(-100, 101)))
    M = read_csv(str(csv)).lp_mass(2)
    out = tmp_path / "o"
    proc = run_process(["el-residual", "--input", str(csv), "--n", "200", "--M", repr(M), "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: n = 200 at dx = 0.01 takes the stationarity kernel beyond the float range\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("value, n", [("1", "400"), ("0.25", "1500")])
def test_el_residual_scores_an_n_whose_predicted_ratio_leaves_the_float_range(tmp_path, value, n):
    # mass^(p(n-1)) of the rescaling's predicted ratio, which no command
    # reads, once overflowed (mass 3) or underflowed to a division by 0
    # (mass 3/4): a traceback, exit 1
    csv = tmp_path / "three.csv"
    csv.write_text(f"x,value\n-1,{value}\n0,{value}\n1,{value}\n")
    out = tmp_path / "o"
    proc = run_process(["el-residual", "--input", str(csv), "--M", "0.5", "--n", n, "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert os.path.exists(out / "el_residual.json")


def test_el_residual_of_values_whose_power_overflows_exits_2_without_a_warning(tmp_path):
    # lp_mass's 1e300^2 once printed numpy's overflow RuntimeWarning first
    csv = tmp_path / "tall.csv"
    csv.write_text("x,value\n-1,1e300\n0,1e300\n1,1e300\n")
    out = tmp_path / "o"
    proc = run_process(["el-residual", "--input", str(csv), "--M", "0.5", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: M = 0.5 at p = 2.0 rescales the density beyond the float range\n"
    assert os.listdir(out) == []


def test_el_residual_of_values_whose_sum_overflows_exits_2(tmp_path):
    # grid.exact_sum's OverflowError once ended in a traceback, exit 1
    csv = tmp_path / "huge.csv"
    csv.write_text("x,value\n-1,1e308\n0,1e308\n1,1e308\n")
    out = tmp_path / "o"
    proc = run_process(["el-residual", "--input", str(csv), "--M", "0.5", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == "error: the density's samples sum beyond the float range\n"
    assert os.listdir(out) == []


def test_out_naming_a_file_exits_2(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    proc = run_process(["counterexample", "--out", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot use --out {path}: ")
    assert "Traceback" not in proc.stderr
    assert path.read_text() == ""


class TestIterate:
    def test_exact_step_zero_echoes_indicator(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["iterate", "--mode", "exact", "--steps", "0", "--out", out]) == 0
        d = load(os.path.join(out, "f0.json"))
        assert d["coefficients"] == ["1/1"]
        assert d["support"] == ["-1/1", "1/1"]
        assert d["pieces"] == {"breakpoints": ["-1/1", "1/1"], "pieces": [["1/1"]]}

    def test_exact_steps_write_json_and_csv(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["iterate", "--mode", "exact", "--steps", "2", "--out", out]) == 0
        f1 = load(os.path.join(out, "f1.json"))
        assert f1["coefficients"] == ["1/1", "0/1", "-1/1"]
        f2 = load(os.path.join(out, "f2.json"))
        assert f2["coefficients"][0] == "1/1"
        for j in range(3):
            g = read_csv(os.path.join(out, f"f{j}.csv"))
            assert len(g) == 2001
            assert g.x0 == -1.0
        man = load(os.path.join(out, "manifest.json"))
        assert man["command"] == "iterate"
        assert "steps.json" in man["outputs"]
        assert set(man["config"]) >= {"mode", "steps", "dx"}

    def test_grid_mode_step_decay_is_monotone(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["iterate", "--mode", "grid", "--steps", "6",
                    "--dx", "0.001", "--out", out]) == 0
        log = load(os.path.join(out, "steps.json"))
        sups = [float(e["sup_step"]) for e in log]
        assert len(sups) == 6
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_negative_steps_exit_2(self, tmp_path):
        assert run(["iterate", "--steps", "-1", "--out", str(tmp_path / "o")]) == 2

    def test_invalid_mode_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["iterate", "--mode", "spectral", "--out", str(tmp_path / "o")])
        assert e.value.code == 2

    def test_exact_rerun_is_byte_identical(self, tmp_path):
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(["iterate", "--mode", "exact", "--steps", "2", "--out", o1])
        run(["iterate", "--mode", "exact", "--steps", "2", "--out", o2])
        for name in ("f0.json", "f1.json", "f2.json", "f1.csv", "steps.json"):
            with open(os.path.join(o1, name), "rb") as fh1, \
                    open(os.path.join(o2, name), "rb") as fh2:
                assert fh1.read() == fh2.read()


class TestSolve:
    def test_grid_solve_writes_solution(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["solve", "--mode", "grid", "--dx", "0.001", "--out", out]) == 0
        d = load(os.path.join(out, "solution.json"))
        assert d["converged"] is True
        assert float(d["final_step_sup"]) < 1e-10
        assert float(d["el_residual_sup"]) < 1e-6
        g = read_csv(os.path.join(out, "solution.csv"))
        assert len(g) == 2001
        hist = load(os.path.join(out, "history.json"))
        assert d["iterations"] == len(hist)

    def test_max_iter_exhaustion_exits_3_with_partial(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["solve", "--mode", "grid", "--dx", "0.001",
                    "--max-iter", "2", "--out", out]) == 3
        assert capsys.readouterr().err == "error: no convergence after 2 iterations (last step 8.155e-02)\n"
        d = load(os.path.join(out, "solution.json"))
        assert d["converged"] is False
        assert d["iterations"] == 2


class TestElResidual:
    def test_scores_solver_output(self, tmp_path):
        out = str(tmp_path / "s")
        run(["solve", "--mode", "grid", "--dx", "0.001", "--out", out])
        out2 = str(tmp_path / "e")
        code = run(["el-residual", "--input", os.path.join(out, "solution.csv"),
                    "--n", "2", "--p", "2", "--M", "0.5", "--out", out2])
        assert code == 0
        d = load(os.path.join(out2, "el_residual.json"))
        assert float(d["sup_residual"]) < 1e-5
        assert float(d["fitted_scale"]) > 0

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["el-residual", "--input", str(tmp_path / "none.csv"),
                    "--M", "0.5", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", [
        "", "x,value\n0,1\n0.1\n", "x,value\n0,1\nnan,1\n0.2,1\n", "x,value\n0,1\n0.1,1\nnan,1\n",
        "x,value\n0,1\n   \n0.2,1\n",
    ], ids=["empty", "short-row", "nan-x", "nan-x-last", "blank-ish"])
    def test_malformed_input_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["el-residual", "--input", str(path), "--M", "0.5", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


class TestCounterexample:
    def test_writes_verdict(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["counterexample", "--out", out]) == 0
        d = load(os.path.join(out, "counterexample.json"))
        assert d["verdict"] is True
        assert d["x6_coefficient"] == "-9/640"
        assert d["affine_fit_a"] == "1553/4480"
        assert 0.01 < float(d["sup_affine_residual"]) < 0.05
        assert d["indicator_identity_holds"] is True

    def test_grid_check_field(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["counterexample", "--grid-check", "--out", out]) == 0
        d = load(os.path.join(out, "counterexample.json"))
        assert float(d["x6_grid_rel_error"]) < 1e-3


class TestGengauss:
    def test_alpha_for_unit_beta(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["gengauss", "--p", "2", "--beta", "1", "--out", out]) == 0
        d = load(os.path.join(out, "gengauss.json"))
        assert abs(float(d["alpha"]) - 0.75) < 1e-10
        g = read_csv(os.path.join(out, "gengauss.csv"))
        assert g.mass == pytest.approx(1.0, abs=1e-5)

    def test_m_flag(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["gengauss", "--p", "2", "--M", "0.5", "--out", out]) == 0
        d = load(os.path.join(out, "gengauss.json"))
        assert float(d["lp_mass"]) == pytest.approx(0.5, rel=1e-12)


class TestCompare:
    def test_ordering_holds(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["compare", "--p", "2", "--n", "2", "--M", "0.5",
                    "--out", out]) == 0
        d = load(os.path.join(out, "compare.json"))
        assert d["ordering_ok"] is True
        assert float(d["margin"]) > 1e-8
        assert float(d["I_fixed_point"]) > float(d["I_gengauss"])
        # smaller entropy of the sum is the equivalent statement
        assert float(d["hp_sum_fixed_point"]) < float(d["hp_sum_gengauss"])

    def test_one_transform_length(self, tmp_path, rfft_lengths, irfft_lengths):
        # the update kernel C_5 on f's nodes and the objective C_3 of the
        # fixed point both take L = 6075 >= 3 * 2000 + 1 (the exact
        # generalized Gaussian takes none); the pair chain took 4096 and 8192
        assert run(["compare", "--n", "3", "--p", "2", "--dx", "1e-3", "--out", str(tmp_path / "o")]) == 0
        assert set(rfft_lengths + irfft_lengths) == {6075}

    def test_default_m_uses_solution_norms(self, tmp_path):
        out = str(tmp_path / "o")
        assert run(["compare", "--out", out]) == 0
        d = load(os.path.join(out, "compare.json"))
        assert d["ordering_ok"] is True

    def test_narrow_gengauss_keeps_the_ordering(self, tmp_path):
        # at M = 5 the p = 1.5 generalized Gaussian has half-width 0.0276;
        # sampled at --dx 0.01 it sat on about 3 nodes, I_gengauss read
        # 3.8927 and the verdict flipped to a false exit 4
        margins = []
        for dx in ("0.01", "1e-3"):
            out = str(tmp_path / dx)
            assert run(["compare", "--n", "3", "--p", "1.5", "--M", "5", "--dx", dx, "--out", out]) == 0
            margins.append(float(load(os.path.join(out, "compare.json"))["margin"]))
        assert margins[0] > 0
        assert margins[0] == pytest.approx(margins[1], rel=1e-4)

    def test_regression_exits_4(self, tmp_path, monkeypatch):
        # force the ordering to fail to observe the regression signal
        import renyiconv.cli as cli_mod
        real = cli_mod.objective_I

        def flipped(f, n, p):
            return 1.0 / float(real(f, n, p))

        monkeypatch.setattr(cli_mod, "objective_I", flipped)
        out = str(tmp_path / "o")
        assert run(["compare", "--M", "0.5", "--out", out]) == 4
        d = load(os.path.join(out, "compare.json"))
        assert d["ordering_ok"] is False


def test_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch, capsys):
    """Every subcommand: the manifest names the files in --out, and there is
    none when a command wrote nothing."""
    def outputs(name):
        return sorted(f for f in os.listdir(tmp_path / name) if f != "manifest.json")

    solution = str(tmp_path / "solve" / "solution.csv")
    for name, argv, code in [
        ("iterate-exact", ["iterate", "--mode", "exact", "--steps", "1"], 0),
        ("iterate-grid", ["iterate", "--mode", "grid", "--steps", "2", "--dx", "0.01"], 0),
        ("solve", ["solve", "--dx", "0.01"], 0),
        ("solve-budget", ["solve", "--dx", "0.01", "--max-iter", "1"], 3),
        ("el-residual", ["el-residual", "--input", solution, "--M", "0.5"], 0),
        ("counterexample", ["counterexample"], 0),
        ("gengauss", ["gengauss", "--M", "0.5"], 0),
        ("compare", ["compare", "--dx", "0.01", "--M", "0.5"], 0),
    ]:
        assert run(argv + ["--out", str(tmp_path / name)]) == code
        man = load(tmp_path / name / "manifest.json")
        assert man["command"] == argv[0]
        assert man["outputs"] == outputs(name) != []

    for name, argv, code, stderr in [
        ("compare-no-fixed-point", ["compare", "--dx", "0.01", "--tol", "1e-30"], 3,
         "error: no convergence after 200 iterations (last step 4.441e-16)\n"),
        ("el-residual-unreadable", ["el-residual", "--input", str(tmp_path / "none.csv"), "--M", "0.5"], 2,
         f"error: cannot read {tmp_path / 'none.csv'}: "),
    ]:
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / name)]) == code
        assert os.listdir(tmp_path / name) == []
        assert capsys.readouterr().err.startswith(stderr)

    real = cli.objective_I
    monkeypatch.setattr(cli, "objective_I", lambda f, n, p: 1.0 / float(real(f, n, p)))
    assert run(["compare", "--dx", "0.01", "--M", "0.5", "--out", str(tmp_path / "compare-lost")]) == 4
    assert load(tmp_path / "compare-lost" / "manifest.json")["outputs"] == outputs("compare-lost")


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    run(["gengauss", "--out", str(tmp_path / "first")])
    built = []
    real_init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    assert run(["gengauss", "--out", str(tmp_path / "second")]) == 0
    assert built == []


class TestMisc:
    def test_seed_env_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RENYI_SEED", "7")
        run(["counterexample", "--out", str(tmp_path / "o")])
        assert "RENYI_SEED is ignored" in capsys.readouterr().err

    def test_no_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as e:
            run([])
        assert e.value.code == 2

    def test_plot_csv_round_trips(self, tmp_path):
        out = str(tmp_path / "o")
        run(["iterate", "--mode", "grid", "--steps", "1",
             "--dx", "0.001", "--out", out])
        g = read_csv(os.path.join(out, "f1.csv"))
        f1 = iterate_once(initial_iterate(SolverConfig(mode="grid", dx=1e-3))).f
        # the plot nodes are the iterate's own nodes at dx = 1e-3
        np.testing.assert_allclose(g.values, f1.values, rtol=0, atol=1e-12)
        assert g.x0 == -1.0 and g.x_end == 1.0

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        path = tmp_path / "g.csv"
        with pytest.raises(OSError):
            cli._write_plot_csv(str(path), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert os.listdir(tmp_path) == []
