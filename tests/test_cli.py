import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traceinv
from traceinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_trace_identity(tmp_path, capsys):
    matrix = tmp_path / "eye.csv"
    np.savetxt(matrix, np.eye(3), delimiter=",")
    code, out = run(capsys, "trace", "--matrix", str(matrix), "--t", "0",
                    "--method", "cholesky", "--out", str(tmp_path / "o"))
    assert code == 0
    records = json.loads((tmp_path / "o" / "trace_estimates.json").read_text())
    assert records[0]["value"] == 3.0
    assert records[0]["t"] == 0.0


def test_trace_diagonal_file(tmp_path, capsys):
    matrix = tmp_path / "d.csv"
    np.savetxt(matrix, np.diag([2.0, 4.0]), delimiter=",")
    code, out = run(capsys, "trace", "--matrix", str(matrix), "--t", "0",
                    "--out", str(tmp_path / "o"))
    assert code == 0
    records = json.loads((tmp_path / "o" / "trace_estimates.json").read_text())
    assert records[0]["value"] == pytest.approx(0.75, rel=1e-14)


def test_trace_kernel_cross_method(tmp_path, capsys):
    code, _ = run(capsys, "trace", "--kernel", "10,0.1", "--t", "0.5",
                  "--method", "cholesky,slq", "--nv", "30", "--degree", "30",
                  "--seed", "3", "--out", str(tmp_path / "o"))
    assert code == 0
    records = json.loads((tmp_path / "o" / "trace_estimates.json").read_text())
    exact = next(r for r in records if r["method"] == "exact-cholesky")
    slq = next(r for r in records if r["method"] == "slq")
    tol = 3 * slq["std_error"] + 1e-9 * exact["value"]
    assert abs(slq["value"] - exact["value"]) <= tol


def test_single_probe_std_error_is_null(tmp_path, capsys):
    code, out = run(capsys, "trace", "--kernel", "4,0.2", "--t", "0",
                    "--method", "hutchinson", "--nv", "1", "--out", str(tmp_path / "o"))
    assert code == 0
    records = json.loads((tmp_path / "o" / "trace_estimates.json").read_text())
    assert records[0]["std_error"] is None
    assert "std_error=nan" in out


def test_manifest_written_and_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = run(capsys, "trace", "--kernel", "4,0.2", "--t", "0,1",
                      "--method", "hutchinson", "--nv", "20", "--seed", "9",
                      "--out", str(tmp_path / sub))
        assert code == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "trace"
    assert manifest["config"]["seed"] == 9
    assert "version" in manifest
    first = (tmp_path / "a" / "trace_estimates.json").read_text()
    second = (tmp_path / "b" / "trace_estimates.json").read_text()
    assert first == second


def test_interpolate_bound_sweep_matches_closed_form(tmp_path, capsys):
    matrix = tmp_path / "d.csv"
    np.savetxt(matrix, np.diag([1.0, 2.0]), delimiter=",")
    code, _ = run(capsys, "interpolate", "--matrix", str(matrix),
                  "--variant", "bound", "--sweep", "1e-2,1e2,9,log",
                  "--out", str(tmp_path / "o"))
    assert code == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t,tau_exact,tau_interp,rel_error"
    tau0 = 0.75
    for line in lines[1:]:
        t, _, interp, _ = map(float, line.split(","))
        assert interp == pytest.approx(tau0 / (1 + t * tau0), rel=1e-14)


def test_interpolate_nodes_reproduced(tmp_path, capsys):
    matrix = tmp_path / "d.csv"
    np.savetxt(matrix, np.diag([1.0, 2.0, 5.0]), delimiter=",")
    code, out = run(capsys, "interpolate", "--matrix", str(matrix),
                    "--variant", "basis", "--nodes", "0.1,1,10",
                    "--out", str(tmp_path / "o"))
    assert code == 0
    assert "node_failures=0" in out
    record = json.loads((tmp_path / "o" / "interpolant.json").read_text())
    assert record["variant"] == "basis" and record["p"] == 3
    assert len(record["coefficients"]) == 3


def test_interpolate_rational(tmp_path, capsys):
    matrix = tmp_path / "d.csv"
    np.savetxt(matrix, np.diag([1.0, 2.0, 5.0]), delimiter=",")
    code, _ = run(capsys, "interpolate", "--matrix", str(matrix),
                  "--variant", "rational", "--nodes", "0.01,0.1,1,10",
                  "--out", str(tmp_path / "o"))
    assert code == 0
    record = json.loads((tmp_path / "o" / "interpolant.json").read_text())
    assert record["variant"] == "rational" and record["p"] == 2


def test_gp_experiment_linear_sweep(tmp_path, capsys):
    code, _ = run(capsys, "gp-experiment", "--side", "4", "--nodes", "0.1,1,10", "--p", "1",
                  "--sweep", "1,10,3,lin", "--out", str(tmp_path / "o"))
    assert code == 0
    rows = (tmp_path / "o" / "gp_curves.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [1.0, 5.5, 10.0]


def test_ortho_table(tmp_path, capsys):
    code, out = run(capsys, "ortho", "--p", "9", "--out", str(tmp_path / "o"))
    assert code == 0
    data = json.loads((tmp_path / "o" / "ortho_coefficients.json").read_text())
    assert data["coefficients"][8] == [825, -13200, 90090, -336336, 750750,
                                       -1029600, 850850, -388960, 75582]
    assert "+sqrt(2/10)" in out


def test_gp_experiment_small(tmp_path, capsys):
    code, out = run(capsys, "gp-experiment", "--side", "5", "--rho", "0.1",
                    "--nodes", "0.01,0.1,1,10", "--p", "4",
                    "--sweep", "1e-2,10,8,log", "--out", str(tmp_path / "o"))
    assert code == 0
    header = (tmp_path / "o" / "gp_curves.csv").read_text().splitlines()[0]
    assert header.startswith("t,tau_exact,tau_upper,tau_lower")
    summary = json.loads((tmp_path / "o" / "gp_summary.json").read_text())
    assert summary["n"] == 25
    assert summary["max_rel_error"]["4"] < 0.01


def test_gcv_experiment_small(tmp_path, capsys):
    code, out = run(capsys, "gcv-experiment", "--n", "80", "--m", "40",
                    "--seed", "5", "--mode", "exact,rational2",
                    "--curve-points", "40", "--out", str(tmp_path / "o"))
    assert code == 0
    rows = json.loads((tmp_path / "o" / "gcv_results.json").read_text())
    modes = {row["interpolation"] for row in rows}
    assert modes == {"none", "rational_p2"}
    p2 = next(r for r in rows if r["interpolation"] == "rational_p2")
    assert p2["n_tr"] == 5 and "error_vs_exact" in p2
    curve = (tmp_path / "o" / "gcv_curve.csv").read_text().splitlines()
    assert curve[0] == "theta,v_exact"
    assert len(curve) >= 40


def test_gcv_experiment_method_list(tmp_path, capsys):
    code, _ = run(capsys, "gcv-experiment", "--n", "80", "--m", "40", "--seed", "5",
                  "--mode", "exact,rational1", "--method", "cholesky,hutchinson",
                  "--max-generations", "3", "--out", str(tmp_path / "o"))
    assert code == 0
    rows = json.loads((tmp_path / "o" / "gcv_results.json").read_text())
    assert [(r["method"], r["interpolation"]) for r in rows] == [
        ("cholesky", "none"), ("cholesky", "rational_p1"),
        ("hutchinson", "none"), ("hutchinson", "rational_p1")]
    assert all(r["n_generations"] <= 3 for r in rows)
    for exact, interp in (rows[0:2], rows[2:4]):
        assert "error_vs_exact" not in exact
        expected = abs(np.log10(interp["theta_star"] / exact["theta_star"]))
        expected /= abs(np.log10(exact["theta_star"]))
        assert interp["error_vs_exact"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("matrix, message", [([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
                                             ([[2.0, 1.0], [0.0, 2.0]], "not symmetric")])
def test_refused_input_is_one_line_with_status_2(tmp_path, capsys, matrix, message):
    # status 1 means a failed check; refused input is a usage error, without a traceback
    path = tmp_path / "m.csv"
    np.savetxt(path, np.array(matrix), delimiter=",")
    code = main(["trace", "--matrix", str(path), "--t", "0", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("traceinv: error: ") and message in err
    assert err.count("\n") == 1


def test_non_finite_shift_is_refused_input(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["trace", "--kernel", "4,0.1", "--t", "nan,1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "traceinv: error: shift t=nan is not finite\n"
    assert not (out / "manifest.json").exists()


def test_unknown_gcv_method_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gcv-experiment", "--method", "cholesky,eigen", "--out", str(tmp_path)])


def test_check_inequalities(tmp_path, capsys):
    code, out = run(capsys, "check-inequalities", "--trials", "25", "--n", "8",
                    "--seed", "2", "--out", str(tmp_path / "o"))
    assert code == 0
    report = json.loads((tmp_path / "o" / "inequality_report.json").read_text())
    assert report["passed"] is True


def test_threads_flag_accepted(tmp_path, capsys):
    code, _ = run(capsys, "--threads", "1", "ortho", "--p", "2",
                  "--out", str(tmp_path / "o"))
    assert code == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_threads_below_one_refused(tmp_path, capsys, count):
    # OpenBLAS reads a count of 0 or less as all cores, the opposite of a cap
    with pytest.raises(SystemExit) as refused:
        main(["--threads", count, "check-inequalities", "--trials", "2",
              "--out", str(tmp_path / "o")])
    assert refused.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_negative_max_generations_refused(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as refused:
        main(["gcv-experiment", "--n", "40", "--m", "20", "--max-generations", count,
              "--out", str(tmp_path / "o")])
    assert refused.value.code == 2
    assert "--max-generations: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sweep", ["1e-2,1,0", "1e-2,1,-4,lin", "0,1,5", "-1,1,5,log"])
def test_empty_or_invalid_sweep_refused(tmp_path, capsys, sweep):
    # a count below 1 made an empty curve, and log spacing from MIN <= 0 made NaN shifts
    with pytest.raises(SystemExit) as refused:
        main(["gp-experiment", "--side", "4", f"--sweep={sweep}", "--out", str(tmp_path / "o")])
    assert refused.value.code == 2
    assert "--sweep: needs COUNT >= 1, and MIN > 0 if log" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["interpolate", "--kernel", "4,0.1", "--variant", "rational", "--p", "-1"],
     "--p: must be at least 0, got -1"),
    (["gcv-experiment", "--n", "40", "--m", "20", "--curve-points", "-3"],
     "--curve-points: must be at least 0, got -3"),
    (["trace", "--t", "0", "--kernel", "5"], "--kernel: takes SIDE,RHO, got 5"),
    (["trace", "--t", "0", "--kernel", "5,x"], "--kernel: takes SIDE,RHO, got 5,x"),
    (["trace", "--t", "0", "--design", "10,5"], "--design: takes N,M,SEED, got 10,5"),
    (["trace", "--t", "0", "--design", "10,5,0.5"], "--design: takes N,M,SEED, got 10,5,0.5")],
    ids=["p", "curve-points", "kernel-arity", "kernel-number", "design-arity", "design-number"])
def test_malformed_option_refused(tmp_path, capsys, argv, message):
    # a usage error (status 2) before any work, never a traceback with status 1
    with pytest.raises(SystemExit) as refused:
        main([*argv, "--out", str(tmp_path / "o")])
    assert refused.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def run_python(*args):
    """Run a fresh interpreter that imports this same traceinv package."""
    src = str(Path(traceinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_import_leaves_blas_unloaded():
    # --threads only takes effect if BLAS is loaded after main() sets the environment
    out = run_python("-c", "import sys, traceinv.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_results_agree_across_thread_counts(tmp_path):
    # order 400 factors on one thread at any count, so bit for bit; order 1089 is above
    # ONE_THREAD_MAX_ORDER, where BLAS's blocking sets the order of the sums and the promise
    # is rounding level: reordered rounding errors grow like sqrt(n) ulps, so allow
    # 4 sqrt(n) eps, 2.9e-14 (one ulp measured at t = 0.5 on one OpenBLAS build)
    rounding = 4.0 * np.sqrt(33**2) * np.finfo(float).eps
    for kernel, cholesky_rel in (("20,0.1", 0.0), ("33,0.1", rounding)):
        values = {}
        for threads in ("1", "2"):
            out = tmp_path / kernel / threads
            run_python("-m", "traceinv.cli", "--threads", threads, "trace", "--kernel", kernel,
                       "--t", "0,0.5,10", "--method", "cholesky,slq,hutchinson", "--out", str(out))
            records = json.loads((out / "trace_estimates.json").read_text())
            values[threads] = [(r["t"], r["method"], r["value"]) for r in records]
        assert len(values["1"]) == 9
        for (t, method, one), (t2, method2, two) in zip(values["1"], values["2"]):
            assert (t, method) == (t2, method2)
            if method == "exact-cholesky" and not cholesky_rel:
                assert two.hex() == one.hex()
            else:
                rel = cholesky_rel if method == "exact-cholesky" else 1e-6
                assert abs(two / one - 1.0) <= rel, (kernel, t, method)
