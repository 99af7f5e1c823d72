import numpy as np
import pytest
import scipy.linalg

import traceinv.experiments
from traceinv import (
    InvalidShape,
    SpdMatrix,
    TraceInvError,
    shifted_operand,
    trace_inv_exact_cholesky,
)
from traceinv.experiments import (
    GCV_NODE_SETS,
    count_local_minima,
    exact_eigen_tau_fn,
    gcv_curve,
    gcv_experiment,
    gcv_theta_grid,
    gcv_value,
    gp_experiment,
    make_gcv_problem,
    relative_log_theta_error,
    select_nodes,
)

SMALL = dict(n=120, m=60, seed=5)
# The two-basin realization of the full-scale study.
FULL = dict(n=1000, m=500, seed=287)


@pytest.fixture(scope="module")
def small_problem():
    return make_gcv_problem(**SMALL)


def cholesky_numerator(problem, theta):
    """|z - X w|^2 / n with w from a Cholesky solve of the ridge system."""
    X, n = problem.design.matrix, problem.n
    shifted = problem.gram + n * theta * np.eye(problem.m)
    w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted, lower=True), X.T @ problem.z)
    residual = problem.z - X @ w
    return float(np.dot(residual, residual)) / n


def singular_value_numerator(problem, theta):
    """|z - X w|^2 / n from the design's SVD X = U [S V^T; 0], U Householder.

    With y = U z, the residual keeps y_i in full for i >= m and scales it by
    n theta / (s_i^2 + n theta) for i < m.
    """
    design, n, m = problem.design, problem.n, problem.m
    u = design.u
    y = problem.z - u * (2.0 * np.dot(u, problem.z) / np.dot(u, u))
    nt = n * theta
    shrink = nt / (design.singular_values() ** 2 + nt)
    return float(np.sum(y[m:] ** 2) + np.sum((shrink * y[:m]) ** 2)) / n


class TestNodeSelection:
    def test_full_set_passthrough(self):
        master = [1e-4, 1e-3, 1e-2]
        np.testing.assert_array_equal(select_nodes(master, 3), master)

    def test_single_node_is_the_middle(self):
        master = [1e-4, 4e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]
        np.testing.assert_array_equal(select_nodes(master, 1), [1e-1])

    def test_subsets_are_increasing(self):
        master = np.logspace(-4, 3, 9)
        for p in (2, 3, 5, 7):
            sel = select_nodes(master, p)
            assert sel.size == p and np.all(np.diff(sel) > 0)


class TestGpExperiment:
    def test_small_scale_run(self):
        res = gp_experiment(side=6, rho=0.1, nodes=(1e-2, 1e-1, 1.0, 10.0),
                            p_values=(1, 4), sweep=(1e-2, 10.0, 25))
        assert res.node_check_failures == 0
        assert res.max_rel_error(4) < res.max_rel_error(1)
        assert res.max_rel_error(4) < 0.01
        # bounds really bound the exact curve
        assert np.all(res.tau_exact <= res.tau_upper * (1 + 1e-12))
        assert np.all(res.tau_exact * 36 >= res.tau_lower * 36 * (1 - 1e-12))

    def test_curve_rows_schema(self):
        res = gp_experiment(side=4, rho=0.2, nodes=(0.1, 1.0), p_values=(2,),
                            sweep=(1e-1, 10.0, 5))
        header, rows = res.curve_rows()
        assert header[:4] == ["t", "tau_exact", "tau_upper", "tau_lower"]
        assert "tau_p2" in header and "rel_error_p2" in header
        assert len(rows) == 5 and len(rows[0]) == len(header)

    def test_random_sampling_mode(self):
        res = gp_experiment(side=4, rho=0.2, nodes=(0.1, 1.0), p_values=(2,),
                            sweep=(1e-1, 10.0, 5), sampling="random", seed=3)
        assert res.node_check_failures == 0

    def test_desk_scale_guard(self):
        with pytest.raises(Exception):
            gp_experiment(side=101)


class TestGcvProblem:
    def test_data_generation_shapes(self, small_problem):
        p = small_problem
        assert p.design.matrix.shape == (SMALL["n"], SMALL["m"])
        assert p.z.shape == (SMALL["n"],)
        assert p.beta_true.shape == (SMALL["m"],)
        assert p.sigma == 0.4 and p.s == 1e-3

    def test_generation_is_seeded(self):
        a = make_gcv_problem(**SMALL)
        b = make_gcv_problem(**SMALL)
        np.testing.assert_array_equal(a.z, b.z)

    def test_trace_identity(self, small_problem):
        # n - m + n*theta*trace((X^T X + n*theta I)^-1) equals the projector trace
        p = small_problem
        n, m = p.n, p.m
        X = p.design.matrix
        for theta in (1e-4, 1e-2, 0.5):
            inner = np.linalg.inv(X.T @ X + n * theta * np.eye(m))
            lhs = np.trace(np.eye(n) - X @ inner @ X.T)
            rhs = n - m + n * theta * np.trace(inner)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_denominator_against_eigen_oracle(self, small_problem):
        # exact-cholesky tau equals the singular-value closed form
        p = small_problem
        oracle = exact_eigen_tau_fn(p)
        A = p.shifted_gram
        ident = SpdMatrix.identity(p.m)
        for t in (0.0, 1e-2, 1.0):
            chol = trace_inv_exact_cholesky(shifted_operand(A, ident, t)).value / p.m
            assert chol == pytest.approx(oracle(t), rel=1e-10)

    def test_gcv_value_matches_projector_form(self, small_problem):
        p = small_problem
        n, m = p.n, p.m
        X = p.design.matrix
        oracle = exact_eigen_tau_fn(p)
        for theta in (1e-3, 1e-1):
            H = X @ np.linalg.inv(X.T @ X + n * theta * np.eye(m)) @ X.T
            resid = (np.eye(n) - H) @ p.z
            direct = (np.dot(resid, resid) / n) / (np.trace(np.eye(n) - H) / n) ** 2
            assert gcv_value(p, theta, oracle) == pytest.approx(direct, rel=1e-9)

    def test_asymptotes_to_constant(self, small_problem):
        p = small_problem
        oracle = exact_eigen_tau_fn(p)
        v1 = gcv_value(p, 1e3, oracle)
        v2 = gcv_value(p, 1e5, oracle)
        limit = float(np.dot(p.z, p.z)) / p.n
        assert v1 == pytest.approx(limit, rel=1e-2)
        assert v2 == pytest.approx(limit, rel=1e-4)

    @pytest.mark.parametrize("config", [SMALL, FULL], ids=["small", "full"])
    def test_numerator_matches_references_on_theta_grid(self, config):
        # the cached-spectrum closed form against a Cholesky ridge solve per
        # theta and against the singular-value closed form, same tau for all
        p = make_gcv_problem(**config)
        oracle = exact_eigen_tau_fn(p)
        grid = gcv_theta_grid(p)
        values = np.array([gcv_value(p, th, oracle) for th in grid])
        denominators = np.array([((p.n - p.m + p.n * th * p.m * oracle(p.n * th - p.s)) / p.n)
                                 ** 2 for th in grid])
        chol = np.array([cholesky_numerator(p, th) for th in grid]) / denominators
        svd = np.array([singular_value_numerator(p, th) for th in grid]) / denominators
        np.testing.assert_allclose(values, chol, rtol=1e-12)
        np.testing.assert_allclose(values, svd, rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, -1e-3, np.nan, np.inf])
    def test_invalid_theta_rejected(self, small_problem, theta):
        with pytest.raises(InvalidShape):
            gcv_value(small_problem, theta, exact_eigen_tau_fn(small_problem))

    def test_indefinite_ridge_system_rejected(self):
        # a Gram matrix with smallest eigenvalue -1: n*theta < 1 leaves the
        # ridge system indefinite, and the tau source is never consulted
        p = make_gcv_problem(**SMALL)
        gram = p.gram.copy()
        gram[np.diag_indices_from(gram)] -= 1.0 + np.linalg.eigvalsh(p.gram)[0]
        p.__dict__["gram"] = gram

        def tau_fn(t):
            raise AssertionError("tau evaluated for an infeasible theta")

        for theta in (1e-6, 0.5 / p.n):
            with pytest.raises(TraceInvError):
                gcv_value(p, theta, tau_fn)
        assert np.isfinite(gcv_value(p, 2.0 / p.n, exact_eigen_tau_fn(p)))

    def test_theta_grid_includes_linear_patch(self, small_problem):
        grid = gcv_theta_grid(small_problem, count=100)
        pivot = small_problem.s / small_problem.n
        # patch spacing is linear_span / (count//10 - 1)
        assert np.min(np.abs(grid - pivot)) < 2.5e-7


class TestRelativeLogThetaError:
    def test_equal_inputs(self):
        assert relative_log_theta_error(1e-3, 1e-3) == 0.0

    def test_reference_row_values(self):
        # reference pairs: 6.64% and 4.30%
        assert relative_log_theta_error(10**-3.5627, 10**-3.8164) == pytest.approx(
            0.0664, abs=0.0005)
        assert relative_log_theta_error(10**-3.9807, 10**-3.8164) == pytest.approx(
            0.0430, abs=0.0005)

    def test_positive_required(self):
        with pytest.raises(Exception):
            relative_log_theta_error(-1.0, 1e-3)


class TestGcvExperiment:
    def test_interpolated_call_accounting(self, small_problem):
        # N_tr = 2p + 1 exactly; the optimizer runs on the interpolant alone
        for p_deg in (1, 2):
            res = gcv_experiment(small_problem, interpolation=p_deg,
                                 method="cholesky", de_seed=1)
            assert res.n_tr == 2 * p_deg + 1
            assert res.n_tot >= res.n_tr + 40  # at least one full DE population

    def test_exact_mode_counts_match(self, small_problem):
        res = gcv_experiment(small_problem, interpolation=None, method="cholesky",
                             de_seed=1, max_generations=30)
        assert res.n_tr == res.n_tot

    def test_same_seed_deterministic(self, small_problem):
        a = gcv_experiment(small_problem, interpolation=2, method="cholesky", de_seed=3)
        b = gcv_experiment(small_problem, interpolation=2, method="cholesky", de_seed=3)
        assert a.theta_star == b.theta_star and a.n_tot == b.n_tot

    def test_theta_star_inside_bounds(self, small_problem):
        res = gcv_experiment(small_problem, interpolation=2, method="cholesky", de_seed=0)
        lo, hi = small_problem.theta_bounds
        assert lo <= res.theta_star <= hi

    def test_stochastic_backends_run(self, small_problem):
        for method in ("hutchinson", "slq"):
            res = gcv_experiment(small_problem, interpolation=2, method=method,
                                 n_v=30, degree=30, trace_seed=1, de_seed=0)
            assert res.n_tr == 5
            assert res.converged

    def test_result_json_schema(self, small_problem):
        row = gcv_experiment(small_problem, interpolation=1, method="cholesky",
                             de_seed=0).to_json()
        for key in ("method", "interpolation", "n_tr", "n_tot", "t_tr", "t_tot",
                    "v_min", "theta_star", "log10_theta_star"):
            assert key in row
        assert row["interpolation"] == "rational_p1"

    def test_objective_calls_module_gcv_value(self, small_problem, monkeypatch):
        # every optimizer step goes through the module-level gcv_value, once
        calls = []
        original = traceinv.experiments.gcv_value

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(traceinv.experiments, "gcv_value", counting)
        res = gcv_experiment(small_problem, interpolation=2, method="cholesky",
                             de_seed=0, max_generations=1)
        assert res.n_tot - res.n_tr > 0
        assert len(calls) == res.n_tot - res.n_tr

    def test_default_node_sets(self):
        assert GCV_NODE_SETS[1] == (1e-3, 1e-1)
        assert GCV_NODE_SETS[2] == (1e-3, 1e-2, 1e-1, 1.0)


class TestLocalMinimaCounter:
    def test_single_dip(self):
        x = np.linspace(-1, 1, 50)
        assert count_local_minima(x**2) == 1

    def test_two_dips(self):
        x = np.linspace(-2.2, 2.2, 200)
        assert count_local_minima((x**2 - 1.0) ** 2) == 2

    def test_monotone(self):
        assert count_local_minima(np.linspace(0, 1, 20)) == 0
