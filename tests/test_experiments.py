import numpy as np
import pytest
import scipy.linalg

import traceinv.estimators
import traceinv.experiments
from traceinv import (
    InvalidShape,
    PoleInDomain,
    SpdMatrix,
    TraceInvError,
    compute_tau_at_nodes,
    compute_tau_context,
    fit_rational,
    prepare_trace,
    shifted_operand,
    trace_inv_exact_cholesky,
    trace_inv_hutchinson,
    trace_inv_slq,
)
from traceinv.experiments import (
    GCV_NODE_SETS,
    GP_DEFAULT_NODES,
    count_local_minima,
    gcv_curve,
    gcv_experiment,
    gcv_theta_grid,
    gcv_value,
    gp_experiment,
    make_gcv_problem,
    relative_log_theta_error,
    select_nodes,
    sweep_grid,
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


def exact_eigen_tau_fn(problem):
    """tau(t) = mean(1/(sigma_i^2 + s + t)) from the design's singular-value
    profile: an oracle independent of every trace back-end."""
    lam = problem.design.singular_values() ** 2 + problem.s
    return lambda t: np.mean(1.0 / (lam + np.asarray(t)[..., None]), axis=-1)


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

    @pytest.mark.parametrize("side, sampling, message", [
        (-3, "random", "side must be >= 1"), (2.5, "grid", "side must be >= 1"),
        (4, "gird", "sampling must be 'grid' or 'random', got 'gird'")])
    def test_point_set_refused(self, side, sampling, message):
        # a negative side drew side^2 random points; any sampling but "grid" meant random
        with pytest.raises(InvalidShape, match=message):
            gp_experiment(side=side, sampling=sampling, sweep=(1e-2, 1.0, 3))

    def test_shared_shifts_factored_once(self, cholesky_calls):
        # tau0, 3 curve points, 1 + 9 nodes: 1e-4, 0.1 and 1e3 recur
        gp_experiment(side=8, p_values=(1, 9), sweep=(1e-4, 1e3, 3))
        assert cholesky_calls == [64] * 11

    def test_sweep_below_a_small_t_floor_refused_before_any_trace(self, monkeypatch):
        # the exact curve ran (23 traces) before the fit refused t = 1e-8
        calls = []
        exact = traceinv.estimators.trace_inv_exact_cholesky
        monkeypatch.setattr(traceinv.estimators, "trace_inv_exact_cholesky",
                            lambda M: calls.append(M.n) or exact(M))
        with pytest.raises(InvalidShape, match=r"t=1\.000e-08 is below the small-t floor "
                                               r"1\.000e-03 where the basis family oscillates"):
            gp_experiment(side=8, nodes=(1, 10, 100), p_values=(3,), sweep=(1e-8, 1, 20))
        assert calls == []
        gp_experiment(side=8, nodes=(1, 10, 100), p_values=(3,), sweep=(1e-3, 1, 3))
        assert len(calls) == 6  # tau0, the sweep 1e-3, 0.03 and 1, and the nodes 10 and 100

    @pytest.mark.parametrize("count", [0, -2, 2.5])
    def test_empty_sweep_refused(self, count):
        with pytest.raises(InvalidShape, match="sweep count"):
            gp_experiment(side=4, sweep=(1e-2, 1.0, count))

    @pytest.mark.parametrize("sweep", [(0.0, 1.0, 5), (1e-2, -1.0, 5, "log"),
                                       (np.nan, 1.0, 5, "lin"), (1.0, np.inf, 3, "lin"),
                                       (np.inf, 1e3, 3)])
    def test_sweep_bounds_refused(self, monkeypatch, sweep):
        # log spacing from 0 made NaN shifts, refused only after the kernel and tau0
        with pytest.raises(InvalidShape, match="finite, and positive if log-spaced"):
            sweep_grid(sweep)
        monkeypatch.setattr(traceinv.experiments, "build_exponential_kernel", None)
        with pytest.raises(InvalidShape, match="finite, and positive if log-spaced"):
            gp_experiment(side=4, sweep=sweep)

    def test_sweep_grid_spacing(self):
        # three elements log-space as before; a fourth picks the spacing
        log = np.logspace(np.log10(1e-2), np.log10(1.0), 5)
        assert sweep_grid((1e-2, 1.0, 5)).tolist() == log.tolist()
        assert sweep_grid((1e-2, 1.0, 5, "log")).tolist() == log.tolist()
        assert sweep_grid((1.0, 10.0, 3, "lin")).tolist() == [1.0, 5.5, 10.0]
        with pytest.raises(InvalidShape, match="spacing"):
            sweep_grid((1.0, 10.0, 3, "cubic"))

    def test_desk_scale_guard(self):
        with pytest.raises(Exception):
            gp_experiment(side=101)


def rational_fit_of_degree(p):
    ctx = compute_tau_context(SpdMatrix.from_dense(np.diag([1.0, 2.0, 5.0])))
    return fit_rational(ctx, compute_tau_at_nodes(ctx, [0.1, 1.0]), p)


@pytest.mark.parametrize("call, message", [
    (lambda: gp_experiment(side=-101), "side must be >= 1 and whole"),
    (lambda: gp_experiment(side=150.5), "side must be >= 1 and whole"),
    (lambda: select_nodes(GP_DEFAULT_NODES, -1), "p must be >= 0"),
    (lambda: rational_fit_of_degree(1.5), "p must be >= 0 and whole"),
], ids=["side=-101", "side=150.5", "select p=-1", "fit p=1.5"])
def test_input_refused_for_its_own_reason(call, message):
    # each input is refused for its own fault, before a later check can misname it
    with pytest.raises(InvalidShape, match=message):
        call()


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
        # theta and against the singular-value closed form, same tau for all,
        # scored one theta at a time and as the whole grid in one call
        p = make_gcv_problem(**config)
        oracle = exact_eigen_tau_fn(p)
        grid = gcv_theta_grid(p)
        values = np.array([gcv_value(p, th, oracle) for th in grid])
        batch = gcv_value(p, grid, oracle)
        denominators = np.array([((p.n - p.m + p.n * th * p.m * oracle(p.n * th - p.s)) / p.n)
                                 ** 2 for th in grid])
        chol = np.array([cholesky_numerator(p, th) for th in grid]) / denominators
        svd = np.array([singular_value_numerator(p, th) for th in grid]) / denominators
        for scored in (values, batch):
            np.testing.assert_allclose(scored, chol, rtol=1e-12)
            np.testing.assert_allclose(scored, svd, rtol=1e-12)
        np.testing.assert_allclose(batch, values, rtol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, -1e-3, np.nan, np.inf])
    def test_invalid_theta_rejected(self, small_problem, theta):
        with pytest.raises(InvalidShape):
            gcv_value(small_problem, theta, exact_eigen_tau_fn(small_problem))

    def test_tau_of_another_shape_refused(self, small_problem):
        # a one-shift tau handed m shifts broadcasts into one number, not m scores
        p = small_problem
        lam = p.design.singular_values() ** 2 + p.s
        with pytest.raises(InvalidShape, match=r"tau_fn gave shape \(\) for shifts of shape"):
            gcv_value(p, np.full(p.m, 1e-2), lambda t: float(np.mean(1.0 / (lam + t))))

    def test_indefinite_ridge_system_rejected(self):
        # a Gram matrix with smallest eigenvalue -1: n*theta < 1 leaves the
        # ridge system indefinite, and the tau source is never consulted
        p = make_gcv_problem(**SMALL)
        gram = p.gram.copy()
        gram[np.diag_indices_from(gram)] -= 1.0 + np.linalg.eigvalsh(p.gram)[0]
        p.__dict__["gram"] = gram

        def tau_fn(t):
            raise AssertionError("tau evaluated for an infeasible theta")

        for theta in (1e-6, 0.5 / p.n, np.array([2.0 / p.n, 0.5 / p.n, 1.0])):
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
        # every point the optimizer scores goes through the module-level gcv_value, once
        scored = []
        original = traceinv.experiments.gcv_value

        def counting(*args, **kwargs):
            scored.append(np.size(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(traceinv.experiments, "gcv_value", counting)
        res = gcv_experiment(small_problem, interpolation=2, method="cholesky",
                             de_seed=0, max_generations=1)
        assert res.n_tot - res.n_tr > 0
        assert sum(scored) == res.n_tot - res.n_tr

    @pytest.fixture
    def sweep_log(self, monkeypatch):
        """Record ("prepare", seed) when a trace back-end is prepared,
        (ts, seed, estimates returned) for every call of that back-end, and
        ("de",) when the optimizer starts."""
        log = []
        prepare = traceinv.experiments.prepare_trace
        de = traceinv.experiments.differential_evolution

        def recording_prepare(A, B, **kwargs):
            log.append(("prepare", kwargs["seed"]))
            backend = prepare(A, B, **kwargs)

            def recording_backend(ts):
                estimates = backend(ts)
                log.append((list(ts), kwargs["seed"], len(estimates)))
                return estimates

            return recording_backend

        def recording_de(*args, **kwargs):
            log.append(("de",))
            return de(*args, **kwargs)

        monkeypatch.setattr(traceinv.experiments, "prepare_trace", recording_prepare)
        monkeypatch.setattr(traceinv.experiments, "differential_evolution", recording_de)
        return log

    @pytest.mark.parametrize("trace_seed", [7, None])
    def test_interpolated_mode_sweeps_once_before_search(self, small_problem, sweep_log,
                                                         trace_seed):
        res = gcv_experiment(small_problem, interpolation=2, method="cholesky",
                             trace_seed=trace_seed, de_seed=0, max_generations=1)
        assert sweep_log == [("prepare", trace_seed),
                             ([0.0, *GCV_NODE_SETS[2]], trace_seed, 5), ("de",)]
        assert res.n_tr == 5

    def test_exact_mode_every_call_uses_trace_seed(self, small_problem, sweep_log):
        res = gcv_experiment(small_problem, interpolation=None, method="hutchinson",
                             trace_seed=7, de_seed=0, popsize=4, max_generations=2)
        assert [e for e in sweep_log if e[0] == "prepare"] == [("prepare", 7)]
        assert sweep_log[0] == ("prepare", 7)  # one back-end for the whole search
        sweeps = [entry for entry in sweep_log[1:] if entry != ("de",)]
        assert sweep_log.index(("de",)) == 2  # tau0 comes first
        assert sweeps[0][0] == [0.0]
        assert [seed for _, seed, _ in sweeps] == [7] * len(sweeps)
        # after tau0, one call per generation (the initial population's and two more)
        assert [len(ts) for ts, _, _ in sweeps[1:]] == [4] * 3
        assert sum(count for _, _, count in sweeps) == res.n_tr == res.n_tot

    def test_exact_mode_factors_each_distinct_theta_once(self, small_problem, sweep_log,
                                                         cholesky_calls):
        # the search proposes some theta more than once; each call is still counted
        res = gcv_experiment(small_problem, interpolation=None, method="cholesky",
                             de_seed=1, max_generations=30)
        shifts = [t for entry in sweep_log if len(entry) == 3 for t in entry[0]]
        assert len(shifts) == res.n_tr == res.n_tot
        assert len(cholesky_calls) == len(set(shifts)) < res.n_tr

    def test_exact_eigen_search_solves_once(self, eigh_calls):
        problem = make_gcv_problem(**SMALL)
        problem.ridge_spectrum  # the numerator's own eigendecomposition of X^T X
        eigh_calls.clear()
        res = gcv_experiment(problem, interpolation=None, method="eigen", popsize=8,
                             max_generations=1)
        assert eigh_calls == [(60, 60)]
        assert res.n_tr == res.n_tot == 17
        chol = gcv_experiment(problem, interpolation=None, method="cholesky", popsize=8,
                              max_generations=1)
        assert res.theta_star == pytest.approx(chol.theta_star, rel=1e-10)

    def test_exact_mode_stochastic_search_converges(self, small_problem):
        # one probe set for every theta makes the objective deterministic
        res = gcv_experiment(small_problem, interpolation=None, method="hutchinson",
                             trace_seed=3, de_seed=0, max_generations=50)
        assert res.converged
        assert res.n_generations < 50

    @pytest.mark.parametrize("method", ["slq", "hutchinson"])
    def test_rational_p2_fit_has_no_pole_over_40_trace_seeds(self, small_problem, method):
        # a pole in the domain means node values that mix probe sets
        poles = []
        for s in range(40):
            ctx = small_problem.tau_context(method, seed=s)
            pts = compute_tau_at_nodes(ctx, GCV_NODE_SETS[2])
            try:
                fit_rational(ctx, pts, 2, eval_domain=small_problem.t_range())
            except PoleInDomain:
                poles.append(s)
        assert poles == []

    @pytest.mark.parametrize("interpolation", [None, 2])
    def test_lower_bound_below_rank_floor_refused_up_front(self, interpolation, monkeypatch):
        # min(lam) of this X^T X is about -1.6e-16, so theta = 1e-20 leaves
        # the ridge system indefinite; the search must stop before any trace
        problem = make_gcv_problem(**SMALL, theta_bounds=(1e-20, 10.0))
        floor = -problem.ridge_spectrum[0][0] / problem.n
        calls = []
        monkeypatch.setattr(traceinv.experiments, "prepare_trace",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidShape, match=f"must exceed {floor:.3e}"):
            gcv_experiment(problem, interpolation=interpolation, method="cholesky")
        assert calls == []

    @pytest.mark.parametrize("interpolation", [1.5, -1])
    def test_non_whole_rational_degree_refused_up_front(self, small_problem, interpolation,
                                                        monkeypatch):
        calls = []
        monkeypatch.setattr(traceinv.experiments, "prepare_trace",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidShape, match="p must be >= 0 and whole"):
            gcv_experiment(small_problem, interpolation=interpolation, method="cholesky")
        assert calls == []

    def test_default_node_sets(self):
        assert GCV_NODE_SETS[1] == (1e-3, 1e-1)
        assert GCV_NODE_SETS[2] == (1e-3, 1e-2, 1e-1, 1.0)


@pytest.mark.parametrize("case", ["hutchinson", "slq", "prepare_trace", "gcv_experiment",
                                  "unknown_method", "no_probes", "zero_degree", "orders"])
def test_stochastic_estimate_without_seed_refused(case, small_problem, monkeypatch):
    # a seed names the probe set and None names none: refused before any work;
    # prepare_trace refuses it, and every other bad argument, before it returns
    work = []

    def recording(name):
        original = getattr(traceinv.estimators, name)

        def wrapper(*args, **kwargs):
            work.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("shifted_operand", "cholesky", "inverse_factor", "lanczos"):
        monkeypatch.setattr(traceinv.estimators, name, recording(name))
    M = SpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    runs = {
        "hutchinson": lambda: trace_inv_hutchinson(M, n_v=3, seed=None),
        "slq": lambda: trace_inv_slq(M, n_v=3, degree=2, seed=None),
        "prepare_trace": lambda: prepare_trace(M, SpdMatrix.identity(3), "slq", seed=None),
        "gcv_experiment": lambda: gcv_experiment(small_problem, method="hutchinson",
                                                 trace_seed=None),
        "unknown_method": lambda: prepare_trace(M, None, "bogus"),
        "no_probes": lambda: prepare_trace(M, None, "hutchinson", n_v=0),
        "zero_degree": lambda: prepare_trace(M, None, "slq", degree=0),
        "orders": lambda: prepare_trace(M, SpdMatrix.identity(4), "eigen"),
    }
    message = {"unknown_method": "unknown trace method", "no_probes": "n_v must be >= 1",
               "zero_degree": "degree must be >= 1", "orders": "orders differ"}
    with pytest.raises(TraceInvError, match=message.get(case, "needs an integer seed")):
        runs[case]()
    assert work == []


class TestLocalMinimaCounter:
    def test_single_dip(self):
        x = np.linspace(-1, 1, 50)
        assert count_local_minima(x**2) == 1

    def test_two_dips(self):
        x = np.linspace(-2.2, 2.2, 200)
        assert count_local_minima((x**2 - 1.0) ** 2) == 2

    def test_monotone(self):
        assert count_local_minima(np.linspace(0, 1, 20)) == 0
