"""The four benchmark workloads: inputs, warm-up, the timed call and its checks.

Each workload drives the public traceinv API only and looks every callable up
on its module at call time, so the traced pass can wrap it from outside and
the untraced pass depends on no wrapping at all.

Call sizes are cut from the full studies so that several timed calls fit in
one run (see README.md): the kernel sweep keeps the n = 2500 operand and all
eleven node and tau0 traces but samples the exact curve at 3 points, not 100;
both GCV searches run a fixed budget of two DE generations (121 objective
calls), so every seed does the same amount of work; the stochastic sweep is
timed one shift at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

import traceinv.estimators as estimators
import traceinv.experiments as experiments
import traceinv.interpolation as interpolation
import traceinv.matrices as matrices

# Criterion 5 needs this realization's two-basin GCV curve; the workload seed
# drives only the DE and probe streams.
GCV_DESIGN_SEED = 287
GP_SWEEP_POINTS = 3
DE_POPSIZE = 40
DE_GENERATIONS = 2
STOCHASTIC_N_V = 30
STOCHASTIC_DEGREE = 30
STOCHASTIC_TS = (1e-2, 1e-1, 1.0, 10.0, 100.0)
STOCHASTIC_METHODS = ("slq", "hutchinson")

# Acceptance gates, applied to every timed call.
GP_P9_MAX_ERROR = 1e-3
GP_P1_MAX_ERROR = 5e-2
GCV_TAU_MAX_ERROR = 5e-3
# The tau gate covers acceptance criterion 4's domain, theta >= 1e-6; below
# it the shift t = n*theta - s is negative and the rational interpolant
# extrapolates (about 4% off at theta = 1e-7). max_rel_error still reports
# the whole gcv_theta_grid.
GCV_TAU_GATE_THETA_MIN = 1e-6
GCV_THETA_MAX_LOG_ERROR = 0.1
# Exact mode: tau and V(theta*) come from Cholesky, so they match the closed
# form to rounding; rational mode: a 0.5% tau error moves V by about 1%.
GCV_EXACT_V_TOL = 1e-8
GCV_RATIONAL_V_TOL = 1e-2
STOCHASTIC_MAX_SE = 4.0


def relative_log_error(value, reference):
    """|log10 value - log10 reference| / |log10 reference|."""
    ref = np.log10(reference)
    return float(abs(np.log10(value) - ref) / abs(ref))


class KernelSweep:
    """The paper's kernel study: exact Cholesky traces of K + tI, n = side^2."""

    def __init__(self, side):
        self.side = side

    def _run(self, p_values, sweep):
        return experiments.gp_experiment(side=self.side, rho=0.1,
                                         nodes=experiments.GP_DEFAULT_NODES,
                                         p_values=p_values, sweep=sweep, sampling="grid")

    def setup(self, seed):
        # The operand is a fixed grid, so the seed changes nothing here.
        self._run((), (1.0, 1.0, 1))

    def call(self):
        return self._run((1, 9), (1e-4, 1e3, GP_SWEEP_POINTS))

    def outputs(self, result):
        return np.concatenate([result.tau_exact, result.interpolated[1],
                               result.interpolated[9]])

    def counts(self, result):
        return {"trace_calls": 2 + len(result.ts) + len(result.nodes[9])}

    def check(self, results):
        quality, failures = {"max_rel_error": 0.0}, []
        for r in results:
            err9, err1 = r.max_rel_error(9), r.max_rel_error(1)
            quality["max_rel_error"] = max(quality["max_rel_error"], err9)
            bad = []
            if not err9 <= GP_P9_MAX_ERROR:
                bad.append(f"p=9 error {err9:.2e} > {GP_P9_MAX_ERROR}")
            if not err1 <= GP_P1_MAX_ERROR:
                bad.append(f"p=1 error {err1:.2e} > {GP_P1_MAX_ERROR}")
            if r.node_check_failures != 0:
                bad.append(f"{r.node_check_failures} node check failures")
            # Independent of the interpolants: the exact curve decreases and
            # lies between the closed-form bounds.
            if np.any(np.diff(r.tau_exact) >= 0.0):
                bad.append("exact curve is not decreasing")
            slack = 1e-12 * r.tau_exact
            if np.any(r.tau_exact > r.tau_upper + slack) or np.any(r.tau_exact < r.tau_lower - slack):
                bad.append("exact curve leaves the bounds")
            failures.append(bad)
        return quality, failures


class GcvOracle:
    """Closed-form GCV score from the design's SVD, independent of traceinv.

    X = U [S V^T; 0] with Householder U, so with y = U z the ridge residual is
    |r|^2 = sum_{i>=m} y_i^2 + sum_{i<m} (n theta / (s_i^2 + n theta))^2 y_i^2,
    and tau(n theta - s) = mean(1 / (s_i^2 + n theta)).
    """

    def __init__(self, problem):
        design = problem.design
        self.n, self.m = design.n, design.m
        self.sigma2 = design.singular_values() ** 2
        u = design.u
        y = problem.z - u * (2.0 * np.dot(u, problem.z) / np.dot(u, u))
        self.head = y[: self.m] ** 2
        self.tail = float(np.sum(y[self.m:] ** 2))
        self.bounds = problem.theta_bounds

    def tau(self, thetas):
        nt = self.n * np.atleast_1d(np.asarray(thetas, dtype=float))[:, None]
        return np.mean(1.0 / (self.sigma2 + nt), axis=1)

    def score(self, thetas):
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        nt = self.n * thetas[:, None]
        numer = (self.tail + np.sum(self.head * (nt / (self.sigma2 + nt)) ** 2, axis=1)) / self.n
        denom = ((self.n - self.m + self.n * thetas * self.m * self.tau(thetas)) / self.n) ** 2
        return numer / denom

    def theta_min(self):
        lo, hi = np.log10(self.bounds[0]), np.log10(self.bounds[1])
        grid = np.linspace(lo, hi, 4001)
        k = int(np.argmin(self.score(10.0 ** grid)))
        step = grid[1] - grid[0]
        best = scipy.optimize.minimize_scalar(
            lambda x: float(self.score(10.0 ** x)[0]), method="bounded",
            bounds=(max(lo, grid[k] - step), min(hi, grid[k] + step)),
            options={"xatol": 1e-10})
        return float(10.0 ** best.x)


class GcvSearch:
    """DE search for the ridge parameter, tau exact at every step or interpolated."""

    def __init__(self, interpolation, n, m):
        self.interpolation = interpolation
        self.n, self.m = n, m

    def _run(self, popsize, generations):
        return experiments.gcv_experiment(self.problem, interpolation=self.interpolation,
                                          method="cholesky", trace_seed=0,
                                          de_seed=self.seed, popsize=popsize,
                                          max_generations=generations)

    def setup(self, seed):
        self.seed = seed
        self.problem = experiments.make_gcv_problem(n=self.n, m=self.m, seed=GCV_DESIGN_SEED)
        self.problem.shifted_gram
        self._run(4, 0)

    def call(self):
        return self._run(DE_POPSIZE, DE_GENERATIONS)

    def outputs(self, result):
        return np.array([result.theta_star, result.v_min])

    def counts(self, result):
        return {"trace_calls": result.n_tr, "objective_calls": result.n_tot}

    def _tau_source_errors(self, oracle):
        """Relative error of the tau source, and the gcv_theta_grid it is taken on.

        Rational mode rebuilds the interpolant from the same public steps the
        search takes; exact mode samples the Cholesky back-end at 12 grid
        points with a positive shift.
        """
        problem = self.problem
        grid = experiments.gcv_theta_grid(problem)
        ctx = problem.tau_context()
        if self.interpolation is None:
            grid = grid[problem.n * grid - problem.s > 0.0]
            grid = grid[np.linspace(0, grid.size - 1, 12).astype(int)]
            taus = interpolation.compute_tau_at_nodes(ctx, problem.n * grid - problem.s).taus
        else:
            nodes = experiments.GCV_NODE_SETS[self.interpolation]
            pts = interpolation.compute_tau_at_nodes(ctx, nodes)
            interp = interpolation.fit_rational(ctx, pts, self.interpolation,
                                                eval_domain=problem.t_range())
            taus = interp(problem.n * grid - problem.s)
        return np.abs(taus / oracle.tau(grid) - 1.0), grid

    def check(self, results):
        oracle = GcvOracle(self.problem)
        theta_ref = oracle.theta_min()
        errors, grid = self._tau_source_errors(oracle)
        tau_error = float(np.max(errors[grid >= GCV_TAU_GATE_THETA_MIN]))
        quality = {"max_rel_error": float(np.max(errors)), "theta_log_error": 0.0}
        exact = self.interpolation is None
        v_tol = GCV_EXACT_V_TOL if exact else GCV_RATIONAL_V_TOL
        failures = []
        for r in results:
            theta_err = relative_log_error(r.theta_star, theta_ref)
            quality["theta_log_error"] = max(quality["theta_log_error"], theta_err)
            v_err = abs(r.v_min / float(oracle.score(r.theta_star)[0]) - 1.0)
            bad = []
            expected_tr = r.n_tot if exact else 2 * self.interpolation + 1
            if r.n_tr != expected_tr:
                bad.append(f"N_tr {r.n_tr} != {expected_tr}")
            if not tau_error <= GCV_TAU_MAX_ERROR:
                bad.append(f"tau error {tau_error:.2e} > {GCV_TAU_MAX_ERROR}")
            if not theta_err <= GCV_THETA_MAX_LOG_ERROR:
                bad.append(f"theta log error {theta_err:.3f} > {GCV_THETA_MAX_LOG_ERROR}")
            if not v_err <= v_tol:
                bad.append(f"V(theta*) error {v_err:.2e} > {v_tol}")
            failures.append(bad)
        return quality, failures


class StochasticSweep:
    """SLQ and Hutchinson estimates on the kernel operand with B = I.

    One timed call is one shift of the sweep, both methods; successive calls
    walk through the shifts in order. A whole sweep (12 s) would leave one
    sample per run, and every shift costs the same work.
    """

    def __init__(self, side):
        self.side = side
        self.calls = 0

    def _estimate(self, t, method, n_v):
        M = estimators.shifted_operand(self.K, self.identity, t)
        return estimators.estimate_trace_inv(M, method=method, n_v=n_v,
                                             degree=STOCHASTIC_DEGREE, seed=self.seed)

    def setup(self, seed):
        self.seed = seed
        self.K = matrices.build_exponential_kernel(matrices.grid_points(self.side), 0.1)
        self.identity = matrices.SpdMatrix.identity(self.K.n)
        for method in STOCHASTIC_METHODS:
            self._estimate(1.0, method, 2)

    def call(self):
        t = STOCHASTIC_TS[self.calls % len(STOCHASTIC_TS)]
        self.calls += 1
        return t, [self._estimate(t, method, STOCHASTIC_N_V) for method in STOCHASTIC_METHODS]

    def outputs(self, result):
        return np.array([e.value for e in result[1]])

    def counts(self, result):
        return {"trace_calls": len(result[1])}

    def check(self, results):
        reference = {t: estimators.estimate_trace_inv(
            estimators.shifted_operand(self.K, self.identity, t)).value
            for t in sorted({t for t, _ in results})}
        quality, failures = {"max_rel_error": 0.0}, []
        for t, estimates in results:
            exact = reference[t]
            bad = []
            for method, e in zip(STOCHASTIC_METHODS, estimates):
                if method == "slq":
                    quality["max_rel_error"] = max(quality["max_rel_error"],
                                                   abs(e.value / exact - 1.0))
                # A zero standard error claims an exact answer; hold it to rounding.
                allowed = max(STOCHASTIC_MAX_SE * e.std_error, 1e-10 * exact)
                if abs(e.value - exact) > allowed:
                    bad.append(f"{method} at t={t:g} is {abs(e.value - exact):.3g} from "
                               f"Cholesky, over {STOCHASTIC_MAX_SE} std errors")
            failures.append(bad)
        return quality, failures


def make(name, toy=False):
    """Build a workload by name; ``toy`` shrinks the operands for the self-test."""
    # Toy operands are about the smallest that still meet the gates.
    side, n, m = (25, 400, 200) if toy else (50, 1000, 500)
    if name == "kernel_sweep":
        return KernelSweep(side)
    if name == "gcv_exact":
        return GcvSearch(None, n, m)
    if name == "gcv_rational2":
        return GcvSearch(2, n, m)
    if name == "stochastic_sweep":
        return StochasticSweep(8 if toy else side)
    raise ValueError(f"unknown workload {name!r}")
