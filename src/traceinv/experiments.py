"""End-to-end experiment drivers.

Two reproducible studies built on the estimator and interpolation layers:

* ``gp_experiment`` — interpolate the normalized inverse trace of a
  shifted spatial correlation matrix (exponential-decay kernel over the
  unit square) and compare against the exact Cholesky curve, including
  the upper and lower bound curves.

* ``gcv_experiment`` — pick the ridge regularization parameter of a
  synthetic ill-posed regression by minimizing the generalized
  cross-validation score with differential evolution, where the trace
  term in the GCV denominator comes either from a trace back-end at
  every step or from a rational interpolant fitted to a handful of
  exactly computed values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .estimators import trace_inv_sweep
from .exceptions import InvalidShape, TraceInvError
from .interpolation import (
    InterpolantPoints,
    TauContext,
    compute_tau_at_nodes,
    compute_tau_context,
    fit_basis,
    fit_rational,
    tau_lower_bound,
    tau_upper_bound,
)
from .matrices import (
    DesignMatrix,
    SpdMatrix,
    build_design_matrix,
    build_exponential_kernel,
    grid_points,
    random_points,
)
from .optimize import differential_evolution
from .ortho import gram_schmidt

GP_DEFAULT_NODES = (1e-4, 4e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

# Rational interpolation node sets per degree, 2p nodes each.
GCV_NODE_SETS = {
    1: (1e-3, 1e-1),
    2: (1e-3, 1e-2, 1e-1, 1.0),
}


def select_nodes(master, p):
    """Pick p nodes from a master list: all of them when p matches, else a
    centrally spread subset by index (p = 1 picks the middle node)."""
    master = np.asarray(master, dtype=float)
    if p == master.size:
        return master.copy()
    if p > master.size:
        raise InvalidShape(f"cannot select {p} nodes from {master.size}")
    idx = np.round(np.linspace(0, master.size - 1, p + 2))[1:-1].astype(int)
    if np.unique(idx).size != p:
        raise InvalidShape(f"node selection for p={p} collapsed; supply nodes explicitly")
    return master[idx]


@dataclass
class GpExperimentResult:
    side: int
    rho: float
    tau0: float
    ts: np.ndarray
    tau_exact: np.ndarray
    tau_upper: np.ndarray
    tau_lower: np.ndarray
    interpolated: dict  # p -> tau array over ts
    rel_errors: dict    # p -> (tau_interp/tau_exact - 1) array
    nodes: dict         # p -> node array
    node_check_failures: int = 0

    def max_rel_error(self, p):
        return float(np.max(np.abs(self.rel_errors[p])))

    def curve_rows(self):
        """Rows for the curve CSV: t, exact, bounds, one column per p."""
        ps = sorted(self.interpolated)
        header = ["t", "tau_exact", "tau_upper", "tau_lower"]
        header += [f"tau_p{p}" for p in ps] + [f"rel_error_p{p}" for p in ps]
        rows = []
        for k, t in enumerate(self.ts):
            row = [t, self.tau_exact[k], self.tau_upper[k], self.tau_lower[k]]
            row += [self.interpolated[p][k] for p in ps]
            row += [self.rel_errors[p][k] for p in ps]
            rows.append(row)
        return header, rows

    def summary(self):
        return {
            "side": self.side,
            "rho": self.rho,
            "n": self.side**2,
            "tau0": self.tau0,
            "nodes": {str(p): list(nodes) for p, nodes in self.nodes.items()},
            "max_rel_error": {str(p): self.max_rel_error(p) for p in self.interpolated},
            "node_check_failures": self.node_check_failures,
        }


def gp_experiment(side=50, rho=0.1, nodes=GP_DEFAULT_NODES, p_values=(1, 9),
                  sweep=(1e-4, 1e3, 100), sampling="grid", seed=0) -> GpExperimentResult:
    """Interpolate tau(t) = trace((K + t*I)^-1)/n for a kernel matrix K.

    The benchmark curve is computed exactly by Cholesky factorization at
    every sweep point; for each p a basis interpolant is fitted to p nodes
    and compared against the benchmark. Node reproduction is checked to
    1e-8 relative as a built-in sanity gate.
    """
    if side**2 > 10**4:
        raise InvalidShape("side^2 is limited to 10^4 (desk scale)")
    points = grid_points(side) if sampling == "grid" else random_points(side**2, seed)
    K = build_exponential_kernel(points, rho)
    n = K.n
    identity = SpdMatrix.identity(n)
    ctx = compute_tau_context(K)

    ts = np.logspace(np.log10(sweep[0]), np.log10(sweep[1]), int(sweep[2]))
    tau_exact = np.array([e.value for e in trace_inv_sweep(K, identity, ts)]) / n
    upper = tau_upper_bound(ts, ctx.tau0)
    lower = tau_lower_bound(ts, K.trace(), float(n), n) / n  # unit diagonal: 1/(1+t)

    interpolated, rel_errors, node_map = {}, {}, {}
    node_failures = 0
    for p in p_values:
        p_nodes = select_nodes(nodes, p)
        pts = compute_tau_at_nodes(ctx, p_nodes)
        interp = fit_basis(ctx, pts, gram_schmidt(p))
        at_nodes = interp(pts.ts)
        node_failures += int(np.sum(np.abs(at_nodes / pts.taus - 1.0) > 1e-8))
        values = interp(ts)
        interpolated[p] = values
        rel_errors[p] = values / tau_exact - 1.0
        node_map[p] = p_nodes
    return GpExperimentResult(side=side, rho=rho, tau0=ctx.tau0, ts=ts,
                              tau_exact=tau_exact, tau_upper=upper, tau_lower=lower,
                              interpolated=interpolated, rel_errors=rel_errors,
                              nodes=node_map, node_check_failures=node_failures)


@dataclass(frozen=True)
class GcvProblem:
    """Ridge regression data z = X beta + noise with a GCV search range.

    ``s`` shifts the numerically singular X^T X so the trace context is
    well defined at the origin; the trace argument is t = n*theta - s.
    """

    design: DesignMatrix
    z: np.ndarray = field(repr=False)
    s: float = 1e-3
    theta_bounds: tuple = (1e-7, 10.0)
    sigma: float = 0.4
    beta_true: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.s <= 0.0:
            raise InvalidShape("shift s must be positive")
        lo, hi = self.theta_bounds
        if not 0.0 < lo < hi:
            raise InvalidShape("theta bounds must be positive and increasing")

    @property
    def n(self):
        return self.design.n

    @property
    def m(self):
        return self.design.m

    @cached_property
    def gram(self):
        X = self.design.matrix
        return X.T @ X

    @cached_property
    def ridge_spectrum(self):
        """(lam, c2, z2): eigenvalues of X^T X in ascending order, the squared
        coordinates c2 = (Q^T X^T z)^2 in its eigenbasis Q, and |z|^2.

        One m-by-m eigendecomposition per problem; every ridge residual
        ``gcv_value`` needs is a closed form in these three.
        """
        lam, Q = scipy.linalg.eigh(self.gram, check_finite=False)
        c2 = (Q.T @ (self.design.matrix.T @ self.z)) ** 2
        return lam, c2, float(np.dot(self.z, self.z))

    @cached_property
    def shifted_gram(self) -> SpdMatrix:
        A = self.gram + self.s * np.eye(self.m)
        return SpdMatrix.from_dense(0.5 * (A + A.T))

    def tau_context(self, method="cholesky", n_v=30, degree=30, seed=0) -> TauContext:
        return compute_tau_context(self.shifted_gram, method=method, n_v=n_v,
                                   degree=degree, seed=seed, t_min=-self.s)

    def t_range(self):
        lo, hi = self.theta_bounds
        return (self.n * lo - self.s, self.n * hi - self.s)


def make_gcv_problem(n=1000, m=500, seed=0, s=1e-3, sigma=0.4,
                     theta_bounds=(1e-7, 10.0), decay_coeff=40.0,
                     decay_exp=0.75) -> GcvProblem:
    """Generate the synthetic singular regression problem.

    Draw order from the seeded generator: reflector vectors u (length n)
    and v (length m), coefficients beta (standard normal), then noise
    delta with standard deviation sigma.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(m)
    design = build_design_matrix(n, m, u, v, decay_coeff=decay_coeff,
                                 decay_exp=decay_exp)
    beta = rng.standard_normal(m)
    delta = sigma * rng.standard_normal(n)
    z = design.matrix @ beta + delta
    return GcvProblem(design=design, z=z, s=s, theta_bounds=tuple(theta_bounds),
                      sigma=sigma, beta_true=beta)


def gcv_value(problem: GcvProblem, theta, tau_fn):
    """Generalized cross-validation score V(theta).

    The numerator is the mean squared residual |z - X w|^2 / n of the ridge
    solution (X^T X + n*theta*I) w = X^T z. With X^T X = Q diag(lam) Q^T and
    c = Q^T X^T z from ``problem.ridge_spectrum`` it is
    |z|^2 - sum_i c_i^2 (lam_i + 2 n theta) / (lam_i + n theta)^2, O(m) per
    theta. The denominator is the squared normalized equivalent degrees of
    freedom (n - m + n*theta*m*tau(n*theta - s))/n, where tau comes from
    ``tau_fn``.
    """
    theta = float(theta)
    if not (np.isfinite(theta) and theta > 0.0):
        raise InvalidShape(f"theta must be positive and finite, got {theta}")
    n, m = problem.n, problem.m
    lam, c2, z2 = problem.ridge_spectrum
    nt = n * theta
    if lam[0] + nt <= 0.0:
        raise TraceInvError(f"ridge system not positive definite at theta={theta}")
    residual_sq = z2 - float(np.dot(c2, (lam + 2.0 * nt) / (lam + nt) ** 2))
    numerator = residual_sq / n
    tau = float(tau_fn(nt - problem.s))
    denominator = ((n - m + nt * m * tau) / n) ** 2
    return numerator / denominator


def gcv_curve(problem: GcvProblem, thetas, tau_fn):
    return np.array([gcv_value(problem, th, tau_fn) for th in thetas])


def count_local_minima(values):
    """Number of strict downward-to-upward slope changes along a sampled curve."""
    signs = np.sign(np.diff(np.asarray(values, dtype=float)))
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.sum((signs[:-1] < 0) & (signs[1:] > 0)))


def relative_log_theta_error(theta_interp, theta_exact):
    """|log10 ratio| of an estimated optimum to the benchmark optimum."""
    if theta_interp <= 0.0 or theta_exact <= 0.0:
        raise InvalidShape("theta values must be positive")
    le = np.log10(theta_exact)
    return float(abs(np.log10(theta_interp) - le) / abs(le))


@dataclass
class OptimizationResult:
    """One row of the regularization-parameter comparison table."""

    theta_star: float
    v_min: float
    n_tr: int
    n_tot: int
    t_tr: float
    t_tot: float
    method: str
    interpolation: int | None  # None = no interpolation, else rational degree p
    nodes: tuple
    tau0: float
    converged: bool
    n_generations: int
    seed: int

    @property
    def log10_theta_star(self):
        return float(np.log10(self.theta_star))

    def to_json(self):
        return {
            "method": self.method,
            "interpolation": ("none" if self.interpolation is None
                              else f"rational_p{self.interpolation}"),
            "nodes": list(self.nodes),
            "n_tr": self.n_tr,
            "n_tot": self.n_tot,
            "t_tr": self.t_tr,
            "t_tot": self.t_tot,
            "v_min": self.v_min,
            "theta_star": self.theta_star,
            "log10_theta_star": self.log10_theta_star,
            "tau0": self.tau0,
            "converged": self.converged,
            "n_generations": self.n_generations,
            "seed": self.seed,
        }


class _CountingTau:
    """Wrap a tau source, counting calls and accumulating wall time."""

    def __init__(self, fn, clock=True):
        self.fn = fn
        self.calls = 0
        self.elapsed = 0.0
        self.clock = clock

    def __call__(self, t):
        self.calls += 1
        if self.clock:
            start = time.perf_counter()
            value = self.fn(t)
            self.elapsed += time.perf_counter() - start
            return value
        return self.fn(t)


def gcv_experiment(problem: GcvProblem, interpolation=None, method="cholesky",
                   n_v=30, degree=30, trace_seed=0, de_seed=0, popsize=40,
                   max_generations=200, nodes=None) -> OptimizationResult:
    """Minimize V(theta) by differential evolution over log10(theta).

    ``interpolation=None`` evaluates tau with the chosen trace back-end at
    every optimizer step. ``interpolation=p`` first computes tau0 plus tau
    at 2p nodes with that back-end, fits a rational interpolant, and runs
    the optimizer against the interpolant alone, so the number of exact
    trace evaluations is exactly 2p + 1.
    """
    t_start = time.perf_counter()
    A = problem.shifted_gram
    identity = SpdMatrix.identity(problem.m)

    def backend_tau(t):
        seed = None if trace_seed is None else trace_seed + backend.calls
        (est,) = trace_inv_sweep(A, identity, [t], method=method, n_v=n_v, degree=degree,
                                 seed=seed)
        return est.value / problem.m

    backend = _CountingTau(backend_tau)

    if interpolation is None:
        tau0 = backend(0.0)
        ctx = TauContext(A=A, B=identity, tau0=tau0,
                         trace_b_inv=float(problem.m), n=problem.m, t_min=-problem.s)
        optimizer_tau = backend
        node_arr = ()
    else:
        p = int(interpolation)
        if nodes is None:
            if p not in GCV_NODE_SETS:
                raise InvalidShape(f"no default node set for p={p}; pass nodes")
            nodes = GCV_NODE_SETS[p]
        node_arr = tuple(float(t) for t in nodes)
        if len(node_arr) != 2 * p:
            raise InvalidShape(f"rational degree p={p} needs 2p={2 * p} nodes")
        tau0 = backend(0.0)
        taus = np.array([backend(t) for t in node_arr])
        ctx = TauContext(A=A, B=identity, tau0=tau0,
                         trace_b_inv=float(problem.m), n=problem.m, t_min=-problem.s)
        pts = InterpolantPoints(ts=np.array(node_arr), taus=taus)
        interp = fit_rational(ctx, pts, p, eval_domain=problem.t_range())
        optimizer_tau = _CountingTau(interp, clock=False)

    n_tr_before_opt = backend.calls
    lo, hi = problem.theta_bounds

    def objective(x):
        return gcv_value(problem, 10.0**x, optimizer_tau)

    de = differential_evolution(objective, (np.log10(lo), np.log10(hi)),
                                popsize=popsize, max_generations=max_generations,
                                seed=de_seed)
    if interpolation is not None and backend.calls != n_tr_before_opt:
        raise TraceInvError("trace back-end was invoked during optimization "
                            "in interpolated mode")

    n_tr = backend.calls
    n_tot = n_tr + (optimizer_tau.calls if optimizer_tau is not backend else 0)
    theta_star = 10.0**de.x
    return OptimizationResult(
        theta_star=theta_star, v_min=de.fun, n_tr=n_tr, n_tot=n_tot,
        t_tr=backend.elapsed, t_tot=time.perf_counter() - t_start,
        method=method, interpolation=interpolation, nodes=node_arr,
        tau0=ctx.tau0, converged=de.converged, n_generations=de.n_generations,
        seed=de_seed,
    )


def gcv_theta_grid(problem: GcvProblem, count=300, linear_span=1e-6):
    """Log-spaced theta grid with a linear patch through s/n.

    The curve V(theta) has structure near theta = s/n where the trace
    argument crosses zero; a purely log grid never renders that region.
    """
    lo, hi = problem.theta_bounds
    logs = np.logspace(np.log10(lo), np.log10(hi), count)
    pivot = problem.s / problem.n
    if lo < pivot < hi and linear_span > 0.0:
        lin = np.linspace(max(lo, pivot - linear_span), min(hi, pivot + linear_span), count // 10)
        logs = np.unique(np.concatenate([logs, lin]))
    return logs


def exact_eigen_tau_fn(problem: GcvProblem):
    """Independent tau oracle from the design's singular-value profile.

    X^T X has eigenvalues equal to the squared singular values regardless
    of the reflector vectors, so tau(t) = mean(1/(sigma_i^2 + s + t)) is
    available in closed form. Used for cross-checks; never used by the
    production paths.
    """
    lam = problem.design.singular_values() ** 2 + problem.s

    def tau(t):
        return float(np.mean(1.0 / (lam + t)))

    return tau
