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
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .estimators import prepare_trace, shifted_operand
from .exceptions import InvalidShape, TraceInvError
from .interpolation import (
    InterpolantPoints,
    TauContext,
    check_small_t,
    compute_tau_at_nodes,
    compute_tau_context,
    fit_basis,
    fit_rational,
    small_t_floor,
    tau_lower_bound,
    tau_upper_bound,
)
from .matrices import (
    DesignMatrix,
    SpdMatrix,
    build_design_matrix,
    build_exponential_kernel,
    checked_count,
    sample_points,
)
from .optimize import differential_evolution

GP_DEFAULT_NODES = (1e-4, 4e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

# Rational interpolation node sets per degree, 2p nodes each.
GCV_NODE_SETS = {
    1: (1e-3, 1e-1),
    2: (1e-3, 1e-2, 1e-1, 1.0),
}


def sweep_grid(sweep):
    """The shifts of ``sweep = (min, max, count[, "log" | "lin"])``, log-spaced by default."""
    lo, hi, count, *spacing = sweep
    count = checked_count("sweep count", count)
    log = spacing in ([], ["log"])
    if not (np.all(np.isfinite([lo, hi])) and (min(lo, hi) > 0.0 or not log)):
        raise InvalidShape(f"sweep bounds must be finite, and positive if log-spaced; "
                           f"got {lo}, {hi}")
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), count)
    if spacing == ["lin"]:
        return np.linspace(lo, hi, count)
    raise InvalidShape(f"sweep spacing must be 'log' or 'lin', got {spacing[0]!r}")


def select_nodes(master, p):
    """Pick p nodes from a master list: all of them when p matches, else a
    centrally spread subset by index (p = 1 picks the middle node)."""
    p = checked_count("p", p, least=0)
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

    The benchmark curve is computed exactly by Cholesky factorization at every point of
    ``sweep_grid(sweep)``; for each p a basis interpolant is fitted to p nodes and compared
    against the benchmark. Curve, tau0 and nodes share one back-end, so a shift that recurs
    among them is factored once. Node reproduction is checked to 1e-8 relative as a
    built-in sanity gate. A sweep point below any p's small-t floor is refused before the
    first trace.
    """
    if checked_count("side", side) ** 2 > 10**4:
        raise InvalidShape("side^2 is limited to 10^4 (desk scale)")
    ts = sweep_grid(sweep)
    node_map = {p: select_nodes(nodes, p) for p in p_values}
    for p_nodes in node_map.values():
        check_small_t(ts, small_t_floor(p_nodes))
    K = build_exponential_kernel(sample_points(side, sampling, seed), rho)
    n = K.n
    ctx = compute_tau_context(K)

    tau_exact = ctx(ts)
    upper = tau_upper_bound(ts, ctx.tau0)
    lower = tau_lower_bound(ts, K.trace(), float(n), n) / n  # unit diagonal: 1/(1+t)

    interpolated, rel_errors = {}, {}
    node_failures = 0
    for p, p_nodes in node_map.items():
        pts = compute_tau_at_nodes(ctx, p_nodes)
        interp = fit_basis(ctx, pts)
        at_nodes = interp(pts.ts)
        node_failures += int(np.sum(np.abs(at_nodes / pts.taus - 1.0) > 1e-8))
        values = interp(ts)
        interpolated[p] = values
        rel_errors[p] = values / tau_exact - 1.0
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
        """X^T X + s*I: ``gram`` (exactly symmetric) packed once, certified ``psd``, carrying
        the shift s."""
        return shifted_operand(replace(SpdMatrix.from_dense(self.gram), psd=True), None, self.s)

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
    """Generalized cross-validation score V(theta) at a scalar or an array of theta.

    The numerator is the mean squared residual |z - X w|^2 / n of the ridge
    solution (X^T X + n*theta*I) w = X^T z. With X^T X = Q diag(lam) Q^T and
    c = Q^T X^T z from ``problem.ridge_spectrum`` it is
    |z|^2 - sum_i c_i^2 (lam_i + 2 n theta) / (lam_i + n theta)^2, O(m) per
    theta. The denominator is the squared normalized equivalent degrees of
    freedom (n - m + n*theta*m*tau(n*theta - s))/n. Every theta is checked
    first; then ``tau_fn`` is called once, on the shifts n*theta - s, which have
    theta's shape.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta) & (theta > 0.0)):
        raise InvalidShape(f"theta must be positive and finite, got {theta}")
    n, m = problem.n, problem.m
    lam, c2, z2 = problem.ridge_spectrum
    nt = n * theta
    if np.any(lam[0] + nt <= 0.0):
        raise TraceInvError(f"ridge system not positive definite at theta={theta}")
    column = nt[..., None]
    numerator = (z2 - ((lam + 2.0 * column) / (lam + column) ** 2) @ c2) / n
    tau = np.asarray(tau_fn(nt - problem.s), dtype=float)
    if tau.shape != theta.shape:
        raise InvalidShape(f"tau_fn gave shape {tau.shape} for shifts of shape {theta.shape}")
    values = numerator / ((n - m + nt * m * tau) / n) ** 2
    return float(values) if values.ndim == 0 else values


def gcv_curve(problem: GcvProblem, thetas, tau_fn):
    """``gcv_value`` over thetas for a tau_fn that takes one shift at a time."""
    return gcv_value(problem, thetas, np.vectorize(tau_fn, otypes=[float]))


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
        return {**asdict(self), "nodes": list(self.nodes),
                "interpolation": ("none" if self.interpolation is None
                                  else f"rational_p{self.interpolation}"),
                "log10_theta_star": self.log10_theta_star}


def gcv_experiment(problem: GcvProblem, interpolation=None, method="cholesky",
                   n_v=30, degree=30, trace_seed=0, de_seed=0, popsize=40,
                   max_generations=200, nodes=None) -> OptimizationResult:
    """Minimize V(theta) by differential evolution over log10(theta).

    One trace back-end serves the whole search (``t_tr`` includes its preparation).
    Each objective call scores a DE generation in one ``gcv_value`` call, which calls
    the tau source once. ``interpolation=None`` takes tau from the back-end.
    ``interpolation=p`` first computes tau0 plus tau at 2p nodes with it, fits a
    rational interpolant, and runs the optimizer against the interpolant alone, so
    the number of exact trace evaluations is exactly 2p + 1. Every trace evaluation
    uses the probe set ``trace_seed``, so with a stochastic method the objective is
    a deterministic function of theta.

    A rational degree that is not a whole number >= 0, and a lower theta bound that leaves
    X^T X + n*theta*I indefinite, are refused before any back-end is prepared.
    """
    t_start = time.perf_counter()
    if interpolation is not None:
        interpolation = checked_count("p", interpolation, least=0)
    lo, hi = problem.theta_bounds
    lam_min = float(problem.ridge_spectrum[0][0])
    if lam_min + problem.n * lo <= 0.0:
        raise InvalidShape(f"theta lower bound {lo:.3e} leaves X^T X + n*theta*I indefinite"
                           f" (min eigenvalue {lam_min:.3e}); it must exceed"
                           f" {-lam_min / problem.n:.3e}")
    A = problem.shifted_gram
    start = time.perf_counter()
    backend = prepare_trace(A, None, method=method, n_v=n_v, degree=degree, seed=trace_seed)
    n_tr, t_tr = 0, time.perf_counter() - start

    def backend_taus(ts):
        nonlocal n_tr, t_tr
        start = time.perf_counter()
        estimates = backend(ts)
        t_tr += time.perf_counter() - start
        n_tr += len(estimates)
        return [e.value / problem.m for e in estimates]

    if interpolation is None:
        (tau0,) = backend_taus([0.0])
        node_arr = ()
        optimizer_taus = backend_taus
    else:
        p = interpolation
        if nodes is None:
            if p not in GCV_NODE_SETS:
                raise InvalidShape(f"no default node set for p={p}; pass nodes")
            nodes = GCV_NODE_SETS[p]
        node_arr = tuple(float(t) for t in nodes)
        if len(node_arr) != 2 * p:
            raise InvalidShape(f"rational degree p={p} needs 2p={2 * p} nodes")
        tau0, *taus = backend_taus([0.0, *node_arr])
        ctx = TauContext(A=A, B=None, tau0=tau0, trace_b_inv=float(problem.m),
                         n=problem.m, t_min=-problem.s, backend=backend)
        pts = InterpolantPoints(ts=np.array(node_arr), taus=np.array(taus))
        optimizer_taus = fit_rational(ctx, pts, p, eval_domain=problem.t_range())

    def objective(xs):
        return gcv_value(problem, 10.0**xs, optimizer_taus)

    de = differential_evolution(objective, (np.log10(lo), np.log10(hi)),
                                popsize=popsize, max_generations=max_generations,
                                seed=de_seed)
    if interpolation is not None and n_tr != 2 * p + 1:
        raise TraceInvError(f"interpolated mode made {n_tr} trace evaluations, not {2 * p + 1}")

    return OptimizationResult(
        theta_star=10.0**de.x, v_min=de.fun, n_tr=n_tr,
        n_tot=n_tr if interpolation is None else n_tr + de.n_evals,
        t_tr=t_tr, t_tot=time.perf_counter() - t_start,
        method=method, interpolation=interpolation, nodes=node_arr,
        tau0=tau0, converged=de.converged, n_generations=de.n_generations,
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
