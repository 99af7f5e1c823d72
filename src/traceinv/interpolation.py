"""Bounds and interpolants for the normalized trace curve.

For symmetric positive-definite A and B, define

    tau(t) = trace((A + t*B)^-1) / trace(B^-1),      tau0 = tau(0).

The superadditivity of the harmonic mean of positive tuples gives the
sharp bound 1/tau(t) >= 1/tau0 + t for t >= 0 (reversed on (t_min, 0]),
so tau0 / (1 + t*tau0) bounds tau from above, is exact at t = 0 and
asymptotically exact as t -> infinity. Two interpolation families refine
this bound from a handful of exactly-computed values tau(t_i): a linear
combination of orthonormalized fractional-power basis functions, and a
rational function of degree p over p+1 held as a positive sum of p+1 poles
(``estimators.StieltjesSum``), the form tau itself has.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .estimators import StieltjesSum, prepare_trace
from .exceptions import (
    InvalidShape,
    NonPositiveResult,
    NotPositiveDefinite,
    PoleInDomain,
    SingularSystem,
)
from .matrices import SpdMatrix, checked_count
from .ortho import OrthoCoefficients, eval_ortho_function, gram_schmidt

# The basis family oscillates near the origin, so by default it refuses
# evaluation below this fraction of its smallest node (t = 0 stays exact).
SMALL_T_FLOOR_FACTOR = 1e-3

FIT_RESIDUAL_WARN = 1e-8  # relative node miss above which a fit warns
PENCIL_RANK_TOL = 1e-12  # relative singular values below it are a rational pencil's null space
NODE_HALF_WIDTH_DECADES = 2.0  # default nodes span this on each side of 1/tau0


@dataclass(frozen=True)
class TauContext:
    """The pair (A, B), its normalization constants and the back-end behind tau0."""

    A: SpdMatrix
    B: SpdMatrix | None  # None means the identity
    tau0: float
    trace_b_inv: float
    n: int
    t_min: float | None = None
    backend: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.tau0 <= 0.0 or self.trace_b_inv <= 0.0:
            raise NotPositiveDefinite("tau0 and trace(B^-1) must be positive")
        if self.t_min is not None and self.t_min >= 0.0:
            raise InvalidShape("t_min must be negative when supplied")

    def __call__(self, t):
        """tau at a scalar t (a float) or an array of t (same shape), from ``backend``."""
        if self.backend is None:
            raise InvalidShape("context has no trace back-end; build it with compute_tau_context")
        return _read_tau(self.backend, self.trace_b_inv, t)


def _read_tau(backend, trace_b_inv, t):
    """The one reader of back-end values: each is divided by trace(B^-1) here."""
    t = np.asarray(t, dtype=float)
    taus = np.array([e.value for e in backend(t.ravel())]) / trace_b_inv
    return float(taus[0]) if t.ndim == 0 else taus.reshape(t.shape)


def compute_tau_context(A: SpdMatrix, B: SpdMatrix | None = None, method="cholesky",
                        n_v=30, degree=30, seed=0, t_min=None) -> TauContext:
    """Prepare the trace back-end of (A, B), kept for the nodes, and take tau0 from it.

    B = None means B = I; trace(B^-1) comes from the back-end. t_min is kept only if given.
    """
    backend = prepare_trace(A, B, method=method, n_v=n_v, degree=degree, seed=seed)
    return TauContext(A=A, B=B, tau0=_read_tau(backend, backend.trace_b_inv, 0.0),
                      trace_b_inv=backend.trace_b_inv, n=A.n, t_min=t_min, backend=backend)


@dataclass(frozen=True)
class InterpolantPoints:
    """Node locations t_i with their tau values.

    Nodes must be strictly increasing and positive, values strictly
    decreasing and positive. Values from one back-end share one probe set
    and decrease by construction, so a non-monotone sequence is rejected here
    rather than silently producing a nonsense fit.
    """

    ts: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        taus = np.atleast_1d(np.asarray(self.taus, dtype=float))
        if ts.shape != taus.shape:
            raise InvalidShape("node and value arrays must have the same length")
        if ts.size:
            if np.any(ts <= 0.0):
                raise InvalidShape("nodes must be positive")
            if np.any(np.diff(ts) <= 0.0):
                raise InvalidShape("nodes must be strictly increasing")
            if np.any(taus <= 0.0):
                raise NotPositiveDefinite("tau values must be positive")
            if np.any(np.diff(taus) >= 0.0):
                raise InvalidShape(
                    "tau values must decrease strictly with t; take every node "
                    "value from one back-end so that all of them share one probe set"
                )
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "taus", taus)

    def __len__(self):
        return self.ts.size


def compute_tau_at_nodes(ctx: TauContext, ts) -> InterpolantPoints:
    """Evaluate tau at each node with the back-end that produced ctx.tau0."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return InterpolantPoints(ts=ts, taus=ctx(ts))


def tau_upper_bound(t, tau0):
    """Sharp upper bound tau0 / (1 + t*tau0), exact at t = 0 and t -> inf."""
    t = np.asarray(t, dtype=float)
    result = tau0 / (1.0 + t * tau0)
    return float(result) if result.ndim == 0 else result


def tau_lower_bound(t, trace_a, trace_b, n):
    """Arithmetic-harmonic-mean lower bound n^2 / (trace(A) + t*trace(B)).

    This bounds trace((A + t*B)^-1) itself; divide by trace(B^-1) to put
    it on the tau scale. For a unit-diagonal A with B = I that gives
    1/(1 + t).
    """
    t = np.asarray(t, dtype=float)
    result = n**2 / (trace_a + t * trace_b)
    return float(result) if result.ndim == 0 else result


def default_nodes(tau0, p):
    """Log-spaced nodes centered on 1/tau0, where the bound errs the most."""
    if p < 1:
        return np.array([])
    center = np.log10(1.0 / tau0)
    if p == 1:
        return np.array([10.0**center])
    return np.logspace(center - NODE_HALF_WIDTH_DECADES, center + NODE_HALF_WIDTH_DECADES, p)


@dataclass(frozen=True)
class BasisFit:
    """1/tau(t) ~ 1/tau0 + t + sum_j w_j phi_j_orth(t/scale); no weights is the bound.

    Called on a scalar or an array of t, through :func:`eval_basis`.
    """

    tau0: float
    weights: tuple = ()
    scale: float | None = None
    ortho: OrthoCoefficients | None = field(default=None, repr=False)
    small_t_floor: float = 0.0
    fit_residual: float = 0.0

    @property
    def p(self):
        return len(self.weights)

    def __call__(self, t):
        return eval_basis(self, t)

    def record(self) -> dict:
        """The ``interpolant.json`` record, less the nodes."""
        record = {"variant": "basis" if self.p else "bound", "p": self.p,
                  "tau0": self.tau0, "scale": self.scale, "coefficients": list(self.weights)}
        if self.p:
            record["small_t_floor"] = self.small_t_floor
        return record


@dataclass(frozen=True)
class RationalFit:
    """A rational fit of degree p: tau0 at t = 0 and its positive sum ``curve`` elsewhere.

    Called on a scalar or an array of t, through :func:`eval_rational`.
    """

    p: int
    tau0: float
    curve: StieltjesSum = field(repr=False)
    fit_residual: float = 0.0

    def __call__(self, t):
        return eval_rational(self, t)

    def record(self) -> dict:
        """The ``interpolant.json`` record, less the nodes; version 1 held monomials."""
        return {"variant": "rational", "p": self.p, "tau0": self.tau0, "scale": None,
                "version": 2, "weights": self.curve.weights.tolist(),
                "poles": (-self.curve.nodes).tolist()}


def fit_basis(ctx: TauContext, pts: InterpolantPoints) -> BasisFit:
    """Fit 1/tau(t) ~ 1/tau0 + t + sum_j w_j phi_j_orth(t/l), l = max node.

    One orthonormal basis function per node; with no nodes the fit
    degenerates to the upper bound. The weights solve the p-by-p
    collocation system by dense LU with partial pivoting; the relative
    residual is recorded and a warning is emitted if it is large.
    """
    p = len(pts)
    if p == 0:
        return BasisFit(tau0=ctx.tau0)
    coeffs = gram_schmidt(p)
    scale = float(np.max(pts.ts))
    design = np.empty((p, p))
    for j in range(1, p + 1):
        design[:, j - 1] = eval_ortho_function(coeffs, j, pts.ts / scale)
    rhs = 1.0 / pts.taus - 1.0 / ctx.tau0 - pts.ts
    try:
        weights = scipy.linalg.solve(design, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"basis collocation system is singular: {exc}") from exc
    residual = float(np.linalg.norm(design @ weights - rhs, np.inf)
                     / max(np.linalg.norm(rhs, np.inf), 1e-300))
    if residual > FIT_RESIDUAL_WARN:
        warnings.warn(f"basis fit residual {residual:.2e} is large; "
                      "the node set may be nearly degenerate", stacklevel=2)
    return BasisFit(tau0=ctx.tau0, weights=tuple(weights), scale=scale, ortho=coeffs,
                    small_t_floor=small_t_floor(pts.ts), fit_residual=residual)


def small_t_floor(nodes):
    """SMALL_T_FLOOR_FACTOR times the smallest node (0 with none), below which a basis fit on
    these nodes refuses a positive t. It is shrunk by a hair so sweeps that start exactly at
    the floor (e.g. powers of ten) are not refused by float rounding."""
    return SMALL_T_FLOOR_FACTOR * float(np.min(nodes)) * (1.0 - 1e-9) if len(nodes) else 0.0


def check_small_t(t, floor):
    """InvalidShape if a positive t lies below ``floor`` (``small_t_floor``)."""
    too_small = (t > 0.0) & (t < floor)
    if np.any(too_small):
        raise InvalidShape(f"t={t[too_small].min():.3e} is below the small-t floor "
                           f"{floor:.3e} where the basis family oscillates")


def eval_basis(interp: BasisFit, t):
    """Evaluate a basis fit at t >= 0; with no weights it is the bound tau_upper_bound.

    tau(0) returns tau0 exactly (every basis term vanishes there). Strictly
    positive t below the small-t floor is refused, because the basis family
    oscillates near the origin.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(t < 0.0):
        raise InvalidShape("basis interpolants are defined for t >= 0")
    if not interp.weights:
        result = tau_upper_bound(t, interp.tau0)
        return float(result[0]) if scalar else result
    check_small_t(t, interp.small_t_floor)
    inv_tau = 1.0 / interp.tau0 + t
    x = t / interp.scale
    for j, w in enumerate(interp.weights, start=1):
        inv_tau += w * eval_ortho_function(interp.ortho, j, x)
    nonzero = t > 0.0
    if np.any(inv_tau[nonzero] <= 0.0):
        raise NonPositiveResult("basis interpolant evaluated to a non-positive trace")
    result = np.empty_like(t)
    result[nonzero] = 1.0 / inv_tau[nonzero]
    result[~nonzero] = interp.tau0
    return float(result[0]) if scalar else result


def fit_rational(ctx: TauContext, pts: InterpolantPoints, p,
                 eval_domain=None) -> RationalFit:
    """Fit tau(t) ~ sum_{j=0..p} w_j / (t + mu_j), a positive sum of type p over p+1.

    The fit interpolates tau at 0, at the 2p nodes and at infinity (t*tau(t) -> 1) through
    one Loewner pencil (Mayo & Antoulas 2007). The points split into left a = (0, t_2, t_4,
    ..., t_2p) and right b = (t_1, t_3, ..., t_2p-1, inf), and with f = tau
        C_ij = (f(a_i) - f(b_j)) / (b_j - a_i),  S_ij = (b_j f(b_j) - a_i f(a_i)) / (b_j - a_i),
    whose column at infinity is f(a_i) in C and 1 - a_i f(a_i) in S. A positive sum with
    nodes mu gives C = A^T diag(w) B and S = A^T diag(w mu) B, so its mu are the eigenvalues of
    S v = mu C v. p = 0 takes no nodes and gives the upper bound, weight 1 at mu = 1/tau0.
    Unless every w_j is positive and every pole real and left of 0 and of ``eval_domain``'s
    left end (default t_min/2, or 0 without t_min), :class:`PoleInDomain` names the node
    values: no decreasing Stieltjes curve, as tau is, passes through them.
    ``fit_residual`` is the largest relative miss of a node value; above 1e-8 it warns.
    """
    p = checked_count("p", p, least=0)
    if len(pts) != 2 * p:
        raise InvalidShape(f"rational fit of degree p={p} needs exactly {2 * p} nodes, "
                           f"got {len(pts)}")
    default_left = -abs(ctx.t_min) / 2.0 if ctx.t_min is not None else 0.0
    left = min(0.0, float(eval_domain[0]) if eval_domain is not None else default_left)
    if p == 0:
        poles, residues = np.array([-1.0 / ctx.tau0]), np.array([1.0])
    else:
        ts, fs = np.append(0.0, pts.ts), np.append(ctx.tau0, pts.taus)
        a, fa, b, fb = ts[0::2], fs[0::2], ts[1::2], fs[1::2]
        gap = b - a[:, None]
        C = np.column_stack([(fa[:, None] - fb) / gap, fa])
        S = np.column_stack([(b * fb - (a * fa)[:, None]) / gap, 1.0 - a * fa])
        F, G = np.append(fb, 1.0), fa
        # Balance rows and columns to unit norm, then keep the pencil's numerical rank: a
        # curve of fewer than p + 1 poles leaves it singular, and the cut keeps fewer terms.
        rows = 1.0 / np.linalg.norm(np.hstack([C, S]), axis=1)
        C, S, G = C * rows[:, None], S * rows[:, None], G * rows
        cols = 1.0 / np.linalg.norm(np.vstack([C, S]), axis=0)
        C, S, F = C * cols, S * cols, F * cols
        Y, sy, _ = np.linalg.svd(np.hstack([C, S]), full_matrices=False)
        _, sx, Xt = np.linalg.svd(np.vstack([C, S]), full_matrices=False)
        rank = min(np.sum(sy > PENCIL_RANK_TOL * sy[0]), np.sum(sx > PENCIL_RANK_TOL * sx[0]))
        Y, X = Y[:, :rank], Xt[:rank].T
        C, S, F, G = Y.T @ C @ X, Y.T @ S @ X, F @ X, Y.T @ G
        mu, u, v = scipy.linalg.eig(S, C, left=True, right=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # an infinite mu is refused below
            residues = (F @ v) * (G @ u.conj()) / np.sum(u.conj() * (C @ v), axis=0)
        poles = -mu
    bad = (~np.isfinite(poles) | np.iscomplex(poles) | (poles.real >= left)
           | ~(np.isfinite(residues) & (residues.real > 0.0)))
    if np.any(bad):
        raise PoleInDomain(
            f"the fit has poles {poles.tolist()} and residues {residues.tolist()}, not a "
            f"positive sum with its poles left of {left:.3e}: the node values "
            f"{pts.taus.tolist()} at t = {pts.ts.tolist()} are inconsistent with a decreasing "
            "Stieltjes curve (stochastic noise or lost accuracy in the trace estimates)",
            poles=poles[bad].tolist())
    curve = StieltjesSum(residues.real, -poles.real)
    residual = float(np.max(np.abs(curve(pts.ts) - pts.taus) / pts.taus, initial=0.0))
    if residual > FIT_RESIDUAL_WARN:
        warnings.warn(f"rational fit misses a node value by {residual:.2e} relative; "
                      "consider moving the nodes", stacklevel=2)
    return RationalFit(p=p, tau0=ctx.tau0, curve=curve, fit_residual=residual)


def eval_rational(interp: RationalFit, t):
    """Evaluate a rational fit: tau0 exactly at t = 0, its sum elsewhere.

    t at or left of the sum's first pole raises NotPositiveDefinite.
    """
    result = np.where(np.asarray(t) == 0.0, interp.tau0, interp.curve(t))
    return float(result) if result.ndim == 0 else result
