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
from .matrices import SpdMatrix
from .ortho import OrthoCoefficients, eval_ortho_function, gram_schmidt

# The basis family oscillates near the origin, so by default it refuses
# evaluation below this fraction of its smallest node (t = 0 stays exact).
SMALL_T_FLOOR_FACTOR = 1e-3

FIT_RESIDUAL_WARN = 1e-8  # relative; a rational fit also drops terms below it
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


def compute_tau_context(A: SpdMatrix, B: SpdMatrix | None = None, method="cholesky",
                        n_v=30, degree=30, seed=0, t_min=None) -> TauContext:
    """Prepare the trace back-end of (A, B), kept for the nodes, and take tau0 from it.

    B = None means B = I; trace(B^-1) comes from the back-end. t_min is kept only if given.
    """
    backend = prepare_trace(A, B, method=method, n_v=n_v, degree=degree, seed=seed)
    (trace_a_inv,) = backend([0.0])
    return TauContext(A=A, B=B, tau0=trace_a_inv.value / backend.trace_b_inv,
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
    if ctx.backend is None:
        raise InvalidShape("context has no trace back-end; build it with compute_tau_context")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    taus = np.array([e.value for e in ctx.backend(ts)]) / ctx.trace_b_inv
    return InterpolantPoints(ts=ts, taus=taus)


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
class Interpolant:
    """A fitted tau(t) model: the bare bound, basis weights, or a rational.

    Evaluate with :func:`eval_basis` / :func:`eval_rational`, or call the
    object directly to dispatch on the variant.
    """

    variant: str  # "bound" | "basis" | "rational"
    tau0: float
    p: int
    weights: tuple = ()
    scale: float | None = None
    ortho: OrthoCoefficients | None = field(default=None, repr=False)
    curve: StieltjesSum | None = field(default=None, repr=False)  # rational only
    small_t_floor: float = 0.0
    fit_residual: float = 0.0

    def __call__(self, t, allow_small_t=False):
        if self.variant == "rational":
            return eval_rational(self, t)
        return eval_basis(self, t, allow_small_t=allow_small_t)


def fit_basis(ctx: TauContext, pts: InterpolantPoints) -> Interpolant:
    """Fit 1/tau(t) ~ 1/tau0 + t + sum_j w_j phi_j_orth(t/l), l = max node.

    One orthonormal basis function per node; with no nodes the fit
    degenerates to the upper bound. The weights solve the p-by-p
    collocation system by dense LU with partial pivoting; the relative
    residual is recorded and a warning is emitted if it is large.
    """
    p = len(pts)
    if p == 0:
        return Interpolant(variant="bound", tau0=ctx.tau0, p=0)
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
    # The floor is shrunk by a hair so sweeps that start exactly at the
    # floor (e.g. powers of ten) are not refused by float rounding.
    floor = SMALL_T_FLOOR_FACTOR * float(np.min(pts.ts)) * (1.0 - 1e-9)
    return Interpolant(variant="basis", tau0=ctx.tau0, p=p, weights=tuple(weights),
                       scale=scale, ortho=coeffs, small_t_floor=floor,
                       fit_residual=residual)


def eval_basis(interp: Interpolant, t, allow_small_t=False):
    """Evaluate a basis (or bound) interpolant at t >= 0.

    tau(0) returns tau0 exactly (every basis term vanishes there). Strictly
    positive t below the small-t floor is refused unless allow_small_t is
    set, because the basis family oscillates near the origin.
    """
    if interp.variant not in ("basis", "bound"):
        raise InvalidShape(f"expected a basis or bound interpolant, got {interp.variant!r}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(t < 0.0):
        raise InvalidShape("basis interpolants are defined for t >= 0")
    if interp.variant == "bound":
        result = tau_upper_bound(t, interp.tau0)
        return float(result[0]) if scalar else result
    if not allow_small_t:
        too_small = (t > 0.0) & (t < interp.small_t_floor)
        if np.any(too_small):
            raise InvalidShape(
                f"t={t[too_small].min():.3e} is below the small-t floor "
                f"{interp.small_t_floor:.3e} where the basis family oscillates; "
                "pass allow_small_t=True to force evaluation"
            )
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
                 eval_domain=None) -> Interpolant:
    """Fit tau(t) ~ sum_{j=0..p} w_j / (t + mu_j), a positive sum of type p over p+1.

    The collocation solves for (t^p + ... + a_0)/(t^{p+1} + ... + b_0) with a_0 = b_0 * tau0
    (tau(0) = tau0) and monic leading coefficients (the t^-1 asymptote): 2p unknowns for
    2p nodes. p = 0 takes no nodes and gives the upper bound, weight 1 at mu = 1/tau0.
    The solution is converted once into residues w_j and poles -mu_j, less terms too small
    to show. Unless every w_j left is positive and every pole real and left of 0 and of
    ``eval_domain``'s left end (default t_min/2, or 0 without t_min), :class:`PoleInDomain`
    names the node values: no decreasing Stieltjes curve, as tau is, passes through them.
    ``fit_residual`` is the largest relative miss of a node value; above 1e-8 it warns.
    """
    p = int(p)
    if p < 0:
        raise InvalidShape("p must be >= 0")
    if len(pts) != 2 * p:
        raise InvalidShape(f"rational fit of degree p={p} needs exactly {2 * p} nodes, "
                           f"got {len(pts)}")
    numer, denom = (_collocation(ctx.tau0, pts.ts, pts.taus, p) if p
                    else ((1.0,), (1.0, 1.0 / ctx.tau0)))
    default_left = -abs(ctx.t_min) / 2.0 if ctx.t_min is not None else 0.0
    left = min(0.0, float(eval_domain[0]) if eval_domain is not None else default_left)
    poles, slope = np.roots(denom), np.polyder(denom)
    with np.errstate(divide="ignore", invalid="ignore"):  # a double pole is refused below
        for _ in range(2):  # polish the companion matrix's roots, a few ulps off
            poles = poles - np.polyval(denom, poles) / np.polyval(slope, poles)
        residues = np.polyval(numer, poles) / np.polyval(slope, poles)
        terms = np.abs(residues[:, None] / (np.append(0.0, pts.ts) - poles[:, None]))
    # A curve of fewer than p + 1 poles leaves the collocation singular. Its extra poles' terms
    # are noise, dropped: they move no node value, tau0 or total weight by FIT_RESIDUAL_WARN.
    noise = ((np.abs(residues) <= FIT_RESIDUAL_WARN * np.sum(np.abs(residues)))
             & np.all(terms <= FIT_RESIDUAL_WARN * np.append(ctx.tau0, pts.taus), axis=1))
    poles, residues = poles[~noise], residues[~noise]
    bad = np.iscomplex(poles) | (poles.real >= left) | ~(residues.real > 0.0)
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
    return Interpolant(variant="rational", tau0=ctx.tau0, p=p, fit_residual=residual,
                       curve=curve)


def _collocation(tau0, ts, taus, p):
    """Monomial numerator and denominator (highest degree first) through 2p nodes."""
    # Unknown layout: [a_1..a_{p-1}, b_0, b_1..b_p]. Row i (divided through
    # by tau_i for scaling):
    #   -sum_k a_k t^k / tau + b_0 (1 - tau0/tau) + sum_k b_k t^k
    #       = t^p / tau - t^{p+1}
    size = 2 * p
    design = np.zeros((size, size))
    for k in range(1, p):
        design[:, k - 1] = -(ts**k) / taus
    design[:, p - 1] = 1.0 - tau0 / taus
    for k in range(1, p + 1):
        design[:, p + k - 1] = ts**k
    rhs = ts**p / taus - ts ** (p + 1)
    try:
        with warnings.catch_warnings():  # fit_rational checks the nodes instead
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            sol = scipy.linalg.solve(design, rhs)
    except scipy.linalg.LinAlgError:  # exactly singular: take its least-squares solution
        sol = scipy.linalg.lstsq(design, rhs)[0]
    a, b0, b = sol[: p - 1], sol[p - 1], sol[p:]  # a_1..a_{p-1}, b_0, b_1..b_p
    return (1.0, *a[::-1], b0 * tau0), (1.0, *b[::-1], b0)


def eval_rational(interp: Interpolant, t):
    """Evaluate a rational interpolant: tau0 exactly at t = 0, its sum elsewhere.

    t at or left of the sum's first pole raises NotPositiveDefinite.
    """
    if interp.variant != "rational":
        raise InvalidShape(f"expected a rational interpolant, got {interp.variant!r}")
    result = np.where(np.asarray(t) == 0.0, interp.tau0, interp.curve(t))
    return float(result) if result.ndim == 0 else result


def interpolant_to_json(interp: Interpolant) -> dict:
    record = {
        "variant": interp.variant,
        "p": interp.p,
        "tau0": interp.tau0,
        "scale": interp.scale,
    }
    if interp.variant == "basis":
        record["coefficients"] = list(interp.weights)
        record["small_t_floor"] = interp.small_t_floor
    elif interp.variant == "rational":
        record["version"] = 2  # version 1 held monomial coefficients
        record["weights"] = interp.curve.weights.tolist()
        record["poles"] = (-interp.curve.nodes).tolist()
    else:
        record["coefficients"] = []
    return record
