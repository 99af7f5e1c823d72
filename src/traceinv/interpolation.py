"""Bounds and interpolants for the normalized trace curve.

For symmetric positive-definite A and B, define

    tau(t) = trace((A + t*B)^-1) / trace(B^-1),      tau0 = tau(0).

The superadditivity of the harmonic mean of positive tuples gives the
sharp bound 1/tau(t) >= 1/tau0 + t for t >= 0 (reversed on (t_min, 0]),
so tau0 / (1 + t*tau0) bounds tau from above, is exact at t = 0 and
asymptotically exact as t -> infinity. Two interpolation families refine
this bound from a handful of exactly-computed values tau(t_i): a linear
combination of orthonormalized fractional-power basis functions, and a
rational polynomial of degree p over p+1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .estimators import prepare_trace
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

FIT_RESIDUAL_WARN = 1e-8
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
    numerator: tuple = ()    # highest-degree coefficient first
    denominator: tuple = ()
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
    """Fit tau(t) ~ (t^p + a_{p-1} t^{p-1} + ... + a_0)/(t^{p+1} + ... + b_0).

    The constraint a_0 = b_0 * tau0 pins tau(0) = tau0, and the monic
    leading coefficients pin the t^-1 asymptote, leaving 2p unknowns
    matched by exactly 2p nodes. p = 0 takes no nodes and reproduces the
    upper bound with b_0 = 1/tau0. After the solve, real roots of the
    denominator are located via the companion matrix; a root inside the
    evaluation domain raises :class:`PoleInDomain` with the root
    locations: tau is a Stieltjes function, so such a root means node
    values that no decreasing Stieltjes curve passes through.
    """
    p = int(p)
    if p < 0:
        raise InvalidShape("p must be >= 0")
    if p == 0:
        if len(pts) != 0:
            raise InvalidShape("p = 0 takes no nodes")
        numer = (1.0,)
        denom = (1.0, 1.0 / ctx.tau0)
        interp = Interpolant(variant="rational", tau0=ctx.tau0, p=0,
                             numerator=numer, denominator=denom)
        _check_poles(interp, pts, ctx, eval_domain)
        return interp
    if len(pts) != 2 * p:
        raise InvalidShape(f"rational fit of degree p={p} needs exactly {2 * p} nodes, "
                           f"got {len(pts)}")
    ts, taus = pts.ts, pts.taus
    # Unknown layout: [a_1..a_{p-1}, b_0, b_1..b_p]. Row i (divided through
    # by tau_i for scaling):
    #   -sum_k a_k t^k / tau + b_0 (1 - tau0/tau) + sum_k b_k t^k
    #       = t^p / tau - t^{p+1}
    size = 2 * p
    design = np.zeros((size, size))
    for k in range(1, p):
        design[:, k - 1] = -(ts**k) / taus
    design[:, p - 1] = 1.0 - ctx.tau0 / taus
    for k in range(1, p + 1):
        design[:, p + k - 1] = ts**k
    rhs = ts**p / taus - ts ** (p + 1)
    try:
        sol = scipy.linalg.solve(design, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"rational collocation system is singular: {exc}") from exc
    residual = float(np.linalg.norm(design @ sol - rhs, np.inf)
                     / max(np.linalg.norm(rhs, np.inf), 1e-300))
    if residual > FIT_RESIDUAL_WARN:
        warnings.warn(f"rational fit residual {residual:.2e} is large; "
                      "consider moving the nodes", stacklevel=2)
    a = sol[: p - 1]          # a_1..a_{p-1}
    b0 = sol[p - 1]
    b = sol[p:]               # b_1..b_p
    a0 = b0 * ctx.tau0
    numer = (1.0, *a[::-1], a0)            # t^p + a_{p-1} t^{p-1} + ... + a_0
    denom = (1.0, *b[::-1], b0)            # t^{p+1} + b_p t^p + ... + b_0
    interp = Interpolant(variant="rational", tau0=ctx.tau0, p=p,
                         numerator=numer, denominator=denom, fit_residual=residual)
    _check_poles(interp, pts, ctx, eval_domain)
    return interp


def _check_poles(interp, pts, ctx, eval_domain):
    if eval_domain is None:
        left = -abs(ctx.t_min) / 2.0 if ctx.t_min is not None else 0.0
        right = 10.0 * float(np.max(pts.ts)) if len(pts) else 10.0 / ctx.tau0
        eval_domain = (left, right)
    lo, hi = float(eval_domain[0]), float(eval_domain[1])
    roots = np.roots(interp.denominator)
    real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))].real
    inside = real[(real >= lo) & (real <= hi)]
    if inside.size:
        raise PoleInDomain(
            f"fitted denominator has real roots {inside.tolist()} inside "
            f"[{lo:.3e}, {hi:.3e}]: the node values {pts.taus.tolist()} at "
            f"t = {pts.ts.tolist()} are inconsistent with a decreasing Stieltjes "
            "curve (stochastic noise or lost accuracy in the trace estimates)",
            poles=inside.tolist(),
        )


def eval_rational(interp: Interpolant, t):
    """Evaluate a rational interpolant by Horner's rule on both polynomials."""
    if interp.variant != "rational":
        raise InvalidShape(f"expected a rational interpolant, got {interp.variant!r}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    numer = np.polyval(interp.numerator, t)
    denom = np.polyval(interp.denominator, t)
    tiny = np.abs(denom) < 1e-300 * np.maximum(np.abs(numer), 1.0)
    if np.any(tiny):
        raise PoleInDomain(
            f"evaluation at t={t[tiny].tolist()} hits a pole of the interpolant",
            poles=t[tiny].tolist(),
        )
    result = numer / denom
    result[t == 0.0] = interp.tau0  # a_0 = b_0 * tau0 makes this the exact limit
    return float(result[0]) if scalar else result


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
        record["coefficients"] = [list(interp.numerator), list(interp.denominator)]
    else:
        record["coefficients"] = []
    return record
