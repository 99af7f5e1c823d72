"""Exact and stochastic estimators of trace(M^-1).

Every trace kernel takes one operand M, never written, that ``shifted_operand`` forms
as A + t*B (O(1) for B = I); ``prepare_trace`` is the one loop over t. The exact
Cholesky route turns a packed copy of M (n(n+1)/2 entries) in place into the inverse of
its factor in one recursive BLAS-3 pass with no triangular solve
(``matrices.inverse_factor``) and sums its squares on one thread, so it needs no other
buffer and sums no zeros. Hutchinson alone factors with dpftrf (``matrices.cholesky``).
The stochastic routes draw Rademacher probes from per-sample seed streams derived from
one master seed, so results are reproducible and independent of processing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .exceptions import InvalidShape, NotPositiveDefinite
from .matrices import (PIVOT_RTOL, SpdMatrix, checked_count, checked_orders, checked_shift,
                       _packed, cholesky, forward_solve, inverse_factor, lapack_map)

LANCZOS_BREAKDOWN_RTOL = 1e-13
PROBE_BLOCK = 64  # probes per block, so the Lanczos basis stays O(degree * n) whatever n_v is


@dataclass(frozen=True)
class TraceEstimate:
    """A trace(M^-1) value with method and sampling metadata."""

    value: float
    method: str  # "exact-cholesky" | "exact-eigen" | "hutchinson" | "slq"
    n_v: int = 0
    std_error: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidShape(f"trace estimate {self.value} is not finite")
        if self.value <= 0.0:
            raise NotPositiveDefinite(f"trace estimate {self.value} is not positive")
        if self.std_error < 0.0:
            raise InvalidShape("std_error must be nonnegative")

    def record(self, t=None):
        """JSON-ready dict; ``t`` is the shift the estimate was taken at.

        An undefined standard error (nan, from a single sample) is written
        as null.
        """
        return {
            "t": t,
            "value": self.value,
            "method": self.method,
            "n_v": self.n_v,
            "std_error": None if np.isnan(self.std_error) else self.std_error,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class LanczosTriDiag:
    """Tridiagonal output of the Lanczos recurrence."""

    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    steps: object  # steps of each column (an int for one start vector); zeros past them

    @property
    def degree(self):
        """Steps of the longest recurrence, read as the work of one call."""
        return self.alpha.shape[0]


@dataclass(frozen=True)
class StieltjesSum:
    """The positive sum t -> sum_j w_j / (x_j + t), defined for t > -min(x_j).

    Every tau curve here has this form: an eigendecomposition's trace, a fitted rational
    interpolant, and the bound tau0 / (1 + t*tau0), one weight 1 at 1/tau0. Positive weights
    make it positive and decreasing on its domain, whatever the sign of the nodes. It takes
    a scalar t (giving a float) or an array.
    """

    weights: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        w, x = (np.asarray(a, dtype=float).ravel() for a in (self.weights, self.nodes))
        if w.shape != x.shape or not w.size or not np.all(np.isfinite(w) & np.isfinite(x)):
            raise InvalidShape("a Stieltjes sum needs as many finite weights as nodes, and one")
        if np.any(w <= 0.0):
            raise NotPositiveDefinite("a Stieltjes sum needs positive weights")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", x)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        shifted = self.nodes + t[..., None]
        if np.any(shifted <= 0.0):
            raise NotPositiveDefinite(f"t={t.min()} is at or left of the sum's first pole "
                                      f"{-self.nodes.min()}")
        values = np.sum(self.weights / shifted, axis=-1)
        return float(values) if t.ndim == 0 else values


def shifted_operand(A: SpdMatrix, B: SpdMatrix | None, t) -> SpdMatrix:
    """A + t*B (B = None means B = I), the only code that shifts an operand.

    For B = I it is O(1): A's own storage carrying the shift A.shift + t, which every
    reader adds, so shifts compose as one sum. A stored B gives one fresh packed array,
    t*B then A added (as A + t*B rounds), or A itself at t = 0; none is re-checked for symmetry.
    """
    checked_orders(A, B)
    t = checked_shift(t)
    if B is None or B.is_identity:
        return replace(A, shift=A.shift + t)
    if t == 0.0:
        return A
    packed = _packed(B)
    packed *= t
    packed += _packed(A)
    return SpdMatrix(A.n, "packed", packed)


def trace_inv_exact_cholesky(M: SpdMatrix) -> TraceEstimate:
    """trace(M^-1) as the squared Frobenius norm of L^-1 from M = L L^T.

    ``inverse_factor`` returns U^-1 = L^-T packed in one fresh array of n(n+1)/2 entries:
    each entry of L^-1 once and no zeros, squared in place and summed by numpy's pairwise
    reduction on one thread (a BLAS dot would wake numpy's own thread pool).
    """
    W = inverse_factor(M)
    np.square(W, out=W)
    return TraceEstimate(value=float(W.sum()), method="exact-cholesky")


def trace_inv_exact_eigen(A: SpdMatrix, B: SpdMatrix | None = None) -> StieltjesSum:
    """trace((A + t*B)^-1) as a ``StieltjesSum`` from one (generalized) eigensolve.

    With eigenpairs (g_i, v_i) of the pencil (A, B) normalized so that
    V^T B V = I, the trace equals sum_i |v_i|^2 / (g_i + t): weights |v_i|^2 at
    the pencil's eigenvalues, and weight 1 at each eigenvalue of A when B is the
    identity. The total weight is trace(B^-1), since V V^T = B^-1.
    """
    if B is None or B.is_identity:
        gamma = scipy.linalg.eigh(A.to_dense(), eigvals_only=True, check_finite=False)
        return StieltjesSum(np.ones_like(gamma), gamma)
    try:
        gamma, V = scipy.linalg.eigh(A.to_dense(), B.to_dense(), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"B is not positive definite: {exc}") from exc
    return StieltjesSum(np.sum(V**2, axis=0), gamma)


def _probe_count(n_v, seed):
    """n_v as an int, checked together with the seed before any work is done."""
    if seed is None:
        raise InvalidShape("a stochastic estimate needs an integer seed; it names the probe set")
    return checked_count("n_v", n_v)


def _probe_blocks(n, n_v, seed):
    """The Rademacher probes of ``seed`` as (n, <= PROBE_BLOCK) blocks; probe k is column k."""
    streams = np.random.SeedSequence(seed).spawn(n_v)  # probe k's has spawn key (k,)
    for start in range(0, n_v, PROBE_BLOCK):
        yield np.column_stack([np.random.default_rng(s).integers(0, 2, size=n) * 2.0 - 1.0
                               for s in streams[start:start + PROBE_BLOCK]])


def _sample_mean(samples, method, seed) -> TraceEstimate:
    """Mean of per-probe samples with its standard error (nan for one sample)."""
    n_v = samples.size
    std_error = float(np.std(samples, ddof=1) / np.sqrt(n_v)) if n_v > 1 else float("nan")
    return TraceEstimate(value=float(np.mean(samples)), method=method, n_v=n_v,
                         std_error=std_error, seed=int(seed))


def trace_inv_hutchinson(M: SpdMatrix, n_v, seed) -> TraceEstimate:
    """Monte-Carlo trace estimate (1/n_v) * sum_k z_k^T M^-1 z_k.

    Probes z_k are Rademacher. One Cholesky factorization of M, packed,
    serves every probe, and each probe block takes one dtfsm solve on it.
    """
    n_v = _probe_count(n_v, seed)
    U = cholesky(M)
    solves = (forward_solve(U, Z) for Z in _probe_blocks(M.n, n_v, seed))  # Y = L^-1 Z
    samples = np.concatenate([np.sum(np.square(Y, out=Y), axis=0) for Y in solves])
    return _sample_mean(samples, "hutchinson", seed)


def lanczos(M: SpdMatrix, v0, degree) -> LanczosTriDiag:
    """Lanczos tridiagonalization with full reorthogonalization.

    ``v0`` is one start vector (n,) or a block (n, b) with one recurrence
    per column (not block Lanczos); each step makes one product with M.
    A column stops (graceful truncation) when its off-diagonal coefficient
    falls below LANCZOS_BREAKDOWN_RTOL times a cheap norm estimate of M,
    i.e. at an invariant subspace; its later entries are zero.
    """
    degree = checked_count("degree", degree)
    v0 = np.asarray(v0, dtype=float)
    V = v0.reshape(v0.shape[0], -1).T  # one row per recurrence
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms == 0.0):
        raise InvalidShape("start vector must be nonzero")
    breakdown = LANCZOS_BREAKDOWN_RTOL * max(M.entry_norm(), 1e-300)
    b, n = V.shape
    degree = min(degree, n)
    Q = np.zeros((b, degree, n))
    alpha, beta = np.zeros((2, degree, b))  # beta[k] couples steps k-1 and k; beta[0] = 0
    q = V / norms[:, None]
    k = 0
    while k < degree:
        if k:
            # full reorthogonalization of every column against its own basis
            coeffs = np.matmul(Q[:, :k], r[:, :, None])
            r -= np.matmul(coeffs.transpose(0, 2, 1), Q[:, :k])[:, 0]
            beta[k] = np.linalg.norm(r, axis=1)
            live = beta[k] >= breakdown  # a stopped column keeps r = 0 and stays stopped
            if not live.any():
                break
            beta[k, ~live] = 0.0
            q = r / np.where(live, beta[k], np.inf)[:, None]
        Q[:, k] = q
        u = M.matvec(q.T).T
        alpha[k] = np.einsum("ij,ij->i", q, u)
        r = u - alpha[k][:, None] * q - beta[k][:, None] * Q[:, k - 1]
        k += 1
    alpha, beta = alpha[:k], beta[1:k]
    steps = 1 + np.count_nonzero(beta, axis=0)  # live coefficients are >= breakdown > 0
    if v0.ndim == 1:
        return LanczosTriDiag(alpha=alpha[:, 0], beta=beta[:, 0], steps=int(steps[0]))
    return LanczosTriDiag(alpha=alpha, beta=beta, steps=steps)


def trace_inv_slq(M: SpdMatrix, n_v, degree, seed) -> TraceEstimate:
    """Stochastic Lanczos quadrature estimate of trace(M^-1).

    The recurrences read M in place, its shift included, so a B = I shift
    from ``shifted_operand`` is never added into a copy. Each Rademacher
    probe is normalized to a unit start vector, and each probe block is one
    ``lanczos`` call. The Gauss quadrature weights w_j are the
    squared first components of each probe's tridiagonal eigenvectors, and
    its estimate is n * sum_j w_j / theta_j. A quadrature node theta_j at or
    below PIVOT_RTOL times M's largest entry signals a numerically indefinite
    operand, the rule of the Cholesky pivot check.
    """
    n_v = _probe_count(n_v, seed)
    degree = checked_count("degree", degree)
    floor, samples = PIVOT_RTOL * M.entry_norm(), []
    for Z in _probe_blocks(M.n, n_v, seed):
        tri = lanczos(M, Z, degree)
        for j, s in enumerate(tri.steps):
            theta, vecs = scipy.linalg.eigh_tridiagonal(tri.alpha[:s, j], tri.beta[:s - 1, j])
            if np.min(theta) <= floor:
                raise NotPositiveDefinite(f"quadrature node {np.min(theta):.3e} <= {floor:.3e}; "
                                          "operand is numerically indefinite")
            samples.append(M.n * float(np.sum(vecs[0, :] ** 2 / theta)))
    return _sample_mean(np.array(samples), "slq", seed)


def estimate_trace_inv(M: SpdMatrix, method="cholesky", n_v=30, degree=30, seed=0) -> TraceEstimate:
    """One trace(M^-1) estimate by method name: ``prepare_trace`` at the single shift 0."""
    return prepare_trace(M, None, method, n_v, degree, seed)([0.0])[0]


def prepare_trace(A: SpdMatrix, B: SpdMatrix | None = None, method="cholesky", n_v=30,
                  degree=30, seed=0):
    """Back-end ts -> [estimate of trace((A + t*B)^-1) for t in ts], the only loop over t.

    B = None means B = I. This is the one reader of a method name: the method, and the
    seed, n_v and degree it uses, are checked before any work, and every shift of a call
    is checked finite before any is computed. ``method="eigen"`` does its one eigensolve
    here, so each later shift costs O(n); every other method runs its kernel on
    ``shifted_operand(A, B, t)``. Each distinct shift is computed once, kept across calls,
    and a call's new Cholesky shifts run side by side (``matrices.lapack_map``, bit for
    bit). The seed names one probe set, drawn at every shift, so a repeated shift needs
    no second estimate and a stochastic sweep decreases in t. The back-end's
    ``trace_b_inv``, taken here, is trace(B^-1): the eigen sum's total weight, n for
    B = I, and otherwise the same estimator and probe set applied to B.
    """
    checked_orders(A, B)  # refuses a B of another order before any work
    # Estimators are looked up at call time, so wrappers put on the module see each call.
    if method == "eigen":
        curve = trace_inv_exact_eigen(A, B)
    elif method == "cholesky":
        def kernel(M):
            return trace_inv_exact_cholesky(M)
    elif method == "hutchinson":
        n_v = _probe_count(n_v, seed)

        def kernel(M):
            return trace_inv_hutchinson(M, n_v, seed)
    elif method == "slq":
        n_v, degree = _probe_count(n_v, seed), checked_count("degree", degree)

        def kernel(M):
            return trace_inv_slq(M, n_v, degree, seed)
    else:
        raise InvalidShape(f"unknown trace method {method!r}")

    def estimate(t):
        if method == "eigen":
            return TraceEstimate(value=curve(t), method="exact-eigen")
        return kernel(shifted_operand(A, B, t))
    estimates = {}  # float(t) -> TraceEstimate

    def backend(ts):
        ts = [checked_shift(t) for t in ts]
        new = [t for t in dict.fromkeys(ts) if t not in estimates]
        computed = lapack_map(estimate, new, A.n) if method == "cholesky" else map(estimate, new)
        estimates.update(zip(new, computed))
        return [estimates[t] for t in ts]
    if method == "eigen":
        backend.trace_b_inv = float(np.sum(curve.weights))
    elif B is None or B.is_identity:
        backend.trace_b_inv = float(A.n)
    else:
        backend.trace_b_inv = kernel(B).value
    return backend
