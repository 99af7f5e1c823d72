"""Exact and stochastic estimators of trace(M^-1).

Every trace kernel takes one operand M, never written, that ``shifted_operand`` forms
as A + t*B (O(1) for B = I); ``prepare_trace`` is the one loop over t. The exact
Cholesky route turns a packed copy of M (n(n+1)/2 entries) in place into the inverse of
its factor in one recursive BLAS-3 pass with no triangular solve
(``matrices.inverse_factor``) and sums its squares on one thread, so it needs no other
buffer and sums no zeros. Hutchinson solves on that pass's first half (``matrices.cholesky``).
The stochastic routes draw Rademacher probes from per-sample seed streams derived from
one master seed, so results are reproducible and independent of processing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .exceptions import InvalidShape, NotPositiveDefinite
from .matrices import (PIVOT_RTOL, SpdMatrix, checked_count, checked_orders, checked_shift,
                       _packed, cholesky, forward_solve, inverse_factor, lapack_map)

LANCZOS_BREAKDOWN_RTOL = 1e-13
# SLQ stops a probe block once every probe's Gauss-Radau bracket is at most this fraction of
# the estimate's standard error, which bounds the bias it leaves at 0.1 SE (a 1% larger MSE).
RADAU_SE_FRACTION = 0.1
PROBE_BLOCK = 64  # probes per block, so the Lanczos basis stays O(degree * n) whatever n_v is


@dataclass(frozen=True)
class TraceEstimate:
    """A trace(M^-1) value with method and sampling metadata."""

    value: float
    method: str  # "exact-cholesky" | "exact-eigen" | "hutchinson" | "slq"
    n_v: int = 0
    std_error: float = 0.0
    seed: int | None = None
    degree: int = 0  # the most Lanczos steps any probe took; 0 for exact and Hutchinson

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
            "degree": self.degree,
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
    """The Rademacher probes of ``seed`` as ceil(n_v / PROBE_BLOCK) blocks (n, <= PROBE_BLOCK)
    of widths within one, never a short tail that SLQ cannot stop; probe k is column k."""
    streams = np.random.SeedSequence(seed).spawn(n_v)  # probe k's has spawn key (k,)
    for part in np.array_split(np.arange(n_v), -(-n_v // PROBE_BLOCK)):
        yield np.column_stack([np.random.default_rng(streams[k]).integers(0, 2, size=n) * 2.0
                               - 1.0 for k in part])


def _sample_mean(samples, method, seed, degree=0) -> TraceEstimate:
    """Mean of per-probe samples with its standard error (nan for one sample)."""
    n_v = samples.size
    std_error = float(np.std(samples, ddof=1) / np.sqrt(n_v)) if n_v > 1 else float("nan")
    return TraceEstimate(value=float(np.mean(samples)), method=method, n_v=n_v,
                         std_error=std_error, seed=int(seed), degree=degree)


def trace_inv_hutchinson(M: SpdMatrix, n_v, seed) -> TraceEstimate:
    """Monte-Carlo trace estimate (1/n_v) * sum_k z_k^T M^-1 z_k.

    Probes z_k are Rademacher. One Cholesky factorization of M, packed,
    serves every probe, and each probe block takes one ``forward_solve`` on it.
    """
    n_v = _probe_count(n_v, seed)
    U = cholesky(M)
    solves = (forward_solve(U, Z) for Z in _probe_blocks(M.n, n_v, seed))  # Y = L^-1 Z
    samples = np.concatenate([np.sum(np.square(Y, out=Y), axis=0) for Y in solves])
    return _sample_mean(samples, "hutchinson", seed)


class _Bracket(NamedTuple):
    """One step's Gauss and Gauss-Radau values, with the LDL^T pivots that carry them on."""

    d: np.ndarray  # last pivot of T_k
    e: np.ndarray  # last pivot of T_k - aI
    c2: np.ndarray  # squared entry k + 1 of L^-1 e1, for the next step
    gauss: np.ndarray  # g_k = e1^T T_k^-1 e1
    radau: np.ndarray  # r_k
    ok: np.ndarray  # every pivot of T_j - aI and every d_R so far was positive


def _gauss_radau(prev, alpha, beta, beta_next, a) -> _Bracket:
    """Step k of the bracket g_k <= e1^T M^-1 e1 <= r_k, elementwise over columns, in O(1).

    T_k is the Lanczos tridiagonal after step k: ``alpha`` is its last diagonal entry, ``beta``
    couples it to step k - 1 (0 at the first step, where ``prev`` is None) and ``beta_next``
    is the coefficient the next step would use. With the pivots d_k of T_k and e_k of T_k - aI,
    g_k = g_{k-1} + c_k^2 / d_k, where c_1 = 1 and c_{k+1} = c_k beta_next / d_k. The
    Gauss-Radau rule with the prescribed node a extends T_k by beta_next and the diagonal entry
    omega = a + beta_next^2 / e_k, whose last pivot is d_R = omega - beta_next^2 / d_k, so
    r_k = g_k + c_{k+1}^2 / d_R. For a <= lambda_min(M) every e_k and d_R is positive and
    g_k <= z^T M^-1 z / |z|^2 <= r_k for the start vector z (Golub & Meurant 1994).
    """
    d, e, c2, gauss, _, ok = prev if prev is not None else (1.0, 1.0, 1.0, 0.0, 0.0, True)
    d, e = alpha - beta**2 / d, alpha - a - beta**2 / e
    gauss = gauss + c2 / d
    c2 = c2 * (beta_next / d) ** 2
    d_radau = a + beta_next**2 / e - beta_next**2 / d
    return _Bracket(d, e, c2, gauss, gauss + c2 / d_radau, ok & (e > 0.0) & (d_radau > 0.0))


def lanczos(M: SpdMatrix, v0, degree, se_fraction=None) -> LanczosTriDiag:
    """Lanczos tridiagonalization with full reorthogonalization.

    ``v0`` is one start vector (n,) or a block (n, b) with one recurrence
    per column (not block Lanczos); each step makes one product with M.
    A column stops (graceful truncation) when its off-diagonal coefficient
    falls below LANCZOS_BREAKDOWN_RTOL times a cheap norm estimate of M,
    i.e. at an invariant subspace; its later entries are zero.

    Given ``se_fraction``, a block of two or more columns on an operand that certifies its
    stored part PSD (``SpdMatrix.psd``) and carries a shift a > 0, so a <= lambda_min(M),
    takes a as the Gauss-Radau node: each column carries its bracket (``_gauss_radau``), and
    the block stops before the product of a step once every column's r_k - g_k is at most
    ``se_fraction`` times the sample standard deviation of the columns' g_k, and every pivot
    of the bracket is positive. Otherwise, and with ``se_fraction=None``, ``degree`` steps
    are run, as they would be with a node whose bracket never closes.
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
    certified = se_fraction is not None and b > 1 and M.psd and M.shift > 0.0
    node = M.shift if certified else None
    Q = np.zeros((b, degree, n))
    alpha, beta = np.zeros((2, degree, b))  # beta[k] couples steps k-1 and k; beta[0] = 0
    q = V / norms[:, None]
    live, bracket = np.ones(b, dtype=bool), None
    k = 0
    while k < degree:
        if k:
            # full reorthogonalization of every column against its own basis
            coeffs = np.matmul(Q[:, :k], r[:, :, None])
            r -= np.matmul(coeffs.transpose(0, 2, 1), Q[:, :k])[:, 0]
            beta[k] = np.linalg.norm(r, axis=1)
            ran, live = live, beta[k] >= breakdown  # a stopped column keeps r = 0, stays stopped
            if not live.any():
                break
            beta[k, ~live] = 0.0
            if node is not None:
                with np.errstate(divide="ignore", invalid="ignore"):  # in columns that stopped
                    step = _gauss_radau(bracket, alpha[k - 1], beta[k - 1], beta[k], node)
                # a stopped column keeps the bracket of its last step, closed (beta_next = 0)
                bracket = step if bracket is None else _Bracket(
                    *(np.where(ran, new, old) for new, old in zip(step, bracket)))
                gap, spread = bracket.radau - bracket.gauss, np.std(bracket.gauss, ddof=1)
                if bracket.ok.all() and np.all(gap <= se_fraction * spread):
                    break
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
    """Stochastic Lanczos quadrature estimate of trace(M^-1), ``degree`` a cap on its steps.

    The recurrences read M in place, its shift included, so a B = I shift
    from ``shifted_operand`` is never added into a copy. Each Rademacher
    probe is normalized to a unit start vector, and each probe block is one
    ``lanczos`` call. The Gauss quadrature weights w_j are the
    squared first components of each probe's tridiagonal eigenvectors, and
    its estimate is n * sum_j w_j / theta_j. A quadrature node theta_j at or
    below PIVOT_RTOL times M's largest entry signals a numerically indefinite
    operand, the rule of the Cholesky pivot check.

    When M certifies its stored part PSD (``SpdMatrix.psd``) and carries a shift a > 0, a is
    a lower bound on its spectrum and the Gauss-Radau node: ``lanczos`` stops a block of two
    or more probes once every probe's bracket n (r_k - g_k) is at most RADAU_SE_FRACTION
    times the standard error s / sqrt(n_v), s the spread of the block's n g_k. Any other
    operand runs to the cap.
    """
    n_v = _probe_count(n_v, seed)
    degree = checked_count("degree", degree)
    floor, samples, used = PIVOT_RTOL * M.entry_norm(), [], 0
    for Z in _probe_blocks(M.n, n_v, seed):
        tri = lanczos(M, Z, degree, RADAU_SE_FRACTION / np.sqrt(n_v))
        used = max(used, tri.degree)
        for j, s in enumerate(tri.steps):
            theta, vecs = scipy.linalg.eigh_tridiagonal(tri.alpha[:s, j], tri.beta[:s - 1, j])
            if np.min(theta) <= floor:
                raise NotPositiveDefinite(f"quadrature node {np.min(theta):.3e} <= {floor:.3e}; "
                                          "operand is numerically indefinite")
            samples.append(M.n * float(np.sum(vecs[0, :] ** 2 / theta)))
    return _sample_mean(np.array(samples), "slq", seed, used)


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
