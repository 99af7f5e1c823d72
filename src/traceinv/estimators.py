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

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .exceptions import InvalidShape, NotPositiveDefinite
from .matrices import (PIVOT_RTOL, SpdMatrix, checked_count, checked_orders, checked_shift,
                       _packed, cholesky, forward_solve, inverse_factor, lapack_map,
                       lapack_threads)

LANCZOS_BREAKDOWN_RTOL = 1e-13
# SLQ stops a probe block once every probe's certified gap is at most this fraction of the
# estimate's standard error, which bounds the bias it leaves at 0.1 SE (a 1% larger MSE).
BRACKET_SE_FRACTION = 0.1
PROBE_BLOCK = 64  # probes per block, so the Lanczos basis stays O(degree * n) whatever n_v is
_dgemm = scipy.linalg.blas.dgemm


@dataclass(frozen=True)
class TraceEstimate:
    """A trace(M^-1) value with method and sampling metadata."""

    value: float
    method: str  # "exact-cholesky" | "exact-eigen" | "hutchinson" | "slq"
    n_v: int = 0
    std_error: float = 0.0
    seed: int | None = None
    degree: int = 0  # the most Lanczos block steps any probe took; 0 for exact and Hutchinson
    bias_bound: float | None = None  # SLQ's mean certified gap; None where no node is certified

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
            "bias_bound": self.bias_bound,
        }


@dataclass(frozen=True)
class LanczosTriDiag:
    """One block Lanczos run (``lanczos``): its block tridiagonal and each column's Gauss rule."""

    bands: np.ndarray = field(repr=False)  # T_k in lower band storage: T[i, j] at [i - j, j]
    gauss: np.ndarray = field(repr=False)  # each column's Gauss value g_i
    gap: np.ndarray | None = field(repr=False)  # each g_i's certified gap; None with no node
    degree: int  # block steps taken, read as the work of one call


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


def _sample_mean(samples, method, seed, degree=0, bias_bound=None) -> TraceEstimate:
    """Mean of per-probe samples with its standard error (nan for one sample)."""
    n_v = samples.size
    std_error = float(np.std(samples, ddof=1) / np.sqrt(n_v)) if n_v > 1 else float("nan")
    return TraceEstimate(value=float(np.mean(samples)), method=method, n_v=n_v,
                         std_error=std_error, seed=int(seed), degree=degree,
                         bias_bound=bias_bound)


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


def _deflated_qr(W, tol, room, basis=None):
    """(Q, R) with W = Q R, Q orthonormal (n, r) and R (r, columns), up to the directions a
    pivoted QR of W (LAPACK dgeqp3) finds below tol; at most ``room`` are kept. W is
    overwritten. Given the kept orthonormal basis, to which W was made orthogonal once, the
    kept directions are made orthogonal to it again and normalized by a plain QR (block
    Gram-Schmidt twice with a QR between, BCGS2): a direction the pivoted QR finds small is
    a sum of larger columns, and only a pass on the normalized direction makes it orthogonal
    to working precision. The QR of b columns has O(n b^2) work and runs on one BLAS thread,
    like order b's (n = 2500, b = 30, 2 cores: 1.4 ms on one thread, 2.7 ms on two)."""
    with lapack_threads(W.shape[1]):
        Q, R, perm = scipy.linalg.qr(W, overwrite_a=True, mode="economic", pivoting=True,
                                     check_finite=False)
    rank = min(int(np.count_nonzero(np.abs(np.diag(R)) >= tol)), room)
    Q, R = Q[:, :rank], R[:rank, np.argsort(perm)]
    if basis is None or not rank:
        return Q, R
    Q = _dgemm(-1.0, basis, _dgemm(1.0, basis, Q, trans_a=1), 1.0, Q, overwrite_c=1)
    with lapack_threads(rank):
        Q, S = scipy.linalg.qr(Q, overwrite_a=True, mode="economic", check_finite=False)
    return Q, _dgemm(1.0, S, R)


def lanczos(M: SpdMatrix, v0, degree, se_fraction=None) -> LanczosTriDiag:
    """Block Lanczos with full reorthogonalization from the start block Z = ``v0`` (n, b); a
    vector (n,) is the block b = 1. It carries each column's block Gauss rule (Golub & Meurant
    1994) over the span of every column's Krylov vectors, and runs at most ``degree`` steps.

    Z = Q_1 R_1 and each step's residual block W = Q_{k+1} B_{k+1} come from ``_deflated_qr``,
    which drops directions below LANCZOS_BREAKDOWN_RTOL (times |Z| or M's largest entry), so
    n_v > n and invariant subspaces deflate; an empty block ends the run. A step makes one
    product M Q_k, one pass of block Gram-Schmidt against the kept basis (A_k is its last
    block), ``_deflated_qr``'s second pass and O(b^3) updates of the block LDL^T pivots
    D_k = A_k - B_k D_{k-1}^-1 B_k^T of T_k, with C_1 = R_1 and C_{k+1} = B_{k+1} D_k^-1 C_k:
    the Gauss value g_i = [R_1^T E_1^T T_k^-1 E_1 R_1]_ii grows by [C_k^T D_k^-1 C_k]_ii, and
    z_i - M x_i for its Galerkin solution x_i has norm |C_{k+1} e_i|. Where ``M.psd`` certifies
    the shift a > 0 as a lower bound on the spectrum, gap_i = |C_{k+1} e_i|^2 / a bounds the
    energy error z_i^T M^-1 z_i - g_i, and given ``se_fraction`` a block of two or more columns
    stops once every gap_i is at most ``se_fraction`` times the sample standard deviation of
    the g_i.
    Every BLAS-3 and QR call is scipy's, the BLAS ``matrices.lapack_threads`` switches.
    """
    degree = checked_count("degree", degree)
    Z = np.asarray(v0, dtype=float)
    Z = np.array(Z.reshape(Z.shape[0], -1), order="F")
    norms = np.linalg.norm(Z, axis=0)
    if np.any(norms == 0.0):
        raise InvalidShape("start vector must be nonzero")
    (n, b), node = Z.shape, M.shift if M.psd and M.shift > 0.0 else None
    breakdown = LANCZOS_BREAKDOWN_RTOL * max(M.entry_norm(), 1e-300)
    V = np.empty((n, min(degree * b, n)), order="F")  # written only as far as the steps run
    bands = np.zeros((2 * b, V.shape[1]))  # T_k[i, j] at bands[i - j, j]: bandwidth < 2b
    Q, C = _deflated_qr(Z, LANCZOS_BREAKDOWN_RTOL * norms.max(), n)
    gauss, gap, used = np.zeros(b), None, 0
    for k in range(1, degree + 1):
        basis, r = V[:, :used + Q.shape[1]], Q.shape[1]
        basis[:, used:] = Q
        U = M.matvec(basis[:, used:])
        H = _dgemm(1.0, basis, U, trans_a=1)
        A = (H[used:] + H[used:].T) / 2.0
        D = A if k == 1 else A - _dgemm(1.0, B, DB)  # B = B_k, DB = D_{k-1}^-1 B_k^T
        Q, B = _deflated_qr(_dgemm(-1.0, basis, H, 1.0, U, overwrite_c=1), breakdown,
                            n - used - r, basis)
        _, X, info = scipy.linalg.lapack.dposv(D, np.hstack([C, B.T]))
        if info:
            raise NotPositiveDefinite(f"block pivot {k} of the Lanczos matrix is not positive "
                                      "definite; operand is numerically indefinite")
        gauss += np.sum(C * X[:, :b], axis=0)
        C, DB = _dgemm(1.0, B, X[:, :b]), X[:, b:]
        rows, cols = np.tril_indices(r + len(B), 0, r)
        bands[rows - cols, used + cols] = np.vstack([A, B])[rows, cols]
        used += r
        if node is not None:
            gap = np.sum(C * C, axis=0) / node
        if not len(B) or (gap is not None and se_fraction is not None and b > 1
                          and np.all(gap <= se_fraction * np.std(gauss, ddof=1))):
            break
    return LanczosTriDiag(bands=bands[:, :used], gauss=gauss, gap=gap, degree=k)


def trace_inv_slq(M: SpdMatrix, n_v, degree, seed) -> TraceEstimate:
    """Stochastic Lanczos quadrature estimate of trace(M^-1), ``degree`` a cap on its steps.

    Each probe block is one ``lanczos`` run, which reads M in place, its shift included (a
    B = I shift from ``shifted_operand`` is never added into a copy), and each probe's sample
    is its block Gauss value g_i <= z_i^T M^-1 z_i. A smallest Ritz value (one ``eig_banded``
    on the block tridiagonal) at or below PIVOT_RTOL times M's largest entry signals a
    numerically indefinite operand, the rule of the Cholesky pivot check.

    Where M certifies a node (``SpdMatrix.psd`` and a shift a > 0), each probe's gap bounds
    its bias: a block stops once every gap is at most BRACKET_SE_FRACTION times the standard
    error s / sqrt(n_v), s the spread of the block's g_i, and ``bias_bound`` is the mean gap,
    which bounds the estimate's bias. A call that ends at the cap with a bias bound above its
    standard error warns. Any other operand runs to the cap and has no bias bound.
    """
    n_v = _probe_count(n_v, seed)
    degree = checked_count("degree", degree)
    floor, runs = PIVOT_RTOL * M.entry_norm(), []
    for Z in _probe_blocks(M.n, n_v, seed):
        runs.append(run := lanczos(M, Z, degree, BRACKET_SE_FRACTION / np.sqrt(n_v)))
        theta = scipy.linalg.eig_banded(run.bands, lower=True, eigvals_only=True, select="i",
                                        select_range=(0, 0), check_finite=False)[0]
        if theta <= floor:
            raise NotPositiveDefinite(f"quadrature node {theta:.3e} <= {floor:.3e}; "
                                      "operand is numerically indefinite")
    used = max(run.degree for run in runs)
    bias = None if runs[0].gap is None else float(np.mean(np.concatenate(
        [run.gap for run in runs])))
    est = _sample_mean(np.concatenate([run.gauss for run in runs]), "slq", seed, used, bias)
    if used == degree and bias is not None and bias > est.std_error:
        warnings.warn(f"SLQ at shift {M.shift:g} ran to its cap of {degree} steps with bias "
                      f"bound {bias:.3g} above its standard error {est.std_error:.3g}",
                      stacklevel=2)
    return est


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
