"""Construction and factorization of symmetric positive-definite operands.

Everything downstream (trace estimators, interpolants, the experiment
drivers) consumes what is defined here: ``SpdMatrix`` for the operands
A and B, ``cholesky`` for their lower factors, ``PointCloud`` for the
spatial kernel study and ``DesignMatrix`` for the ridge-regression study.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .exceptions import DimensionMismatch, InvalidShape, NotPositiveDefinite

SYMMETRY_RTOL = 1e-12
_SYMMETRY_TILE = 64  # the symmetry check compares tile pairs, never the whole transpose

# Pivots below this fraction of the largest diagonal entry are treated as
# numerically indefinite rather than as a valid factorization.
PIVOT_RTOL = 1e-14

# LAPACK calls on operands below this order run on one BLAS thread. On 2
# cores a second thread made the order-500 Cholesky trace 1.5-3x slower and
# its timing far less steady; one thread stayed faster up to order 1500.
ONE_THREAD_MAX_ORDER = 1024
_BLAS_THREADS_LOCK = threading.RLock()


@functools.cache
def _openblas_thread_counts():
    """(get, set) thread-count functions of each loaded LP64 OpenBLAS; () if none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps})
    except OSError:
        return ()
    controls = []
    for lib in map(ctypes.CDLL, (p for p in paths if "openblas" in os.path.basename(p))):
        for prefix in ("scipy_openblas", "openblas"):
            if hasattr(lib, f"{prefix}_set_num_threads"):
                get, set_count = lib[f"{prefix}_get_num_threads"], lib[f"{prefix}_set_num_threads"]
                get.argtypes, get.restype = [], ctypes.c_int
                set_count.argtypes, set_count.restype = [ctypes.c_int], None
                controls.append((get, set_count))
                break
    return tuple(controls)


@contextmanager
def lapack_threads(n):
    """Run the block on one BLAS thread when n < ONE_THREAD_MAX_ORDER.

    The count is process-wide, so such blocks take turns across Python
    threads, and other BLAS work done meanwhile also gets one thread.
    """
    controls = _openblas_thread_counts() if n < ONE_THREAD_MAX_ORDER else ()
    with _BLAS_THREADS_LOCK if controls else nullcontext():
        saved = [(set_count, get()) for get, set_count in controls]
        for set_count, _ in saved:
            set_count(1)
        try:
            yield
        finally:
            for set_count, count in saved:
                set_count(count)


def _is_symmetric(a, tol):
    """max |a - a^T| <= tol for a finite square array, one tile pair at a time.

    |a_ij - a_ji| is the same number on both sides of the diagonal, so the
    pairs of tiles on or above it see every entry of a - a^T.
    """
    n, b = a.shape[0], _SYMMETRY_TILE
    work = np.empty((b, b))
    for i in range(0, n, b):
        for j in range(i, n, b):
            diff = work[:min(b, n - i), :min(b, n - j)]
            np.subtract(a[i:i + b, j:j + b], a[j:j + b, i:i + b].T, out=diff)
            if np.abs(diff, out=diff).max() > tol:
                return False
    return True


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite operand.

    Storage is a dense array or an implicit identity (no stored entries).
    Positive definiteness is not checked at construction; it surfaces as
    :class:`NotPositiveDefinite` at factorization time.
    """

    n: int
    kind: str  # "dense" | "identity"
    data: object = field(repr=False, default=None)

    @classmethod
    def from_dense(cls, array):
        """Operand stored as a C-ordered float array, checked finite and symmetric.

        The operand keeps ``array`` itself when it is already a C-ordered
        float64 array (the caller's later writes show through), and one
        copy otherwise. The checks allocate one small tile, nothing n x n.
        """
        array = np.ascontiguousarray(array, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidShape(f"expected a square matrix, got shape {array.shape}")
        high, low = array.max(), array.min()  # NaN propagates through both
        if not (np.isfinite(high) and np.isfinite(low)):
            raise InvalidShape("matrix has non-finite entries")
        scale = max(high, -low) or 1.0
        if not _is_symmetric(array, SYMMETRY_RTOL * scale):
            raise InvalidShape("matrix is not symmetric within tolerance")
        return cls(n=array.shape[0], kind="dense", data=array)

    @classmethod
    def identity(cls, n):
        return cls(n=int(n), kind="identity", data=None)

    @property
    def is_identity(self):
        return self.kind == "identity"

    def to_dense(self):
        return np.eye(self.n) if self.is_identity else self.data

    def diagonal(self):
        return np.ones(self.n) if self.is_identity else np.diag(self.data)

    def trace(self):
        return float(self.diagonal().sum())

    def matvec(self, v):
        """Product with a vector (n,) or a block (n, b): one scipy dgemm of the
        F-ordered view data^T, transposed, so data and an F-ordered block are not copied."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionMismatch(f"vector length {v.shape[0]} != order {self.n}")
        if self.kind == "identity":
            return v.copy()
        block = v.reshape(self.n, -1)
        return scipy.linalg.blas.dgemm(1.0, self.data.T, block, trans_a=1).reshape(v.shape)

    def entry_norm(self):
        """Largest entry in absolute value, which a PSD matrix has on its diagonal."""
        return 1.0 if self.is_identity else float(np.max(np.abs(np.diag(self.data))))


def shifted_array(A: SpdMatrix, B: SpdMatrix | None = None, t=0.0) -> np.ndarray:
    """A + t*B (A alone when B is None) as a fresh F-ordered array the caller owns.

    Its memory is A + t*B in C order, so as a matrix it is the transpose,
    and its upper triangle is the lower triangle of A + t*B. For B = I it
    is a memcpy of A plus t on the diagonal; for a dense B it is t*B, then
    A added in place, which rounds exactly as A + t*B does.
    """
    if B is not None and A.n != B.n:
        raise DimensionMismatch(f"orders differ: {A.n} vs {B.n}")
    if B is None or B.is_identity:
        shifted = A.to_dense().T.copy(order="F")
        if B is not None:
            shifted[np.diag_indices(A.n)] += float(t)
        return shifted
    shifted = B.to_dense().T.copy(order="F")
    shifted *= float(t)
    shifted += A.to_dense().T
    return shifted


def cholesky(A: SpdMatrix, B: SpdMatrix | None = None, t=0.0) -> np.ndarray:
    """C-ordered lower-triangular L with A + t*B = L L^T (B = None: A = L L^T).

    Raises NotPositiveDefinite on failure. The only n x n array the call
    allocates is the ``shifted_array`` buffer, which dpotrf overwrites with
    L^T: it factors that buffer's upper triangle, i.e. the lower triangle
    of A + t*B. L is the transposed view of that buffer and the caller owns
    it; A and B are never written.
    """
    if B is None and A.is_identity:
        return np.eye(A.n)
    shifted = shifted_array(A, B, t)
    max_diag = float(np.max(np.diag(shifted)))
    with lapack_threads(A.n):
        U, info = scipy.linalg.lapack.dpotrf(shifted, lower=0, overwrite_a=1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (dpotrf info={info})")
    L = U.T
    pivots = np.diag(L) ** 2
    if np.min(pivots) < PIVOT_RTOL * max_diag:
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance {PIVOT_RTOL * max_diag:.3e}; "
            "matrix is numerically indefinite"
        )
    return L


@dataclass(frozen=True)
class PointCloud:
    """Planar points in the unit square."""

    coords: np.ndarray  # (n, 2)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidShape(f"expected (n, 2) coordinates, got {coords.shape}")
        if coords.size and (coords.min() < 0.0 or coords.max() > 1.0):
            raise InvalidShape("coordinates must lie in [0, 1]^2")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self):
        return self.coords.shape[0]


def grid_points(side) -> PointCloud:
    """Deterministic cell-center grid of side^2 points over [0, 1]^2.

    side = 1 gives the single point (0.5, 0.5); side = 2 gives the four
    points with coordinates in {0.25, 0.75}.
    """
    side = int(side)
    if side < 1:
        raise InvalidShape("side must be >= 1")
    centers = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    return PointCloud(coords=np.column_stack([xs.ravel(), ys.ravel()]))


def random_points(count, seed) -> PointCloud:
    """Uniform random points over [0, 1]^2, for comparison with the grid."""
    rng = np.random.default_rng(seed)
    return PointCloud(coords=rng.uniform(0.0, 1.0, size=(int(count), 2)))


def build_kernel(points: PointCloud, kernel_fn) -> SpdMatrix:
    """Dense kernel matrix K_ij = kernel_fn(d_ij) over pairwise Euclidean distances.

    ``kernel_fn`` receives the n x n distance array, which nothing else
    holds, so it may overwrite it and return it as K.
    """
    import scipy.spatial.distance  # ~85 ms to load, so only kernel builds pay it
    dists = scipy.spatial.distance.cdist(points.coords, points.coords)
    K = kernel_fn(dists)
    np.fill_diagonal(K, kernel_fn(np.zeros(points.n)))
    return SpdMatrix.from_dense(K)


def build_exponential_kernel(points: PointCloud, rho) -> SpdMatrix:
    """Isotropic exponential-decay correlation matrix exp(-|x_i - x_j| / rho), built in place."""
    rho = float(rho)
    if rho <= 0.0:
        raise InvalidShape("rho must be positive")
    return build_kernel(points, lambda d: np.exp(np.divide(d, -rho, out=d), out=d))


@dataclass(frozen=True)
class DesignMatrix:
    """Tall design matrix X = U S V^T built from two Householder reflectors.

    U = I - 2 u u^T / |u|^2 (order n) and V = I - 2 v v^T / |v|^2 (order m)
    are never materialized; X is assembled with rank-1 updates. The diagonal
    of S follows the decaying profile ``exp(-decay_coeff * ((i-1)/m)**decay_exp)``,
    which makes X numerically singular for the default parameters.
    """

    matrix: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    decay_coeff: float
    decay_exp: float

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def m(self):
        return self.matrix.shape[1]

    def singular_values(self):
        i = np.arange(1, self.m + 1)
        return np.exp(-self.decay_coeff * ((i - 1) / self.m) ** self.decay_exp)


def apply_householder(u, vectors):
    """Apply (I - 2 u u^T / |u|^2) to the columns of ``vectors``."""
    u = np.asarray(u, dtype=float)
    scale = 2.0 / np.dot(u, u)
    return vectors - np.outer(u, scale * (u @ vectors))


def build_design_matrix(n, m, u, v, decay_coeff=40.0, decay_exp=0.75) -> DesignMatrix:
    """Assemble X = U S V^T without forming the n-by-n reflector U."""
    n, m = int(n), int(m)
    if n <= m:
        raise InvalidShape(f"need n > m, got n={n}, m={m}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (n,) or v.shape != (m,):
        raise DimensionMismatch("u must have length n and v length m")
    if not np.any(u) or not np.any(v):
        raise InvalidShape("u and v must be nonzero")
    sigma = np.exp(-decay_coeff * (np.arange(m) / m) ** decay_exp)
    # Top m rows of S V^T, as a rank-1 update of diag(sigma); rows m..n are zero.
    top = np.diag(sigma) - np.outer(sigma * v, (2.0 / np.dot(v, v)) * v)
    X = np.zeros((n, m))
    X[:m, :] = top
    X = apply_householder(u, X)
    return DesignMatrix(matrix=X, u=u, v=v, decay_coeff=float(decay_coeff),
                        decay_exp=float(decay_exp))
