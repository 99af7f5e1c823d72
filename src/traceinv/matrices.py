"""Construction and factorization of symmetric positive-definite operands.

Everything downstream (trace estimators, interpolants, the experiment
drivers) consumes what is defined here: ``SpdMatrix`` for the operands
A and B, ``cholesky`` and ``inverse_factor`` for the packed Cholesky factor
of one operand and its inverse, ``forward_solve`` for solves with the factor,
``PointCloud`` for the spatial kernel study and ``DesignMatrix`` for ridge regression.
Nothing here shifts an operand: the factorizations take A + t*B as the one operand
``estimators.shifted_operand`` forms, and copy it without writing it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg.cython_blas
import scipy.linalg.cython_lapack

from .exceptions import DimensionMismatch, InvalidShape, NotPositiveDefinite

SYMMETRY_RTOL = 1e-12
_SYMMETRY_TILE = 64  # the symmetry check compares tile pairs, never the whole transpose

# Pivots below this fraction of the largest diagonal entry are treated as
# numerically indefinite rather than as a valid factorization.
PIVOT_RTOL = 1e-14

# LAPACK calls on operands below this order run on one BLAS thread. Exact
# traces by the fused factor-and-invert kernel on 2 cores (OpenBLAS 0.3.31,
# three alternating processes per count, medians): order 500 took 2.5-3.7 ms
# on one thread and 2.5-2.6 ms on two, at 2.5x the CPU time; order 1000
# 14-16 against 10-13 ms at 1.4-1.6x; order 1500 38-52 against 30-35 ms.
# Below about order 1000 a second thread saves little wall time for up to
# twice the CPU, so 1024 stays.
ONE_THREAD_MAX_ORDER = 1024
_BLAS_THREADS_LOCK = threading.RLock()
_LENT = threading.local()  # .held: this thread runs for a lapack_threads block another holds
_POOLS = {}  # process id -> lapack_map's threads (a forked child has none of its parent's)


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
    """Run the block on one BLAS thread when n < ONE_THREAD_MAX_ORDER; yields the smallest
    count it replaced (None if none). The count is process-wide, so such blocks take turns
    across Python threads under one lock, and other BLAS work meanwhile gets one thread too.
    On a thread ``lapack_map`` lends to a held block, it switches and locks nothing."""
    lent = getattr(_LENT, "held", False)
    controls = _openblas_thread_counts() if n < ONE_THREAD_MAX_ORDER and not lent else ()
    with _BLAS_THREADS_LOCK if controls else nullcontext():
        saved = [(set_count, get()) for get, set_count in controls]
        for set_count, _ in saved:
            set_count(1)
        try:
            yield min((count for _, count in saved), default=None)
        finally:
            for set_count, count in saved:
                set_count(count)


def _batch_width(blas_threads, count):  # usable CPUs, at most the BLAS count it replaced
    return min(len(os.sched_getaffinity(0)), blas_threads, count)


def lapack_map(fn, items, n):
    """``map(fn, items)``, where fn runs LAPACK of order n. Two items or more, n below
    ONE_THREAD_MAX_ORDER and a switchable BLAS make a batch in one ``lapack_threads`` block:
    item k on thread k mod w (``_batch_width``), thread 0 the caller and the rest from one
    pool, each making the calls ``map`` would, so the same bits. All threads end before the
    block does; then the first failing item's error in order is raised."""
    if len(items) < 2 or n >= ONE_THREAD_MAX_ORDER or not _openblas_thread_counts():
        return map(fn, items)
    results, errors = [None] * len(items), {}

    def run(first):  # items first, first + width, ... up to the first that raises
        _LENT.held = True
        try:
            for k in range(first, len(items), width):
                results[k] = fn(items[k])
        except Exception as exc:
            errors[k] = exc
        finally:
            _LENT.held = False
    with lapack_threads(n) as blas_threads:
        width = _batch_width(blas_threads, len(items))
        if width > 1 and os.getpid() not in _POOLS:
            _POOLS[os.getpid()] = ThreadPoolExecutor(len(os.sched_getaffinity(0)), "lapack_map")
        futures = [_POOLS[os.getpid()].submit(run, first) for first in range(1, width)]
        try:
            run(0)
        finally:
            for future in futures:
                future.result()  # waits; raises only what run lets through
    if errors:
        raise errors[min(errors)]
    return results


# Diagonal blocks of at most this order go to LAPACK dpotrf and dtrtri. Leaves
# of 64-192 timed within noise at order 500 (one thread) and 128 and 192 at 2500
# (two); 256 was slower at 500 (2 cores, OpenBLAS 0.3.31). 128 stays.
TRIANGULAR_LEAF_ORDER = 128


def _cython_routine(module, name, *argtypes):
    """ctypes handle on a routine exported by scipy.linalg.cython_blas or cython_lapack.

    These are scipy's own OpenBLAS routines, the ones ``lapack_threads``
    switches. Unlike the f2py wrappers they take a leading dimension, so
    they work on a block of a larger array without copying it.
    """
    capsule = module.__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer_of(capsule, name_of(capsule)))


_CHAR, _ADDRESS = ctypes.c_char_p, ctypes.c_void_p  # _ADDRESS: a double * into the array
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_ONE, _MINUS_ONE = ctypes.c_double(1.0), ctypes.c_double(-1.0)  # alpha and beta, only read
# dtrtri(uplo, diag, n, a, lda, info), dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda,
# b, ldb), dtrttf(transr, uplo, n, a, lda, arf, info), dpftrf(transr, uplo, n, a, info),
# dtfsm(transr, side, uplo, trans, diag, m, n, alpha, a, b, ldb), dpotrf(uplo, n, a, lda,
# info), dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc), dtfttr(transr, uplo, n, arf,
# a, lda, info), dgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) and
# dsymm(side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc)
_dtrtri = _cython_routine(scipy.linalg.cython_lapack, "dtrtri",
                          _CHAR, _CHAR, _INT, _ADDRESS, _INT, _INT)
_dtrmm = _cython_routine(scipy.linalg.cython_blas, "dtrmm", _CHAR, _CHAR, _CHAR, _CHAR, _INT,
                         _INT, _DOUBLE, _ADDRESS, _INT, _ADDRESS, _INT)
_dtrttf = _cython_routine(scipy.linalg.cython_lapack, "dtrttf",
                          _CHAR, _CHAR, _INT, _ADDRESS, _INT, _ADDRESS, _INT)
_dpftrf = _cython_routine(scipy.linalg.cython_lapack, "dpftrf", _CHAR, _CHAR, _INT, _ADDRESS, _INT)
_dpotrf = _cython_routine(scipy.linalg.cython_lapack, "dpotrf", _CHAR, _INT, _ADDRESS, _INT, _INT)
_dsyrk = _cython_routine(scipy.linalg.cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _DOUBLE,
                         _ADDRESS, _INT, _DOUBLE, _ADDRESS, _INT)
_dtfsm = _cython_routine(scipy.linalg.cython_lapack, "dtfsm", _CHAR, _CHAR, _CHAR, _CHAR, _CHAR,
                         _INT, _INT, _DOUBLE, _ADDRESS, _ADDRESS, _INT)
_dtfttr = _cython_routine(scipy.linalg.cython_lapack, "dtfttr",
                          _CHAR, _CHAR, _INT, _ADDRESS, _ADDRESS, _INT, _INT)
_dgemm = _cython_routine(scipy.linalg.cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT,
                         _DOUBLE, _ADDRESS, _INT, _ADDRESS, _INT, _DOUBLE, _ADDRESS, _INT)
_dsymm = _cython_routine(scipy.linalg.cython_blas, "dsymm", _CHAR, _CHAR, _INT, _INT, _DOUBLE,
                         _ADDRESS, _INT, _ADDRESS, _INT, _DOUBLE, _ADDRESS, _INT)


def packed_diagonal(n):
    """Positions of U's diagonal in ``cholesky``'s storage, LAPACK's rectangular full packed
    storage with TRANSR = 'N', UPLO = 'U': with n1 = n // 2, an F-ordered array of leading
    dimension 2 n1 + 1 holds U12 at offset 0, U22 at n1 and U11^T (lower) at n1 + 1. UPLO = 'U'
    is A's lower triangle read F-ordered; the four variants factored within 10% of each other."""
    n1, i = n // 2, np.arange(n)
    return np.where(i < n1, n1 + 1 + i * (2 * n1 + 2), n1 + (i - n1) * (2 * n1 + 2))


def _packed_order(U) -> int:
    """n if U is a contiguous float64 array of n(n+1)/2 > 0 entries."""
    n = (math.isqrt(8 * U.size + 1) - 1) // 2 if isinstance(U, np.ndarray) else 0
    if (not n or n * (n + 1) // 2 != U.size or U.dtype != np.float64 or U.ndim != 1
            or not U.flags.c_contiguous):
        raise InvalidShape("expected a contiguous float64 packed triangle")
    return n


def _factor_invert(uplo, address, ld, order):
    """Overwrite the SPD uplo triangle of this order at ``address``, leading dimension ld,
    with the inverse of its Cholesky factor (U^-1 of A = U^T U, L^-1 of A = L L^T).

    Returns dpotrf's info. One recursive pass (Bientinesi, Gunter & van de Geijn, ACM TOMS
    2008; Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Review 2004): with W11 = U11^-1
    formed, U12 = W11^T A12 is a dtrmm, not a solve; A22 - U12^T U12 (dsyrk) is recursed on,
    and -W11 U12 W22 is two more dtrmm calls (lower: the mirror image). Blocks of order <=
    TRIANGULAR_LEAF_ORDER go to dpotrf, then dtrtri. (A closure calling itself would be a
    reference cycle, keeping the array alive until the cycle collector ran.)"""
    lda, info = ctypes.c_int(ld), ctypes.c_int(0)
    if order <= TRIANGULAR_LEAF_ORDER:
        _dpotrf(uplo, ctypes.c_int(order), address, lda, info)
        if not info.value:  # dtrtri cannot fail on dpotrf's positive diagonal
            _dtrtri(uplo, b"N", ctypes.c_int(order), address, lda, info)
        return info.value
    half, rest = order // 2, order - order // 2
    second = address + 8 * half * (ld + 1)  # the second half's first diagonal entry
    if uplo == b"U":  # X above the second half, X W22 on the right
        X, rows, cols, left, right, side, trans = (address + 8 * half * ld, half, rest,
                                                   address, second, b"L", b"T")
    else:  # X left of the second half, W22 X on the left
        X, rows, cols, left, right, side, trans = (address + 8 * half, rest, half, second,
                                                   address, b"R", b"N")
    rows, cols = ctypes.c_int(rows), ctypes.c_int(cols)
    if info := _factor_invert(uplo, address, ld, half):
        return info
    _dtrmm(side, uplo, b"T", b"N", rows, cols, _ONE, address, lda, X, lda)
    _dsyrk(uplo, trans, ctypes.c_int(rest), ctypes.c_int(half), _MINUS_ONE, X, lda, _ONE,
           second, lda)
    if info := _factor_invert(uplo, second, ld, rest):
        return half + info
    _dtrmm(b"L", uplo, b"N", b"N", rows, cols, _MINUS_ONE, left, lda, X, lda)
    _dtrmm(b"R", uplo, b"N", b"N", rows, cols, _ONE, right, lda, X, lda)
    return 0


# Symmetric triangles of at most this order go whole to dsymm in ``SpdMatrix.matvec``, larger
# ones split in halves: at n = 2500 leaves of order 625 (2 cores, OpenBLAS 0.3.31).
SYMMETRIC_LEAF_ORDER = 1024


def _off_diagonal_product(X, ld, rows, cols, Z, Y, r, c):
    """Y[r:r + rows] += X Z[c:c + cols] and Y[c:c + cols] += X^T Z[r:r + rows], two dgemm, for
    the rows x cols block X (leading dimension ld) of a symmetric matrix; Z and Y F-ordered."""
    ldz, width, m, k = map(ctypes.c_int, (*Z.shape, rows, cols))
    z, y = Z.ctypes.data, Y.ctypes.data
    _dgemm(b"N", b"N", m, width, k, _ONE, X, ld, z + 8 * c, ldz, _ONE, y + 8 * r, ldz)
    _dgemm(b"T", b"N", k, width, m, _ONE, X, ld, z + 8 * r, ldz, _ONE, y + 8 * c, ldz)


def _symmetric_product(uplo, a, ld, order, Z, Y, r):
    """Y[r:r + order] += T Z[r:r + order] for the symmetric T whose uplo triangle is at a:
    dsymm up to SYMMETRIC_LEAF_ORDER, else each half recursed on and joined (dgemm)."""
    if order <= SYMMETRIC_LEAF_ORDER:
        ldz, width = map(ctypes.c_int, Z.shape)
        return _dsymm(b"L", uplo, ctypes.c_int(order), width, _ONE, a, ld, Z.ctypes.data + 8 * r,
                      ldz, _ONE, Y.ctypes.data + 8 * r, ldz)
    half, rest = order // 2, order - order // 2
    if uplo == b"U":  # T12 above the second half
        _off_diagonal_product(a + 8 * half * ld.value, ld, half, rest, Z, Y, r, r + half)
    else:  # T21 left of it
        _off_diagonal_product(a + 8 * half, ld, rest, half, Z, Y, r + half, r)
    _symmetric_product(uplo, a, ld, half, Z, Y, r)
    _symmetric_product(uplo, a + 8 * half * (ld.value + 1), ld, rest, Z, Y, r + half)


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
    """Symmetric positive-definite operand: data + shift * I.

    Storage is packed (one triangle, n(n+1)/2 doubles in ``cholesky``'s storage, see
    ``packed_diagonal``) or an implicit identity (no stored entries), plus a diagonal shift
    that every reader adds, so A + t*I shares A's array (``estimators.shifted_operand``).
    Positive definiteness surfaces as :class:`NotPositiveDefinite` at factorization time.
    ``psd`` certifies that the stored part, before the shift, is positive semidefinite, so
    that the shift is a lower bound on the spectrum: ``build_exponential_kernel``, ``identity``
    and ``GcvProblem.shifted_gram`` (X^T X) set it, a B = I shift keeps it, and ``from_dense``
    and a stored-B shift leave it False.
    """

    n: int
    kind: str  # "packed" | "identity"
    data: object = field(repr=False, default=None)
    shift: float = 0.0
    psd: bool = False

    def __post_init__(self):  # the BLAS routines take data by address, so its size is checked
        if self.kind == "packed" and _packed_order(self.data) != self.n:
            raise InvalidShape(f"packed data does not hold a triangle of order {self.n}")

    @classmethod
    def from_dense(cls, array):
        """The lower triangle of a square array checked finite and symmetric, packed by one
        dtrttf into a fresh array; the checks allocate one small tile, nothing n x n."""
        array = np.ascontiguousarray(array, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1] or not array.size:
            raise InvalidShape(f"expected a non-empty square matrix, got shape {array.shape}")
        high, low = array.max(), array.min()  # NaN propagates through both
        if not (np.isfinite(high) and np.isfinite(low)):
            raise InvalidShape("matrix has non-finite entries")
        scale = max(high, -low) or 1.0
        if not _is_symmetric(array, SYMMETRY_RTOL * scale):
            raise InvalidShape("matrix is not symmetric within tolerance")
        n, packed = ctypes.c_int(len(array)), np.empty((array.size + len(array)) // 2)
        _dtrttf(b"N", b"U", n, array.ctypes.data, n, packed.ctypes.data, ctypes.c_int(0))
        return cls(n=n.value, kind="packed", data=packed)

    @classmethod
    def identity(cls, n):
        return cls(n=checked_count("the order of a non-empty identity", n), kind="identity",
                   psd=True)

    @property
    def is_identity(self):
        return self.kind == "identity"

    def to_dense(self):
        """The entries in a fresh C-ordered array: ``_packed`` unpacked by dtfttr, then mirrored."""
        dense, n, packed = np.zeros((self.n, self.n)), ctypes.c_int(self.n), _packed(self)
        _dtfttr(b"N", b"U", n, packed.ctypes.data, dense.ctypes.data, n, ctypes.c_int(0))
        dense += np.triu(dense.T, 1)
        return dense

    def diagonal(self):
        stored = np.ones(self.n) if self.is_identity else self.data[packed_diagonal(self.n)]
        return stored + self.shift

    def trace(self):
        return float(self.diagonal().sum())

    def matvec(self, v):
        """Product with a vector (n,) or a block (n, b), F-ordered (else copied): two dgemm on
        the packed square block, ``_symmetric_product`` on each triangle, plus shift * block."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionMismatch(f"vector length {v.shape[0]} != order {self.n}")
        block = np.asfortranarray(v.reshape(self.n, -1))
        if self.is_identity:
            product = block.copy()
        else:
            product, n1 = np.zeros(block.shape, order="F"), self.n // 2
            a, ld = self.data.ctypes.data, ctypes.c_int(2 * n1 + 1)
            _off_diagonal_product(a, ld, n1, self.n - n1, block, product, 0, n1)
            _symmetric_product(b"L", a + 8 * (n1 + 1), ld, n1, block, product, 0)
            _symmetric_product(b"U", a + 8 * n1, ld, self.n - n1, block, product, n1)
        if self.shift:
            product += self.shift * block
        return product.reshape(v.shape)

    def entry_norm(self):
        """Largest entry in absolute value, which a PSD matrix has on its diagonal."""
        return float(np.max(np.abs(self.diagonal())))


def checked_orders(A: SpdMatrix, B: SpdMatrix | None):
    """DimensionMismatch unless B is None (B = I) or of A's order."""
    if B is not None and A.n != B.n:
        raise DimensionMismatch(f"orders differ: {A.n} vs {B.n}")


def checked_count(name, value, least=1) -> int:
    """value as an int; InvalidShape unless it is a whole number >= least (numpy integers pass)."""
    if not (float(value).is_integer() and value >= least):
        raise InvalidShape(f"{name} must be >= {least} and whole, got {value!r}")
    return int(value)


def checked_shift(t) -> float:
    """t as a float; InvalidShape if it is not finite."""
    if not math.isfinite(t := float(t)):
        raise InvalidShape(f"shift t={t} is not finite")
    return t


def _packed(S: SpdMatrix) -> np.ndarray:
    """S's packed triangle in a fresh array, S's shift added on its diagonal."""
    packed = np.zeros(S.n * (S.n + 1) // 2) if S.is_identity else S.data.copy()
    packed[packed_diagonal(S.n)] += S.shift + S.is_identity  # an identity's ones, then shifted
    return packed


def _check_factored(info, max_diag, min_pivot):
    """NotPositiveDefinite for a failed leading minor (info > 0, 1-based), or else for a
    smallest pivot min_pivot() whose square is below PIVOT_RTOL * max_diag."""
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (info={info})")
    if (pivot := min_pivot() ** 2) < PIVOT_RTOL * max_diag:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} below tolerance "
                                  f"{PIVOT_RTOL * max_diag:.3e}; matrix is numerically indefinite")


def cholesky(M: SpdMatrix) -> np.ndarray:
    """Packed upper factor U = L^T with M = U^T U.

    U is one fresh array of n(n+1)/2 entries (``packed_diagonal``; Gustavson, Wasniewski,
    Dongarra & Langou, ACM TOMS 2010): ``_packed`` copies M there and dpftrf factors it in
    place. Only Hutchinson's probe solves need U itself; an exact trace takes
    ``inverse_factor``. Raises NotPositiveDefinite; M is never written."""
    U, info = _packed(M), ctypes.c_int(0)
    with lapack_threads(M.n):
        _dpftrf(b"N", b"U", ctypes.c_int(M.n), U.ctypes.data, info)
    _check_factored(info.value, M.entry_norm(), lambda: float(np.min(U[packed_diagonal(M.n)])))
    return U


def inverse_factor(M: SpdMatrix) -> np.ndarray:
    """U^-1 for M = U^T U, in ``cholesky``'s packed storage.

    ``_packed`` copies M, turned into U^-1 in place in one pass with no solve:
    ``_factor_invert`` on T1 (U11^T, lower), U12 = U11^-T A12 by dtrmm, A22 - U12^T U12 by
    dsyrk into T2, ``_factor_invert`` on T2 (U22, upper), then dtftri's two dtrmm calls for
    -U11^-1 U12 U22^-1. Raises NotPositiveDefinite with dpftrf's info; the smallest pivot
    is 1 / max(U^-1_ii). M is never written."""
    W = _packed(M)
    n1, n2, ld, base = M.n // 2, M.n - M.n // 2, 2 * (M.n // 2) + 1, W.ctypes.data
    T1, T2, rows, cols, lda = base + 8 * (n1 + 1), base + 8 * n1, *map(ctypes.c_int, (n1, n2, ld))
    with lapack_threads(M.n):
        if not (info := _factor_invert(b"L", T1, ld, n1)):
            _dtrmm(b"L", b"L", b"N", b"N", rows, cols, _ONE, T1, lda, base, lda)
            _dsyrk(b"U", b"T", cols, rows, _MINUS_ONE, base, lda, _ONE, T2, lda)
            if info := _factor_invert(b"U", T2, ld, n2):
                info += n1
            else:
                _dtrmm(b"L", b"L", b"T", b"N", rows, cols, _MINUS_ONE, T1, lda, base, lda)
                _dtrmm(b"R", b"U", b"N", b"N", rows, cols, _ONE, T2, lda, base, lda)
    _check_factored(info, M.entry_norm(), lambda: 1.0 / float(np.max(W[packed_diagonal(M.n)])))
    return W


def forward_solve(U, Z) -> np.ndarray:
    """L^-1 Z = U^-T Z for the packed factor U and a block Z (n, b), by dtfsm on a copy of Z."""
    Y = np.array(Z, dtype=np.float64, order="F")
    if Y.ndim != 2 or Y.shape[0] != _packed_order(U):
        raise InvalidShape(f"expected a block of {_packed_order(U)} rows, got shape {Y.shape}")
    n, b = map(ctypes.c_int, Y.shape)
    _dtfsm(b"N", b"L", b"U", b"T", b"N", n, b, ctypes.c_double(1.0), U.ctypes.data,
           Y.ctypes.data, n)
    return Y


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
    side = checked_count("side", side)
    centers = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    return PointCloud(coords=np.column_stack([xs.ravel(), ys.ravel()]))


def random_points(count, seed) -> PointCloud:
    """Uniform random points over [0, 1]^2, for comparison with the grid."""
    rng = np.random.default_rng(seed)
    return PointCloud(coords=rng.uniform(0.0, 1.0, size=(int(count), 2)))


def sample_points(side, sampling="grid", seed=0) -> PointCloud:
    """side^2 points over [0, 1]^2: ``grid_points(side)``, or ``random_points`` from seed."""
    if sampling == "grid":
        return grid_points(side)
    if sampling == "random":
        return random_points(checked_count("side", side) ** 2, seed)
    raise InvalidShape(f"sampling must be 'grid' or 'random', got {sampling!r}")


KERNEL_CHUNK = 64  # packed rows per step of ``build_kernel``, whose blocks hold < 64 n entries


def build_kernel(points: PointCloud, kernel_fn) -> SpdMatrix:
    """Packed kernel matrix K_ij = kernel_fn(d_ij) over pairwise Euclidean distances.

    Row j of the packed array viewed as rows of 2 n1 + 1 (n1 = n // 2) is K[n1 + j, :n1 + j + 1]
    then K[j, j:n1] (K21, K22's lower and K11's upper triangle), filled KERNEL_CHUNK rows at a
    time by cdist on subsets of the points, the same bits as cdist on all of them. ``kernel_fn``
    gets each distance block, which nothing else holds: it may overwrite and return it.
    """
    import scipy.spatial.distance  # ~85 ms to load, so only kernel builds pay it
    P, n, n1, cdist = points.coords, points.n, points.n // 2, scipy.spatial.distance.cdist
    packed = np.empty(n * (n + 1) // 2)
    rows = packed.reshape(n - n1, 2 * n1 + 1)
    for j0 in range(0, n - n1, KERNEL_CHUNK):
        j1 = min(j0 + KERNEL_CHUNK, n - n1)
        rows[j0:j1, :n1] = kernel_fn(cdist(P[n1 + j0:n1 + j1], P[:n1]))
        lower = kernel_fn(cdist(P[n1 + j0:n1 + j1], P[n1:n1 + j1]))
        upper = kernel_fn(cdist(P[j0:j1], P[j0:n1]))  # no columns once j0 >= n1
        for i, j in enumerate(range(j0, j1)):
            rows[j, n1:n1 + j + 1], rows[j, n1 + 1 + j:] = lower[i, :j + 1], upper[i, i:]
        del lower, upper  # freed before the next blocks are made
    packed[packed_diagonal(n)] = kernel_fn(np.zeros(n))
    return SpdMatrix(n=n, kind="packed", data=packed)


def build_exponential_kernel(points: PointCloud, rho) -> SpdMatrix:
    """Isotropic exponential-decay correlation matrix exp(-|x_i - x_j| / rho), built in place.

    exp(-d / rho) is a positive-definite function, so the matrix is certified ``psd``."""
    rho = float(rho)
    if rho <= 0.0:
        raise InvalidShape("rho must be positive")
    return replace(build_kernel(points, lambda d: np.exp(np.divide(d, -rho, out=d), out=d)),
                   psd=True)


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
