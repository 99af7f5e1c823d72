import ctypes
import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceinv import (
    InvalidShape,
    NotPositiveDefinite,
    SpdMatrix,
    build_design_matrix,
    build_exponential_kernel,
    compute_tau_context,
    grid_points,
    random_points,
    shifted_operand,
    trace_inv_exact_cholesky,
)
import traceinv.estimators
from traceinv import matrices
from traceinv.matrices import apply_householder, build_kernel, cholesky, inverse_factor

from conftest import (lower_factor, packed_order, spd_from_eigenvalues, traced_extra_bytes,
                      traced_peak_bytes)

FOOTPRINT_ORDER = 600  # n x n arrays of 2.9 MB: large beside every small allocation
# both parities, order 1 (no square block) and the two halves of the n = 2500 kernel
PRODUCT_ORDERS = st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 1250, 1251]))


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidShape):
            SpdMatrix.from_dense([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidShape):
            SpdMatrix.from_dense(np.ones((2, 3)))

    @pytest.mark.parametrize("make", [lambda: SpdMatrix.from_dense(np.zeros((0, 0))),
                                      lambda: SpdMatrix.identity(0)])
    def test_rejects_empty(self, make):
        with pytest.raises(InvalidShape, match="non-empty"):
            make()

    @pytest.mark.parametrize("index,value", [((0, 1), np.nan), ((1, 0), np.nan),
                                             ((2, 2), np.inf), ((0, 0), -np.inf)])
    def test_rejects_non_finite(self, index, value):
        a = np.eye(3)
        a[index] = value
        with pytest.raises(InvalidShape, match="non-finite"):
            SpdMatrix.from_dense(a)

    @pytest.mark.parametrize("n", [1, matrices._SYMMETRY_TILE - 1, matrices._SYMMETRY_TILE + 1,
                                   2 * matrices._SYMMETRY_TILE + 3])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    @pytest.mark.parametrize("corner", ["diagonal tile", "off-diagonal tile"])
    def test_tiled_symmetry_check_matches_dense_formula(self, rng, n, factor, corner):
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        np.fill_diagonal(a, 4.0)  # the scale, which the perturbation leaves alone
        if n > 1:
            # the perturbed entry in the last, partial tile row; its mirror in
            # the last tile column or in the first
            i, j = (n - 1, n - 2) if corner == "diagonal tile" else (n - 1, 0)
            a[i, j] += factor * matrices.SYMMETRY_RTOL * 4.0
        dense = np.max(np.abs(a - a.T)) <= matrices.SYMMETRY_RTOL * np.max(np.abs(a))
        assert dense == (n == 1 or factor < 1.0)
        if dense:
            SpdMatrix.from_dense(a)
        else:
            with pytest.raises(InvalidShape, match="not symmetric"):
                SpdMatrix.from_dense(a)

    def test_check_allocates_no_square_array(self, rng):
        n = FOOTPRINT_ORDER
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        assert traced_extra_bytes(SpdMatrix.from_dense, a) <= 0.05 * 8 * n * n

    @pytest.mark.parametrize("data", [np.ones(5), np.ones(10), np.ones(6, dtype=np.float32),
                                      np.ones(12)[::2], np.ones((2, 3)), None],
                             ids=["short", "long", "float32", "strided", "square", "none"])
    def test_packed_data_must_hold_the_triangle(self, data):
        # products and unpacking hand the data to BLAS and LAPACK by address
        with pytest.raises(InvalidShape):
            SpdMatrix(3, "packed", data)

    def test_identity_has_no_entries(self):
        I = SpdMatrix.identity(4)
        assert I.data is None
        assert I.trace() == 4.0
        np.testing.assert_array_equal(I.to_dense(), np.eye(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_entry_norm_is_largest_entry(self, n, seed):
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2, 2, n))
        assert A.entry_norm().hex() == float(np.max(np.abs(A.to_dense()))).hex()

    @pytest.mark.parametrize("shape,order", [((60,), "C"), ((60, 7), "C"), ((60, 7), "F")])
    def test_matvec_matches_matmul(self, rng, shape, order):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 60))
        Z = np.asarray(rng.standard_normal(shape), order=order)
        product = A.matvec(Z)
        assert product.shape == shape
        reference = A.to_dense() @ Z
        assert np.linalg.norm(product - reference) <= 1e-14 * np.linalg.norm(reference)

    @settings(max_examples=40, deadline=None)
    @given(PRODUCT_ORDERS, st.integers(0, 10_000), st.sampled_from([0.0, 0.3]),
           st.sampled_from([None, 1, 5]))
    @example(n=1, seed=0, shift=0.3, width=5)
    @example(n=1250, seed=0, shift=0.0, width=5)
    @example(n=1251, seed=1, shift=0.3, width=None)
    def test_property_matvec_matches_unpacked_product(self, n, seed, shift, width):
        # leaves of 8 make every order from 17 on split below each RFP triangle
        rng = np.random.default_rng(seed)
        A = SpdMatrix(n, "packed", SpdMatrix.from_dense(spd_of_order(n, seed)).data, shift)
        Z = rng.standard_normal(n if width is None else (n, width))
        reference = A.to_dense() @ Z
        for leaf in (8, matrices.SYMMETRIC_LEAF_ORDER):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(matrices, "SYMMETRIC_LEAF_ORDER", leaf)
                product = A.matvec(Z)
            assert product.shape == Z.shape
            assert np.linalg.norm(product - reference) <= 1e-13 * np.linalg.norm(reference)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 10_000))
    def test_property_unpacks_the_lower_triangle(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        upper = np.triu_indices(n, 1)  # within the symmetry tolerance, so a is accepted
        a[upper] *= 1.0 + 0.5 * matrices.SYMMETRY_RTOL * rng.uniform(-1, 1, upper[0].size)
        lower = np.tril(a) + np.tril(a, -1).T
        assert SpdMatrix.from_dense(a).to_dense().tobytes() == lower.tobytes()

    def test_f_ordered_operand_packs_as_c_ordered(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        F = SpdMatrix.from_dense(np.asfortranarray(A.to_dense()))
        assert F.data.flags.c_contiguous and F.data.shape == (40 * 41 // 2,)
        np.testing.assert_array_equal(F.data, A.data)
        Z = rng.standard_normal((40, 5))
        np.testing.assert_array_equal(F.matvec(Z), A.matvec(Z))
        np.testing.assert_array_equal(cholesky(F), cholesky(A))


class TestCholesky:
    def test_identity(self):
        L = lower_factor(cholesky(SpdMatrix.identity(3)))
        np.testing.assert_array_equal(L, np.eye(3))

    def test_2x2_closed_form(self):
        L = lower_factor(cholesky(SpdMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]])))
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]],
                                   rtol=0, atol=1e-15)

    def test_random_spd_via_eigen_oracle(self, rng):
        # known-spectrum construction is the independent oracle
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 50))
        L = lower_factor(cholesky(A))
        rel = np.linalg.norm(L @ L.T - A.to_dense()) / np.linalg.norm(A.to_dense())
        assert rel <= 1e-10

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(SpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))

    def test_tiny_pivot_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(SpdMatrix.from_dense(np.diag([1.0, 1e-16])))

    def test_reads_only_lower_triangle(self, rng):
        n = 40
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, n))
        lower = np.tril(A.to_dense()) + np.tril(A.to_dense(), -1).T
        perturbed = lower.copy()
        upper = np.triu_indices(n, 1)
        perturbed[upper] *= 1.0 + 0.5 * matrices.SYMMETRY_RTOL * rng.uniform(-1, 1, upper[0].size)
        assert not np.array_equal(perturbed, lower)
        U = cholesky(SpdMatrix.from_dense(perturbed))
        assert U.dtype == np.float64 and U.shape == (n * (n + 1) // 2,)
        L, reference = lower_factor(U), lower_factor(cholesky(SpdMatrix.from_dense(lower)))
        assert list(map(float.hex, L.ravel())) == list(map(float.hex, reference.ravel()))

    @pytest.mark.parametrize("n", [299, 300])
    def test_inverse_takes_factor_without_copy(self, monkeypatch, rng, n):
        # every block the fused kernel writes lies in the one packed array that
        # inverse_factor returns, addressed through the packed leading dimension
        returned = []

        def spy(M, real=traceinv.estimators.inverse_factor):
            returned.append(real(M))
            return returned[-1]

        monkeypatch.setattr(traceinv.estimators, "inverse_factor", spy)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, n))
        with recorded_writes() as written:
            trace_inv_exact_cholesky(A)
        (W,) = returned
        assert {name for name, *_ in written} == set(KERNEL_ROUTINES)
        assert writes_inside(written, W)

    def test_source_left_untouched(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        before, before_b = A.data.copy(), B.data.copy()
        cholesky(A)
        cholesky(shifted_operand(A, B, 0.5))
        cholesky(shifted_operand(A, SpdMatrix.identity(40), 0.5))
        trace_inv_exact_cholesky(A)
        trace_inv_exact_cholesky(shifted_operand(A, B, 0.5))
        compute_tau_context(A, method="cholesky")
        compute_tau_context(A, B, method="cholesky")
        np.testing.assert_array_equal(A.data, before)
        np.testing.assert_array_equal(B.data, before_b)

    @pytest.mark.parametrize("dense_b", [False, True])
    def test_shift_factored_in_one_buffer(self, monkeypatch, rng, dense_b):
        real, seen = matrices._factor_invert, []

        def spy(uplo, address, ld, order):
            seen.append((uplo, address, ld, order))
            return real(uplo, address, ld, order)

        monkeypatch.setattr(matrices, "_factor_invert", spy)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        B = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))[0] if dense_b \
            else SpdMatrix.identity(30)
        U = cholesky(shifted_operand(A, B, 0.7))
        base = U.ctypes.data  # T1 at 8 (n1 + 1) bytes in, T2 at 8 n1, leading dimension 31
        assert seen == [(b"L", base + 8 * 16, 31, 15), (b"U", base + 8 * 15, 31, 15)]
        assert U.shape == (30 * 31 // 2,)
        M = A.to_dense() + 0.7 * (B.to_dense() if dense_b else np.eye(30))
        assert list(map(float.hex, U)) == list(map(float.hex, cholesky(SpdMatrix.from_dense(M))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_factor_reproduces_source(self, n, seed):
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2, 2, n))
        L = lower_factor(cholesky(A))
        rel = np.linalg.norm(L @ L.T - A.to_dense()) / np.linalg.norm(A.to_dense())
        assert rel <= 1e-10


class TestLapackThreads:
    @pytest.fixture
    def counts(self):
        controls = matrices._openblas_thread_counts()
        if not controls:
            pytest.skip("no OpenBLAS thread control found in this process")
        return lambda: [get() for get, _ in controls]

    def spy(self, monkeypatch, module, name, counts, seen):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append((name, counts()))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def test_small_trace_factors_on_one_thread(self, monkeypatch, rng, counts):
        before, seen = counts(), []
        for name in KERNEL_ROUTINES:
            self.spy(monkeypatch, matrices, name, counts, seen)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 300))
        trace_inv_exact_cholesky(A)
        one = [1] * len(before)
        assert seen[0] == ("_dpotrf", one)
        assert {name for name, _ in seen} == set(KERNEL_ROUTINES)
        assert all(count == one for _, count in seen)
        assert counts() == before

    def test_count_restored_after_failed_factorization(self, counts):
        before = counts()
        for factor in (cholesky, inverse_factor):
            with pytest.raises(NotPositiveDefinite):
                factor(SpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
            assert counts() == before

    def test_large_order_keeps_thread_count(self, monkeypatch, rng, counts):
        monkeypatch.setattr(matrices, "ONE_THREAD_MAX_ORDER", 30)
        before, seen = counts(), []
        for name in ("_dpotrf", "_dgemm"):
            self.spy(monkeypatch, matrices, name, counts, seen)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        matrices.forward_solve(cholesky(A), np.ones((30, 2)))
        inverse_factor(A)
        # T1 and T2 each, for the factor and again for the inverse; one dgemm in the solve
        assert seen == [("_dpotrf", before)] * 2 + [("_dgemm", before)] + [("_dpotrf", before)] * 2

    def test_small_probe_solve_on_one_thread(self, monkeypatch, rng, counts):
        before, seen = counts(), []
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 300))
        U = cholesky(A)
        for name in ("_dtrmm", "_dgemm"):
            self.spy(monkeypatch, matrices, name, counts, seen)
        matrices.forward_solve(U, np.ones((300, 3)))
        one = [1] * len(before)
        assert seen == [("_dtrmm", one), ("_dgemm", one), ("_dtrmm", one)]
        assert counts() == before

    def test_trace_agrees_with_default_thread_count(self, monkeypatch, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 300))
        one_thread = trace_inv_exact_cholesky(A).value
        monkeypatch.setattr(matrices, "ONE_THREAD_MAX_ORDER", 0)
        assert trace_inv_exact_cholesky(A).value == pytest.approx(one_thread, rel=1e-12)


KERNEL_ROUTINES = ("_dpotrf", "_dtrtri", "_dtrmm", "_dsyrk")


def written_block(name, args):
    """(first address, last address, leading dimension) of the block that a call of
    ``matrices._dpotrf``, ``_dtrtri``, ``_dtrmm`` or ``_dsyrk`` with these arguments writes."""
    if name == "_dpotrf":  # dpotrf(uplo, n, a, lda, info)
        rows = cols = args[1].value
        address, ld = args[2], args[3].value
    elif name == "_dtrtri":  # dtrtri(uplo, diag, n, a, lda, info)
        rows = cols = args[2].value
        address, ld = args[3], args[4].value
    elif name == "_dsyrk":  # dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
        rows = cols = args[2].value
        address, ld = args[8], args[9].value
    else:  # dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
        rows, cols, address, ld = args[4].value, args[5].value, args[9], args[10].value
    return address, address + 8 * ((cols - 1) * ld + rows - 1), ld


@contextmanager
def recorded_writes():
    """List of (name, first, last, ld) of every kernel routine's write inside the block."""
    written = []
    with pytest.MonkeyPatch.context() as patch:
        for name in KERNEL_ROUTINES:
            def wrapped(*args, name=name, real=getattr(matrices, name)):
                written.append((name, *written_block(name, args)))
                return real(*args)
            patch.setattr(matrices, name, wrapped)
        yield written


def writes_inside(written, W):
    """Every recorded write lies in the packed array W, at its leading dimension."""
    n, start = packed_order(W), W.ctypes.data
    return all(start <= first and last < start + 8 * W.size and ld == 2 * (n // 2) + 1
               for _, first, last, ld in written)


def spd_of_order(n, seed):
    """Exactly symmetric order-n SPD array with spectrum in [1, 5]."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    M = X @ X.T / n + np.eye(n)
    return (M + M.T) / 2


def lapack_factor(M):
    """Packed upper Cholesky factor of the symmetric array M by LAPACK's own dpftrf, through
    scipy's f2py wrappers: the plain factor, its diagonal blocks not inverted."""
    packed, info = scipy.linalg.lapack.dtrttf(M)
    assert info == 0
    factor, info = scipy.linalg.lapack.dpftrf(M.shape[0], packed)
    assert info == 0
    return factor


_dtftri = matrices._cython_routine(scipy.linalg.cython_lapack, "dtftri", matrices._CHAR,
                                   matrices._CHAR, matrices._CHAR, matrices._INT,
                                   matrices._ADDRESS, matrices._INT)


def dtftri(U):
    """LAPACK's own inverse of a packed factor, on a copy: (inverse, info)."""
    inverse, info = U.copy(), ctypes.c_int(0)
    _dtftri(b"N", b"U", b"N", ctypes.c_int(packed_order(U)), inverse.ctypes.data, info)
    return inverse, info.value


# both parities; 128 is the largest leaf and 129 the smallest split, so the
# halves of 256 are leaves, of 257 one leaf and one split, of 258 two splits
ORDERS = st.one_of(st.integers(1, 300), st.sampled_from([128, 129, 256, 257, 258, 299, 300]))


class TestPackedFactor:
    @settings(max_examples=25, deadline=None)
    @given(ORDERS, st.integers(0, 10_000))
    @example(n=1, seed=0)
    @example(n=257, seed=0)
    def test_property_matches_dpftrf(self, n, seed):
        # the factor rebuilt from its block-inverse form against LAPACK's plain one
        M = spd_of_order(n, seed)
        L = lower_factor(cholesky(SpdMatrix.from_dense(M)))
        reference, info = scipy.linalg.lapack.dtfttr(n, lapack_factor(M))
        assert info == 0
        assert np.linalg.norm(L - reference.T) <= 1e-14 * np.linalg.norm(reference)
        assert np.linalg.norm(L @ L.T - M) <= 1e-13 * np.linalg.norm(M)

    def test_diagonal_positions_match_dtrttf(self):
        for n in range(1, 65):
            packed, info = scipy.linalg.lapack.dtrttf(np.diag(np.arange(1.0, n + 1)))
            assert info == 0 and np.count_nonzero(packed) == n
            np.testing.assert_array_equal(packed[matrices.packed_diagonal(n)],
                                          np.arange(1.0, n + 1))

    @pytest.mark.parametrize("n,pivot", [(7, 0), (7, 3), (8, 4), (300, 200)])
    def test_indefinite_reports_dpftrf_info(self, n, pivot):
        d = np.ones(n)
        d[pivot] = -1.0
        with pytest.raises(NotPositiveDefinite, match=rf"\(info={pivot + 1}\)"):
            cholesky(SpdMatrix.from_dense(np.diag(d)))


# the RFP halves of 513 are 256 and 257, each split again
FUSED_ORDERS = st.one_of(ORDERS, st.just(513))


def dpftrf_info(M):
    """LAPACK dpftrf's info on M, through scipy's f2py wrappers."""
    packed, info = scipy.linalg.lapack.dtrttf(M)
    assert info == 0
    return scipy.linalg.lapack.dpftrf(M.shape[0], packed)[1]


def extended_trace(M):
    """trace(M^-1) of the stored M, refined in np.longdouble: with X = inv(M) and
    R = I - M X, M^-1 = X (I + R + R^2 + ...); |R|_2 measured 5e-9 at cond(M) = 1e8."""
    X = np.linalg.inv(M).astype(np.longdouble)
    R = np.eye(M.shape[0], dtype=np.longdouble) - M.astype(np.longdouble) @ X
    XR = X @ R
    return float(np.trace(X) + np.trace(XR) + np.sum(XR * R.T))


class TestInverseFactor:
    @settings(max_examples=25, deadline=None)
    @given(FUSED_ORDERS, st.integers(0, 10_000))
    @example(n=1, seed=0)
    @example(n=257, seed=0)
    @example(n=513, seed=1)
    def test_property_matches_dpftrf_then_dtftri(self, n, seed):
        reference, info = dtftri(lapack_factor(spd_of_order(n, seed)))
        assert info == 0
        with recorded_writes() as written:
            W = inverse_factor(SpdMatrix.from_dense(spd_of_order(n, seed)))
        assert np.linalg.norm(W - reference) <= 1e-13 * np.linalg.norm(reference)
        assert {name for name, *_ in written} == set(KERNEL_ROUTINES)
        assert writes_inside(written, W)

    def test_order_above_one_thread_max_matches_dtftri(self):
        # BLAS runs at its default thread count here
        n = 1030
        assert n >= matrices.ONE_THREAD_MAX_ORDER
        reference, info = dtftri(lapack_factor(spd_of_order(n, 5)))
        assert info == 0
        W = inverse_factor(SpdMatrix.from_dense(spd_of_order(n, 5)))
        assert np.linalg.norm(W - reference) <= 1e-13 * np.linalg.norm(reference)

    # T1 holds leading minors 1..n//2 and T2 the rest; at 600 the triangles of order
    # 300 split in halves of 150, so 200 and 500 fail below a recursion split
    @pytest.mark.parametrize("n,pivot", [(1, 0), (7, 2), (7, 3), (300, 10), (300, 200),
                                         (513, 300), (600, 200), (600, 500)])
    def test_indefinite_reports_dpftrf_info(self, n, pivot):
        M = spd_of_order(n, pivot)
        M[pivot, pivot] = -1.0
        assert dpftrf_info(M) == pivot + 1
        with pytest.raises(NotPositiveDefinite, match=rf"\(info={pivot + 1}\)"):
            inverse_factor(SpdMatrix.from_dense(M))

    def test_tiny_pivot_raises(self):
        # the smallest pivot is read as 1 / max(U^-1_ii)
        with pytest.raises(NotPositiveDefinite, match="pivot 1.000e-16 below"):
            inverse_factor(SpdMatrix.from_dense(np.diag([1.0, 1e-16])))

    def test_keeps_no_reference_to_the_array(self):
        # the array must be freed on return, not by the cycle collector: one
        # exact GCV search inverts over a hundred 1 MB factors
        A = SpdMatrix.from_dense(spd_of_order(300, 3))
        gc.disable()
        try:
            W = inverse_factor(A)
            alive = weakref.ref(W)
            del W
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
    def test_trace_as_accurate_as_lapack(self, monkeypatch, kappa):
        # leaves of 16 make order 128 recurse twice below each RFP triangle. The median
        # error over nine operands is within 6x that of dpftrf + dtftri, or of 4 ulps:
        # the product with an explicit inverse in place of a solve measured 0.2-3.6x
        # over nine operands and 1.0-2.4x over forty, at leaves of 16 and 128
        monkeypatch.setattr(matrices, "TRIANGULAR_LEAF_ORDER", 16)
        errors = []
        for seed in range(9):
            rng = np.random.default_rng(seed)
            A, _ = spd_from_eigenvalues(rng, np.logspace(0, -np.log10(kappa), 128))
            exact = extended_trace(A.to_dense())
            lapack = float(np.sum(dtftri(lapack_factor(A.to_dense()))[0] ** 2))
            fused = float(np.sum(inverse_factor(A) ** 2))
            errors.append([abs(fused - exact) / exact, abs(lapack - exact) / exact])
        fused, lapack = np.median(errors, axis=0)
        assert fused <= 6 * max(lapack, 4 * np.finfo(float).eps)


class TestForwardSolve:
    def test_matches_dense_triangular_solve(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 37))
        U, Z = cholesky(A), rng.standard_normal((37, 5))
        expected = scipy.linalg.solve_triangular(lower_factor(U), Z, lower=True)
        np.testing.assert_allclose(matrices.forward_solve(U, Z), expected, rtol=1e-12)

    # orders across the leaf order 128 and both halves' parities; every column to 1e-12 of
    # its norm, as an entry near zero carries the rounding of the whole column
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.integers(1, 300), st.sampled_from([513, 1025])),
           st.sampled_from([1, 5, 64]), st.integers(0, 10_000))
    @example(n=1, b=1, seed=0)
    @example(n=513, b=5, seed=1)
    @example(n=1025, b=64, seed=2)
    def test_property_matches_dense_reference(self, n, b, seed):
        A = SpdMatrix.from_dense(spd_of_order(n, seed))
        Z = np.random.default_rng(seed).standard_normal((n, b))
        L = scipy.linalg.cholesky(A.to_dense(), lower=True)
        expected = scipy.linalg.solve_triangular(L, Z, lower=True)
        error = np.linalg.norm(matrices.forward_solve(cholesky(A), Z) - expected, axis=0)
        assert np.all(error <= 1e-12 * np.linalg.norm(expected, axis=0))

    # dtrmm and dgemm take U and Z by address, so a mismatch must be refused before they
    # read past U
    @pytest.mark.parametrize("U, Z", [(np.ones(6), np.ones((4, 2))), (np.ones(6), np.ones((2, 2))),
                                      (np.ones(6, dtype=np.float32), np.ones((3, 2))),
                                      (np.ones(6), np.ones(3)), (np.ones((3, 3)), np.ones((3, 2))),
                                      (np.ones(12)[::2], np.ones((3, 2)))],
                             ids=["more_rows", "fewer_rows", "float32", "vector", "square",
                                  "strided"])
    def test_refuses_mismatched_operands(self, U, Z):
        with pytest.raises(InvalidShape):
            matrices.forward_solve(U, Z)


class TestPointClouds:
    def test_single_cell_center(self):
        pts = grid_points(1)
        np.testing.assert_array_equal(pts.coords, [[0.5, 0.5]])

    def test_two_by_two(self):
        pts = grid_points(2)
        expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert {tuple(row) for row in pts.coords} == expected

    def test_grid_min_distance_brute_force(self):
        pts = grid_points(50)
        assert pts.n == 2500
        coords = pts.coords
        # brute-force pairwise check on a thinned subset plus exact rows
        import scipy.spatial.distance as dist

        d = dist.pdist(coords)
        assert abs(d.min() - 0.02) <= 1e-12

    def test_random_points_in_unit_square(self):
        pts = random_points(100, seed=3)
        assert pts.n == 100
        assert pts.coords.min() >= 0.0 and pts.coords.max() <= 1.0


class TestKernels:
    def test_single_point(self):
        K = build_exponential_kernel(grid_points(1), rho=0.3)
        np.testing.assert_array_equal(K.to_dense(), [[1.0]])

    def test_two_points_at_distance_rho(self):
        from traceinv.matrices import PointCloud

        pts = PointCloud(coords=np.array([[0.0, 0.0], [0.1, 0.0]]))
        K = build_exponential_kernel(pts, rho=0.1)
        assert K.to_dense()[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_three_collinear(self):
        from traceinv.matrices import PointCloud

        pts = PointCloud(coords=np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]))
        K = build_exponential_kernel(pts, rho=0.1).to_dense()
        assert K[0, 2] == pytest.approx(np.exp(-2.0), rel=1e-14)
        assert K[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert K[1, 2] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_unit_diagonal_and_entry_range(self):
        K = build_exponential_kernel(grid_points(7), rho=0.2).to_dense()
        np.testing.assert_array_equal(np.diag(K), np.ones(49))
        assert K.min() > 0.0 and K.max() <= 1.0

    @pytest.mark.parametrize("points", [grid_points(20), random_points(300, seed=1),
                                        random_points(301, seed=2)], ids=["grid", "r1", "r2"])
    @pytest.mark.parametrize("rho", [0.1, 0.37])
    def test_matches_pairwise_distance_formula_bitwise(self, points, rho):
        import scipy.spatial.distance as dist

        reference = np.exp(-dist.cdist(points.coords, points.coords) / rho)
        np.fill_diagonal(reference, 1.0)
        K = build_exponential_kernel(points, rho)
        assert K.to_dense().tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [FOOTPRINT_ORDER, FOOTPRINT_ORDER + 1])
    def test_build_holds_packed_array_and_one_chunk(self, n):
        import scipy.spatial.distance  # noqa: F401, loaded on first use, so before tracing

        points = random_points(n, seed=4)
        chunk = 8 * matrices.KERNEL_CHUNK * n
        assert traced_peak_bytes(build_exponential_kernel, points, 0.1) <= 4 * n * (n + 1) + chunk

    def test_custom_kernel_handle(self):
        K = build_kernel(grid_points(3), lambda d: np.exp(-(d**2)))
        assert K.n == 9
        np.testing.assert_array_equal(np.diag(K.to_dense()), np.ones(9))


class TestDesignMatrix:
    def test_first_singular_value_is_one(self):
        # profile at i = 1 is exp(0) regardless of m
        for m in (5, 50):
            d = build_design_matrix(2 * m, m, np.ones(2 * m), np.ones(m))
            assert d.singular_values()[0] == 1.0

    def test_smallest_retained_value(self):
        d = build_design_matrix(1000, 500, np.ones(1000), np.ones(500))
        assert d.singular_values()[-1] == pytest.approx(np.exp(-40.0 * (499 / 500) ** 0.75),
                                                        rel=1e-15)

    def test_householder_orthogonal(self, rng):
        u = rng.standard_normal(20)
        V = np.eye(20) - 2.0 * np.outer(u, u) / np.dot(u, u)
        assert np.max(np.abs(V.T @ V - np.eye(20))) <= 1e-12

    def test_householder_involutive(self, rng):
        u = rng.standard_normal(15)
        x = rng.standard_normal((15, 3))
        twice = apply_householder(u, apply_householder(u, x))
        assert np.max(np.abs(twice - x)) <= 1e-12

    def test_singular_values_match_profile_via_svd(self, rng):
        # gentle decay keeps the whole profile above dense-SVD resolution
        n, m = 80, 40
        d = build_design_matrix(n, m, rng.standard_normal(n), rng.standard_normal(m),
                                decay_coeff=8.0)
        sv = np.sort(np.linalg.svd(d.matrix, compute_uv=False))[::-1]
        np.testing.assert_allclose(sv, d.singular_values(), rtol=1e-10)

    def test_rejects_wide(self):
        with pytest.raises(InvalidShape):
            build_design_matrix(3, 5, np.ones(3), np.ones(5))

    def test_rejects_zero_vectors(self):
        with pytest.raises(InvalidShape):
            build_design_matrix(6, 3, np.zeros(6), np.ones(3))
