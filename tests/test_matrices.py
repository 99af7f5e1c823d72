import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from traceinv import (
    InvalidShape,
    NotPositiveDefinite,
    SpdMatrix,
    build_design_matrix,
    build_exponential_kernel,
    build_kernel,
    cholesky,
    compute_tau_context,
    grid_points,
    random_points,
    trace_inv_exact_cholesky,
)
from traceinv import matrices
from traceinv.matrices import apply_householder

from conftest import spd_from_eigenvalues, traced_extra_bytes

FOOTPRINT_ORDER = 600  # n x n arrays of 2.9 MB: large beside every small allocation


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidShape):
            SpdMatrix.from_dense([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidShape):
            SpdMatrix.from_dense(np.ones((2, 3)))

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
            assert SpdMatrix.from_dense(a).data is a
        else:
            with pytest.raises(InvalidShape, match="not symmetric"):
                SpdMatrix.from_dense(a)

    def test_check_allocates_no_square_array(self, rng):
        n = FOOTPRINT_ORDER
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        assert traced_extra_bytes(SpdMatrix.from_dense, a) <= 0.05 * 8 * n * n

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
        assert A.entry_norm().hex() == float(np.max(np.abs(A.data))).hex()

    @pytest.mark.parametrize("shape,order", [((60,), "C"), ((60, 7), "C"), ((60, 7), "F")])
    def test_matvec_matches_matmul(self, rng, shape, order):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 60))
        Z = np.asarray(rng.standard_normal(shape), order=order)
        product = A.matvec(Z)
        assert product.shape == shape
        reference = A.data @ Z
        assert np.linalg.norm(product - reference) <= 1e-14 * np.linalg.norm(reference)

    def test_f_ordered_operand_is_stored_c_ordered(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        F = SpdMatrix.from_dense(np.asfortranarray(A.data))
        assert F.data.flags.c_contiguous
        np.testing.assert_array_equal(F.data, A.data)
        Z = rng.standard_normal((40, 5))
        np.testing.assert_array_equal(F.matvec(Z), A.matvec(Z))
        np.testing.assert_array_equal(cholesky(F), cholesky(A))


class TestCholesky:
    def test_identity(self):
        L = cholesky(SpdMatrix.identity(3))
        np.testing.assert_array_equal(L, np.eye(3))

    def test_2x2_closed_form(self):
        L = cholesky(SpdMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]],
                                   rtol=0, atol=1e-15)

    def test_random_spd_via_eigen_oracle(self, rng):
        # known-spectrum construction is the independent oracle
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 50))
        L = cholesky(A)
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
        lower = np.tril(A.data) + np.tril(A.data, -1).T
        perturbed = lower.copy()
        upper = np.triu_indices(n, 1)
        perturbed[upper] *= 1.0 + 0.5 * matrices.SYMMETRY_RTOL * rng.uniform(-1, 1, upper[0].size)
        assert not np.array_equal(perturbed, lower)
        L = cholesky(SpdMatrix.from_dense(perturbed))
        reference = cholesky(SpdMatrix.from_dense(lower))
        assert L.flags.c_contiguous and not np.any(np.triu(L, 1))
        assert list(map(float.hex, L.ravel())) == list(map(float.hex, reference.ravel()))

    def test_inverse_takes_factor_without_copy(self, monkeypatch, rng):
        real, seen = scipy.linalg.lapack.dtrtri, []

        def spy(c, *args, **kwargs):
            inverse, info = real(c, *args, **kwargs)
            seen.append((c.flags.f_contiguous, np.shares_memory(inverse, c)))
            return inverse, info

        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", spy)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        trace_inv_exact_cholesky(A)
        assert seen == [(True, True)]

    def test_source_left_untouched(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 40))
        before, before_b = A.data.copy(), B.data.copy()
        cholesky(A)
        cholesky(A, B, 0.5)
        cholesky(A, SpdMatrix.identity(40), 0.5)
        trace_inv_exact_cholesky(A)
        trace_inv_exact_cholesky(A, B, 0.5)
        compute_tau_context(A, method="cholesky")
        compute_tau_context(A, B, method="cholesky")
        np.testing.assert_array_equal(A.data, before)
        np.testing.assert_array_equal(B.data, before_b)

    @pytest.mark.parametrize("dense_b", [False, True])
    def test_shift_factored_in_one_buffer(self, monkeypatch, rng, dense_b):
        real, seen = scipy.linalg.lapack.dpotrf, []

        def spy(a, *args, **kwargs):
            factor, info = real(a, *args, **kwargs)
            seen.append((a.flags.f_contiguous, np.shares_memory(factor, a)))
            return factor, info

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", spy)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        B = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))[0] if dense_b \
            else SpdMatrix.identity(30)
        L = cholesky(A, B, 0.7)
        assert seen == [(True, True)]
        M = A.data + 0.7 * (B.data if dense_b else np.eye(30))
        assert list(map(float.hex, L.ravel())) == list(
            map(float.hex, cholesky(SpdMatrix.from_dense(M)).ravel()))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_factor_reproduces_source(self, n, seed):
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2, 2, n))
        L = cholesky(A)
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
        self.spy(monkeypatch, scipy.linalg.lapack, "dpotrf", counts, seen)
        self.spy(monkeypatch, scipy.linalg.lapack, "dtrtri", counts, seen)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        trace_inv_exact_cholesky(A)
        assert seen == [("dpotrf", [1] * len(before)), ("dtrtri", [1] * len(before))]
        assert counts() == before

    def test_count_restored_after_failed_factorization(self, counts):
        before = counts()
        with pytest.raises(NotPositiveDefinite):
            cholesky(SpdMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
        assert counts() == before

    def test_large_order_keeps_thread_count(self, monkeypatch, rng, counts):
        monkeypatch.setattr(matrices, "ONE_THREAD_MAX_ORDER", 30)
        before, seen = counts(), []
        self.spy(monkeypatch, scipy.linalg.lapack, "dpotrf", counts, seen)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 30))
        cholesky(A)
        assert seen == [("dpotrf", before)]

    def test_trace_agrees_with_default_thread_count(self, monkeypatch, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 4.0, 300))
        one_thread = trace_inv_exact_cholesky(A).value
        monkeypatch.setattr(matrices, "ONE_THREAD_MAX_ORDER", 0)
        assert trace_inv_exact_cholesky(A).value == pytest.approx(one_thread, rel=1e-12)


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

        reference = np.exp(-dist.squareform(dist.pdist(points.coords)) / rho)
        np.fill_diagonal(reference, 1.0)
        K = build_exponential_kernel(points, rho)
        assert K.data.dtype == reference.dtype and K.data.tobytes() == reference.tobytes()

    def test_build_holds_one_square_array(self):
        n = FOOTPRINT_ORDER
        points = random_points(n, seed=4)
        assert traced_extra_bytes(build_exponential_kernel, points, 0.1) <= 1.2 * 8 * n * n

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
