import functools
import math
import multiprocessing
import re
import sys
import threading
import time

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
    TraceEstimate,
    estimate_trace_inv,
    prepare_trace,
    shifted_operand,
    trace_inv_exact_cholesky,
    trace_inv_hutchinson,
    trace_inv_slq,
)
from traceinv.estimators import RADAU_SE_FRACTION, _gauss_radau, lanczos, trace_inv_exact_eigen
from traceinv.experiments import make_gcv_problem
from traceinv.matrices import build_exponential_kernel, cholesky, grid_points, inverse_factor

import traceinv.estimators
import traceinv.matrices as matrices
from conftest import lower_factor, spd_from_eigenvalues, traced_extra_bytes, traced_peak_bytes


class TestShiftedOperand:
    def test_zero_shift_identity_b(self):
        A = SpdMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        M = shifted_operand(A, SpdMatrix.identity(2), 0.0)
        np.testing.assert_array_equal(M.to_dense(), A.to_dense())
        assert shifted_operand(A, SpdMatrix.from_dense(np.eye(2)), 0.0) is A  # A + 0*B is A

    def test_identity_plus_identity(self):
        M = shifted_operand(SpdMatrix.identity(3), SpdMatrix.identity(3), 2.0)
        np.testing.assert_array_equal(M.to_dense(), 3.0 * np.eye(3))

    def test_general_entrywise(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 5))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 5))
        M = shifted_operand(A, B, 0.5)
        assert M.kind == "packed" and M.shift == 0.0
        assert M.to_dense().tobytes() == (A.to_dense() + 0.5 * B.to_dense()).tobytes()
        I = SpdMatrix.identity(5)
        assert shifted_operand(I, B, 0.5).to_dense().tobytes() == \
            (np.eye(5) + 0.5 * B.to_dense()).tobytes()

    @pytest.mark.parametrize("s", [0.0, 0.7])
    def test_identity_shift_adds_to_diagonal_only(self, rng, s):
        # A + t*I shares A's array, and every reader sees the materialized A + t*I;
        # s != 0 nests two shifts, which compose as the one shift fl(s + t)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 40))
        I, t = SpdMatrix.identity(40), 0.3
        M = shifted_operand(shifted_operand(A, I, s) if s else A, I, t)
        expected = A.to_dense()
        expected[np.diag_indices(40)] += s + t
        assert M.data is A.data and M.shift == s + t
        dense = M.to_dense()
        assert dense.flags.c_contiguous and not np.shares_memory(dense, A.data)
        assert dense.tobytes() == expected.tobytes()
        materialized = SpdMatrix.from_dense(expected)
        assert traceinv.matrices._packed(M).tobytes() == \
            traceinv.matrices._packed(materialized).tobytes()
        assert M.diagonal().tobytes() == np.diag(expected).tobytes()
        assert M.trace() == materialized.trace()
        assert M.entry_norm() == materialized.entry_norm()
        for Z in (rng.standard_normal(40), rng.standard_normal((40, 7))):
            product = M.matvec(Z)
            assert product.shape == Z.shape
            reference = expected @ Z
            assert np.linalg.norm(product - reference) <= 1e-15 * np.linalg.norm(reference)
        for est in (trace_inv_exact_cholesky, lambda N: trace_inv_hutchinson(N, n_v=5, seed=3)):
            assert est(M).value.hex() == est(materialized).value.hex()
        slq = [trace_inv_slq(N, n_v=5, degree=8, seed=3).value for N in (M, materialized)]
        assert slq[0] == pytest.approx(slq[1], rel=1e-12)

    def test_psd_certificate_sources(self, rng):
        # only operands whose stored part is known PSD carry it; a B = I shift keeps it
        K = build_exponential_kernel(grid_points(3), rho=0.1)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 9))
        I = SpdMatrix.identity(9)
        assert K.psd and I.psd and not A.psd
        assert shifted_operand(K, I, 0.5).psd and shifted_operand(K, None, -0.01).psd
        assert not shifted_operand(A, I, 0.5).psd and not shifted_operand(K, A, 0.5).psd
        assert make_gcv_problem(n=30, m=10, seed=1).shifted_gram.psd

    def test_shifted_a_with_dense_b_gets_a_fresh_array(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 5))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, 5))
        shifted = shifted_operand(A, None, 0.7)
        M = shifted_operand(shifted, B, 0.5)
        assert M.shift == 0.0 and not np.shares_memory(M.data, A.data)
        assert M.to_dense().tobytes() == (shifted.to_dense() + 0.5 * B.to_dense()).tobytes()
        again, expected = shifted_operand(shifted, None, 0.5).to_dense(), A.to_dense()
        expected[np.diag_indices(5)] += 0.7 + 0.5  # the two shifts compose as one sum
        assert not np.shares_memory(again, A.data) and again.tobytes() == expected.tobytes()

    def test_makes_no_square_array(self, rng):
        # the B = I shift is held, not added into a copy of A, by SLQ too
        n = 400
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 2, n))
        I = SpdMatrix.identity(n)
        assert traced_peak_bytes(shifted_operand, A, I, 0.5) < n * n * 8
        slq = functools.partial(trace_inv_slq, n_v=4, degree=10, seed=0)
        assert traced_peak_bytes(slq, shifted_operand(A, I, 0.5)) < n * n * 8

    def test_order_mismatch(self):
        with pytest.raises(Exception):
            shifted_operand(SpdMatrix.identity(2), SpdMatrix.identity(3), 1.0)


class TestExactCholesky:
    def test_identity(self):
        assert trace_inv_exact_cholesky(SpdMatrix.identity(7)).value == pytest.approx(7.0)

    def test_diagonal(self):
        M = SpdMatrix.from_dense(np.diag([2.0, 4.0]))
        assert trace_inv_exact_cholesky(M).value == pytest.approx(0.75, rel=1e-14)

    def test_matches_eigen_oracle(self, rng):
        lam = 10.0 ** rng.uniform(-1, 1, 30)
        M, _ = spd_from_eigenvalues(rng, lam)
        value = trace_inv_exact_cholesky(M).value
        assert value == pytest.approx(np.sum(1.0 / lam), rel=1e-10)

    def test_metadata(self):
        est = trace_inv_exact_cholesky(SpdMatrix.identity(2))
        assert est.method == "exact-cholesky"
        assert est.n_v == 0 and est.std_error == 0.0
        rec = est.record(t=0.5)
        assert rec["t"] == 0.5 and rec["value"] == 2.0

    def test_blocked_accumulation_matches_direct(self, rng):
        # the in-place inverse of the factor against an explicitly formed L^-1
        for n in (1, 5, 37, 300):
            M, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 3.0, n))
            direct = np.sum(np.linalg.inv(lower_factor(cholesky(M))) ** 2)
            assert trace_inv_exact_cholesky(M).value == pytest.approx(direct, rel=1e-12)

    def test_sum_of_squares_matches_correctly_rounded_sum(self, rng):
        # the sum alone: the kernel's own inverse, squared and correctly rounded
        M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2, 2, 300))
        exact = math.fsum((inverse_factor(M) ** 2).tolist())
        assert trace_inv_exact_cholesky(M).value == pytest.approx(exact, rel=1e-14)


class TestExactEigen:
    def test_diagonal_closure(self):
        A = SpdMatrix.from_dense(np.diag([1.0, 2.0]))
        f = trace_inv_exact_eigen(A)
        for t in (0.0, 1.0, 4.5):
            assert f(t) == pytest.approx(1 / (1 + t) + 1 / (2 + t), rel=1e-13)

    def test_sum_weights(self, rng):
        # weight 1 at each eigenvalue for B = I; in general |v_i|^2, which add up to trace(B^-1)
        f = trace_inv_exact_eigen(SpdMatrix.from_dense(np.diag([2.0, 1.0])))
        assert (f.weights.tolist(), f.nodes.tolist()) == ([1.0, 1.0], [1.0, 2.0])
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5, 8))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5, 8))
        total = np.trace(np.linalg.inv(B.to_dense()))
        assert np.sum(trace_inv_exact_eigen(A, B).weights) == pytest.approx(total, rel=1e-12)

    def test_indefinite_a_answers_where_the_shift_is_spd(self):
        # A + tI is SPD for t > 2: refused at t = 0, answered at t = 3
        backend = prepare_trace(SpdMatrix.from_dense(np.diag([1.0, -2.0])), method="eigen")
        with pytest.raises(NotPositiveDefinite):
            backend([0.0])
        (est,) = backend([3.0])
        assert est.value == pytest.approx(1.0 / 4.0 + 1.0 / 1.0, rel=1e-15)

    def test_identity_pair(self):
        f = trace_inv_exact_eigen(SpdMatrix.identity(6), SpdMatrix.identity(6))
        assert f(1.0) == pytest.approx(3.0, rel=1e-13)

    def test_cross_method_agreement_on_kernel(self):
        from traceinv import build_exponential_kernel, grid_points

        K = build_exponential_kernel(grid_points(7), rho=0.1)
        f = trace_inv_exact_eigen(K)
        assert f(0.0) == pytest.approx(trace_inv_exact_cholesky(K).value, rel=1e-10)

    def test_general_pencil_matches_direct_inverse(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5, 8))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5, 8))
        f = trace_inv_exact_eigen(A, B)
        for t in (0.0, 0.3, 2.0):
            direct = np.trace(np.linalg.inv(A.to_dense() + t * B.to_dense()))
            assert f(t) == pytest.approx(direct, rel=1e-12)

    def test_closure_raises_below_t_min(self):
        A = SpdMatrix.from_dense(np.diag([1.0, 2.0]))
        f = trace_inv_exact_eigen(A)
        with pytest.raises(NotPositiveDefinite):
            f(-1.5)

    def test_monotone_decreasing_in_t(self, rng):
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1, 1, 12))
        B, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1, 1, 12))
        f = trace_inv_exact_eigen(A, B)
        ts = np.logspace(-3, 3, 25)
        values = [f(t) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestHutchinson:
    def test_scaled_identity_is_exact(self):
        M = SpdMatrix.from_dense(2.5 * np.eye(12))
        est = trace_inv_hutchinson(M, n_v=3, seed=0)
        assert est.value == pytest.approx(12 / 2.5, rel=1e-14)
        assert est.std_error == pytest.approx(0.0, abs=1e-13)

    def test_diagonal_within_three_se(self):
        M = SpdMatrix.from_dense(np.diag([2.0, 4.0]))
        est = trace_inv_hutchinson(M, n_v=10_000, seed=1)
        assert abs(est.value - 0.75) <= 3 * est.std_error + 1e-12

    def test_random_spd_within_three_se(self, rng):
        lam = 10.0 ** rng.uniform(-1, 1, 100)
        M, _ = spd_from_eigenvalues(rng, lam)
        est = trace_inv_hutchinson(M, n_v=10_000, seed=2)
        assert abs(est.value - np.sum(1.0 / lam)) <= 3 * est.std_error

    def test_same_seed_bit_identical(self, rng):
        M, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2, 10))
        a = trace_inv_hutchinson(M, n_v=100, seed=9)
        b = trace_inv_hutchinson(M, n_v=100, seed=9)
        assert a.value == b.value and a.std_error == b.std_error

    def test_coverage_over_many_trials(self, rng):
        # unbiasedness: |estimate - oracle| <= 3 se in at least 99% of trials
        lam = 10.0 ** rng.uniform(-1, 1, 10)
        M, _ = spd_from_eigenvalues(rng, lam)
        oracle = np.sum(1.0 / lam)
        covered = sum(
            abs(trace_inv_hutchinson(M, n_v=50, seed=trial).value - oracle)
            <= 3 * trace_inv_hutchinson(M, n_v=50, seed=trial).std_error
            for trial in range(1000)
        )
        assert covered >= 990

    def test_requires_positive_nv(self):
        with pytest.raises(InvalidShape):
            trace_inv_hutchinson(SpdMatrix.identity(3), n_v=0, seed=0)


class TestLanczos:
    def test_scaled_identity_truncates_to_degree_one(self):
        tri = lanczos(SpdMatrix.from_dense(3.0 * np.eye(6)), np.ones(6), degree=5)
        assert tri.degree == 1
        # perfbench's tracer reads .degree as the number of steps a call ran
        assert tri.steps == tri.degree
        np.testing.assert_allclose(tri.alpha, [3.0])
        assert tri.beta.size == 0

    def test_two_by_two_by_hand(self):
        M = SpdMatrix.from_dense(np.diag([1.0, 2.0]))
        v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        tri = lanczos(M, v0, degree=2)
        np.testing.assert_allclose(tri.alpha, [1.5, 1.5], rtol=1e-14)
        np.testing.assert_allclose(tri.beta, [0.5], rtol=1e-13)

    def test_full_degree_recovers_spectrum(self, rng):
        n = 50
        lam = np.sort(rng.uniform(0.5, 10.0, n))
        M, _ = spd_from_eigenvalues(rng, lam)
        tri = lanczos(M, rng.standard_normal(n), degree=n)
        assert tri.degree == n
        theta = scipy.linalg.eigh_tridiagonal(tri.alpha, tri.beta, eigvals_only=True)
        np.testing.assert_allclose(np.sort(theta), lam, rtol=1e-8)

    def test_beta_positive_until_breakdown(self, rng):
        M, _ = spd_from_eigenvalues(rng, rng.uniform(1, 4, 20))
        tri = lanczos(M, rng.standard_normal(20), degree=15)
        assert np.all(tri.beta > 0)

    def test_zero_start_vector_rejected(self):
        with pytest.raises(InvalidShape):
            lanczos(SpdMatrix.identity(4), np.zeros(4), degree=2)


def probe(seed, k, n):
    """Probe k of the probe set ``seed``: Rademacher entries from substream k."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def gauss_values(tri, n):
    """n * e1^T T^-1 e1 for each column's tridiagonal, cut to its own steps."""
    values = []
    for j, s in enumerate(tri.steps):
        theta, vecs = scipy.linalg.eigh_tridiagonal(tri.alpha[:s, j], tri.beta[:s - 1, j])
        values.append(n * np.sum(vecs[0, :] ** 2 / theta))
    return np.array(values)


class TestLanczosBlock:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 10_000))
    def test_property_full_degree_gauss_value_is_exact(self, n, b, seed):
        rng = np.random.default_rng(seed)
        M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, n))
        Z = rng.standard_normal((n, b))
        exact = np.einsum("ij,ij->j", Z, np.linalg.solve(M.to_dense(), Z))
        np.testing.assert_allclose(gauss_values(lanczos(M, Z, degree=n), n),
                                   exact * n / np.sum(Z**2, axis=0), rtol=1e-10)

    def test_mixed_breakdown_stops_each_column_on_its_own(self):
        d = np.array([1.0, 1, 1, 2, 2, 2, 5, 5])
        Z = np.column_stack([np.eye(8)[0] + np.eye(8)[1], np.ones(8)])
        tri = lanczos(SpdMatrix.from_dense(np.diag(d)), Z, degree=8)
        assert list(tri.steps) == [1, 3] and tri.degree == 3
        exact = np.sum(Z**2 / d[:, None], axis=0) * 8 / np.sum(Z**2, axis=0)
        np.testing.assert_allclose(gauss_values(tri, 8), exact, rtol=1e-13)
        assert np.all(tri.alpha[1:, 0] == 0.0)

    def test_columns_match_single_calls_and_permute(self, rng):
        n, b = 40, 7
        M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, n))
        Z = rng.standard_normal((n, b))
        tri = lanczos(M, Z, degree=10)
        for j in range(b):
            one = lanczos(M, Z[:, j], degree=10)
            assert one.alpha.shape == (10,) and one.steps == 10
            np.testing.assert_allclose(tri.alpha[:, j], one.alpha, rtol=1e-10)
            np.testing.assert_allclose(tri.beta[:, j], one.beta, rtol=1e-10)
        perm = rng.permutation(b)
        swapped = lanczos(M, Z[:, perm], degree=10)
        np.testing.assert_allclose(swapped.alpha, tri.alpha[:, perm], rtol=1e-10)
        np.testing.assert_allclose(swapped.beta, tri.beta[:, perm], rtol=1e-10)

    def test_zero_column_rejected(self):
        with pytest.raises(InvalidShape):
            lanczos(SpdMatrix.identity(4), np.column_stack([np.ones(4), np.zeros(4)]), degree=2)


class TestProbeBlocks:
    """Blocked estimators against one probe at a time; 70 probes span two blocks."""

    N_V, SEED = 70, 13

    def test_hutchinson_matches_per_probe_solves(self, rng):
        M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, 30))
        L = lower_factor(cholesky(M))
        samples = []
        for k in range(self.N_V):
            y = scipy.linalg.solve_triangular(L, probe(self.SEED, k, 30), lower=True)
            samples.append(y @ y)
        est = trace_inv_hutchinson(M, n_v=self.N_V, seed=self.SEED)
        assert est.value == pytest.approx(np.mean(samples), rel=1e-12)
        assert est.std_error == pytest.approx(np.std(samples, ddof=1) / np.sqrt(self.N_V),
                                              rel=1e-12)

    def test_slq_matches_per_probe_lanczos(self, rng):
        M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, 30))
        samples = []
        for k in range(self.N_V):
            tri = lanczos(M, probe(self.SEED, k, 30), degree=8)
            theta, vecs = scipy.linalg.eigh_tridiagonal(tri.alpha, tri.beta)
            samples.append(30 * np.sum(vecs[0, :] ** 2 / theta))
        est = trace_inv_slq(M, n_v=self.N_V, degree=8, seed=self.SEED)
        assert est.value == pytest.approx(np.mean(samples), rel=1e-10)
        assert est.std_error == pytest.approx(np.std(samples, ddof=1) / np.sqrt(self.N_V),
                                              rel=1e-10)


class TestProbeSplit:
    """n_v probes go in ceil(n_v / PROBE_BLOCK) blocks of near-equal width, never a short tail."""

    def test_widths_and_order(self):
        def widths(n_v):
            return [Z.shape[1] for Z in traceinv.estimators._probe_blocks(4, n_v, 0)]
        assert widths(1) == [1] and widths(64) == [64] and widths(128) == [64, 64]
        assert widths(65) == [33, 32] and widths(130) == [44, 43, 43]
        Z = np.hstack(list(traceinv.estimators._probe_blocks(30, 65, 4)))
        assert all(np.array_equal(Z[:, k], probe(4, k, 30)) for k in range(65))

    def test_65_probes_stop_early(self):
        # one block of 64 and one of a single probe ran the second to the cap of 20
        M = shifted_operand(build_exponential_kernel(grid_points(15), rho=0.1), None, 1.0)
        assert trace_inv_slq(M, n_v=65, degree=20, seed=3).degree < 20
        L = scipy.linalg.cholesky(M.to_dense(), lower=True)
        samples = [np.sum(scipy.linalg.solve_triangular(L, probe(3, k, M.n), lower=True) ** 2)
                   for k in range(65)]
        est = trace_inv_hutchinson(M, n_v=65, seed=3)
        assert est.value == pytest.approx(np.mean(samples), rel=1e-14)
        assert est.std_error == pytest.approx(np.std(samples, ddof=1) / np.sqrt(65), rel=1e-13)


class TestSlq:
    def test_scaled_identity_exact(self):
        M = SpdMatrix.from_dense(4.0 * np.eye(9))
        est = trace_inv_slq(M, n_v=5, degree=7, seed=0)
        assert est.value == pytest.approx(9 / 4.0, rel=1e-12)

    def test_diag_123_matches_oracle(self):
        M = SpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        est = trace_inv_slq(M, n_v=1000, degree=3, seed=4)
        # zero-variance structure makes the se tiny; keep a floating floor
        assert abs(est.value - 11 / 6) <= 3 * est.std_error + 1e-12

    def test_kernel_matrix_within_one_percent_of_cholesky(self):
        from traceinv import build_exponential_kernel, grid_points

        K = build_exponential_kernel(grid_points(10), rho=0.1)
        exact = trace_inv_exact_cholesky(K).value
        est = trace_inv_slq(K, n_v=30, degree=30, seed=7)
        assert abs(est.value / exact - 1.0) <= 0.01

    def test_full_degree_matches_oracle_within_three_se(self, rng):
        lam = 10.0 ** rng.uniform(-0.5, 0.5, 12)
        M, _ = spd_from_eigenvalues(rng, lam)
        est = trace_inv_slq(M, n_v=2000, degree=12, seed=3)
        assert abs(est.value - np.sum(1.0 / lam)) <= 3 * est.std_error + 1e-10

    def test_indefinite_detected(self):
        M = SpdMatrix.from_dense(np.diag([1.0, -0.5]))
        with pytest.raises(NotPositiveDefinite):
            trace_inv_slq(M, n_v=2, degree=2, seed=0)

    def test_same_seed_bit_identical(self, rng):
        M, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2, 10))
        a = trace_inv_slq(M, n_v=20, degree=6, seed=5)
        b = trace_inv_slq(M, n_v=20, degree=6, seed=5)
        assert a.value == b.value


def capped_slq(M, n_v, degree, seed):
    """SLQ run to the cap: each block's recurrences with no ``se_fraction``, then Gauss values."""
    blocks = traceinv.estimators._probe_blocks(M.n, n_v, seed)
    samples = np.concatenate([gauss_values(lanczos(M, Z, degree), M.n) for Z in blocks])
    return float(np.mean(samples))


class TestGaussRadauStop:
    """``degree`` is a cap: a certified operand stops at its Gauss-Radau bracket."""

    @staticmethod
    def bracket_steps(tri, a):
        """(g_k, r_k) of every step k of a single recurrence, by ``_gauss_radau``."""
        beta = np.append(tri.beta, 0.0)  # beta[k] is the coefficient after step k
        state, steps = None, []
        for k in range(tri.degree):
            state = _gauss_radau(state, tri.alpha[k], beta[k - 1] if k else 0.0, beta[k], a)
            steps.append((state.gauss, state.radau, state.ok))
        return steps

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.floats(1e-3, 10.0), st.integers(0, 10_000))
    def test_property_bracket_holds_at_every_step(self, n, t, seed):
        # B = I, node = shift: g_k <= z^T M^-1 z / |z|^2 <= r_k, to 1e-12 relative
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-3.0, 1.0, n))
        M = shifted_operand(A, None, t)
        z = rng.standard_normal(n)
        exact = z @ np.linalg.solve(M.to_dense(), z) / (z @ z)
        steps = self.bracket_steps(lanczos(M, z, degree=n), t)
        for gauss, radau, ok in steps:
            assert ok
            assert gauss <= exact * (1.0 + 1e-12) and radau >= exact * (1.0 - 1e-12)
        assert steps[-1][0] == pytest.approx(exact, rel=1e-10)

    def test_recurrence_matches_explicit_rules(self, rng):
        # g_k = e1^T T_k^-1 e1; r_k = e1^T R^-1 e1 for the Radau matrix R of order k + 1,
        # which has the node a as an eigenvalue
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.0, 3.0, 12))
        a = 0.25
        tri = lanczos(shifted_operand(A, None, a), rng.standard_normal(12), degree=6)
        for k, (gauss, radau, _) in enumerate(self.bracket_steps(tri, a)[:-1], start=1):
            off = tri.beta[:k - 1]
            T = np.diag(tri.alpha[:k]) + np.diag(off, 1) + np.diag(off, -1)
            e1 = np.eye(k + 1)[0]
            delta = np.linalg.solve(T - a * np.eye(k), tri.beta[k - 1] ** 2 * np.eye(k)[-1])
            R = np.zeros((k + 1, k + 1))
            R[:k, :k], R[k, k] = T, a + delta[-1]
            R[k, k - 1] = R[k - 1, k] = tri.beta[k - 1]
            assert np.min(np.linalg.eigvalsh(R)) == pytest.approx(a, rel=1e-10)
            assert gauss == pytest.approx(np.linalg.solve(T, e1[:k])[0], rel=1e-12)
            assert radau == pytest.approx(np.linalg.solve(R, e1)[0], rel=1e-10)

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_kernel_stop_within_a_tenth_se_of_the_cap(self, t):
        M = shifted_operand(build_exponential_kernel(grid_points(20), rho=0.1), None, t)
        stopped = trace_inv_slq(M, n_v=30, degree=30, seed=2)
        assert stopped.degree < 30 and stopped.record()["degree"] == stopped.degree
        capped = capped_slq(M, 30, 30, 2)
        assert abs(stopped.value - capped) <= RADAU_SE_FRACTION * stopped.std_error

    def test_lanczos_reads_its_node_from_the_operand(self):
        # the node is the certified shift; no fraction, or one column, runs to the cap
        M = shifted_operand(build_exponential_kernel(grid_points(10), rho=0.1), None, 10.0)
        Z = next(traceinv.estimators._probe_blocks(M.n, 8, 0))
        assert lanczos(M, Z, 20, 0.1).degree < 20
        assert lanczos(M, Z, 20).degree == 20
        assert lanczos(M, Z[:, 0], 20, 0.1).degree == 20
        assert lanczos(SpdMatrix.from_dense(M.to_dense()), Z, 20, 0.1).degree == 20

    @pytest.mark.parametrize("case", ["from_dense", "stored_b", "zero_shift", "negative_shift",
                                      "one_probe", "indefinite_stored_part"])
    def test_uncertified_operands_run_to_the_cap_bit_for_bit(self, case):
        K = build_exponential_kernel(grid_points(12), rho=0.1)
        n_v = 1 if case == "one_probe" else 30
        M = {
            "from_dense": lambda: shifted_operand(SpdMatrix.from_dense(K.to_dense()), None, 10.0),
            "stored_b": lambda: shifted_operand(K, SpdMatrix.from_dense(np.eye(K.n)), 10.0),
            "zero_shift": lambda: K,
            "negative_shift": lambda: shifted_operand(K, None, -0.01),
            "one_probe": lambda: shifted_operand(K, None, 10.0),
            # lambda_min(A) = -0.05, so the shift 1 is no lower bound on A + I's spectrum; were
            # it taken as the node, the block would stop at step 6 with every pivot positive
            "indefinite_stored_part": lambda: shifted_operand(SpdMatrix.from_dense(
                K.to_dense() - (np.linalg.eigvalsh(K.to_dense())[0] + 0.05) * np.eye(K.n)),
                None, 1.0),
        }[case]()
        est = trace_inv_slq(M, n_v=n_v, degree=12, seed=4)
        assert est.degree == 12
        assert est.value.hex() == capped_slq(M, n_v, 12, 4).hex()

    def test_degree_recorded_per_method(self):
        M = shifted_operand(build_exponential_kernel(grid_points(8), rho=0.1), None, 100.0)
        assert trace_inv_slq(M, n_v=10, degree=20, seed=0).degree < 20
        assert trace_inv_slq(SpdMatrix.from_dense(4.0 * np.eye(9)), 5, 7, 0).degree == 1
        for est in (trace_inv_exact_cholesky(M), trace_inv_hutchinson(M, n_v=3, seed=0),
                    prepare_trace(M, method="eigen")([0.0])[0]):
            assert est.degree == 0 and est.record()["degree"] == 0


@pytest.mark.parametrize("estimator, options", [(trace_inv_hutchinson, {}),
                                                (trace_inv_slq, {"degree": 3})])
def test_single_probe_has_undefined_std_error(estimator, options):
    est = estimator(SpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0])), n_v=1, seed=0, **options)
    assert np.isnan(est.std_error)
    assert est.record()["std_error"] is None


def test_sweep_matches_per_shift_calls(rng):
    # the seed names one probe set, used at every shift; the factored methods
    # form A + t*B only in the buffer they factor, and still match bit for bit
    A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 8))
    ts = [0.0, 0.5, 3.0]
    for B in (spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 8))[0], SpdMatrix.identity(8)):
        for method in ("cholesky", "hutchinson", "slq"):
            sweep = prepare_trace(A, B, method=method, n_v=5, degree=4, seed=11)(ts)
            for k, t in enumerate(ts):
                ref = estimate_trace_inv(shifted_operand(A, B, t), method=method,
                                         n_v=5, degree=4, seed=11)
                assert sweep[k] == ref
                assert (sweep[k].value.hex(), sweep[k].std_error.hex()) == \
                    (ref.value.hex(), ref.std_error.hex())


@pytest.mark.parametrize("estimator, args", [(trace_inv_exact_cholesky, ()),
                                             (trace_inv_hutchinson, (4, 0)),
                                             (trace_inv_slq, (4, 3, 0))])
def test_no_b_means_identity(estimator, args):
    # B = None is B = I at every shift; the shift is not dropped
    A = SpdMatrix.from_dense(np.diag([1.0, 2.0, 4.0]))
    default = estimator(shifted_operand(A, None, 1.0), *args)
    assert default == estimator(shifted_operand(A, SpdMatrix.identity(3), 1.0), *args)
    assert default.value != estimator(A, *args).value
    if estimator is trace_inv_exact_cholesky:
        assert default.value == pytest.approx(1 / 2 + 1 / 3 + 1 / 5, rel=1e-15)


def test_estimators_are_looked_up_at_call_time(rng, monkeypatch):
    # a tracer wraps the module's attributes, and reads the order from args[0]
    names = ("trace_inv_exact_cholesky", "trace_inv_hutchinson", "trace_inv_slq")
    calls = []
    for name in names:
        def recording(*args, name=name, original=getattr(traceinv.estimators, name), **kwargs):
            calls.append((name, args[0].n))
            return original(*args, **kwargs)
        monkeypatch.setattr(traceinv.estimators, name, recording)
    A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 6))
    B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 6))
    for method in ("cholesky", "hutchinson", "slq"):
        prepare_trace(A, B, method, n_v=2, degree=3)([0.0, 1.0])  # trace(B^-1), then two shifts
        estimate_trace_inv(A, method, n_v=2, degree=3)
    assert calls == [(name, 6) for name in names for _ in range(4)]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["cholesky", "eigen", "hutchinson", "slq"])
def test_non_finite_shift_refused_before_any_work(monkeypatch, method, t):
    work = []
    for name in ("shifted_operand", "cholesky", "inverse_factor", "lanczos"):
        def recording(*args, name=name, original=getattr(traceinv.estimators, name), **kwargs):
            work.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(traceinv.estimators, name, recording)
    backend = prepare_trace(SpdMatrix.from_dense(np.diag([1.0, 2.0, 4.0])), None, method,
                            n_v=2, degree=3, seed=0)
    with pytest.raises(InvalidShape, match=f"shift t={t} is not finite"):
        backend([1.0, t])
    assert work == []


@pytest.mark.parametrize("method", ["cholesky", "eigen", "hutchinson", "slq"])
def test_singular_shift_refused(method):
    # A - I = diag(0, 1, 3): SLQ's smallest quadrature node is rounding noise about 0
    backend = prepare_trace(SpdMatrix.from_dense(np.diag([1.0, 2.0, 4.0])), None, method,
                            n_v=2, degree=3, seed=0)
    with pytest.raises(NotPositiveDefinite):
        backend([-1.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_estimate_refused(value):
    with pytest.raises(InvalidShape, match="not finite"):
        TraceEstimate(value=value, method="slq")


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("B", [None, SpdMatrix.identity(3), SpdMatrix.from_dense(np.eye(3))],
                         ids=["none", "identity", "stored"])
def test_shifted_operand_refuses_non_finite_shift(B, t):
    # the one place a shift meets an operand, so no kernel sees a non-finite one
    with pytest.raises(InvalidShape, match=f"shift t={t} is not finite"):
        shifted_operand(SpdMatrix.from_dense(np.diag([1.0, 2.0, 4.0])), B, t)


FOOTPRINT_ORDER, FOOTPRINT_PROBES = 600, 8


@pytest.mark.parametrize("method,dense_b,squares", [
    ("cholesky", False, 0.55), ("hutchinson", False, 0.55), ("cholesky", True, 1.05)])
def test_trace_holds_packed_arrays(rng, method, dense_b, squares):
    # one packed factor of n(n+1)/2 entries, half an n x n array; a dense B
    # adds one packed temporary, and Hutchinson one block of probes
    n = FOOTPRINT_ORDER
    A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, n))
    B = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, n))[0] if dense_b \
        else SpdMatrix.identity(n)
    backend = prepare_trace(A, B, method, n_v=FOOTPRINT_PROBES, seed=0)
    probes = 8 * n * FOOTPRINT_PROBES if method == "hutchinson" else 0
    assert traced_extra_bytes(backend, [0.5]) <= squares * 8 * n * n + probes


class TestDistinctShifts:
    @pytest.mark.parametrize("operand, method", [("random", "cholesky"), ("gcv", "cholesky"),
                                                 ("gcv", "hutchinson")])
    def test_repeated_shifts_factor_once(self, rng, cholesky_calls, operand, method):
        # the GCV operand X^T X + s*I carries its own shift, and the back-end's s + t
        # must round as the direct call's
        if operand == "gcv":
            A = make_gcv_problem(n=400, m=200, seed=287).shifted_gram
            shifts = list(np.logspace(-6, 1, 40))
        else:
            A, shifts = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 8))[0], [1.0, 0.5, 0.0]
        I, ts = SpdMatrix.identity(A.n), shifts[:2] + shifts  # each of the first two twice
        kernel = {"cholesky": trace_inv_exact_cholesky,
                  "hutchinson": functools.partial(trace_inv_hutchinson, n_v=30, seed=0)}[method]
        backend = prepare_trace(A, I, method, n_v=30, seed=0)
        sweep = backend(ts)
        assert len(cholesky_calls) == len(shifts) and len(sweep) == len(ts)
        assert backend([ts[1], max(ts) + 1.0])[0] is sweep[1]  # kept across calls
        assert len(cholesky_calls) == len(shifts) + 1
        for t, est in zip(ts, sweep):
            fresh = kernel(shifted_operand(A, I, t))
            assert est.value.hex() == fresh.value.hex()

    def test_repeated_stochastic_shift_keeps_its_probe_set(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 8))
        I = SpdMatrix.identity(8)
        backend = prepare_trace(A, I, method="slq", n_v=5, degree=4, seed=13)
        values = [e.value for e in backend([0.3, 0.3, 2.0]) + backend([0.3])]
        fresh = [estimate_trace_inv(shifted_operand(A, I, t), method="slq", n_v=5, degree=4,
                                    seed=13).value for t in (0.3, 0.3, 2.0, 0.3)]
        assert [v.hex() for v in values] == [v.hex() for v in fresh]

    def test_back_ends_share_no_values(self, rng):
        ts = [0.0, 0.5]
        operands = [spd_from_eigenvalues(rng, rng.uniform(0.5, 2.0, 6))[0] for _ in range(2)]
        backends = [prepare_trace(A, SpdMatrix.identity(6)) for A in operands]
        sweeps = [[e.value for e in backend(ts)] for backend in backends]
        assert sweeps[0][0] != sweeps[1][0] and sweeps[0][1] != sweeps[1][1]
        for A, sweep in zip(operands, sweeps):
            assert sweep == [trace_inv_exact_cholesky(shifted_operand(A, SpdMatrix.identity(6),
                                                                     t)).value for t in ts]


def needs_switchable_blas():
    if not matrices._openblas_thread_counts():
        pytest.skip("no OpenBLAS thread control found in this process")


@functools.cache
def batch_operand(n):
    rng = np.random.default_rng(n)
    return spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1, 1, n))[0]


def two_wide(blas_threads, count):
    """A batch width for the side-by-side path on any runner: the caller and one pool thread."""
    return min(2, count)


def forked_batch():
    return [e.value for e in prepare_trace(batch_operand(129))([0.1, 0.2, 0.3])]


BATCH_SHIFTS = st.sampled_from((0.0, 1e-3, 0.25, 1.0, 100.0)) | st.floats(0.0, 100.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 128, 129, 300)), st.lists(BATCH_SHIFTS, min_size=2, max_size=12),
       st.integers(2, 4))
def test_property_batch_matches_per_shift_traces(n, ts, width):
    needs_switchable_blas()
    A = batch_operand(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "_batch_width", lambda blas_threads, count: min(width, count))
        batch = prepare_trace(A)(ts)
    serial = [trace_inv_exact_cholesky(shifted_operand(A, None, t)) for t in ts]
    assert [e.value.hex() for e in batch] == [e.value.hex() for e in serial]


class TestExactBatch:
    """A call's new exact shifts below ONE_THREAD_MAX_ORDER run side by side (lapack_map)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(shift, thread, "start" | "end") for each exact trace, with ``delay``: seconds to
        sleep before the trace at a shift. The shift is the operand's: t on these unshifted
        operands."""
        needs_switchable_blas()
        log, delay, real = [], {}, traceinv.estimators.trace_inv_exact_cholesky

        def recording(M):
            log.append((M.shift, threading.get_ident(), "start"))
            time.sleep(delay.get(M.shift, 0.0))
            try:
                return real(M)
            finally:
                log.append((M.shift, threading.get_ident(), "end"))
        monkeypatch.setattr(traceinv.estimators, "trace_inv_exact_cholesky", recording)
        return log, delay

    @staticmethod
    def threads_of(calls):
        return {t: ident for t, ident, event in calls[0] if event == "start"}

    def test_shifts_interleave_over_the_caller_and_a_pool_thread(self, monkeypatch, calls):
        monkeypatch.setattr(matrices, "_batch_width", two_wide)
        ts = [0.1, 0.2, 0.3, 0.4, 0.5]
        prepare_trace(batch_operand(129))(ts)
        thread_of, me = self.threads_of(calls), threading.get_ident()
        assert [thread_of[t] == me for t in ts] == [True, False, True, False, True]

    def test_one_blas_thread_starts_no_pool_thread(self, calls):
        controls = matrices._openblas_thread_counts()
        saved = [get() for get, _ in controls]
        for _, set_count in controls:
            set_count(1)
        try:
            prepare_trace(batch_operand(129))([0.1, 0.2, 0.3, 0.4])
        finally:
            for (_, set_count), count in zip(controls, saved):
                set_count(count)
        assert set(self.threads_of(calls).values()) == {threading.get_ident()}

    @pytest.mark.parametrize("order, ts", [(129, [0.1]), (1100, [0.1, 0.2])])
    def test_one_shift_or_a_large_order_stays_serial(self, monkeypatch, calls, order, ts):
        monkeypatch.setattr(matrices, "_batch_width", two_wide)
        A = SpdMatrix.from_dense(np.diag(np.linspace(1.0, 2.0, order)))
        prepare_trace(A)(ts)
        assert set(self.threads_of(calls).values()) == {threading.get_ident()}

    def test_first_failing_shift_in_order_raises_after_every_thread_ends(self, monkeypatch,
                                                                          calls):
        A = SpdMatrix.from_dense(np.diag(np.arange(40.0, 0.0, -1.0)))  # eigenvalues 1..40
        messages = {}
        for t in (-1.0, -10.5):  # one zero pivot, or ten negative ones: different messages
            with pytest.raises(NotPositiveDefinite) as serial:
                trace_inv_exact_cholesky(shifted_operand(A, None, t))
            messages[t] = str(serial.value)
        assert messages[-1.0] != messages[-10.5]
        monkeypatch.setattr(matrices, "_batch_width", two_wide)
        controls = matrices._openblas_thread_counts()
        before = [get() for get, _ in controls]
        # the pool thread's -10.5 comes first in order but fails after the caller's -1.0
        log, delay = calls
        delay[-10.5] = 0.2
        with pytest.raises(NotPositiveDefinite, match=re.escape(messages[-10.5])):
            prepare_trace(A)([0.5, -10.5, -1.0, 2.0])
        starts = sorted(t for t, _, event in log if event == "start")
        assert starts == sorted(t for t, _, event in log if event == "end") == [-10.5, -1.0, 0.5]
        assert [get() for get, _ in controls] == before
        acquired = []

        def take_lock():
            if matrices._BLAS_THREADS_LOCK.acquire(timeout=10):
                acquired.append(True)
                matrices._BLAS_THREADS_LOCK.release()
        other = threading.Thread(target=take_lock)
        other.start()
        other.join(timeout=20)
        assert not other.is_alive() and acquired == [True]

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the child has none of the parent's pool threads; handing it the parent's pool
        # would queue its batch on a thread that does not exist
        needs_switchable_blas()
        monkeypatch.setattr(matrices, "_batch_width", two_wide)
        expected = forked_batch()  # starts this process's pool
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(forked_batch).get(timeout=60) == expected

    def test_many_threads_with_fast_switching_give_serial_bits(self, monkeypatch):
        # more threads than a small runner's cores, switching every microsecond
        needs_switchable_blas()
        monkeypatch.setattr(matrices, "_batch_width", lambda blas_threads, count: min(4, count))
        A, ts = batch_operand(129), list(np.linspace(0.0, 5.0, 40))
        batches, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: batches.append(prepare_trace(A)(ts)),
                                      daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        serial = [trace_inv_exact_cholesky(shifted_operand(A, None, t)).value.hex() for t in ts]
        assert [e.value.hex() for e in batches[0]] == serial


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_property_stochastic_sweep_is_strictly_decreasing(n, seed):
    # the same probes at every shift make each probe's estimate decreasing in t
    rng = np.random.default_rng(seed)
    A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2, 2, n))
    ts = np.logspace(-3, 3, 25)
    for method in ("hutchinson", "slq"):
        values = [e.value for e in prepare_trace(A, SpdMatrix.identity(n), method=method,
                                                 n_v=4, degree=n // 2, seed=seed)(ts)]
        assert all(a > b for a, b in zip(values, values[1:])), method


class TestEigenSweep:
    TS = [0.0, 0.01, 0.3, 2.0, 50.0]

    def test_one_eigensolve_per_sweep(self, rng, eigh_calls):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 9))
        backend = prepare_trace(A, SpdMatrix.identity(9), method="eigen")
        assert eigh_calls == [(9, 9)]  # solved when prepared
        sweeps = [backend(self.TS), backend([1.0])]
        assert [len(sweep) for sweep in sweeps] == [len(self.TS), 1]
        assert eigh_calls == [(9, 9)]
        assert all(e.method == "exact-eigen" for e in sweeps[0] + sweeps[1])

    @pytest.mark.parametrize("general_b", [False, True])
    def test_matches_cholesky_sweep(self, rng, general_b):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 10))
        B = (spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 10))[0] if general_b
             else SpdMatrix.identity(10))
        eigen = [e.value for e in prepare_trace(A, B, method="eigen")(self.TS)]
        exact = [e.value for e in prepare_trace(A, B, method="cholesky")(self.TS)]
        np.testing.assert_allclose(eigen, exact, rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000), st.booleans())
    def test_property_matches_cholesky_back_end(self, n, seed, general_b):
        # spectra of A and B in [0.1, 10], 13 shifts over six decades
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, n))
        B = (spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1.0, 1.0, n))[0] if general_b
             else SpdMatrix.identity(n))
        ts = np.logspace(-3, 3, 13)
        eigen = [e.value for e in prepare_trace(A, B, "eigen")(ts)]
        exact = [e.value for e in prepare_trace(A, B, "cholesky")(ts)]
        np.testing.assert_allclose(eigen, exact, rtol=1e-12)

    def test_indefinite_b_raises(self):
        A = SpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        B = SpdMatrix.from_dense(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(NotPositiveDefinite):
            prepare_trace(A, B, method="eigen")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000))
def test_property_cholesky_trace_matches_eigen_sum(n, seed):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-2, 2, n)
    M, _ = spd_from_eigenvalues(rng, lam)
    assert trace_inv_exact_cholesky(M).value == pytest.approx(np.sum(1.0 / lam),
                                                              rel=1e-10)
    # with condition number at most 100 the in-place inverse agrees with eigvalsh to 1e-12
    M, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-1, 1, n))
    eig_sum = np.sum(1.0 / np.linalg.eigvalsh(M.to_dense()))
    assert trace_inv_exact_cholesky(M).value == pytest.approx(eig_sum, rel=1e-12)


@pytest.mark.parametrize("name", ["n_v", "degree", "identity"])
def test_fractional_count_refused(name):
    # 2.9 was once truncated to 2; numpy integers stay counts
    A = SpdMatrix.from_dense(np.diag([1.0, 2.0, 4.0]))

    def run(value):
        if name == "identity":
            return SpdMatrix.identity(value).n
        return estimate_trace_inv(A, "slq", seed=0, **{"n_v": 2, "degree": 2, name: value}).value

    with pytest.raises(InvalidShape, match="whole"):
        run(2.9)
    assert run(np.int64(2)) == run(2)
