import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from traceinv import (
    InterpolantPoints,
    InvalidShape,
    NotPositiveDefinite,
    PoleInDomain,
    SingularSystem,
    SpdMatrix,
    TauContext,
    check_inequality_suite,
    compute_tau_at_nodes,
    compute_tau_context,
    eval_basis,
    eval_rational,
    fit_basis,
    fit_rational,
    gram_schmidt,
    prepare_trace,
    shifted_operand,
    tau_lower_bound,
    tau_upper_bound,
    trace_inv_exact_cholesky,
)
from traceinv.estimators import StieltjesSum, trace_inv_exact_eigen
from traceinv.interpolation import BasisFit, RationalFit, default_nodes
from traceinv.ortho import eval_ortho_function

from conftest import spd_from_eigenvalues


def diag_context(diagonal):
    A = SpdMatrix.from_dense(np.diag(np.asarray(diagonal, dtype=float)))
    return compute_tau_context(A)


class TestBounds:
    def test_upper_equality_at_origin(self):
        assert tau_upper_bound(0.0, 6.33) == 6.33

    def test_upper_asymptote(self):
        # far field behaves like 1/t
        t = 1e6
        assert tau_upper_bound(t, 6.33) == pytest.approx(1.0 / t, rel=1e-5)

    def test_upper_bound_hand_case(self):
        # A = diag(1, 2), B = I: tau(1) = 5/12 <= 3/7
        ctx = diag_context([1.0, 2.0])
        assert ctx.tau0 == pytest.approx(0.75)
        tau1 = (1 / 2 + 1 / 3) / 2
        assert tau1 == pytest.approx(5 / 12)
        assert tau_upper_bound(1.0, ctx.tau0) == pytest.approx(3 / 7, rel=1e-14)
        assert tau1 <= tau_upper_bound(1.0, ctx.tau0)

    def test_lower_bound_unit_diagonal(self):
        # normalized by trace(B^-1) = n, a correlation matrix gives 1 <= tau0
        n = 4
        K = np.eye(n)
        K[0, 1] = K[1, 0] = 0.3
        ctx = compute_tau_context(SpdMatrix.from_dense(K))
        value = tau_lower_bound(0.0, float(n), float(n), n) / n
        assert value == pytest.approx(1.0)
        assert value <= ctx.tau0

    def test_lower_bound_equality_scaled_identity(self):
        # A = c*I, B = I: bound equals the trace exactly
        c, n, t = 2.5, 6, 0.7
        A = SpdMatrix.from_dense(c * np.eye(n))
        exact = trace_inv_exact_eigen(A)(t)
        assert tau_lower_bound(t, c * n, float(n), n) == pytest.approx(exact, rel=1e-14)

    def test_lower_bound_diag(self):
        assert tau_lower_bound(0.0, 4.0, 2.0, 2) == pytest.approx(1.0)
        assert 1.0 <= 4 / 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_bound_ordering(self, n, seed):
        rng = np.random.default_rng(seed)
        lam = 10.0 ** rng.uniform(-1.5, 1.5, n)
        A, _ = spd_from_eigenvalues(rng, lam)
        ctx = compute_tau_context(A)
        f = trace_inv_exact_eigen(A)
        for t in (0.0, 0.1, 1.0, 30.0):
            trace = f(t)
            assert tau_lower_bound(t, A.trace(), float(n), n) <= trace * (1 + 1e-12)
            assert trace / n <= tau_upper_bound(t, ctx.tau0) * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_exact_sweep_is_decreasing_and_bounded(self, n, seed):
        # tau(t) with B = I over a log grid of t: strictly decreasing, under
        # the sharp upper bound and over the harmonic-mean lower bound
        rng = np.random.default_rng(seed)
        A, _ = spd_from_eigenvalues(rng, 10.0 ** rng.uniform(-2.0, 2.0, n))
        ts = np.logspace(-3, 3, 25)
        traces = np.array([e.value for e in prepare_trace(A, SpdMatrix.identity(n))(ts)])
        assert np.all(np.diff(traces) < 0.0)
        tau0 = compute_tau_context(A).tau0
        assert np.all(traces / n <= tau_upper_bound(ts, tau0) * (1 + 1e-12))
        assert np.all(traces >= tau_lower_bound(ts, A.trace(), float(n), n) * (1 - 1e-12))


class TestTauContext:
    def test_tau0_value(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        assert ctx.tau0 == pytest.approx((1 + 0.5 + 0.2) / 3, rel=1e-14)
        assert ctx.trace_b_inv == 3.0

    def test_general_b(self, rng):
        A, _ = spd_from_eigenvalues(rng, rng.uniform(1, 3, 6))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(1, 3, 6))
        ctx = compute_tau_context(A, B)
        expected = (trace_inv_exact_cholesky(A).value
                    / trace_inv_exact_cholesky(B).value)
        assert ctx.tau0 == pytest.approx(expected, rel=1e-10)

    def test_eigen_context_solves_once(self, eigh_calls):
        # tau0 and every node come from one spectrum
        d = np.array([1.0, 2.0, 5.0])
        ctx = compute_tau_context(SpdMatrix.from_dense(np.diag(d)), method="eigen")
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0, 10.0])
        assert eigh_calls == [(3, 3)]
        assert ctx.tau0 == pytest.approx(np.mean(1.0 / d), rel=1e-14)
        np.testing.assert_allclose(pts.taus, [np.mean(1.0 / (d + t)) for t in pts.ts],
                                   rtol=1e-14)

    def test_eigen_context_general_b_solves_once(self, rng, monkeypatch):
        # trace(B^-1) comes from the pencil's B-orthonormal eigenvectors
        arg_counts = []
        eigh = scipy.linalg.eigh

        def counting(*args, **kwargs):
            arg_counts.append(len(args))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 7))
        B, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 7))
        ctx = compute_tau_context(A, B, method="eigen")
        assert arg_counts == [2]
        expected = np.sum(1.0 / scipy.linalg.eigvalsh(B.to_dense()))
        assert ctx.trace_b_inv == pytest.approx(expected, rel=1e-12)

    def test_hand_built_context_has_no_back_end(self):
        ctx = TauContext(A=SpdMatrix.identity(2), B=SpdMatrix.identity(2),
                         tau0=1.0, trace_b_inv=2.0, n=2)
        with pytest.raises(InvalidShape, match="no trace back-end"):
            compute_tau_at_nodes(ctx, [0.1, 1.0])
        with pytest.raises(InvalidShape, match="no trace back-end"):
            ctx(0.1)

    def test_call_reads_the_back_end(self, rng, cholesky_calls):
        # a scalar gives a float, an array keeps its shape, and each value is the exact
        # trace over n bit for bit; a shift seen before is not factored again
        A, _ = spd_from_eigenvalues(rng, rng.uniform(0.5, 5.0, 7))
        ctx = compute_tau_context(A)
        ts = np.array([[0.1, 1.0, 10.0], [0.0, 0.1, 3.0]])
        scalar, grid = ctx(1.0), ctx(ts)
        assert cholesky_calls == [7] * 5  # 0 (tau0), 1, 0.1, 10 and 3, each once
        assert type(scalar) is float and grid.shape == (2, 3)
        for t, value in zip([1.0, *ts.ravel()], [scalar, *grid.ravel()]):
            expected = trace_inv_exact_cholesky(shifted_operand(A, None, t)).value / 7
            assert value.hex() == expected.hex()

    def test_t_min_sign_check(self):
        A = SpdMatrix.identity(2)
        with pytest.raises(InvalidShape):
            TauContext(A=A, B=A, tau0=1.0, trace_b_inv=2.0, n=2, t_min=0.5)


class TestInterpolantPoints:
    def test_rejects_unsorted_nodes(self):
        with pytest.raises(InvalidShape):
            InterpolantPoints(ts=[1.0, 0.5], taus=[0.5, 0.4])

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(InvalidShape):
            InterpolantPoints(ts=[0.0, 1.0], taus=[1.0, 0.5])

    def test_rejects_nondecreasing_taus(self):
        with pytest.raises(InvalidShape):
            InterpolantPoints(ts=[0.1, 1.0], taus=[0.5, 0.5])

    def test_rejects_nonpositive_taus(self):
        with pytest.raises(NotPositiveDefinite):
            InterpolantPoints(ts=[0.1, 1.0], taus=[0.5, -0.1])


class TestBasisInterpolant:
    def test_p0_is_the_upper_bound(self):
        ctx = diag_context([1.0, 2.0])
        interp = fit_basis(ctx, InterpolantPoints(ts=[], taus=[]))
        assert interp.p == 0 and interp.record()["variant"] == "bound"
        ts = np.logspace(-3, 3, 40)
        np.testing.assert_array_equal(eval_basis(interp, ts),
                                      tau_upper_bound(ts, ctx.tau0))

    def test_reproduces_nodes(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0, 10.0])
        interp = fit_basis(ctx, pts)
        for t, tau in zip(pts.ts, pts.taus):
            assert eval_basis(interp, float(t)) == pytest.approx(tau, rel=1e-8)

    def test_improves_on_bound(self):
        # fitted interpolant beats the p = 0 bound's worst-case error
        ctx = diag_context([1.0, 2.0, 5.0])
        oracle = trace_inv_exact_eigen(ctx.A)
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0, 10.0])
        interp = fit_basis(ctx, pts)
        ts = np.logspace(-3, 3, 60)
        exact = np.array([oracle(t) / 3 for t in ts])
        err_fit = np.max(np.abs(eval_basis(interp, ts) / exact - 1.0))
        err_bound = np.max(np.abs(tau_upper_bound(ts, ctx.tau0) / exact - 1.0))
        assert err_fit < err_bound

    def test_origin_exact(self):
        ctx = diag_context([1.0, 3.0])
        pts = compute_tau_at_nodes(ctx, [0.5, 2.0])
        interp = fit_basis(ctx, pts)
        assert eval_basis(interp, 0.0) == ctx.tau0

    def test_far_field_asymptote(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0, 10.0])
        interp = fit_basis(ctx, pts)
        t = 1e8 / ctx.tau0
        assert abs(t * eval_basis(interp, t) - 1.0) <= 0.01

    def test_refuses_small_t(self):
        ctx = diag_context([1.0, 2.0])
        pts = compute_tau_at_nodes(ctx, [0.5, 2.0])
        interp = fit_basis(ctx, pts)
        with pytest.raises(InvalidShape):
            eval_basis(interp, 1e-6)
        assert eval_basis(interp, 0.0) == ctx.tau0  # origin stays allowed

    def test_coincident_nodes_rejected_as_singular(self):
        ctx = diag_context([1.0, 2.0])
        pts = InterpolantPoints.__new__(InterpolantPoints)
        object.__setattr__(pts, "ts", np.array([0.5, 0.5]))
        object.__setattr__(pts, "taus", np.array([0.6, 0.5]))
        with pytest.raises(SingularSystem):
            fit_basis(ctx, pts)

    def test_condition_number_stays_moderate(self):
        # orthogonalized functions keep the collocation system well-conditioned
        for p in range(2, 10):
            nodes = np.logspace(-4, 3, p)
            scale = nodes.max()
            coeffs = gram_schmidt(p)
            M = np.column_stack([eval_ortho_function(coeffs, j, nodes / scale)
                                 for j in range(1, p + 1)])
            assert np.linalg.cond(M) < 1e10


class TestRationalInterpolant:
    def test_p0_closed_form(self):
        ctx = diag_context([1.0, 2.0])
        interp = fit_rational(ctx, InterpolantPoints(ts=[], taus=[]), 0)
        assert eval_rational(interp, 0.0) == ctx.tau0
        ts = np.logspace(-4, 4, 100)
        np.testing.assert_allclose(eval_rational(interp, ts),
                                   tau_upper_bound(ts, ctx.tau0), rtol=1e-15)
        # the bound is the one-term sum: weight 1 at 1/tau0
        assert (interp.curve.weights.tolist(), interp.curve.nodes.tolist()) == ([1.0], [1 / 0.75])

    def test_p0_hand_value(self):
        interp = fit_rational(
            TauContext(A=SpdMatrix.identity(2), B=SpdMatrix.identity(2),
                       tau0=2.0, trace_b_inv=2.0, n=2),
            InterpolantPoints(ts=[], taus=[]), 0)
        assert eval_rational(interp, 1.0) == pytest.approx(2 / 3, rel=1e-15)

    def test_reproduces_nodes(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.01, 0.1, 1.0, 10.0])
        interp = fit_rational(ctx, pts, 2)
        for t, tau in zip(pts.ts, pts.taus):
            assert eval_rational(interp, float(t)) == pytest.approx(tau, rel=1e-8)

    def test_origin_exact(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0])
        interp = fit_rational(ctx, pts, 1)
        assert eval_rational(interp, 0.0) == ctx.tau0

    def test_far_field_asymptote(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0])
        interp = fit_rational(ctx, pts, 1)
        t = 1e8 / ctx.tau0
        assert abs(t * eval_rational(interp, t) - 1.0) <= 0.01

    def test_three_eigenvalue_curve_is_recovered_exactly(self):
        # tau of a 3-point spectrum is itself rational of degree (2, 3)
        ctx = diag_context([1.0, 2.0, 5.0])
        oracle = trace_inv_exact_eigen(ctx.A)
        pts = compute_tau_at_nodes(ctx, [0.01, 0.1, 1.0, 10.0])
        interp = fit_rational(ctx, pts, 2)
        for t in np.logspace(-3, 3, 30):
            assert eval_rational(interp, t) == pytest.approx(oracle(t) / 3, rel=1e-9)

    def test_node_count_enforced(self):
        ctx = diag_context([1.0, 2.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0])
        with pytest.raises(InvalidShape):
            fit_rational(ctx, pts, 2)

    def test_pole_detection_reports_roots(self):
        # inconsistent node values force a denominator root in the domain
        ctx = TauContext(A=SpdMatrix.identity(2), B=SpdMatrix.identity(2),
                         tau0=1.0, trace_b_inv=2.0, n=2)
        pts = InterpolantPoints(ts=np.array([0.5, 1.0]),
                                taus=np.array([0.9, 0.05]))
        with pytest.raises(PoleInDomain) as err:
            fit_rational(ctx, pts, 1)
        assert len(err.value.poles) >= 1
        message = str(err.value)
        assert "[0.9, 0.05]" in message and "decreasing Stieltjes curve" in message

    def test_pole_free_with_supplied_domain(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        pts = compute_tau_at_nodes(ctx, [0.1, 1.0])
        interp = fit_rational(ctx, pts, 1, eval_domain=(0.0, 100.0))
        assert eval_rational(interp, 50.0) > 0

    def test_values_above_the_bound_refused(self):
        # both values lie above tau0 / (1 + t*tau0); the pencil's eigenvalues are complex
        ctx = TauContext(A=SpdMatrix.identity(2), B=SpdMatrix.identity(2),
                         tau0=1.0, trace_b_inv=2.0, n=2)
        pts = InterpolantPoints(ts=[0.5, 2.0], taus=[0.929, 0.561])
        assert np.all(pts.taus > tau_upper_bound(pts.ts, ctx.tau0))
        with pytest.raises(PoleInDomain, match=re.escape("[0.929, 0.561]")) as err:
            fit_rational(ctx, pts, 1)
        assert len(err.value.poles) == 2
        assert all(isinstance(pole, complex) for pole in err.value.poles)

    def test_infinite_pole_refused(self):
        # 1, 0.6 and 0.6/1.4 at t = 0, 1, 2 leave C singular and S not, so one of the
        # pencil's eigenvalues is infinite; it is refused without a RuntimeWarning
        ctx = TauContext(A=SpdMatrix.identity(2), B=SpdMatrix.identity(2),
                         tau0=1.0, trace_b_inv=2.0, n=2)
        pts = InterpolantPoints(ts=[1.0, 2.0], taus=[0.6, 0.6 / 1.4])
        with pytest.raises(PoleInDomain) as err:
            fit_rational(ctx, pts, 1)
        assert np.isinf(err.value.poles).any()

    def test_evaluation_at_pole_raises(self):
        # 0.5 / (t + 1) + 0.5 / (t + 2): tau0 = 0.75, first pole at t = -1
        interp = RationalFit(p=1, tau0=0.75, curve=StieltjesSum((0.5, 0.5), (1.0, 2.0)))
        assert eval_rational(interp, 0.0) == 0.75
        assert eval_rational(interp, -0.5) == pytest.approx(0.5 / 0.5 + 0.5 / 1.5, rel=1e-15)
        for t in (-1.0, -1.5, [0.0, -1.0]):
            with pytest.raises(NotPositiveDefinite, match="first pole -1.0"):
                eval_rational(interp, t)

    @pytest.mark.parametrize("diagonal, p", [
        ([2.0] * 5, 1), ([2.0], 1), ([2.0], 2), ([1.0, 3.0], 2), ([1.0, 3.0, 3.0], 2),
        ([0.025450988016812982] * 3, 2),  # LU met an exactly zero pivot on one build
    ])
    def test_curve_of_fewer_poles_fits_with_fewer_terms(self, diagonal, p):
        # fewer than p + 1 eigenvalues leave the Loewner pencil singular; the rank cut keeps
        # one term per distinct eigenvalue
        ctx = diag_context(diagonal)
        pts = compute_tau_at_nodes(ctx, default_nodes(ctx.tau0, 2 * p))
        curve = fit_rational(ctx, pts, p).curve
        lam, count = np.unique(diagonal, return_counts=True)
        order = np.argsort(curve.nodes)
        np.testing.assert_allclose(curve.nodes[order], lam, rtol=1e-12)
        np.testing.assert_allclose(curve.weights[order], count / len(diagonal), rtol=1e-12)

    @pytest.mark.parametrize("diagonal", [
        [0.156, 1.866, 0.138, 0.426, 0.484, 0.744, 4.048, 0.197],
        [6.868, 1.512, 1.959, 1.067, 3.056, 3.774, 0.575, 0.189],
        [0.18, 1.162, 1.784, 0.503, 0.407, 0.288, 4.901, 0.148],
    ])
    def test_degree_six_fits_inside_the_spectrum(self, diagonal):
        # seven poles for eight eigenvalues (n = p + 2), the hardest shape at p = 6
        ctx = diag_context(diagonal)
        pts = compute_tau_at_nodes(ctx, default_nodes(ctx.tau0, 12))
        curve = fit_rational(ctx, pts, 6).curve
        np.testing.assert_allclose(curve(pts.ts), pts.taus, rtol=1e-13)
        assert min(diagonal) <= curve.nodes.min() and curve.nodes.max() <= max(diagonal)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 2, 12))),
           st.integers(0, 10_000))
    def test_property_fit_on_exact_values_is_a_positive_sum(self, p_n, seed):
        # tau is a positive sum with poles at -lam_i, so a fit to exact values has positive
        # weights and its nodes inside [min lam, max lam]; n >= p + 2 keeps the fit below
        # the curve's own type. From p = 4 up, values rounded at 1e-15 can move a pole of the
        # exact interpolant out of that range by up to 6% of max lam, so it is checked to p = 3
        p, n = p_n
        rng = np.random.default_rng(seed)
        lam = 10.0 ** rng.uniform(-1.0, 1.0, n)
        A, _ = spd_from_eigenvalues(rng, lam)
        ctx = compute_tau_context(A)
        pts = compute_tau_at_nodes(ctx, default_nodes(ctx.tau0, 2 * p))
        interp = fit_rational(ctx, pts, p)
        assert np.all(interp.curve.weights > 0.0)
        slack = 1e-8 * lam.max()
        if p <= 3:
            assert lam.min() - slack <= interp.curve.nodes.min()
            assert interp.curve.nodes.max() <= lam.max() + slack
        np.testing.assert_allclose(eval_rational(interp, pts.ts), pts.taus, rtol=1e-10)


class TestStieltjesSum:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_property_positive_decreasing_and_refused_left_of_domain(self, n, seed):
        # nodes of either sign: an indefinite A's eigenvalues are nodes too
        rng = np.random.default_rng(seed)
        nodes = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        curve = StieltjesSum(10.0 ** rng.uniform(-3.0, 3.0, n), nodes)
        ts = -nodes.min() + abs(nodes.min()) * np.logspace(-6, 6, 40)
        values = curve(ts)
        assert np.all(values > 0.0) and np.all(np.diff(values) < 0.0)
        assert values.tolist() == [curve(t) for t in ts]  # an array takes the scalar path
        for t in (-nodes.min(), -nodes.min() - 1.0, [ts[0], -nodes.min()]):
            with pytest.raises(NotPositiveDefinite):
                curve(t)

    @pytest.mark.parametrize("weights, nodes, error", [
        ((1.0, 2.0), (1.0,), InvalidShape),
        ((), (), InvalidShape),
        ((1.0, np.inf), (1.0, 2.0), InvalidShape),
        ((1.0, 0.0), (1.0, 2.0), NotPositiveDefinite),
        ((1.0, 2.0), (1.0, -np.inf), InvalidShape),
    ])
    def test_refuses_what_is_no_positive_sum(self, weights, nodes, error):
        with pytest.raises(error):
            StieltjesSum(weights, nodes)


def test_basis_nonpositive_result_flagged():
    from traceinv import NonPositiveResult

    # weights chosen so 1/tau dips negative between the origin and the node
    interp = BasisFit(tau0=2.0, weights=(-10.0,), scale=1.0, ortho=gram_schmidt(1))
    with pytest.raises(NonPositiveResult):
        eval_basis(interp, 0.5)


class TestJsonRoundTrip:
    def test_bound(self):
        record = fit_basis(diag_context([2.0, 2.0]), InterpolantPoints(ts=[], taus=[])).record()
        assert record["variant"] == "bound" and record["coefficients"] == []

    def test_rational_record_holds_the_sum(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        record = fit_rational(ctx, compute_tau_at_nodes(ctx, [0.1, 1.0]), 1).record()
        assert record["version"] == 2 and "coefficients" not in record
        weights, poles = np.array(record["weights"]), np.array(record["poles"])
        assert weights.size == poles.size == 2
        assert np.all(weights > 0.0) and np.all(poles < 0.0)
        assert np.sum(weights) == pytest.approx(1.0, rel=1e-12)  # the 1/t asymptote
        assert np.sum(weights / -poles) == pytest.approx(ctx.tau0, rel=1e-12)  # tau(0)


class TestInequalitySuite:
    def test_identity_equality_case(self):
        # A = B = I: both sides equal 2/3 at n = 3
        n = 3
        lhs = 1.0 / np.sum(1.0 / np.linalg.eigvalsh(2.0 * np.eye(n)))
        assert lhs == pytest.approx(2 / 3, rel=1e-15)
        assert lhs == pytest.approx(1 / 3 + 1 / 3, rel=1e-14)

    def test_scaled_pair_equality(self):
        A = np.diag([1.0, 4.0])
        B = 2.0 * A
        lhs = 1.0 / np.trace(np.linalg.inv(A + B))
        rhs = 1.0 / np.trace(np.linalg.inv(A)) + 1.0 / np.trace(np.linalg.inv(B))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_small_randomized_suite_passes(self):
        report = check_inequality_suite(trials=100, n=12, seed=7)
        assert report.passed
        assert report.worst_sum_slack >= -1e-12
        assert report.worst_equality_error <= 1e-10

    @pytest.mark.parametrize("trials, n", [(3, 0), (3, -2), (3, 2.5), (2.5, 3)])
    def test_counts_must_be_whole_and_positive(self, trials, n):
        # order 0 passed with infinite slacks, -2 failed inside numpy, 2.5 trials ran 2
        with pytest.raises(InvalidShape, match="must be >= 1 and whole"):
            check_inequality_suite(trials=trials, n=n, seed=0)

    def test_report_fields_serialize(self):
        data = check_inequality_suite(trials=5, n=6, seed=1).to_json()
        assert data["passed"] is True
        assert data["trials"] == 5

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_harmonic_mean_superadditivity(self, n, seed):
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(-3, 3, n)
        y = 10.0 ** rng.uniform(-3, 3, n)
        hm = lambda v: n / np.sum(1.0 / v)
        assert hm(x + y) >= (hm(x) + hm(y)) * (1 - 1e-12)


class TestP0Equivalence:
    def test_both_variants_match_closed_form(self):
        ctx = diag_context([1.0, 2.0, 5.0])
        basis0 = fit_basis(ctx, InterpolantPoints(ts=[], taus=[]))
        rational0 = fit_rational(ctx, InterpolantPoints(ts=[], taus=[]), 0)
        ts = np.logspace(-4, 4, 100)
        closed = tau_upper_bound(ts, ctx.tau0)
        np.testing.assert_allclose(eval_basis(basis0, ts), closed, rtol=1e-15)
        np.testing.assert_allclose(eval_rational(rational0, ts), closed, rtol=1e-15)


def test_readme_library_example_runs():
    # README's one python block, run as written, so it cannot drift from the API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    interp, ctx = namespace["interp"], namespace["ctx"]
    assert isinstance(interp, RationalFit) and interp(0.0) == ctx.tau0
