"""Randomized checks of the trace inequalities behind the interpolants.

The bound tau0 / (1 + t*tau0) of ``interpolation`` rests on the
superadditivity of 1 / trace(M^-1) over SPD matrices, which follows from
that of the harmonic mean over positive tuples. ``check_inequality_suite``
tests both, with the equality and subtraction cases, by brute-force
eigenvalue sums.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .matrices import checked_count

INEQUALITY_REL_SLACK = 1e-12  # tolerated relative slack
EQUALITY_RTOL = 1e-10  # and relative error of the equality case


@dataclass
class InequalityReport:
    """Outcome of randomized checks of the trace and harmonic-mean inequalities."""

    trials: int
    order: int
    seed: int
    sum_violations: int = 0
    equality_violations: int = 0
    difference_violations: int = 0
    harmonic_violations: int = 0
    worst_sum_slack: float = np.inf
    worst_equality_error: float = 0.0
    worst_difference_slack: float = np.inf
    worst_harmonic_slack: float = np.inf

    @property
    def total_violations(self):
        return (self.sum_violations + self.equality_violations
                + self.difference_violations + self.harmonic_violations)

    @property
    def passed(self):
        return self.total_violations == 0

    def to_json(self):
        return {**asdict(self), "passed": self.passed}


def _random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _harmonic_mean(x):
    return x.shape[-1] / np.sum(1.0 / x, axis=-1)


def check_inequality_suite(trials, n, seed, vector_trials=None) -> InequalityReport:
    """Randomized verification of the trace inequalities.

    Four parts: (a) inverse-trace superadditivity on random SPD pairs,
    (b) the equality case B = c*A, (c) the subtraction inequality on
    shared-eigenvector pairs with every eigenvalue of A above B's, and
    (d) harmonic-mean superadditivity on random positive tuples. Both
    sides are always evaluated by brute-force eigenvalue sums.
    """
    trials, n = checked_count("trials", trials), checked_count("n", n)
    if vector_trials is None:
        vector_trials = 10 * trials
    rng = np.random.default_rng(seed)
    report = InequalityReport(trials=trials, order=n, seed=int(seed))

    for _ in range(trials):
        # (a) 1/trace((A+B)^-1) >= 1/trace(A^-1) + 1/trace(B^-1)
        Qa = _random_orthogonal(rng, n)
        Qb = _random_orthogonal(rng, n)
        lam = 10.0 ** rng.uniform(-3, 3, size=n)
        mu = 10.0 ** rng.uniform(-3, 3, size=n)
        A = (Qa * lam) @ Qa.T
        B = (Qb * mu) @ Qb.T
        lhs = 1.0 / np.sum(1.0 / np.linalg.eigvalsh(A + B))
        rhs = 1.0 / np.sum(1.0 / lam) + 1.0 / np.sum(1.0 / mu)
        slack = (lhs - rhs) / rhs
        report.worst_sum_slack = min(report.worst_sum_slack, slack)
        if slack < -INEQUALITY_REL_SLACK:
            report.sum_violations += 1

        # (b) equality when B = c*A
        c = 10.0 ** rng.uniform(-2, 2)
        lhs_eq = 1.0 / np.sum(1.0 / np.linalg.eigvalsh(A + c * A))
        rhs_eq = 1.0 / np.sum(1.0 / lam) + 1.0 / np.sum(1.0 / (c * lam))
        err = abs(lhs_eq - rhs_eq) / rhs_eq
        report.worst_equality_error = max(report.worst_equality_error, err)
        if err > EQUALITY_RTOL:
            report.equality_violations += 1

        # (c) 1/trace((A-B)^-1) <= 1/trace(A^-1) - 1/trace(B^-1), shared
        # eigenvectors with lam_i > mu_i everywhere
        mu_c = 10.0 ** rng.uniform(-3, 3, size=n)
        lam_c = mu_c * (1.0 + 10.0 ** rng.uniform(-2, 2, size=n))
        Am = (Qa * lam_c) @ Qa.T
        Bm = (Qa * mu_c) @ Qa.T
        lhs_d = 1.0 / np.sum(1.0 / np.linalg.eigvalsh(Am - Bm))
        rhs_d = 1.0 / np.sum(1.0 / lam_c) - 1.0 / np.sum(1.0 / mu_c)
        slack_d = (rhs_d - lhs_d) / abs(rhs_d)
        report.worst_difference_slack = min(report.worst_difference_slack, slack_d)
        if slack_d < -INEQUALITY_REL_SLACK:
            report.difference_violations += 1

    for _ in range(vector_trials):
        # (d) H(x + y) >= H(x) + H(y) on positive tuples
        x = 10.0 ** rng.uniform(-3, 3, size=n)
        y = 10.0 ** rng.uniform(-3, 3, size=n)
        lhs_h = _harmonic_mean(x + y)
        rhs_h = _harmonic_mean(x) + _harmonic_mean(y)
        slack_h = (lhs_h - rhs_h) / rhs_h
        report.worst_harmonic_slack = min(report.worst_harmonic_slack, slack_h)
        if slack_h < -INEQUALITY_REL_SLACK:
            report.harmonic_violations += 1

    return report
