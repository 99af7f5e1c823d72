from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from traceinv import InvalidShape, gram_schmidt
from traceinv.ortho import eval_ortho_function, haar_inner_product_basis

# Reference coefficient table for orders 1..9: (sign, integer row).
REFERENCE_TABLE = {
    1: (+1, (1,)),
    2: (-1, (6, -5)),
    3: (+1, (20, -40, 21)),
    4: (-1, (50, -175, 210, -84)),
    5: (+1, (105, -560, 1134, -1008, 330)),
    6: (-1, (196, -1470, 4410, -6468, 4620, -1287)),
    7: (+1, (336, -3360, 13860, -29568, 34320, -20592, 5005)),
    8: (-1, (540, -6930, 37422, -108108, 180180, -173745, 90090, -19448)),
    9: (+1, (825, -13200, 90090, -336336, 750750, -1029600, 850850, -388960, 75582)),
}


class TestInnerProduct:
    def test_first_diagonal(self):
        assert haar_inner_product_basis(1, 1) == Fraction(1)

    def test_one_two(self):
        assert haar_inner_product_basis(1, 2) == Fraction(6, 5)

    def test_second_diagonal(self):
        assert haar_inner_product_basis(2, 2) == Fraction(3, 2)

    def test_symmetry(self):
        for i in range(1, 6):
            for j in range(1, 6):
                assert haar_inner_product_basis(i, j) == haar_inner_product_basis(j, i)

    def test_quadrature_agreement(self):
        for i, j in ((1, 1), (2, 3), (4, 4), (1, 5)):
            exact = float(haar_inner_product_basis(i, j))
            value, _ = scipy.integrate.quad(
                lambda t: t ** (1.0 / (i + 1) + 1.0 / (j + 1) - 1.0), 0.0, 1.0)
            assert value == pytest.approx(exact, rel=1e-10)

    def test_rejects_zero_index(self):
        with pytest.raises(InvalidShape):
            haar_inner_product_basis(0, 1)


class TestGramSchmidt:
    def test_row_two(self):
        c = gram_schmidt(2)
        assert c.rows[1] == (6, -5)
        assert c.alpha(2) == pytest.approx(-np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_row_three(self):
        c = gram_schmidt(3)
        assert c.rows[2] == (20, -40, 21)
        assert c.alpha(3) == pytest.approx(np.sqrt(2.0 / 4.0), rel=1e-15)

    def test_row_nine(self):
        c = gram_schmidt(9)
        assert c.rows[8] == (825, -13200, 90090, -336336, 750750, -1029600,
                             850850, -388960, 75582)
        assert c.signs[8] == +1

    def test_full_reference_table(self):
        c = gram_schmidt(9)
        for i, (sign, row) in REFERENCE_TABLE.items():
            assert c.signs[i - 1] == sign
            assert c.rows[i - 1] == row

    def test_rows_are_stable_under_order_extension(self):
        # row i never changes when more functions are orthogonalized
        c12 = gram_schmidt(12)
        c5 = gram_schmidt(5)
        assert c12.rows[:5] == c5.rows

    def test_rows_are_primitive_integers(self):
        from math import gcd

        c = gram_schmidt(12)
        for row in c.rows:
            g = 0
            for v in row:
                assert isinstance(v, int)
                g = gcd(g, abs(v))
            assert g == 1
            assert row[0] > 0
            assert row[-1] != 0

    def test_exact_orthonormality(self):
        # alpha_i^2 <a_i, a_i> = 1 and <a_i, a_j> = 0 in exact rationals
        p = 9
        c = gram_schmidt(p)
        for i in range(1, p + 1):
            for j in range(1, i + 1):
                form = Fraction(0)
                for k, aik in enumerate(c.rows[i - 1], start=1):
                    for l, ajl in enumerate(c.rows[j - 1], start=1):
                        form += aik * ajl * haar_inner_product_basis(k, l)
                if i == j:
                    assert Fraction(2, i + 1) * form == 1
                else:
                    assert form == 0

    def test_numerical_orthonormality_by_quadrature(self):
        # integrate in the log variable t = exp(-x), where dt/t = -dx and
        # the integrand is smooth; the raw form has an endpoint singularity
        p = 9
        c = gram_schmidt(p)
        for i in range(1, p + 1):
            for j in range(i, p + 1):
                value, _ = scipy.integrate.quad(
                    lambda x: eval_ortho_function(c, i, np.exp(-x))
                    * eval_ortho_function(c, j, np.exp(-x)),
                    0.0, np.inf, limit=300)
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_order_bounds(self):
        with pytest.raises(InvalidShape):
            gram_schmidt(0)
        with pytest.raises(InvalidShape):
            gram_schmidt(13)


class TestEvaluation:
    def test_zero_at_origin(self):
        c = gram_schmidt(5)
        for i in range(1, 6):
            assert eval_ortho_function(c, i, 0.0) == 0.0

    def test_first_function_at_one(self):
        c = gram_schmidt(3)
        assert eval_ortho_function(c, 1, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_second_function_at_one(self):
        c = gram_schmidt(3)
        assert eval_ortho_function(c, 2, 1.0) == pytest.approx(-np.sqrt(2.0 / 3.0),
                                                               rel=1e-14)

    def test_vectorized_matches_scalar(self):
        c = gram_schmidt(4)
        ts = np.array([0.0, 0.1, 0.5, 1.0])
        vec = eval_ortho_function(c, 3, ts)
        for t, v in zip(ts, vec):
            assert v == eval_ortho_function(c, 3, float(t))

    def test_negative_argument_rejected(self):
        with pytest.raises(InvalidShape):
            eval_ortho_function(gram_schmidt(2), 1, -0.5)


def test_table_text_layout():
    text = gram_schmidt(3).table_text()
    lines = text.splitlines()
    assert len(lines) == 4
    assert "-sqrt(2/3)" in lines[2]
    assert "20  -40  21" in lines[3]


def test_json_round_trip_fields():
    data = gram_schmidt(4).to_json()
    assert data["order"] == 4
    assert data["alpha_signs"] == [1, -1, 1, -1]
    assert data["alpha_radicands"][0] == [2, 2]
    assert data["coefficients"][3] == [50, -175, 210, -84]
