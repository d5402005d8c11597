from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graph_hopf.linear import (
    LinComb,
    Polynomial,
    bilinear,
    falling_factorial,
    format_rational,
    hilbert,
    parse_rational,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestRationalFormat:
    def test_integer(self):
        assert format_rational(Fraction(-3)) == "-3"

    def test_fraction(self):
        assert format_rational(Fraction(2, 4)) == "1/2"

    def test_round_trip(self):
        for s in ["0", "7", "-7", "3/5", "-11/2"]:
            assert format_rational(parse_rational(s)) == s

    def test_parse_rejects_malformed_text(self):
        for s in ["1/0", "abc", "1/2/3"]:
            with pytest.raises(ValueError):
                parse_rational(s)

    def test_parse_accepts_plain_decimals(self):
        assert parse_rational("-0.25") == Fraction(-1, 4)
        assert parse_rational(" .5 ") == Fraction(1, 2)

    def test_parse_rejects_exponents(self):
        # Fraction would compute 10**exp, unbounded for outside text
        for s in ["1e5", "2.5E-3", "1e+2"]:
            with pytest.raises(ValueError):
                parse_rational(s)

    def test_polynomial_from_json_uses_the_same_parser(self):
        with pytest.raises(ValueError):
            Polynomial.from_json(["1e5"])

    def test_format_rejects_inexact_values(self):
        for q in [0.5, 2.0, "1/2", None]:
            with pytest.raises(TypeError):
                format_rational(q)


class TestLinComb:
    def test_cancellation(self):
        x = LinComb.term("x")
        assert x + (-1) * x == LinComb.zero()
        assert not (x - x)

    def test_collection(self):
        assert LinComb([("a", 1), ("a", 2)]) == LinComb.term("a", 3)

    def test_bilinear_with_expanding_product(self):
        out = bilinear(LinComb.term("a", 2), LinComb.term("b", 3),
                       lambda x, y: LinComb.term(x + y) + LinComb.term(y + x))
        assert out == LinComb.term("ab", 6) + LinComb.term("ba", 6)
        # a key-valued fn: the tensor product, keyed by pairs
        a = LinComb([("u", 2), ("w", -1)])
        b = LinComb.term("v", 3)
        assert bilinear(a, b, lambda x, y: (x, y)) == LinComb([(("u", "v"), 6), (("w", "v"), -3)])

    def test_bind_drops_cancelled_images(self):
        x = LinComb([("a", 1), ("b", 1)])
        images = {"a": LinComb([("p", 1), ("q", 2)]), "b": LinComb([("p", -1), ("q", -2)])}
        out = x.bind(images.__getitem__)
        assert out == LinComb.zero()
        assert not out and len(out) == 0
        half = LinComb([("a", 1), ("b", Fraction(1, 2))]).bind(images.__getitem__)
        assert half.items() == [("p", Fraction(1, 2)), ("q", Fraction(1))]

    def test_deterministic_iteration(self):
        x = LinComb([("b", 1), ("a", 2), ("c", 3)])
        assert [k for k, _ in x.items()] == ["a", "b", "c"]

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-9, 9)), max_size=8),
           st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-9, 9)), max_size=8))
    def test_addition_commutes_and_coefficients_add(self, t1, t2):
        x, y = LinComb(t1), LinComb(t2)
        assert x + y == y + x
        for key in "abcd":
            assert (x + y).coeff(key) == x.coeff(key) + y.coeff(key)

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-9, 9)), max_size=8),
           rationals, rationals)
    def test_scaling_is_linear(self, terms, r, s):
        x = LinComb(terms)
        assert r * (s * x) == (r * s) * x
        assert (r + s) * x == r * x + s * x


class TestPolynomial:
    def test_eval_example(self):
        P = falling_factorial(3)  # X(X-1)(X-2)
        assert P(-1) == Fraction(-6)

    def test_compose_sum_is_binomial(self):
        assert Polynomial.x().compose_sum() == {(1, 0): 1, (0, 1): 1}

    def test_compose_prod_is_diagonal(self):
        assert Polynomial.x().compose_prod() == {(1, 1): 1}

    @given(st.lists(rationals, max_size=6), rationals, rationals)
    def test_compose_sum_evaluates(self, coeffs, x, y):
        P = Polynomial(coeffs)
        total = sum((c * Fraction(x) ** i * Fraction(y) ** j
                     for (i, j), c in P.compose_sum().items()), Fraction(0))
        assert total == P(x + y)

    @given(st.lists(rationals, max_size=6), rationals, rationals)
    def test_compose_prod_evaluates(self, coeffs, x, y):
        P = Polynomial(coeffs)
        total = sum((c * Fraction(x) ** i * Fraction(y) ** j
                     for (i, j), c in P.compose_prod().items()), Fraction(0))
        assert total == P(Fraction(x) * Fraction(y))

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6), rationals)
    def test_product_evaluates(self, c1, c2, q):
        P, Q = Polynomial(c1), Polynomial(c2)
        assert (P * Q)(q) == P(q) * Q(q)

    def test_json_round_trip(self):
        P = Polynomial([0, 2, -3, 1])
        assert P.to_json() == ["0", "2", "-3", "1"]
        assert Polynomial.from_json(P.to_json()) == P
        assert Polynomial.zero().to_json() == ["0"]

    def test_pretty(self):
        assert Polynomial([0, 2, -3, 1]).pretty() == "X^3 - 3X^2 + 2X"
        assert Polynomial.zero().pretty() == "0"
        assert Polynomial([Fraction(1, 2)]).pretty() == "1/2"

    def test_derivative(self):
        assert Polynomial([5, 1, 3]).derivative() == Polynomial([1, 6])


class TestHilbert:
    def test_empty_product(self):
        assert hilbert(0) == Polynomial.one()

    def test_degree_one(self):
        assert hilbert(1) == Polynomial.x()

    def test_degree_three(self):
        # X(X-1)(X-2)/6, expanded by hand
        assert hilbert(3) == Polynomial([0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)])

    def test_binomial_values(self):
        for k in range(5):
            for m in range(8):
                import math
                assert hilbert(k)(m) == math.comb(m, k)
