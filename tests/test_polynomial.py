import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsketch.polynomial import (
    DimensionMismatchError,
    Polynomial,
    evaluate,
    gradient,
    grlex_key,
    monomial_basis,
    parse_polynomial,
)


def poly_1d(coeffs):
    return Polynomial(1, {(i,): c for i, c in enumerate(coeffs)})


@st.composite
def polynomials(draw, max_vars=3, max_degree=4, max_terms=6):
    nv = draw(st.integers(1, max_vars))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(
            draw(st.integers(0, max_degree)) for _ in range(nv)
        )
        if sum(mono) > max_degree:
            continue
        terms[mono] = draw(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False).filter(
                lambda c: abs(c) > 1e-6
            )
        )
    return Polynomial(nv, terms)


class TestBasis:
    def test_univariate_cubic(self):
        b = monomial_basis(1, 3)
        assert b.elements == ((0,), (1,), (2,), (3,))
        assert len(b) == 4

    def test_two_vars_degree_one_order(self):
        b = monomial_basis(2, 1)
        assert b.elements == ((0, 0), (1, 0), (0, 1))

    def test_two_vars_degree_four_count(self):
        assert len(monomial_basis(2, 4)) == 15

    @given(st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_count_and_downward_closure(self, nv, d):
        b = monomial_basis(nv, d)
        assert len(b) == math.comb(nv + d, nv)
        assert len(set(b.elements)) == len(b)
        elems = set(b.elements)
        for mono in b.elements:
            for i, e in enumerate(mono):
                if e > 0:
                    lowered = tuple(v - 1 if j == i else v for j, v in enumerate(mono))
                    assert lowered in elems
        assert list(b.elements) == sorted(b.elements, key=grlex_key)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            monomial_basis(0, 2)
        with pytest.raises(ValueError):
            monomial_basis(2, -1)


class TestArithmetic:
    def test_eval_quadratic(self):
        p = poly_1d([2.0, -2.0, 1.0])  # x^2 - 2x + 2
        assert evaluate(p, [1.0]) == 1.0

    def test_eval_cross_term(self):
        p = Polynomial(2, {(1, 1): 1.0})
        assert evaluate(p, [2.0, 3.0]) == 6.0

    def test_eval_product_zeros(self):
        # Degree-8 product polynomial vanishing at the four sign combinations.
        p = product_instance()
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                assert evaluate(p, [sx, sy]) == 0.0

    def test_eval_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(poly_1d([1.0]), [1.0, 2.0])

    def test_difference_of_squares(self):
        x = Polynomial.variable(1, 0)
        one = Polynomial.constant(1, 1.0)
        assert (x + one) * (x - one) == poly_1d([-1.0, 0.0, 1.0])

    def test_additive_inverse_is_zero(self):
        p = poly_1d([3.0, 0.5, -2.0])
        assert not (p + p.scale(-1.0)).terms

    def test_squared_shifted_disk_term_count(self):
        # Oracle: brute-force expansion of ((x-a)^2+(y-b)^2)^2 for generic a, b
        # gives 13 distinct monomials of degree <= 4.
        a, b = math.sqrt(2.0), math.sqrt(3.0)
        q = shifted_disk(a, b)
        sq = q * q
        assert sq.degree() == 4
        oracle = {}
        for m1, c1 in q.terms.items():
            for m2, c2 in q.terms.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                oracle[key] = oracle.get(key, 0.0) + c1 * c2
        oracle = {m: c for m, c in oracle.items() if c != 0.0}
        assert len(oracle) == 13
        assert len(sq.terms) == 13

    def test_mul_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            poly_1d([1.0]) * Polynomial(2, {})

    @given(polynomials(), polynomials(), st.lists(st.floats(-2, 2), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q, raw_pt):
        if p.num_vars != q.num_vars:
            q = Polynomial(p.num_vars, {m[: p.num_vars] + (0,) * max(0, p.num_vars - len(m)): c
                                        for m, c in []})
            q = Polynomial.constant(p.num_vars, 1.5)
        pt = raw_pt[: p.num_vars]
        vp, vq = evaluate(p, pt), evaluate(q, pt)
        scale = 1.0 + abs(vp * vq)
        assert abs(evaluate(p * q, pt) - vp * vq) <= 1e-12 * scale
        assert abs(evaluate(p + q, pt) - (vp + vq)) <= 1e-12 * (1.0 + abs(vp + vq))


class TestGradient:
    def test_circle(self):
        p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        gx, gy = gradient(p)
        assert gx == Polynomial(2, {(1, 0): 2.0})
        assert gy == Polynomial(2, {(0, 1): 2.0})

    def test_constant(self):
        g = gradient(Polynomial.constant(3, 7.0))
        assert all(not gi.terms for gi in g)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(100):
            nv = int(rng.integers(1, 4))
            basis = monomial_basis(nv, 3)
            coeffs = rng.standard_normal(len(basis))
            p = Polynomial(nv, dict(zip(basis.elements, coeffs)))
            x = rng.uniform(-1, 1, nv)
            e = rng.standard_normal(nv)
            e /= np.linalg.norm(e)
            fd = (evaluate(p, x + h * e) - evaluate(p, x - h * e)) / (2 * h)
            exact = sum(evaluate(g, x) * ei for g, ei in zip(gradient(p), e))
            assert abs(fd - exact) <= 50.0 * h**2 * (1.0 + abs(exact))


class TestTextAndJson:
    def test_parse_readme_example(self):
        p = parse_polynomial("2*x1^2*x2 - 3.5", 2)
        assert p == Polynomial(2, {(2, 1): 2.0, (0, 0): -3.5})

    def test_parse_named_vars(self):
        p = parse_polynomial("x1^2 + u1^2", 2, var_names=["x1", "u1"])
        assert p == Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})

    def test_parse_rejects_unknown_factor(self):
        with pytest.raises(ValueError):
            parse_polynomial("2*z9", 1)

    @given(polynomials())
    @settings(max_examples=100, deadline=None)
    def test_string_round_trip(self, p):
        assert parse_polynomial(p.to_string(), p.num_vars) == p

    @given(polynomials())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, p):
        assert Polynomial.from_json(p.to_json()) == p

    def test_scientific_notation_round_trip(self):
        p = Polynomial(1, {(2,): 1e-05, (0,): -2.5e8})
        assert parse_polynomial(p.to_string(), 1) == p


def shifted_disk(a: float, b: float) -> Polynomial:
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    ca = Polynomial.constant(2, a)
    cb = Polynomial.constant(2, b)
    return (x - ca) * (x - ca) + (y - cb) * (y - cb)


def product_instance() -> Polynomial:
    p = Polynomial.constant(2, 1.0)
    for a in (-1.0, 1.0):
        for b in (-1.0, 1.0):
            p = p * shifted_disk(a, b)
    return p
