import numpy as np
import pytest
from hypothesis import given, strategies as st

from api_helpers import poly_json
from corrdyn.config import complex_number, list_of
from corrdyn.polynomials import ComplexPolynomial, poly_from_roots


def test_degree_flags():
    assert ComplexPolynomial([0]).degree == float("-inf")
    assert ComplexPolynomial([3]).degree == 0
    assert ComplexPolynomial([1, 0, 2]).degree == 2
    # exact-zero leading coefficients are stripped
    assert ComplexPolynomial([1, 2, 0, 0]).degree == 1


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_eval_at_zero_is_constant_term(coeffs):
    p = ComplexPolynomial(coeffs)
    assert p(0) == pytest.approx(complex(coeffs[0]), abs=1e-12)


def test_arithmetic():
    p = ComplexPolynomial([1, 2])      # 1 + 2z
    q = ComplexPolynomial([0, 0, 3])   # 3z^2
    assert (p + q).coefficients.tolist() == [1, 2, 3]
    assert (p * q).coefficients.tolist() == [0, 0, 3, 6]
    assert (p - p).is_zero


def test_derivative():
    p = ComplexPolynomial([5, 0, -3, 1])  # 5 - 3z^2 + z^3
    assert p.derivative().coefficients.tolist() == [0, -6, 3]
    assert ComplexPolynomial([7]).derivative().is_zero


def test_reversed_reciprocal_identity():
    p = ComplexPolynomial([1, 2, 3])
    u = 0.37 + 0.22j
    assert p.reversed(4)(u) == pytest.approx(u ** 4 * p(1 / u), rel=1e-12)


def test_trimmed_relative():
    p = ComplexPolynomial([1.0, 1e-15, 1e-16])
    assert p.trimmed(1e-12).degree == 0


def test_poly_from_roots():
    p = poly_from_roots([1, -1])
    assert np.allclose(p.coefficients, [-1, 0, 1])


def test_json_round_trip():
    p = ComplexPolynomial([1 + 2j, 0, -3.5j])
    q = ComplexPolynomial(list_of(poly_json(p), "p", item=complex_number))
    assert p == q
