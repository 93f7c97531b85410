import numpy as np
import pytest
from hypothesis import given, strategies as st

from api_helpers import map_json
from corrdyn.config import read_map
from corrdyn.correspondence import map_graph
from corrdyn.errors import DegreeTooLow, Indeterminate
from corrdyn.rational import (
    RationalMap,
    critical_points,
    polynomial_map,
    rational_eval,
)
from corrdyn.sampling import random_rational_map
from corrdyn.sphere import INF, SpherePoint, chordal_distance

Q = polynomial_map([0, -3, 0, 1])  # z^3 - 3z


def pt(z):
    return SpherePoint.from_complex(z)


def test_eval_cubic_at_two():
    assert rational_eval(Q, pt(2)).to_complex() == 2


def test_eval_at_infinity_polynomial():
    assert rational_eval(Q, INF).is_infinity


def test_eval_pole_returns_infinity():
    R = RationalMap([-4, 0, 1], [1, -2, 1])
    assert rational_eval(R, pt(1)).is_infinity


def test_eval_at_infinity_rational():
    # (2z^2+1)/(z^2) -> 2 at infinity
    R = RationalMap([1, 0, 2], [0, 0, 1])
    assert rational_eval(R, INF).to_complex() == pytest.approx(2.0)


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_eval_at_zero_is_constant_term(coeffs):
    got = rational_eval(polynomial_map(coeffs + [1]), pt(0)).to_complex()
    assert got == pytest.approx(coeffs[0], abs=1e-12)


def test_exact_zero_leading_coefficients_are_dropped():
    R = RationalMap([1, 2, 0, 0], [1])
    assert R.degree == 1 and R.numerator.size == 2
    assert isinstance(R.numerator, np.ndarray) and isinstance(R.denominator, np.ndarray)


@pytest.mark.parametrize("num, den", [([0, 0], [1]), ([1, 1], [0]), ([], [1])])
def test_zero_numerator_or_denominator_is_refused(num, den):
    with pytest.raises(DegreeTooLow):
        RationalMap(num, den)


def test_unreduced_map_rejected():
    with pytest.raises(Indeterminate):
        RationalMap([-1, 1], [-1, 1])


def test_critical_points_squaring():
    got = critical_points(polynomial_map([0, 0, 1]))
    labels = {
        (("inf" if p.is_infinity else round(abs(p.to_complex()), 8)), m) for p, m in got
    }
    assert labels == {(0.0, 1), ("inf", 1)}


def test_critical_points_cubic():
    got = critical_points(Q)
    total = sum(m for _, m in got)
    assert total == 4
    finite = sorted(p.to_complex().real for p, m in got if not p.is_infinity)
    assert np.allclose(finite, [-1, 1], atol=1e-8)
    assert any(p.is_infinity and m == 2 for p, m in got)


def test_critical_points_family_quadratic():
    # (z^2 - a)/(z - 1)^2 has Wronskian -2(z - 1)(z - a): critical points {1, a}
    a = 3.7
    R = RationalMap([-a, 0, 1], [1, -2, 1])
    got = sorted(p.to_complex().real for p, _ in critical_points(R))
    assert np.allclose(got, [1.0, a], atol=1e-8)


def test_wronskian_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        R = random_rational_map(rng, 3)
        w = R.derivative_wronskian()
        # brute force in numpy's descending convention
        p, q = R.numerator[::-1], R.denominator[::-1]
        brute = np.polysub(np.polymul(np.polyder(p), q), np.polymul(p, np.polyder(q)))
        assert np.allclose(w, np.trim_zeros(brute, "f")[::-1])


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        critical_points(RationalMap([1, 1], [1]))


def test_riemann_hurwitz_random():
    rng = np.random.default_rng(7)
    for _ in range(15):
        deg = int(rng.integers(2, 6))
        R = random_rational_map(rng, deg)
        assert sum(m for _, m in critical_points(R)) == 2 * deg - 2


def test_preimages_count_and_values():
    pres = map_graph(polynomial_map([0, 0, 1])).backward(pt(4))
    vals = sorted(p.to_complex().real for p, _ in pres)
    assert np.allclose(vals, [-2, 2], atol=1e-9)
    # preimages of infinity under (z^2-4)/(z-1)^2: the double pole at 1 and infinity?
    R = RationalMap([-4, 0, 1], [1, -2, 1])
    pres = map_graph(R).backward(INF)
    assert sum(m for _, m in pres) == 2


def test_preimages_with_a_degree_drop():
    # (z^3 + 1)/z = inf has the pole 0 once and inf twice (R ~ z^2 there)
    R = RationalMap([1, 0, 0, 1], [0, 1])
    pres = map_graph(R).backward(INF)
    assert [(p.is_infinity, m) for p, m in pres] == [(False, 1), (True, 2)]
    assert abs(pres[0][0].to_complex()) < 1e-12


def test_critical_points_with_a_degree_drop():
    # (0.1 z^3 + 0.5 z + 1)/(0.6 z^3 + 2 z + 0.3) is 1/6 + O(z^-2) at inf, so inf
    # is critical once; in floats the Wronskian keeps a z^5 coefficient of 3e-17
    R = RationalMap([1, 0.5, 0, 0.1], [0.3, 2, 0, 0.6])
    assert R.derivative_wronskian().size == 6
    got = critical_points(R)
    assert [m for p, m in got if p.is_infinity] == [1]
    assert sum(m for p, m in got if not p.is_infinity) == 3
    w = R.derivative_wronskian()
    for z in (p.to_complex() for p, _ in got if not p.is_infinity):
        assert abs(np.polyval(w[::-1], z)) / max(1.0, abs(z)) ** 3 < 1e-12


def test_json_round_trip():
    R = RationalMap([1j, 2], [3, 0, 1])
    S = read_map(map_json(R))
    assert np.array_equal(R.numerator, S.numerator)
    assert np.array_equal(R.denominator, S.denominator)
