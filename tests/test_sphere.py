import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from corrdyn.sphere import (
    INF,
    RECIPROCAL,
    STANDARD,
    SpherePoint,
    chart_values,
    chordal_distance,
    embed_chart,
    fibonacci_sphere_points,
    greedy_groups,
    uniform_sphere_points,
)

finite_complex = st.builds(
    complex,
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


def pt(z):
    return SpherePoint.from_complex(z)


def test_antipodal_zero_infinity():
    assert chordal_distance(pt(0), INF) == pytest.approx(2.0)


def test_identity_distance_zero():
    for z in (0, 1, 2 + 1j, 1e6):
        assert chordal_distance(pt(z), pt(z)) == 0.0


def test_plus_minus_one():
    # 2*|1-(-1)| / (sqrt(2)*sqrt(2)) = 2
    assert chordal_distance(pt(1), pt(-1)) == pytest.approx(2.0, abs=1e-12)


def test_distance_formula_matches_direct():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = 2 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
        assert chordal_distance(pt(a), pt(b)) == pytest.approx(want, rel=1e-12)


def test_distance_bounded_by_two():
    rng = np.random.default_rng(1)
    for p in uniform_sphere_points(200, rng):
        assert chordal_distance(p, INF) <= 2.0 + 1e-15


@given(finite_complex, finite_complex, finite_complex)
def test_triangle_inequality(a, b, c):
    p, q, r = pt(a), pt(b), pt(c)
    assert chordal_distance(p, r) <= chordal_distance(p, q) + chordal_distance(q, r) + 1e-12


@given(finite_complex, finite_complex)
def test_chart_swap_invariance(a, b):
    p, q = pt(a), pt(b)
    q2 = q.other_chart()
    if math.isfinite(abs(q2.value)):
        assert abs(chordal_distance(p, q) - chordal_distance(p, q2)) <= 1e-12


def test_normalization_invariant():
    for z in (0.5, 2.0, 3 + 4j, 1e9):
        p = pt(z)
        assert abs(p.value) <= 1 + 1e-9


def test_infinity_representation():
    assert INF.chart == "reciprocal" and INF.value == 0
    assert INF.is_infinity
    assert pt(1e300).is_infinity is False


def test_chart_round_trip():
    for z in (0.3 + 0.4j, 2 - 1j, 5.0):
        p = pt(z)
        q = p.other_chart()
        if math.isfinite(abs(q.value)):
            back = SpherePoint.from_complex(q.to_complex())
            assert chordal_distance(p, back) < 1e-12


def test_projective_consistency():
    p = SpherePoint.from_projective(3.0, 1.0)
    assert p.chart == "reciprocal"
    assert p.to_complex() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        SpherePoint.from_projective(0.0, 0.0)


def test_embedding_is_isometric_to_chordal():
    rng = np.random.default_rng(2)
    pts = uniform_sphere_points(50, rng)
    for i in range(0, 50, 7):
        for j in range(0, 50, 11):
            a, b = pts[i], pts[j]
            d_embed = math.dist(a.embed_r3(), b.embed_r3())
            assert d_embed == pytest.approx(chordal_distance(a, b), abs=1e-12)


def test_fibonacci_net_is_deterministic_and_spread():
    a = fibonacci_sphere_points(200)
    b = fibonacci_sphere_points(200)
    assert all(chordal_distance(x, y) == 0 for x, y in zip(a, b))
    # no two net points coincide
    worst = min(
        chordal_distance(a[i], a[j]) for i in range(0, 200, 9) for j in range(i + 1, 200, 13)
    )
    assert worst > 1e-3


# -- array forms of from_projective and embed_r3, bit for bit -------------------------

_SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1 + 0j,
            1j, -1j, complex(0.6, 0.8), complex(-0.6, -0.8), complex(-0.5, 0.0), complex(-0.5, -0.0)]
_values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    st.builds(lambda t: complex(math.cos(t), math.sin(t)), st.floats(-4, 4)),  # |v| = 1
)


def _bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@given(st.lists(st.tuples(_values, st.booleans()), min_size=1, max_size=30))
def test_embed_chart_is_embed_r3_bitwise(atoms):
    values = np.array([v for v, _ in atoms], dtype=complex)
    reciprocal = np.array([r for _, r in atoms])
    got = embed_chart(values, reciprocal)
    for (v, r), row in zip(atoms, got):
        want = SpherePoint(v, RECIPROCAL if r else STANDARD).embed_r3()
        assert _bits(row) == _bits(want), (v, r)


def test_embed_chart_of_zero_and_infinity():
    got = embed_chart(np.array([0j, 0j]), np.array([False, True]))
    assert _bits(got) == _bits([pt(0).embed_r3(), INF.embed_r3()])
    assert got.tolist() == [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]


@given(st.lists(st.tuples(_values, _values), min_size=1, max_size=30))
def test_chart_values_is_from_projective_bitwise(pairs):
    pairs = [(a, b) for a, b in pairs if a != 0 or b != 0]
    z1 = np.array([a for a, _ in pairs] + [1, 0, 1j], dtype=complex)  # infinity, zero, |z1| = |z2|
    z2 = np.array([b for _, b in pairs] + [0, 1, -1], dtype=complex)
    values, reciprocal = chart_values(z1, z2)
    for a, b, v, r in zip(z1, z2, values, reciprocal):
        want = SpherePoint.from_projective(a, b)
        assert _bits([v.real, v.imag]) == _bits([want.value.real, want.value.imag]), (a, b)
        assert r == (want.chart == RECIPROCAL), (a, b)


def test_chart_values_rejects_the_zero_pair():
    with pytest.raises(ValueError):
        chart_values(np.array([1, 0], dtype=complex), np.array([1, 0], dtype=complex))


def test_greedy_groups_join_the_first_group_in_reach():
    dist = lambda a, b: abs(a - b)  # noqa: E731
    assert greedy_groups([0, 0.5, 1.2, 0.4, 2.0], 0.5, dist) == [[0, 1, 3], [2], [4]]
    # 0.3 lies within 0.35 of both first items and joins the earlier group
    assert greedy_groups([0, 0.6, 0.3], 0.35, dist) == [[0, 2], [1]]
    # members are compared with the group's first item only, not its last
    assert greedy_groups([0, 0.3, 0.6], 0.35, dist) == [[0, 1], [2]]
    assert greedy_groups([pt(1), pt(1 + 1e-10), INF], 1e-9) == [[0, 1], [2]]
