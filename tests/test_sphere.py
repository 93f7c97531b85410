import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corrdyn import sphere
from corrdyn.sphere import (
    INF,
    RECIPROCAL,
    STANDARD,
    GOLDEN_ANGLE,
    SpherePoint,
    chart_from_complex,
    chart_values,
    chordal_distance,
    embed_chart,
    fiber_groups,
    fibonacci_net,
    greedy_groups,
    point_charts,
    uniform_sphere_charts,
)
from corrdyn.entropy import _plan_seeds
from per_point_net import fibonacci_sphere_points, uniform_sphere_points

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
    a = embed_chart(*fibonacci_net(200, np.arange(200)))
    assert np.array_equal(a, embed_chart(*fibonacci_net(200, np.arange(200))))
    # no two net points coincide
    d = np.sqrt(((a[:, None] - a[None]) ** 2).sum(-1))
    assert d[np.triu_indices(200, 1)].min() > 1e-3


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


def test_fiber_groups_take_each_group_mean_in_its_chart():
    # 5e5 and -5e5 + 1j lie 4e-6 chordal apart, on opposite sides of infinity: their
    # group's point is the mean of their reciprocal values, near infinity, not the
    # plane mean 0.5j; groups come in sort_key order, members as indices
    z1 = np.array([5e5, -5e5 + 1j, 0.5, 0.5 + 1e-8, 0], dtype=complex)
    groups = fiber_groups(z1, np.ones(5, dtype=complex), 1e-5)
    assert [sorted(m) for _, m in groups] == [[0, 1], [4], [2, 3]]
    (far, _), (zero, _), (half, _) = groups
    assert far.chart == RECIPROCAL and far.value == (1 / 5e5 + 1 / (-5e5 + 1j)) / 2
    assert chordal_distance(far, INF) < 1e-11
    assert zero == SpherePoint(0j)  # alone: the point as solved
    assert half == pt((0.5 + (0.5 + 1e-8)) / 2)  # the plane mean in the standard chart
    # a group that holds infinity is infinity
    (point, members), = fiber_groups(np.ones(2, dtype=complex), np.array([0, 1e-9], dtype=complex), 1e-5)
    assert point == INF and sorted(members) == [0, 1]


# -- seed nets as chart arrays, bit for bit ---------------------------------------

_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e-150, max_value=1e-150),
)
_plane = st.one_of(
    st.tuples(_parts, _parts),
    st.builds(lambda t: (math.cos(t), math.sin(t)), st.floats(-4, 4)),  # |z| = 1
    st.sampled_from([(0.6, 0.8), (-0.6, -0.8), (0.8, -0.6), (math.inf, 0.0), (0.0, -math.inf),
                     (math.nan, 1.0)]),
)


def _chart_bits(values, reciprocal) -> list:
    return [_bits([v.real, v.imag]) + [bool(r)] for v, r in zip(values, reciprocal)]


@given(st.lists(_plane, min_size=1, max_size=30))
@example([(1.7e308, 1.7e308), (-1.7e308, 1e308), (0.5, 1.7e308)])  # finite z whose modulus overflows
def test_chart_from_complex_is_from_complex_bitwise(zs):
    got = chart_from_complex([re for re, _ in zs], [im for _, im in zs])
    want = point_charts(SpherePoint.from_complex(complex(re, im)) for re, im in zs)
    assert _chart_bits(*got) == _chart_bits(*want), zs


#: the smallest net, and the nets of the default resolution at eps 0.2, 0.1, 0.05 and 0.025
NET_SIZES = [16, 1383, 5530, 22117, 88466]


@pytest.mark.parametrize("n", NET_SIZES)
def test_fibonacci_net_is_the_per_point_net_bitwise(n):
    want = point_charts(fibonacci_sphere_points(n))
    assert _chart_bits(*fibonacci_net(n, np.arange(n))) == _chart_bits(*want)
    # the kept seeds of a subsampled net, computed on their own
    idx, _ = _plan_seeds(n, 2, 9, 2 ** 17)
    assert _chart_bits(*fibonacci_net(n, idx)) == _chart_bits(want[0][idx], want[1][idx])
    # numpy's cos and sin round as math's do on every lattice angle
    th = GOLDEN_ANGLE * np.arange(n, dtype=float)
    assert _bits(np.cos(th)) == _bits([math.cos(t) for t in th.tolist()])
    assert _bits(np.sin(th)) == _bits([math.sin(t) for t in th.tolist()])


@pytest.mark.parametrize("seed", range(5))
def test_uniform_sphere_charts_are_the_per_point_sampler_bitwise(seed):
    # one (n, 3) normal draw is the stream of n draws of size 3
    got = uniform_sphere_charts(2000, np.random.default_rng(seed))
    want = point_charts(uniform_sphere_points(2000, np.random.default_rng(seed)))
    assert _chart_bits(*got) == _chart_bits(*want)
    # the generator is left where the per-point sampler leaves it
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    uniform_sphere_charts(7, rng_a)
    uniform_sphere_points(7, rng_b)
    assert rng_a.normal() == rng_b.normal()


def test_fibonacci_sphere_points_are_the_net_charts():
    points = sphere.fibonacci_sphere_points(1383)
    assert _chart_bits(*point_charts(points)) == _chart_bits(*fibonacci_net(1383, np.arange(1383)))


def test_point_charts_of_no_points_are_empty():
    values, reciprocal = point_charts([])
    assert values.dtype == complex and reciprocal.dtype == bool and values.size == 0
