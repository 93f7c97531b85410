import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_lane_fibers
from corrdyn.errors import NonConvergence, ZeroPolynomial
from corrdyn.roots import poly_roots, power_of_two_window, roots_with_clusters
from corrdyn.sphere import chordal_distance, SpherePoint


def poly_from_roots(roots) -> np.ndarray:
    return np.poly(roots)[::-1]


def roots_as_complex(found):
    return sorted(
        (p.to_complex() for p, m in found for _ in range(m)),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )


def test_perfect_square():
    found = poly_roots([1, 2, 1])
    assert len(found) == 1
    p, m = found[0]
    assert m == 2
    assert abs(p.to_complex() + 1) < 1e-7


def test_plus_minus_one():
    found = roots_as_complex(poly_roots([-1, 0, 1]))
    assert np.allclose(found, [-1, 1], atol=1e-10)


def test_cubic_fiber_quotient_oracle():
    # fiber of the deleted covering of z^3 - 3z over z = 2: the quotient
    # (Q(2) - Q(w)) / (2 - w) computed by exact synthetic division
    q2 = 2 ** 3 - 3 * 2
    num = np.array([q2, 3, 0, -1])  # Q(2) - Q(w) as poly in w
    # divide by (2 - w): synthetic division at w = 2 after sign flip
    c = (-num)[::-1]  # (Q(w) - Q(2)) descending
    out = [c[0]]
    for k in c[1:-1]:
        out.append(k + 2 * out[-1])
    quotient = np.array(out[::-1])  # (Q(w)-Q(2))/(w-2) ascending
    assert np.allclose(quotient, [1, 2, 1])  # w^2 + 2w + 1
    found = poly_roots(quotient)
    assert len(found) == 1 and found[0][1] == 2
    assert abs(found[0][0].to_complex() + 1) < 1e-7


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        poly_roots([0])


def test_power_of_two_window_keeps_the_window_and_scales_outside_it():
    for a in ([2.0 ** 256, 1j], [2.0 ** -256], [0, 0], [np.inf]):
        a = np.array(a, dtype=complex)
        assert power_of_two_window(a)[0] is a
    num, den = power_of_two_window(np.array([3 * 2.0 ** 600, 1j]), np.array([2.0 ** 590 * 1j]))
    assert num.tolist() == [1.5, 2.0 ** -601 * 1j] and den.tolist() == [2.0 ** -11 * 1j]
    assert power_of_two_window(np.array([5e-324, 2.0 ** -1000 * 1j]))[0].tolist() == [2.0 ** -74, 1j]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_raise(bad):
    with pytest.raises(NonConvergence):
        poly_roots(np.array([1, bad, 1]))


@pytest.mark.parametrize("top, at_inf", [(0.0, 1), (1e-12, 1), (1e-10, 0)])
def test_degree_drop_is_a_root_at_infinity(top, at_inf):
    # 2 - z + top z^2 with nominal degree 2: a top at or below 1e-11 of the
    # largest coefficient is a degree drop, so its root sits exactly at inf
    found = poly_roots(np.array([2, -1, top]))
    assert sum(m for _, m in found) == 2
    assert sum(m for p, m in found if p.is_infinity) == at_inf
    assert min(abs(p.to_complex() - 2) for p, _ in found if not p.is_infinity) < 1e-9


def test_random_recovery_in_disk_of_radius_five():
    rng = np.random.default_rng(42)
    for _ in range(40):
        deg = int(rng.integers(2, 9))
        while True:
            roots = (rng.normal(size=deg) + 1j * rng.normal(size=deg)) * 2.2
            mag = np.abs(roots)
            roots = np.where(mag > 5.0, roots * (5.0 / mag) * rng.uniform(0.8, 1.0), roots)
            d = np.abs(roots[:, None] - roots[None, :]) + np.eye(deg)
            if d.min() > 1e-3:
                break
        p = poly_from_roots(roots)
        found = roots_as_complex(poly_roots(p))
        want = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert max(abs(a - b) for a, b in zip(found, want)) < 1e-7


def test_residual_contract_simple_roots():
    p = poly_from_roots([0.5, -2.0, 1j]) * 3.7
    for pt, m in poly_roots(p):
        if m == 1:
            assert abs(np.polyval(p[::-1], pt.to_complex())) / (1 + abs(p[-1])) < 1e-8


def test_cluster_radius_merging():
    p = poly_from_roots([1.0, 1.0 + 1e-8])
    found = poly_roots(p, cluster_radius=1e-6)
    assert len(found) == 1 and found[0][1] == 2
    found = poly_roots(p, cluster_radius=1e-10)
    assert sum(m for _, m in found) == 2


def test_degree_count_with_multiplicity():
    p = poly_from_roots([2, 2, 2, -1j])
    found = poly_roots(p, cluster_radius=1e-4)
    assert sum(m for _, m in found) == 4
    mults = sorted(m for _, m in found)
    assert mults == [1, 3]


def test_two_far_roots_cluster_at_infinity():
    # +-3e5 lie 1.3e-5 apart chordally, both within 7e-6 of inf: the group's
    # point is the mean of their reciprocal-chart values, not the plane mean 0
    found = poly_roots(poly_from_roots([3e5, -3e5]), cluster_radius=1e-4)
    assert [(p.is_infinity, m) for p, m in found] == [(True, 2)]


def test_a_degree_drop_is_a_group_of_its_own():
    found = roots_with_clusters([2, -1, 0])
    assert sorted((p.is_infinity, m) for p, m in found) == [(False, 1), (True, 1)]
    (two,) = [p for p, _ in found if not p.is_infinity]
    assert abs(two.to_complex() - 2) < 1e-12


def test_a_failed_newton_step_warns_nothing():
    # a near double root makes dp exactly 0 in a Newton step of the batch
    # solver; the step is dropped without a numpy RuntimeWarning on stderr
    roots = [2.4495085713036344 + 0.27583613675989327j, 2.449508575181733 + 0.2758361389676547j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = roots_with_clusters(poly_from_roots(roots))
    assert [m for _, m in found] == [2]


def _same_roots(got, want, tol):
    """got and want, (SpherePoint, multiplicity) lists, are the same multiset
    of points within tol chordal."""
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    left = list(got)
    for q, m in want:
        k = min((i for i, (p, mp) in enumerate(left) if mp == m),
                key=lambda i: chordal_distance(left[i][0], q))
        assert chordal_distance(left.pop(k)[0], q) <= tol


# roots on a 0.3 grid in the square of side 3.6, so separated roots stay 0.3 apart
_grid_roots = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                       min_size=1, max_size=5, unique=True)


@settings(max_examples=200, deadline=None)
@given(_grid_roots, st.sampled_from(["separated", "near_double", "degree_drop"]),
       st.floats(1e-3, 1e-2), st.floats(0.0, 2 * np.pi), st.integers(1, 2),
       st.sampled_from([0.0, 1e-13]), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
def test_roots_with_clusters_matches_the_frozen_solve(grid, kind, gap, angle, drop, top, lead):
    # the oracle is the solve before it was a batch row: its polish and plane
    # means agree with the grouped row on roots that are simple at the default
    # cluster radius, a near double 1e-3 to 1e-2 apart included, and on drops
    roots = [0.3 * complex(a, b) for a, b in grid]
    if kind == "near_double":
        roots.append(roots[0] + gap * cmath.exp(1j * angle))
    coeffs = lead * poly_from_roots(roots)
    if kind == "degree_drop":
        coeffs = np.concatenate([coeffs, np.full(drop, top * np.max(np.abs(coeffs)))])
    want = [(SpherePoint.from_complex(r), m) for r, m in object_lane_fibers.solve(coeffs)]
    _same_roots(roots_with_clusters(coeffs), want, 1e-9)
