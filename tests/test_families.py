from types import SimpleNamespace

import numpy as np
import pytest

from corrdyn import families
from corrdyn.config import read_region
from corrdyn.correspondence import compose_graph_poly
from corrdyn.errors import BadParameter, BranchAmbiguity, DegreeMismatch, NotAnInvolution
from corrdyn.families import (
    CUBIC_CHEBYSHEV,
    FamilyParameterA,
    RegionSpec,
    composed_covering_pair,
    exceptional_seeds,
    family_correspondence,
    family_involution,
    fixed_point_branch_coefficients,
    involution_to_quadratic,
    klein_pair_check,
    quadratic_to_involution,
)
from corrdyn.polynomials import ComplexPolynomial
from corrdyn.rational import (
    MobiusMap,
    RationalMap,
    mobius_apply,
    mobius_is_involution,
    mobius_projectively_equal,
    polynomial_map,
)
from corrdyn.roots import roots_with_clusters
from corrdyn.sampling import random_involution, random_rational_map
from corrdyn.sphere import SpherePoint, chordal_distance


def pt(z):
    return SpherePoint.from_complex(z)


# -- the involution ----------------------------------------------------------

def test_involution_at_minus_via_four():
    J4 = family_involution(4)
    assert mobius_apply(J4, pt(2)).to_complex() == pytest.approx(-2)
    assert mobius_is_involution(J4)


def test_involution_fixes_one_and_a():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = complex(rng.normal() * 3, rng.normal() * 3)
        if abs(a - 1) < 0.2:
            continue
        J = family_involution(a)
        assert chordal_distance(mobius_apply(J, pt(1)), pt(1)) < 1e-10
        assert chordal_distance(mobius_apply(J, pt(a)), pt(a)) < 1e-9


def test_parameter_one_rejected():
    with pytest.raises(BadParameter):
        family_involution(1)
    with pytest.raises(BadParameter):
        FamilyParameterA(1.0 + 1e-14j)
    with pytest.raises(BadParameter):
        FamilyParameterA(5.0, "known_in_K")
    assert FamilyParameterA.of(3.0).in_K_hint == "known_in_K"
    assert FamilyParameterA.of(4.5).in_K_hint == "unknown"


# -- quadratic <-> involution dictionary --------------------------------------

def test_family_quadratic_gives_family_involution():
    for a in (4.0, 5.5, 2 + 1j):
        R = RationalMap(ComplexPolynomial([-a, 0, 1]), ComplexPolynomial([1, -2, 1]))
        assert mobius_projectively_equal(quadratic_to_involution(R), family_involution(a))


def test_squaring_gives_negation():
    J = quadratic_to_involution(polynomial_map([0, 0, 1]))
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        assert chordal_distance(mobius_apply(J, pt(z)), pt(-z)) < 1e-10


def test_shifted_parabola_formula():
    # covering involution of A z^2 + B z is z -> -z - B/A
    A, B = 2.0 - 1j, 0.7 + 0.3j
    J = quadratic_to_involution(
        RationalMap(ComplexPolynomial([0, B, A]), ComplexPolynomial([1]))
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        assert chordal_distance(mobius_apply(J, pt(z)), pt(-z - B / A)) < 1e-9


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        quadratic_to_involution(polynomial_map([0, -3, 0, 1]))


def test_not_an_involution():
    with pytest.raises(NotAnInvolution):
        involution_to_quadratic(MobiusMap(2, 1, 1, 1))


def test_negation_round_trip_is_square_like():
    R = involution_to_quadratic(MobiusMap(1, 0, 0, -1))  # z -> -z
    assert R.degree == 2
    assert int(R.denominator.degree) == 0  # fixes infinity -> polynomial
    assert mobius_projectively_equal(quadratic_to_involution(R), MobiusMap(1, 0, 0, -1))


def test_reciprocal_round_trip():
    J = MobiusMap(0, 1, 1, 0)  # z -> 1/z
    R = involution_to_quadratic(J)
    assert R.degree == 2
    assert mobius_projectively_equal(quadratic_to_involution(R), J, 1e-9)


def test_roundtrip_random_involutions():
    rng = np.random.default_rng(3)
    for _ in range(200):
        J = random_involution(rng)
        J2 = quadratic_to_involution(involution_to_quadratic(J))
        assert mobius_projectively_equal(J, J2, 1e-9)


def test_fixed_infinity_dichotomy():
    rng = np.random.default_rng(4)
    for _ in range(60):
        J = random_involution(rng)
        R = involution_to_quadratic(J)
        assert (abs(J.c) <= 1e-10) == (int(R.denominator.degree) == 0)


def test_covering_matches_involution_pointwise():
    from corrdyn.correspondence import deleted_covering

    rng = np.random.default_rng(5)
    for _ in range(20):
        J = random_involution(rng)
        R = involution_to_quadratic(J)
        C = deleted_covering(R)
        for _ in range(5):
            z = pt(complex(rng.normal(), rng.normal()))
            (w, m), = C.forward(z).points
            assert m == 1
            assert chordal_distance(w, mobius_apply(J, z)) < 1e-9


# -- family correspondences ---------------------------------------------------

def test_family_correspondence_bidegree_and_conjugacy():
    rng = np.random.default_rng(6)
    for a in (4, 5, 10, 2 + 2j):
        C = family_correspondence(a)
        assert (C.d1, C.d2) == (2, 2)
    # F = J o F^{-1} o J on sample points
    a = 4
    C = family_correspondence(a)
    J = family_involution(a)
    CT = C.transpose()
    for _ in range(50):
        z = pt(complex(rng.normal(), rng.normal()))
        left = sorted(p.sort_key() for p in C.forward(z).support())
        right = sorted(
            mobius_apply(J, p).sort_key()
            for p in CT.forward(mobius_apply(J, z)).support()
        )
        assert len(left) == len(right)
        for u, v in zip(left, right):
            assert max(abs(x - y) for x, y in zip(u, v)) < 1e-7


def test_backward_fixed_fiber_sampled_parameters():
    for a in (4, 5, 10):
        got = family_correspondence(a).backward(pt(1)).support()
        for want in (pt(1), pt(-2)):
            assert min(chordal_distance(want, g) for g in got) < 1e-9


def test_pair_of_quadratics_gives_mobius():
    R = random_rational_map(np.random.default_rng(7), 2)
    S = random_rational_map(np.random.default_rng(8), 2)
    C = composed_covering_pair(R, S)
    assert (C.d1, C.d2) == (1, 1)


def test_double_fixed_point_of_the_family():
    # the fixed-point divisor of the composed graph has a double root at 1
    C = family_correspondence(4)
    gp = compose_graph_poly(C.chain[0], C.chain[1])
    # restrict to the diagonal w = z
    m, n = gp.deg_z, gp.deg_w
    diag = np.zeros(m + n + 1, dtype=complex)
    for i in range(m + 1):
        for j in range(n + 1):
            diag[i + j] += gp.coeffs[i, j]
    clusters = roots_with_clusters(diag, cluster_radius=1e-5)
    at_one = [mult for root, mult in clusters if abs(root - 1) < 1e-5]
    assert at_one == [2]


# -- branch coefficients -------------------------------------------------------

def test_branch_quadratic_coefficient_closed_form():
    for a in (4, 5, 10):
        c2, c4, res = fixed_point_branch_coefficients(a)
        assert abs(c2 - (a - 7) / (3 * (a - 1))) < 1e-4
        assert res < 1e-6


def test_branch_a7_quartic():
    c2, c4, res = fixed_point_branch_coefficients(7)
    assert abs(c2) < 1e-3
    assert abs(c4 - 1 / 27) < 1e-3


def test_branch_ambiguity_when_radius_too_large():
    with pytest.raises(BranchAmbiguity):
        fixed_point_branch_coefficients(4, fit_radius=1.2)


def test_branch_ambiguity_on_an_exact_distance_tie(monkeypatch):
    # a fiber whose two points lie at exactly the same distance from z = 1
    tied = [(pt(1 + 0.01j), 1), (pt(1 - 0.01j), 1)]
    stub = SimpleNamespace(forward=lambda z: SimpleNamespace(points=tied))
    monkeypatch.setattr(families, "family_correspondence", lambda a: stub)
    with pytest.raises(BranchAmbiguity):
        fixed_point_branch_coefficients(4)


# -- exceptional seeds ---------------------------------------------------------

def test_exceptional_seeds():
    assert exceptional_seeds(5) == [-1, 2]
    assert exceptional_seeds(4) == []
    assert exceptional_seeds(10) == []


def test_exceptional_pair_is_backward_absorbing():
    C = family_correspondence(5)
    state = {pt(-1), pt(2)}
    for s in list(state):
        for q, _ in C.backward(s).points:
            assert min(chordal_distance(q, t) for t in state) < 1e-9


# -- regions / Klein checking ---------------------------------------------------

def test_region_membership():
    disk = RegionSpec("disk", center=0j, radius=1.0)
    assert disk.contains(pt(0.5)) and not disk.contains(pt(2))
    hp = RegionSpec("half_plane", point=1 + 0j, normal=-1 + 0j)  # Re z < 1
    assert hp.contains(pt(0)) and not hp.contains(pt(2))
    comp = RegionSpec("complement", of=disk)
    assert comp.contains(pt(2)) and not comp.contains(pt(0.5))
    assert comp.contains(SpherePoint.infinity())
    rt = read_region(comp.to_json())
    assert rt.contains(pt(2)) and not rt.contains(pt(0.5))
    with pytest.raises(BadParameter):
        RegionSpec("disk", radius=-1)


def test_klein_whole_sphere_fails():
    whole = RegionSpec("complement", of=RegionSpec("disk", center=0j, radius=1e-9))
    rep = klein_pair_check(
        family_involution(4),
        family_correspondence(4).chain[1],
        whole,
        whole,
        n_samples=500,
        rng_seed=1,
    )
    assert not rep["passed"]
    assert rep["factor1_violations"]


def test_klein_involution_halfplane_side_clean():
    # {Re z < 1} is moved off itself by the involution at a = 4; with the
    # supported region shapes no covering-factor region passes, so the
    # report must localize the failure on the covering side only.
    j_side = RegionSpec("half_plane", point=1 + 0j, normal=-1 + 0j)
    cov_side = RegionSpec("complement", of=RegionSpec("disk", center=1.75 + 0j, radius=0.75))
    rep = klein_pair_check(
        family_involution(4),
        family_correspondence(4).chain[1],
        j_side,
        cov_side,
        n_samples=2000,
        rng_seed=2,
        punctures=(1 + 0j,),
    )
    assert rep["factor1_violations"] == []
    assert rep["factor2_violations"]  # the covering factor cannot be boxed
    assert not rep["passed"]


def test_klein_report_deterministic():
    disk = RegionSpec("disk", center=0j, radius=0.5)
    args = dict(n_samples=300, rng_seed=9)
    r1 = klein_pair_check(family_involution(4), family_correspondence(4).chain[1], disk, disk, **args)
    r2 = klein_pair_check(family_involution(4), family_correspondence(4).chain[1], disk, disk, **args)
    assert r1 == r2
