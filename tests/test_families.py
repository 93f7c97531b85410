import math
from types import SimpleNamespace

import numpy as np
import pytest

from corrdyn import families
from corrdyn.config import read_region
from corrdyn.correspondence import Correspondence, compose_graph_poly
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
from corrdyn.rational import (
    MobiusMap,
    RationalMap,
    mobius_apply,
    mobius_is_involution,
    mobius_projectively_equal,
    polynomial_map,
)
from corrdyn.raster import _region_mask
from corrdyn.roots import roots_with_clusters
from corrdyn.sampling import random_involution, random_points, random_rational_map
from corrdyn.sphere import INF, SpherePoint, chordal_distance, uniform_sphere_charts
import object_lane_klein
from api_helpers import contains, region_json


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


# -- quadratic <-> involution dictionary --------------------------------------

def test_family_quadratic_gives_family_involution():
    for a in (4.0, 5.5, 2 + 1j):
        R = RationalMap([-a, 0, 1], [1, -2, 1])
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
        RationalMap([0, B, A], [1])
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
    assert R.denominator.size == 1  # fixes infinity -> polynomial
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
        assert (abs(J.c) <= 1e-10) == (R.denominator.size == 1)


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
    at_one = [mult for root, mult in clusters if chordal_distance(root, pt(1)) < 1e-5]
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
    tied = np.array([1 + 0.01j, 1 - 0.01j])

    def forward_batch(z1, z2):
        shape = (z1.size, tied.size)
        return np.broadcast_to(tied, shape), np.ones(shape, complex), np.zeros(shape, np.int16)

    stub = SimpleNamespace(forward_batch=forward_batch)
    monkeypatch.setattr(families, "family_correspondence", lambda a: stub)
    with pytest.raises(BranchAmbiguity):
        fixed_point_branch_coefficients(4)


def test_branch_tracking_makes_no_per_point_forward_call(monkeypatch):
    def refuse(self, z, cluster_radius=1e-6):
        raise AssertionError("per-point forward called")

    monkeypatch.setattr(Correspondence, "forward", refuse)
    c2, c4, res = fixed_point_branch_coefficients(4)
    assert abs(c2 - (4 - 7) / 9) < 1e-4 and res < 1e-6


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
    assert contains(disk, pt(0.5)) and not contains(disk, pt(2))
    hp = RegionSpec("half_plane", point=1 + 0j, normal=-1 + 0j)  # Re z < 1
    assert contains(hp, pt(0)) and not contains(hp, pt(2))
    comp = RegionSpec("complement", of=disk)
    assert contains(comp, pt(2)) and not contains(comp, pt(0.5))
    assert contains(comp, SpherePoint.infinity())
    rt = read_region(region_json(comp))
    assert contains(rt, pt(2)) and not contains(rt, pt(0.5))
    with pytest.raises(BadParameter):
        RegionSpec("disk", radius=-1)


REGIONS = [
    RegionSpec("disk", center=0.3 - 0.2j, radius=1.5),
    RegionSpec("half_plane", point=1 + 0j, normal=-1 + 0j),
    RegionSpec("half_plane", point=0.5j, normal=1 - 2j),
    RegionSpec("complement", of=RegionSpec("disk", center=1.75 + 0j, radius=0.75)),
    RegionSpec("complement", of=RegionSpec("complement", of=RegionSpec("half_plane", normal=1j))),
]


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
def test_region_contains_is_its_mask(region):
    points = random_points(np.random.default_rng(4), 300, scale=3.0) + [pt(0), INF]
    z1, z2 = (np.array(c) for c in zip(*(p.projective() for p in points)))
    mask = region.mask(z1, z2)
    assert [contains(region, p) for p in points] == mask.tolist()
    assert np.array_equal(_region_mask(region, z1, z2), mask)
    assert 0 < mask.sum() < len(points)


def test_half_plane_has_no_point_past_1e15():
    # |z2| <= 1e-15 |z1| is the point at infinity, as the raster has always treated it
    far = pt(1e16)
    for region in REGIONS:
        if region.kind == "half_plane":
            assert not contains(region, far)
            assert contains(RegionSpec("complement", of=region), far)
    right = RegionSpec("half_plane", point=0j, normal=1 + 0j)
    assert not contains(right, far) and contains(right, pt(1e14))


@pytest.mark.parametrize("region", REGIONS + [RegionSpec("complement", of=r) for r in REGIONS[:3]], ids=[
    "disk", "half_plane", "half_plane_slanted", "complement_of_disk", "complement_of_complement",
    "complement_of_disk_2", "complement_of_half_plane", "complement_of_half_plane_slanted"])
def test_nan_pair_lies_in_no_region(region):
    # a dead fiber's image is a NaN pair: inside no disk, half-plane or complement
    nan = complex(np.nan, np.nan)
    z1 = np.array([nan, 1, nan, complex(np.nan, 0), 0.5])
    z2 = np.array([1, nan, nan, 1, complex(0, np.nan)])
    assert not region.mask(z1, z2).any()


def test_dead_fiber_image_is_no_klein_violation():
    # every image of this stub is a NaN pair, so no sample has an image in the region
    def forward_batch(z1, z2):
        W = np.full((z1.size, 2), complex(np.nan, np.nan))
        return W, W, np.zeros(W.shape, dtype=np.int16)

    stub = SimpleNamespace(forward_batch=forward_batch)
    region = RegionSpec("complement", of=RegionSpec("disk", center=0j, radius=0.5))
    values, reciprocal = uniform_sphere_charts(200, np.random.default_rng(0))
    assert families._violations(stub, region, values, reciprocal) == []


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


def _klein_cases():
    whole = RegionSpec("complement", of=RegionSpec("disk", center=0j, radius=1e-9))
    j_side = RegionSpec("half_plane", point=1 + 0j, normal=-1 + 0j)
    cov_side = RegionSpec("complement", of=RegionSpec("disk", center=1.75 + 0j, radius=0.75))
    disk = RegionSpec("disk", center=0j, radius=0.5)
    factors = (family_involution(4), family_correspondence(4).chain[1])
    return {
        "whole_sphere": (factors + (whole, whole), dict(n_samples=500, rng_seed=1)),
        "half_plane": (factors + (j_side, cov_side),
                       dict(n_samples=2000, rng_seed=2, punctures=(1 + 0j,))),
        "disk": (factors + (disk, disk), dict(n_samples=300, rng_seed=9)),
    }


@pytest.mark.parametrize("case", sorted(_klein_cases()))
def test_klein_report_matches_object_lane(case):
    args, kwargs = _klein_cases()[case]
    got = klein_pair_check(*args, **kwargs)
    want = object_lane_klein.klein_pair_check(*args, **kwargs)
    assert got["passed"] == want["passed"]
    assert got["covering_misses"] == want["covering_misses"]
    # a Moebius factor has one image per sample, so its witnesses pair up
    assert [v["point"] for v in got["factor1_violations"]] == [
        v["point"] for v in want["factor1_violations"]]
    for g, w in zip(got["factor1_violations"], want["factor1_violations"]):
        assert max(abs(a - b) for a, b in zip(g["image"], w["image"])) < 1e-12
    # a correspondence's witnesses lie on the oracle's hit samples, in order, up
    # to the sample where the report's 16 witnesses ran out
    factor2, delta2 = args[1], args[3]
    hits = [(p.embed_r3(), [img.embed_r3() for img in images])
            for p, images in object_lane_klein.sample_hits(
                factor2, delta2,
                object_lane_klein.factor2_samples(kwargs["n_samples"], kwargs["rng_seed"]))]
    witnesses = got["factor2_violations"]
    got_samples = list(dict.fromkeys(v["point"] for v in witnesses))
    assert got_samples == [p for p, _ in hits[:len(got_samples)]]
    assert len(witnesses) == 16 or len(got_samples) == len(hits)
    assert bool(witnesses) == bool(want["factor2_violations"])

    def near(a, images):
        return any(math.dist(a, b) < 1e-9 for b in images)

    oracle_images = dict(hits)
    for v in witnesses:  # every image is one of the oracle's, in its region
        assert near(v["image"], oracle_images[v["point"]])
    for p in got_samples[:-1]:  # a sample before the last is reported whole
        assert all(near(b, [v["image"] for v in witnesses if v["point"] == p])
                   for b in oracle_images[p])


def test_klein_factor_type_is_checked_before_sampling(monkeypatch):
    def refuse(n, rng):
        raise AssertionError("sampled before the factor check")

    monkeypatch.setattr(families, "uniform_sphere_charts", refuse)
    disk = RegionSpec("disk", center=0j, radius=0.5)
    with pytest.raises(BadParameter):
        klein_pair_check(family_involution(4), "not a factor", disk, disk)
