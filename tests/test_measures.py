import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrdyn.correspondence import (
    Correspondence,
    compose,
    deleted_covering,
    identity_correspondence,
    map_graph,
)
from corrdyn.errors import BudgetExceeded, ExceptionalStart, FiberDegenerate
from corrdyn.families import family_correspondence, family_involution
from corrdyn.graphpoly import GraphPolynomial
from corrdyn.measures import (
    GridPartition,
    WeightedCloud,
    _stratified_subsample,
    brolin_cloud,
    energy_distance,
    metric_entropy_estimate,
    partition_entropy,
    pullback_dirac_mc,
    pullback_dirac_tree,
    pullback_dirac_tree_levels,
    pushforward_mobius,
)
from corrdyn.rational import polynomial_map
from corrdyn.sphere import INF, SpherePoint, chordal_distance
from api_helpers import cloud_from_csv, mobius_identity
from difference_tensor_energy import energy_distance as oracle_energy_distance
from difference_tensor_energy import stratified_subsample as oracle_subsample
import object_lane_clouds


def pt(z):
    return SpherePoint.from_complex(z)


@pytest.fixture(scope="module")
def f4():
    return family_correspondence(4)


# -- pullback trees -----------------------------------------------------------

def test_generation_zero(f4):
    cloud = pullback_dirac_tree(f4, pt(0.5), 0)
    assert cloud.atoms == ((pt(0.5), 1.0),)


def test_family_first_generation(f4):
    cloud = pullback_dirac_tree(f4, pt(1), 1)
    got = sorted((round(p.to_complex().real, 8), w) for p, w in cloud.atoms)
    assert got == [(-2.0, 0.5), (1.0, 0.5)]


def test_mass_one_at_every_generation(f4):
    rng = np.random.default_rng(0)
    for _ in range(3):
        z = pt(complex(rng.normal(), rng.normal()))
        for n in (0, 2, 5, 9):
            assert pullback_dirac_tree(f4, z, n).total_mass == pytest.approx(1.0, abs=1e-12)


def test_budget_guard(f4):
    with pytest.raises(BudgetExceeded):
        pullback_dirac_tree(f4, pt(0.3), 25)


def test_monte_carlo_choice_table_is_checked_against_the_budget(f4):
    # the (n_paths, n) table of a trillion steps would need 14.2 PiB
    with pytest.raises(BudgetExceeded):
        pullback_dirac_mc(f4, pt(0.3), 10 ** 12, 2000, rng_seed=1)
    with pytest.raises(BudgetExceeded):
        pullback_dirac_mc(f4, pt(0.3), 8, 2000, rng_seed=1, budget=15_999)
    at_budget = pullback_dirac_mc(f4, pt(0.3), 8, 2000, rng_seed=1, budget=16_000)
    assert at_budget.total_mass == pytest.approx(1.0)


def test_tree_levels_match_single_calls(f4):
    levels = pullback_dirac_tree_levels(f4, pt(0.3 + 0.2j), (2, 4))
    single = pullback_dirac_tree(f4, pt(0.3 + 0.2j), 4)
    assert energy_distance(levels[4], single) < 1e-12


def _quartic_composition():
    # cov(R4) o cov(z^3 - 3z): stage fibers of degree 3 and 2, six preimages
    R4 = polynomial_map([0.1, -1, 0, 0.3 + 0.2j, 1])
    return compose(deleted_covering(R4), deleted_covering(polynomial_map([0, -3, 0, 1])))


def test_tree_levels_match_object_lane_on_quartic_composition():
    C = _quartic_composition()
    z0 = pt(0.3 + 0.2j)
    levels = pullback_dirac_tree_levels(C, z0, (1, 2, 3))
    for n, cloud in levels.items():
        want = object_lane_clouds.per_point_pullback(C, z0, n)
        assert len(cloud.atoms) == len(want), n
        for p, w in cloud.atoms:
            d, v = min((chordal_distance(p, q), v) for q, v in want)
            assert d <= 1e-9 and abs(w - v) <= 1e-12, (n, p, d, w, v)


@pytest.mark.parametrize("seed", [-3, 0.3 + 0.2j])
def test_tree_csv_matches_object_lane_oracle(f4, seed):
    ns = tuple(range(11))
    levels = pullback_dirac_tree_levels(f4, pt(seed), ns)
    want = object_lane_clouds.tree_levels(f4, pt(seed), ns)
    for n in ns:
        assert levels[n].to_csv() == object_lane_clouds.to_csv(want[n]), n


def test_quartic_composition_csv_matches_object_lane_oracle():
    C, z0 = _quartic_composition(), pt(0.3 + 0.2j)
    levels = pullback_dirac_tree_levels(C, z0, (1, 2, 3))
    want = object_lane_clouds.tree_levels(C, z0, (1, 2, 3))
    for n in (1, 2, 3):
        assert levels[n].to_csv() == object_lane_clouds.to_csv(want[n]), n


def test_monte_carlo_csv_matches_object_lane_oracle(f4):
    cloud = pullback_dirac_mc(f4, pt(0.3 + 0.2j), 8, 500, rng_seed=7)
    want = object_lane_clouds.monte_carlo(f4, pt(0.3 + 0.2j), 8, 500, 7)
    assert cloud.to_csv() == object_lane_clouds.to_csv(want)


def test_cloud_arrays_round_trip_through_atoms(f4):
    cloud = pullback_dirac_tree(f4, pt(-3), 7)
    again = WeightedCloud.from_atoms(cloud.atoms)
    assert again.to_csv() == cloud.to_csv()
    assert np.array_equal(again.embedded(), cloud.embedded())


# -- monte carlo ---------------------------------------------------------------

def test_mc_generation_zero(f4):
    c = pullback_dirac_mc(f4, pt(2), 0, 100, rng_seed=5)
    assert c.atoms == ((pt(2), 1.0),)


def test_mc_close_to_tree(f4):
    tree = pullback_dirac_tree(f4, pt(0.3 + 0.2j), 10)
    mc = pullback_dirac_mc(f4, pt(0.3 + 0.2j), 10, 10_000, rng_seed=11)
    assert energy_distance(mc, tree) < 0.05


def test_mc_seed_consistency(f4):
    a = pullback_dirac_mc(f4, pt(0.3 + 0.2j), 12, 10_000, rng_seed=12)
    b = pullback_dirac_mc(f4, pt(0.3 + 0.2j), 12, 10_000, rng_seed=13)
    assert energy_distance(a, b) < 0.05


def test_mc_reproducible(f4):
    a = pullback_dirac_mc(f4, pt(-3), 6, 500, rng_seed=21)
    b = pullback_dirac_mc(f4, pt(-3), 6, 500, rng_seed=21)
    assert a.atoms == b.atoms


# -- pushforward ----------------------------------------------------------------

def test_pushforward_identity(f4):
    cloud = pullback_dirac_tree(f4, pt(0.5), 4)
    same = pushforward_mobius(cloud, mobius_identity())
    assert all(chordal_distance(p, q) < 1e-15 for (p, _), (q, _) in zip(cloud.atoms, same.atoms))


def test_pushforward_involution_twice(f4):
    J = family_involution(4)
    cloud = pullback_dirac_tree(f4, pt(0.5), 5)
    back = pushforward_mobius(pushforward_mobius(cloud, J), J)
    assert all(
        chordal_distance(p, q) < 1e-10 for (p, _), (q, _) in zip(cloud.atoms, back.atoms)
    )


def test_pushforward_fixed_atom():
    J = family_involution(4)
    cloud = WeightedCloud.from_atoms(((pt(1), 1.0),))
    out = pushforward_mobius(cloud, J)
    assert chordal_distance(out.atoms[0][0], pt(1)) < 1e-12


# -- energy distance --------------------------------------------------------------

def test_energy_distance_identical_is_zero(f4):
    c = pullback_dirac_tree(f4, pt(0.5), 6)
    assert energy_distance(c, c) == pytest.approx(0.0, abs=1e-12)


def test_energy_distance_two_atoms():
    c0 = WeightedCloud.from_atoms(((pt(0), 1.0),))
    cinf = WeightedCloud.from_atoms(((INF, 1.0),))
    assert energy_distance(c0, cinf) == pytest.approx(4.0)


def test_energy_distance_decreasing_along_generations(f4):
    la = pullback_dirac_tree_levels(f4, pt(0.3 + 0.2j), (6, 8, 10, 12))
    lb = pullback_dirac_tree_levels(f4, pt(-3), (6, 8, 10, 12))
    dists = [energy_distance(la[n], lb[n]) for n in (6, 8, 10, 12)]
    inversions = sum(1 for x, y in zip(dists, dists[1:]) if y > x)
    assert inversions <= 1
    assert dists[-1] < 0.05


def test_single_seed_equidistribution_trend(f4):
    # clouds from one generic seed settle: distance to the deepest cloud
    # decreases along n = 6..12
    levels = pullback_dirac_tree_levels(f4, pt(0.3 + 0.2j), (6, 8, 10, 12))
    dists = [energy_distance(levels[n], levels[12]) for n in (6, 8, 10)]
    assert all(x >= y for x, y in zip(dists, dists[1:]))


def test_energy_distance_subsampling():
    rng = np.random.default_rng(1)
    atoms = tuple(
        (pt(complex(x, y)), 1 / 6000.0)
        for x, y in rng.normal(size=(6000, 2)) * 0.3
    )
    big = WeightedCloud.from_atoms(atoms)
    small = WeightedCloud.from_atoms(atoms[:4096])
    d = energy_distance(big, big)
    assert d == pytest.approx(0.0, abs=1e-12)  # deterministic subsample
    assert energy_distance(big, small) < 0.05


# the two clouds of a pair draw from one pool, so atoms coincide across them
POOL = [pt(0), pt(complex(-0.0, 0.0)), INF, pt(1), pt(-1), pt(0.5j), pt(2 + 1j), pt(-0.3 + 0.7j)]
_points = st.one_of(
    st.sampled_from(POOL),
    st.builds(
        lambda re, im: pt(complex(re, im)),
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    ),
)
# repeated weights make strata whose heaviest atom is a tie
_weights = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0))
_clouds = st.lists(st.tuples(_points, _weights), min_size=1, max_size=40).map(
    lambda atoms: WeightedCloud.from_atoms(tuple(atoms))
)


@settings(max_examples=300, deadline=None)
@given(_clouds, _clouds, st.integers(1, 48))
def test_energy_distance_matches_difference_tensor_oracle(a, b, max_atoms):
    # atoms arrive in any order, not sort_key order; small max_atoms subsample
    assert energy_distance(a, b, max_atoms) == oracle_energy_distance(a, b, max_atoms)


def _random_cloud(rng, n):
    pts = rng.normal(size=(n, 2)) * 0.8
    weights = rng.choice([1.0, 2.0, 3.0], size=n) * rng.choice([1.0, rng.random()], size=n)
    return WeightedCloud.from_atoms(
        tuple((pt(complex(x, y)), float(w)) for (x, y), w in zip(pts, weights / weights.sum()))
    )


def test_energy_distance_matches_oracle_over_several_blocks():
    rng = np.random.default_rng(5)
    a, b = _random_cloud(rng, 2100), _random_cloud(rng, 2300)
    assert energy_distance(a, b) == oracle_energy_distance(a, b)


def test_subsample_of_a_large_cloud_matches_oracle():
    cloud = _random_cloud(np.random.default_rng(6), 4500)
    xyz, w = _stratified_subsample(cloud, 4096)
    want_xyz, want_w = oracle_subsample(cloud, 4096)
    assert np.array_equal(xyz, want_xyz.T) and np.array_equal(w, want_w)


def test_energy_distance_of_shuffled_csv_clouds_matches_oracle(f4):
    rng = np.random.default_rng(7)
    clouds = []
    for seed in (pt(0.3 + 0.2j), pt(-3)):
        header, *rows = pullback_dirac_tree(f4, seed, 9).to_csv().splitlines()
        rng.shuffle(rows)
        clouds.append(cloud_from_csv("\n".join([header, *rows]) + "\n"))
    assert energy_distance(*clouds) == oracle_energy_distance(*clouds)


def test_energy_distance_memory_is_two_row_buffers(f4):
    a = pullback_dirac_tree(f4, pt(0.3 + 0.2j), 12)
    b = pullback_dirac_tree(f4, pt(-3), 12)
    assert len(a.atoms) == len(b.atoms) == 4096
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 2048 x 4096 float64 buffers are 134 MB; the oracle's difference tensor peaks at 336 MB
    assert peak < 160e6


def test_energy_distance_memory_is_one_row_block(f4):
    a = pullback_dirac_tree(f4, pt(0.3 + 0.2j), 12)
    b = pullback_dirac_tree(f4, pt(-3), 12)
    assert a.weights.size == b.weights.size == 4096
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2048 x 4096 float64 distance block is 67 MB, the 128 x 4096 term buffer 4 MB
    assert peak < 90e6


def test_energy_distance_matches_oracle_on_a_partial_term_block_of_a_partial_block():
    # 2,300 rows: one 2,048 block, then 252 = 128 + 124 rows; 300 rows: 128 + 128 + 44
    rng = np.random.default_rng(11)
    a, b = _random_cloud(rng, 300), _random_cloud(rng, 2300)
    assert energy_distance(a, b) == oracle_energy_distance(a, b)
    assert energy_distance(b, a) == oracle_energy_distance(b, a)


# -- backward iteration of rational maps -------------------------------------------

def test_brolin_squaring_unit_circle():
    cloud = brolin_cloud(polynomial_map([0, 0, 1]), 12, 4000, rng_seed=3, z0=pt(1))
    for p, _ in cloud.atoms:
        assert abs(abs(p.to_complex()) - 1) < 1e-8


def test_brolin_squaring_matches_uniform_circle():
    cloud = brolin_cloud(polynomial_map([0, 0, 1]), 12, 10_000, rng_seed=3, z0=pt(1))
    circle = WeightedCloud.from_atoms(
        tuple(
            (pt(np.exp(2j * np.pi * k / 4096)), 1 / 4096) for k in range(4096)
        )
    )
    assert energy_distance(cloud, circle) < 0.05


def test_brolin_parabolic_seed_independence():
    # z + 1/z + 1 from two seeds
    from corrdyn.rational import RationalMap

    PA = RationalMap([1, 1, 1], [0, 1])
    a = brolin_cloud(PA, 12, 10_000, rng_seed=5, z0=pt(0.5))
    b = brolin_cloud(PA, 12, 10_000, rng_seed=6, z0=pt(2 + 1j))
    assert energy_distance(a, b) < 0.05


def test_brolin_exceptional_start():
    with pytest.raises(ExceptionalStart):
        brolin_cloud(polynomial_map([0, 0, 1]), 5, 100, rng_seed=1, z0=pt(0))


# -- partitions ---------------------------------------------------------------------

def test_partition_entropy_uniform_and_point():
    part = GridPartition(4, 4)
    two = WeightedCloud.from_atoms(((pt(0.1), 0.5), (pt(-0.9), 0.5)))
    assert partition_entropy(two, part) == pytest.approx(math.log(2), abs=1e-12)
    one = WeightedCloud.from_atoms(((pt(0.1), 1.0),))
    assert partition_entropy(one, part) == pytest.approx(0.0, abs=1e-12)


def test_partition_entropy_uniform_over_cells():
    part = GridPartition(2, 2)
    # one atom per cell
    atoms = []
    for u, az in ((-0.5, -2.0), (-0.5, 2.0), (0.5, -2.0), (0.5, 2.0)):
        # place points by inverting the embedding: pick z with height u
        r = math.sqrt(1 - u * u)
        x, y = r * math.cos(az), r * math.sin(az)
        atoms.append((SpherePoint.from_complex(complex(x, y) / (1 - u)), 0.25))
    cloud = WeightedCloud.from_atoms(tuple(atoms))
    assert partition_entropy(cloud, part) == pytest.approx(math.log(4), abs=1e-12)
    assert partition_entropy(cloud, part) <= math.log(part.k) + 1e-12


def test_partition_cells_cover_and_disjoint():
    part = GridPartition(4, 4)
    rng = np.random.default_rng(2)
    from per_point_net import uniform_sphere_points

    points = uniform_sphere_points(500, rng) + [INF, pt(0)]
    cells = part.cells_of_embedded(np.array([p.embed_r3() for p in points]))
    assert cells.shape == (len(points),)
    assert all(0 <= c < part.k for c in cells)


# -- metric entropy --------------------------------------------------------------------

def test_metric_entropy_identity_is_zero(f4):
    cloud = pullback_dirac_tree(f4, pt(0.3), 8)
    per_n, slope = metric_entropy_estimate(identity_correspondence(), cloud, GridPartition(4, 4), 5)
    assert abs(slope) < 1e-9


def test_metric_entropy_squaring_brolin():
    cloud = brolin_cloud(polynomial_map([0, 0, 1]), 12, 10_000, rng_seed=3, z0=pt(1))
    per_n, slope = metric_entropy_estimate(
        map_graph(polynomial_map([0, 0, 1])), cloud, GridPartition(4, 4), 8
    )
    assert 0.45 <= slope <= 0.80  # target log 2
    for n, h in per_n:
        assert h <= math.log(16) + 1e-9


def test_metric_entropy_budget():
    cloud = brolin_cloud(polynomial_map([0, 0, 1]), 6, 2000, rng_seed=3, z0=pt(1))
    with pytest.raises(BudgetExceeded):
        metric_entropy_estimate(
            family_correspondence(4), cloud, GridPartition(4, 4), 12, budget=1000
        )


def test_metric_entropy_refuses_a_dead_fiber_row():
    # B = (z - 1) w vanishes identically over z = 1, the only preimage of 0.5
    C = Correspondence(components=((GraphPolynomial(np.array([[0, -1], [0, 1]])), 1),))
    cloud = pullback_dirac_tree(C, pt(0.5), 1)
    assert np.allclose(cloud.projective(), [[1], [1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiberDegenerate, match="level 0"):
            metric_entropy_estimate(C, cloud, GridPartition(4, 4), 3)


# -- serialization -----------------------------------------------------------------------

def test_cloud_csv_round_trip(f4):
    cloud = pullback_dirac_tree(f4, pt(0.3 + 0.2j), 6)
    text = cloud.to_csv()
    assert text.splitlines()[0] == "re,im,chart,weight"
    back = cloud_from_csv(text)
    assert len(back.atoms) == len(cloud.atoms)
    for (p, w), (q, v) in zip(cloud.atoms, back.atoms):
        assert p == q and w == v
