import math

import numpy as np
import pytest

from corrdyn.correspondence import (
    Correspondence,
    identity_correspondence,
    map_graph,
    mobius_correspondence,
)
from corrdyn.entropy import (
    EntropyProtocol,
    OrbitTuple,
    entropy_estimate,
    enumerate_orbits,
    gromov_cap,
    separated_count_DS,
    separated_count_KT,
)
from corrdyn.errors import BudgetExceeded, MissingLabels
from corrdyn.families import family_correspondence
from corrdyn.graphpoly import GraphPolynomial, identity_graph, mobius_graph
from corrdyn.rational import MobiusMap, polynomial_map
from corrdyn.sphere import SpherePoint, chordal_distance, fibonacci_sphere_points


def pt(z):
    return SpherePoint.from_complex(z)


# -- enumeration ---------------------------------------------------------------

def test_depth_zero_returns_seeds():
    seeds = [pt(0.1), pt(2), pt(-1j)]
    orbits = enumerate_orbits(identity_correspondence(), seeds, 0)
    assert len(orbits) == 3
    assert all(len(o.points) == 1 for o in orbits)


def test_fixed_point_of_squaring():
    C = map_graph(polynomial_map([0, 0, 1]))
    orbits = enumerate_orbits(C, [pt(1)], 3)
    assert len(orbits) == 1
    assert all(chordal_distance(p, pt(1)) < 1e-12 for p in orbits[0].points)
    assert len(orbits[0].points) == 4


def test_family_orbits_from_fixed_point():
    # the fiber over 1 is {1, 2} at a = 4 and the fiber over 2 is the double
    # point {13/7}, so the depth-2 tree from seed 1 has three distinct orbits
    C = family_correspondence(4)
    orbits = enumerate_orbits(C, [pt(1)], 2)
    tuples = sorted(
        tuple(round(p.to_complex().real, 6) for p in o.points) for o in orbits
    )
    assert tuples == [
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 2.0),
        (1.0, 2.0, round(13 / 7, 6)),
    ]


def test_budget_exceeded_carries_partial():
    C = family_correspondence(4)
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(C, fibonacci_sphere_points(64), 10, budget=100)


def test_orbit_labels_for_multicomponent():
    # two components: identity and negation
    comps = (
        (identity_graph(), 1),
        (mobius_graph(MobiusMap(-1, 0, 0, 1)), 1),
    )
    C = Correspondence(components=comps)
    orbits = enumerate_orbits(C, [pt(0.5)], 2)
    assert len(orbits) == 4
    assert {o.labels for o in orbits} == {(0, 0), (0, 1), (1, 0), (1, 1)}


# -- separated counting ----------------------------------------------------------

def test_eps_above_diameter_counts_one():
    orbits = enumerate_orbits(identity_correspondence(), [pt(0), pt(1), pt(-1)], 2)
    assert separated_count_KT(orbits, 2.5) == 1
    assert separated_count_DS(orbits, 2.5) == 1


def test_duplicates_count_once():
    o = OrbitTuple((pt(0), pt(0.5)), (0,))
    assert separated_count_KT([o, o], 0.1) == 1
    assert separated_count_DS([o, o], 0.1) == 1


def test_labels_separate_for_free():
    a = OrbitTuple((pt(0), pt(0.5)), (0,))
    b = OrbitTuple((pt(0), pt(0.5)), (1,))
    assert separated_count_DS([a, b], 2.5) == 2
    assert separated_count_KT([a, b], 0.1) == 1


def test_label_sequences_count_at_large_eps():
    orbits = [
        OrbitTuple((pt(0), pt(0)), (j,)) for j in range(3)
    ] + [OrbitTuple((pt(0), pt(0)), (0,))]
    assert separated_count_DS(orbits, 2.5) == 3  # L distinct label sequences


def test_missing_labels():
    with pytest.raises(MissingLabels):
        separated_count_DS([OrbitTuple((pt(0), pt(1)))], 0.1)


def test_identity_net_counts_constant_in_depth():
    seeds = fibonacci_sphere_points(100)
    counts = []
    for n in range(1, 7):
        orbits = enumerate_orbits(identity_correspondence(), seeds, n)
        counts.append(separated_count_KT(orbits, 0.5))
    assert len(set(counts)) == 1  # constant implies slope zero


def test_monotone_in_eps():
    C = family_correspondence(4)
    orbits = enumerate_orbits(C, fibonacci_sphere_points(30), 4, budget=2 ** 16)
    counts = [separated_count_KT(orbits, e) for e in (0.4, 0.2, 0.1, 0.05)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_ds_dominates_kt_on_identical_tuples():
    C = family_correspondence(4)
    orbits = enumerate_orbits(C, fibonacci_sphere_points(30), 4, budget=2 ** 16)
    for e in (0.3, 0.1):
        assert separated_count_DS(orbits, e) >= separated_count_KT(orbits, e) - 1e-9


# -- caps and reports -------------------------------------------------------------

def test_gromov_cap_values():
    assert gromov_cap(family_correspondence(4)) == pytest.approx(math.log(2))
    R = polynomial_map([0, -3, 0, 1])
    S = polynomial_map([0, 0, 0, 1])
    from corrdyn.families import composed_covering_pair

    assert gromov_cap(composed_covering_pair(R, S)) == pytest.approx(math.log(4))
    assert gromov_cap(mobius_correspondence(MobiusMap(2, 1, 1, 1))) == 0.0


def test_identity_estimate_zero():
    reports = entropy_estimate(
        identity_correspondence(),
        EntropyProtocol(eps_grid=(0.2, 0.1), n_max=5, budget=2 ** 14),
    )
    assert abs(reports["KT"].estimate) < 1e-6
    assert abs(reports["DS"].estimate) < 1e-6


def test_report_shape_and_determinism():
    C = map_graph(polynomial_map([0, 0, 1]), backward=True)
    prot = EntropyProtocol(eps_grid=(0.2, 0.1), n_max=5, budget=2 ** 14)
    r1 = entropy_estimate(C, prot)
    r2 = entropy_estimate(C, prot)
    for v in ("KT", "DS"):
        j = r1[v].to_json()
        assert j == r2[v].to_json()
        assert set(j) == {
            "variant", "counts", "slopes", "estimate", "cap", "flags", "protocol", "diagnostics",
        }
        assert j["variant"] == v
        for n, eps, count in j["counts"]:
            assert count >= 1
        assert j["estimate"] <= j["cap"] + 0.05


def test_fast_counts_match_object_lane():
    # the level-tree greedy must reproduce the object-lane greedy exactly
    C = family_correspondence(4)
    seeds = fibonacci_sphere_points(25)
    prot = EntropyProtocol(eps_grid=(0.25,), n_max=4, budget=2 ** 16)
    from corrdyn.entropy import _LevelTree, _greedy_count, _propagate_pairs

    tree = _LevelTree(C, seeds, 4)
    fast = {}
    for ell, pi, pj, _tr in _propagate_pairs(tree, 0.25, True, False):
        if ell >= 1:
            fast[ell] = _greedy_count(tree.levels[ell]["valid"], pi, pj)
    for ell in (1, 2, 3, 4):
        orbits = enumerate_orbits(C, seeds, ell, budget=2 ** 18)
        assert fast[ell] == separated_count_KT(orbits, 0.25), f"level {ell}"


def test_protocol_json_round_trip_keeps_pair_budget():
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=3, pair_budget=12345)
    data = prot.to_json()
    assert data["pair_budget"] == 12345
    assert EntropyProtocol.from_json(data) == prot


def test_pair_budget_truncation_flagged_once_per_report():
    C = family_correspondence(4)
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=5, budget=2 ** 12, pair_budget=2000)
    reports = entropy_estimate(C, prot)
    for report in reports.values():
        truncated = [f for f in report.flags if f.startswith("pair_budget_truncated@")]
        assert truncated
        assert len(report.flags) == len(set(report.flags))
