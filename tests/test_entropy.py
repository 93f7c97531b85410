import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corrdyn.entropy as entropy_mod
from corrdyn.config import read_protocol
from corrdyn.correspondence import (
    Correspondence,
    compose,
    deleted_covering,
    identity_correspondence,
    map_graph,
    mobius_correspondence,
)
from corrdyn.entropy import EntropyProtocol, entropy_estimate, enumerate_orbits, gromov_cap
from corrdyn.errors import BudgetExceeded
from corrdyn.families import composed_covering_pair, family_correspondence
from corrdyn.graphpoly import GraphPolynomial, identity_graph, mobius_graph
from corrdyn.rational import MobiusMap, polynomial_map
from corrdyn.sphere import SpherePoint, chordal_distance, fibonacci_net, point_charts
from object_lane_orbits import (
    MissingLabels,
    OrbitTuple,
    enumerate_orbits as oracle_orbits,
    separated_count_DS,
    separated_count_KT,
)
from per_point_net import fibonacci_sphere_points
from transposition_sort import child_order as network_child_order
from triple_child_chunks import child_chunks as triple_child_chunks
from two_pass_counting import greedy_count as oracle_greedy_count, two_pass_counts


def pt(z):
    return SpherePoint.from_complex(z)


def net(n):
    """Chart coordinates of the n-point Fibonacci net."""
    return fibonacci_net(n, np.arange(n))


# -- enumeration ---------------------------------------------------------------

def test_depth_zero_returns_seeds():
    seeds = [pt(0.1), pt(2), pt(-1j)]
    orbits = enumerate_orbits(identity_correspondence(), seeds, 0)
    assert len(orbits) == 3
    assert all(len(points) == 1 and labels == () for points, labels in orbits)


def test_fixed_point_of_squaring():
    C = map_graph(polynomial_map([0, 0, 1]))
    orbits = enumerate_orbits(C, [pt(1)], 3)
    assert len(orbits) == 1
    points, _labels = orbits[0]
    assert all(chordal_distance(p, pt(1)) < 1e-12 for p in points)
    assert len(points) == 4


def test_family_orbits_from_fixed_point():
    # the fiber over 1 is {1, 2} at a = 4 and the fiber over 2 is the double
    # point {13/7}, so the depth-2 tree from seed 1 has three distinct orbits
    C = family_correspondence(4)
    orbits = enumerate_orbits(C, [pt(1)], 2)
    tuples = sorted(
        tuple(round(p.to_complex().real, 6) for p in points) for points, _ in orbits
    )
    assert tuples == [
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 2.0),
        (1.0, 2.0, round(13 / 7, 6)),
    ]


def test_budget_exceeded_is_raised_past_the_budget():
    C = family_correspondence(4)
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(C, fibonacci_sphere_points(64), 10, budget=100)


def identity_and_negation():
    """Two components, identity and negation: the labels tell the branches apart."""
    comps = (
        (identity_graph(), 1),
        (mobius_graph(MobiusMap(-1, 0, 0, 1)), 1),
    )
    return Correspondence(components=comps)


def test_orbit_labels_for_multicomponent():
    C = identity_and_negation()
    orbits = enumerate_orbits(C, [pt(0.5)], 2)
    assert len(orbits) == 4
    assert {labels for _, labels in orbits} == {(0, 0), (0, 1), (1, 0), (1, 1)}


# -- separated counting: the object-lane oracle ------------------------------------

def test_eps_above_diameter_counts_one():
    orbits = oracle_orbits(identity_correspondence(), [pt(0), pt(1), pt(-1)], 2)
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
        orbits = oracle_orbits(identity_correspondence(), seeds, n)
        counts.append(separated_count_KT(orbits, 0.5))
    assert len(set(counts)) == 1  # constant implies slope zero


def test_monotone_in_eps():
    C = family_correspondence(4)
    orbits = oracle_orbits(C, fibonacci_sphere_points(30), 4, budget=2 ** 16)
    counts = [separated_count_KT(orbits, e) for e in (0.4, 0.2, 0.1, 0.05)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_ds_dominates_kt_on_identical_tuples():
    C = family_correspondence(4)
    orbits = oracle_orbits(C, fibonacci_sphere_points(30), 4, budget=2 ** 16)
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
    # the level-tree greedy must reproduce the object-lane greedy exactly, in both
    # conventions: on the family (one label) and on identity + negation from seeds
    # clustered near 0, where every orbit is KT-close and only labels separate
    near_zero = [pt(complex(x, y)) for x in (-0.02, 0, 0.02) for y in (-0.02, 0, 0.02)]
    cases = [
        (family_correspondence(4), fibonacci_sphere_points(25)),
        (identity_and_negation(), near_zero),
    ]
    for C, seeds in cases:
        tree = entropy_mod._LevelTree(C, *point_charts(seeds), 4)
        fast, _levels, stop = entropy_mod._separated_counts(tree, 0.25, 10 ** 9, 1)
        assert stop == {}
        for ell in (1, 2, 3, 4):
            orbits = oracle_orbits(C, seeds, ell, budget=2 ** 18)
            assert fast["KT"][ell] == separated_count_KT(orbits, 0.25), f"KT level {ell}"
            assert fast["DS"][ell] == separated_count_DS(orbits, 0.25), f"DS level {ell}"
    assert fast["KT"] == {1: 1, 2: 1, 3: 1, 4: 1}
    assert fast["DS"] == {1: 2, 2: 4, 3: 8, 4: 16}


def test_protocol_json_round_trip_keeps_pair_budget():
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=3, pair_budget=12345)
    data = prot.to_json()
    assert data["pair_budget"] == 12345
    assert read_protocol(data) == prot


def test_pair_budget_truncation_flagged_once_per_report():
    C = family_correspondence(4)
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=5, budget=2 ** 12, pair_budget=2000)
    reports = entropy_estimate(C, prot)
    for report in reports.values():
        truncated = [f for f in report.flags if f.startswith("pair_budget_truncated@")]
        assert truncated
        assert len(report.flags) == len(set(report.flags))


# -- one-pass counting against the two-pass oracle ----------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_matches_oracle_on_random_graphs(data):
    n = data.draw(st.integers(1, 60))
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=250)
    )
    edges = [(min(e), max(e)) for e in edges if e[0] != e[1]]
    pi = np.array([i for i, _ in edges], dtype=np.int64)
    pj = np.array([j for _, j in edges], dtype=np.int64)
    want = oracle_greedy_count(valid, pi, pj)
    # the greedy reads pairs in non-decreasing tail order, as int32 slots: fed once
    # through an explicit stable sort by tail, once shuffled inside each tail
    shuffle = np.array(data.draw(st.permutations(range(pi.size))), dtype=np.int64)
    orders = (np.argsort(pi, kind="stable"), np.lexsort((shuffle, pi)))
    # the pairs also come split into chunks at random run boundaries, walked in sequence
    runs = np.flatnonzero(np.diff(np.sort(pi))) + 1
    cuts = sorted(data.draw(st.sets(st.sampled_from(runs.tolist()))) if runs.size else [])
    for order in orders:
        tails, heads = pi[order].astype(np.int32), pj[order].astype(np.int32)
        assert np.all(np.diff(tails) >= 0)
        for parts in ([tails], np.split(tails, cuts)):
            kept, s = bytearray(valid.tobytes()), 0
            for part in parts:
                entropy_mod._greedy_count(kept, part, heads[s : s + part.size])
                s += part.size
            assert kept.count(1) == want


def _tie_eps(xi, xj):
    """An eps at which some pair of rows sits exactly at d2 == eps**2 (a KT/DS tie)."""
    d2 = ((xi - xj) ** 2).sum(-1)
    for idx in zip(*np.nonzero((d2 > 0.01) & (d2 < 0.25))):
        eps = math.sqrt(d2[idx])
        if eps * eps == d2[idx]:
            return eps
    raise AssertionError("no pair distance squares back exactly")


def _one_pass_matches_oracle(tree, eps, pair_budget, n_min=1):
    counts, levels, stop = entropy_mod._separated_counts(tree, eps, pair_budget, n_min)
    want = two_pass_counts(tree, eps, pair_budget, n_min)
    for name in ("KT", "DS"):
        assert (counts[name], stop.get(name)) == want[name], name
    return counts, levels, stop


@pytest.mark.parametrize("case", ["family", "two_components", "seed_tie", "sibling_tie",
                                  "long_run", "parent_gap"])
def test_one_pass_counts_match_two_pass_oracle(case, monkeypatch):
    # a small chunk makes every level stream in several pieces; with "long_run"
    # single runs of equal tails are longer than the chunk itself, and with
    # "parent_gap" valid parents with no kept pairs fall between two kept
    # chunks and after the last one, so their sibling rows join the chunk before
    chunk = 8 if case == "long_run" else 64
    monkeypatch.setattr(entropy_mod, "_BLOCK", chunk)
    C = identity_and_negation() if case == "two_components" else family_correspondence(4)
    tree = entropy_mod._LevelTree(C, *net(60), 5)
    eps = {"family": 0.2, "two_components": 0.5, "long_run": 0.3, "parent_gap": 0.1}.get(case)
    if case == "seed_tie":
        xyz = tree.level(0)["xyz"]
        eps = _tie_eps(xyz[:, None, :], xyz[None, :, :])
    elif case == "sibling_tie":
        children = tree.level(1)["xyz"].reshape(-1, 2, 3)
        eps = _tie_eps(children[:, 0], children[:, 1])
    counts, levels, stop = _one_pass_matches_oracle(tree, eps, 10 ** 9, n_min=2)
    assert stop == {}
    assert sorted(counts["KT"]) == [2, 3, 4, 5]
    facts, longest, chunks, tails = {}, 0, {}, {}
    for ell, pi, pj, _tr in entropy_mod._propagate_pairs(tree, eps, 10 ** 9, facts):
        if pi.size:  # every non-empty chunk above the bottom is kept for the next level
            tails.setdefault(ell, []).append((int(pi[0]), int(pi[-1])))
        assert np.all(pi < pj)  # the greedy decides tails before their heads
        # and reads the tails in non-decreasing order, with no sort of its own
        assert np.all(np.diff(pi) >= 0)
        assert pi.dtype == np.int32 and pj.dtype == np.int32
        if pi.size:
            longest = max(longest, int(np.unique(pi, return_counts=True)[1].max()))
        # one item per chunk: (pairs, whether every pair has both bits)
        chunks.setdefault(ell, []).append((pi.size, bool(np.all(facts["bits"] == 3))))
    if case == "long_run":
        assert longest > chunk
    if case == "parent_gap":
        between = after = False
        for ell, ranges in tails.items():
            parents = np.flatnonzero(tree.level(ell)["valid"])
            ends, starts = np.array(ranges).T[::-1]
            gaps = np.searchsorted(parents, starts[1:]) - np.searchsorted(parents, ends[:-1], "right")
            between |= ell < 5 and bool(np.any(gaps > 0))
            after |= ell < 5 and bool(parents[-1] > ends[-1])
        assert between and after
    coincide = [row["coincide"] for row in levels]
    if case in ("family", "long_run", "parent_gap"):
        # one label: the conventions differ only at exact ties, which this eps has none of
        assert all(coincide)
    elif case == "two_components":
        assert counts["KT"] != counts["DS"] and not all(coincide)
        # at some level the first chunk still serves both conventions with one
        # walk, and the walks part at a later chunk
        assert any(parts[0][0] and parts[0][1] and not all(both for _, both in parts)
                   for parts in chunks.values())
    else:
        # the tied pair is DS-close but not KT-close
        assert not coincide[0 if case == "seed_tie" else 1]


def test_child_chunks_keep_the_chunk_contract(monkeypatch):
    # the chunks `_close_children` builds set the entropy peaks: each is at
    # most _BLOCK // d1^2 parent rows or one run of equal tails, ends on a run
    # boundary, and a level's chunks are its parent rows in tail order; every
    # kept chunk is released by the level's last call ("parent_gap" setup)
    monkeypatch.setattr(entropy_mod, "_BLOCK", 64)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(60), 5)
    step = 64 // tree.d1 ** 2
    level_of = lambda lvl: next(k for k, got in enumerate(tree.levels) if got is lvl)
    held, calls = {}, {}
    child_chunks, close_children = entropy_mod._child_chunks, entropy_mod._close_children

    def spy_chunks(lvl, d1, e2, keep, parents, live):
        held[level_of(lvl)] = keep
        return child_chunks(lvl, d1, e2, keep, parents, live)

    def spy_close(lvl, d1, e2, pi, pj, bits):
        ell = level_of(lvl)
        calls.setdefault(ell, []).append((pi.copy(), pj.copy(), bits.copy(), len(held[ell])))
        return close_children(lvl, d1, e2, pi, pj, bits)

    monkeypatch.setattr(entropy_mod, "_child_chunks", spy_chunks)
    monkeypatch.setattr(entropy_mod, "_close_children", spy_close)
    yielded, gaps, facts = {}, [], {}
    for ell, pi, pj, _tr in entropy_mod._propagate_pairs(tree, 0.1, 10 ** 9, facts):
        yielded.setdefault(ell, []).append((pi, pj, facts["bits"]))
    assert sorted(calls) == [1, 2, 3, 4, 5]
    for ell, chunks in calls.items():
        for pi, _pj, _bits, _ in chunks:
            assert pi.size and (pi.size <= step or pi[0] == pi[-1])
        # no run of equal tails is split between two calls
        assert all(a[0][-1] < b[0][0] for a, b in zip(chunks, chunks[1:]))
        assert chunks[-1][3] == 0  # no kept chunk is held past the level's last call
        # joined, the calls are the kept pairs (every pair has a live bit here)
        # and each valid parent's sibling row first in its run, in tail order
        parents = np.flatnonzero(tree.level(ell - 1)["valid"])
        siblings = parents, parents, np.full(parents.size, entropy_mod.KT | entropy_mod.DS)
        want = [np.concatenate(arrs) for arrs in zip(siblings, *yielded[ell - 1])]
        order = np.lexsort((np.arange(want[0].size) >= parents.size, want[0]))
        got = [np.concatenate(arrs) for arrs in list(zip(*chunks))[:3]]
        for got_rows, want_rows in zip(got, want):
            assert np.array_equal(got_rows, want_rows[order])
        # the sibling rows of parents between two kept chunks and past the last
        # one join the rows of the chunk before
        ranges = np.array([(pi[0], pi[-1]) for pi, _, _ in yielded[ell - 1] if pi.size])
        if ranges.size:
            between = np.searchsorted(parents, ranges[1:, 0]) - np.searchsorted(
                parents, ranges[:-1, 1], "right")
            gaps.append((bool(np.any(between > 0)), bool(parents[-1] > ranges[-1, 1])))
    assert any(b for b, _ in gaps) and any(a for _, a in gaps)


@pytest.mark.parametrize("block", [1, 3, 1 << 15])
@pytest.mark.parametrize("case", ["long_run", "parent_gap", "seed_tie"])
def test_child_chunks_from_tail_runs_are_the_chunks_from_triples(monkeypatch, case, block):
    # each kept chunk is held as its tail runs, its heads and its bits; the
    # chunks built from them are those built from the chunk's own (pi, pj, bits)
    monkeypatch.setattr(entropy_mod, "_BLOCK", block)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(60), 5)
    if case == "seed_tie":
        xyz = tree.level(0)["xyz"]
        eps = _tie_eps(xyz[:, None, :], xyz[None, :, :])
    else:
        eps = {"long_run": 0.3, "parent_gap": 0.1}[case]
    kept, facts = {}, {}
    for ell, pi, pj, _tr in entropy_mod._propagate_pairs(tree, eps, 10 ** 9, facts):
        if pi.size:
            kept.setdefault(ell, []).append((pi, pj, facts["bits"]))
    # level 0 may keep no pair, and then level 1's rows are the sibling rows alone
    assert all(kept.get(ell) for ell in range(1, 5))
    KT, DS = entropy_mod.KT, entropy_mod.DS
    for ell in range(1, 6):
        parents = np.flatnonzero(tree.level(ell - 1)["valid"]).astype(np.int32)
        triples = kept.get(ell - 1, [])
        for pi, pj, bits in triples:
            tails, lengths, heads, same_bits = entropy_mod._tail_runs(pi, pj, bits)
            assert heads is pj and same_bits is bits  # held, not copied
            assert tails.dtype == lengths.dtype == np.int32
            assert np.array_equal(np.repeat(tails, lengths), pi)
        for live in (KT | DS, KT, DS):
            runs = [entropy_mod._tail_runs(*chunk) for chunk in triples]
            got = list(entropy_mod._child_chunks(tree.level(ell), 2, eps * eps, runs,
                                                 parents, live))
            want = list(triple_child_chunks(tree.level(ell), 2, eps * eps, list(triples),
                                            parents, live))
            assert len(got) == len(want) and not runs
            for got_chunk, want_chunk in zip(got, want):
                for a, b in zip(got_chunk, want_chunk):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def _level_pairs(tree, eps):
    """Per level, the pair count of each chunk `_propagate_pairs` yields."""
    chunks = {}
    for ell, pi, _pj, _tr in entropy_mod._propagate_pairs(tree, eps, 10 ** 9, {}):
        chunks.setdefault(ell, []).append(pi.size)
    return chunks


def test_budget_proven_exceeded_mid_level_drops_the_kept_chunks(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_BLOCK", 64)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(60), 5)
    chunks = _level_pairs(tree, 0.3)
    # level 5 is cut once half of level 4's pairs are walked: its candidates
    # (4 per kept pair plus one sibling pair per valid node) then pass the budget
    parents = int(tree.level(4)["valid"].sum())
    budget = parents + 4 * (sum(chunks[4]) // 2)
    walked = np.cumsum(chunks[4])
    assert 4 * walked[0] + parents <= budget < 4 * walked[-2] + parents
    counts, levels, stop = _one_pass_matches_oracle(tree, 0.3, budget)
    assert stop == {"KT": 5, "DS": 5} and sorted(counts["KT"]) == [1, 2, 3, 4]
    assert levels[4]["kept"]["KT"] == sum(chunks[4])
    assert levels[5]["candidates"]["KT"] == 4 * sum(chunks[4]) + parents


def test_level_with_no_pairs_is_counted(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_BLOCK", 64)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(60), 4)
    chunks = _level_pairs(tree, 0.001)
    # a level with no pairs still yields an item, so its count exists: one
    # empty item at level 0, and empty chunks of sibling rows below it
    assert sorted(chunks) == list(range(5)) and chunks[0] == [0]
    assert not any(sum(sizes) for sizes in chunks.values())
    counts, levels, stop = _one_pass_matches_oracle(tree, 0.001, 10 ** 9)
    for ell in range(1, 5):
        assert counts["KT"][ell] == counts["DS"][ell] == levels[ell]["nodes"]


class DeadFibers:
    """A stub correspondence of bidegree (2 : 2) whose every child is NaN."""

    d1 = d2 = 2
    labels = np.zeros(2, dtype=np.int16)

    def forward_batch(self, Z1, Z2):
        W = np.full(np.shape(Z1) + (2,), complex(np.nan, np.nan))
        return W, W.copy()


def test_levels_with_no_valid_node_yield_one_empty_chunk():
    # levels 2 and 3 have no parent rows and no kept pairs: one empty item each
    tree = entropy_mod._LevelTree(DeadFibers(), *net(20), 3, reader="count")
    facts = {}
    items = [(ell, pi, pj, facts["bits"]) for ell, pi, pj, _tr in
             entropy_mod._propagate_pairs(tree, 0.01, 10 ** 9, facts) if ell]
    assert [ell for ell, *_ in items] == [1, 2, 3]
    for _ell, pi, pj, bits in items:
        assert pi.size == pj.size == bits.size == 0
        assert (pi.dtype, pj.dtype, bits.dtype) == (np.int32, np.int32, np.uint8)
    counts, levels, stop = entropy_mod._separated_counts(
        entropy_mod._LevelTree(DeadFibers(), *net(20), 3, reader="count"), 0.01, 10 ** 9, 1)
    assert counts == {"KT": {1: 0, 2: 0, 3: 0}, "DS": {1: 0, 2: 0, 3: 0}} and stop == {}
    assert [row["nodes"] for row in levels] == [20, 0, 0, 0]


def test_levels_below_n_min_are_not_walked(monkeypatch):
    monkeypatch.setattr(entropy_mod, "_BLOCK", 64)
    walked = []
    greedy = entropy_mod._greedy_count
    monkeypatch.setattr(entropy_mod, "_greedy_count",
                        lambda kept, pi, pj: walked.append(len(kept)) or greedy(kept, pi, pj))
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(60), 5)
    counts, levels, stop = _one_pass_matches_oracle(tree, 0.3, 10 ** 9, n_min=3)
    assert sorted(counts["KT"]) == sorted(counts["DS"]) == [3, 4, 5]
    assert len(levels) == 6 and all("kept" in row for row in levels)
    # only the slots of levels 3, 4 and 5 are walked
    assert set(walked) == {60 * 2 ** ell for ell in (3, 4, 5)}


@pytest.mark.parametrize("case", ["bottom", "budget_cut"])
def test_counting_holds_less_than_one_copy_of_its_last_level(monkeypatch, case):
    # the last counted level's pairs are walked chunk by chunk and never held
    # whole: at the bottom of the tree (nothing reads them), and where the pair
    # budget is proven exceeded about a quarter of the way through the level
    # (the chunks kept until then are dropped)
    monkeypatch.setattr(entropy_mod, "_BLOCK", 1 << 12)
    n_levels, budget, last = {"bottom": (7, 10 ** 9, 7), "budget_cut": (8, 260_000, 7)}[case]
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(100), n_levels)
    tree.level(last)  # the tree's own memory is not the counting's
    tracemalloc.start()
    try:
        counts, levels, stop = entropy_mod._separated_counts(tree, 0.2, budget, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(counts["KT"]) == list(range(1, last + 1))
    assert stop == ({} if case == "bottom" else {"KT": 8, "DS": 8})
    pairs = levels[last]["kept"]["KT"]
    assert pairs > 200_000
    # int32 tails and heads and a uint8 bit per pair: 9 bytes a pair, once
    # (2.06 MB). Holding the level whole and joining its chunks peaked at
    # 5.6 MB in both cases; walking each chunk as it is built, at 1.4 MB at the
    # bottom and 1.7 MB with the budget cut
    assert peak < 9 * pairs


def test_pair_budget_stops_each_convention_at_its_own_depth():
    C = identity_and_negation()
    tree = entropy_mod._LevelTree(C, *net(100), 5)
    counts, levels, stop = _one_pass_matches_oracle(tree, 0.5, 11000)
    # KT keeps more pairs here (labels split DS), so it reaches the budget first
    assert stop == {"KT": 4, "DS": 5}
    assert sorted(counts["KT"]) == [1, 2, 3] and sorted(counts["DS"]) == [1, 2, 3, 4]
    assert levels[4]["candidates"]["KT"] > 11000 >= levels[4]["candidates"]["DS"]
    assert set(levels[4]["kept"]) == {"DS"}
    # past its stop a convention's bit is dropped, and pairs held only by it go
    facts = {}
    for ell, _pi, _pj, truncated in entropy_mod._propagate_pairs(tree, 0.5, 11000, facts):
        if ell >= 4 and not truncated:
            assert np.all(facts["bits"] == entropy_mod.DS)


def test_diagnostics_record_per_level_facts():
    C = family_correspondence(4)
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=5, budget=2 ** 12, pair_budget=2000)
    reports = entropy_estimate(C, prot)
    counting = reports["KT"].diagnostics["counting"]
    assert counting == reports["DS"].diagnostics["counting"]
    facts = counting["eps=0.3"]
    depth = facts["truncated_depth"]["KT"]
    assert depth is not None and facts["truncated_depth"]["DS"] == depth
    assert f"pair_budget_truncated@eps=0.3,depth={depth}" in reports["KT"].flags
    levels = facts["levels"]
    assert [row["level"] for row in levels] == list(range(depth + 1))
    for row in levels[1:-1]:
        assert row["kept"]["KT"] <= row["candidates"]["KT"] <= 2000
        assert row["nodes"] > 0 and row["coincide"]
    assert levels[-1]["candidates"]["KT"] > 2000 and "kept" not in levels[-1]


# -- levels grown on demand ------------------------------------------------------------

def test_fresh_tree_holds_only_level_zero():
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(30), 5)
    assert len(tree.levels) == 1 and tree.n_levels == 5
    assert tree.node_count == 30
    assert tree.level(2) is tree.levels[2] and len(tree.levels) == 3
    assert tree.node_count == sum(int(lvl["valid"].sum()) for lvl in tree.levels)
    with pytest.raises(IndexError):
        tree.level(6)


def test_counting_tree_holds_only_what_the_count_reads(monkeypatch):
    # while entropy_estimate counts level l, level l holds the arrays the count
    # and the growth of level l + 1 read, every level above it only its valid
    # flags, and the last level, from which nothing grows, no z1 or z2
    seen = []
    propagate = entropy_mod._propagate_pairs

    def spy(tree, eps, pair_budget, facts):
        for item in propagate(tree, eps, pair_budget, facts):
            seen.append((eps, item[0], [sorted(lvl) for lvl in tree.levels]))
            yield item

    monkeypatch.setattr(entropy_mod, "_propagate_pairs", spy)
    prot = EntropyProtocol(eps_grid=(0.3, 0.2), n_max=5, budget=2 ** 13)
    entropy_estimate(family_correspondence(4), prot)
    assert {(eps, ell) for eps, ell, _ in seen} == {(e, ell) for e in (0.3, 0.2)
                                                    for ell in range(6)}
    for _eps, ell, held in seen:
        assert len(held) == ell + 1 and held[:-1] == [["valid"]] * ell
        if ell < 5:
            assert held[-1] == ["label", "valid", "xyz", "z1", "z2"]
        else:
            assert held[-1] == ["label", "valid", "xyz"]


@pytest.mark.parametrize("reader", ["count", "orbit"])
def test_a_reader_tree_holds_the_arrays_of_the_whole_tree(reader):
    # what a reader's tree holds is bit for bit what the whole tree holds there
    held = {"count": [["valid"]] * 3 + [["label", "valid", "xyz"]],
            "orbit": [["label", "valid", "z1", "z2"]] * 4}[reader]
    for C in _blocked_growth_cases().values():
        whole = entropy_mod._LevelTree(C, *net(20), 3)
        whole.level(3)
        tree = entropy_mod._LevelTree(C, *net(20), 3, reader=reader)
        tree.level(3)
        assert [sorted(lvl) for lvl in tree.levels] == held
        for got, want in zip(tree.levels, whole.levels):
            for key, arr in got.items():
                assert arr.dtype == want[key].dtype and arr.shape == want[key].shape
                assert np.array_equal(arr.view(np.uint8), want[key].view(np.uint8)), key
        assert tree.node_count == whole.node_count


def test_orbit_tree_stores_no_xyz(monkeypatch):
    trees = []

    class Recorded(entropy_mod._LevelTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trees.append(self)

    monkeypatch.setattr(entropy_mod, "_LevelTree", Recorded)
    orbits = enumerate_orbits(family_correspondence(4), [pt(0.3 + 0.2j), pt(-3)], 4)
    assert len(orbits) == 2 * 2 ** 4 and len(trees[0].levels) == 5
    assert all(sorted(lvl) == ["label", "valid", "z1", "z2"] for lvl in trees[0].levels)


def _blocked_growth_cases():
    cheb = polynomial_map([0, -3, 0, 1])
    R4 = polynomial_map([0.1, -1, 0, 0.3 + 0.2j, 1])
    return {
        "family_a4": family_correspondence(4),  # d1 = 2
        "c09_pair": composed_covering_pair(cheb, polynomial_map([0, 0, 0, 1])),  # d1 = 4
        # stage fibers of degree 3 (eigenvalue path) and 2, d1 = 6
        "cov_R4_cheb": compose(deleted_covering(R4), deleted_covering(cheb)),
    }


@pytest.mark.parametrize("case", ["family_a4", "c09_pair", "cov_R4_cheb"])
def test_blocked_growth_is_whole_level_growth(monkeypatch, case):
    C = _blocked_growth_cases()[case]
    seeds, depth = net(20), 3
    orbit_seeds = [pt(z) for z in (0.3 + 0.2j, -3, 0.5j, 2)]

    def grown(block):
        monkeypatch.setattr(entropy_mod, "_BLOCK", block)
        tree = entropy_mod._LevelTree(C, *seeds, depth)
        tree.level(depth)
        return tree, enumerate_orbits(C, orbit_seeds, 2)

    # a block past the deepest level grows every level whole
    whole, whole_orbits = grown(1 << 40)
    assert whole.levels[-1]["valid"].size == 20 * C.d1 ** depth
    for block in (1, 3, 64):
        tree, orbits = grown(block)
        assert len(tree.levels) == len(whole.levels)
        for got, want in zip(tree.levels, whole.levels):
            for key in ("z1", "z2", "xyz", "valid", "label"):
                assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape
                assert np.array_equal(got[key].view(np.uint8), want[key].view(np.uint8)), key
        assert tree.node_count == whole.node_count
        assert orbits == whole_orbits


def test_growth_temporaries_do_not_grow_with_the_level(monkeypatch):
    # a level is grown a block of parent rows at a time into its preallocated
    # arrays, so what growth holds past the level itself is one block's
    # temporaries, whatever the level's size
    block = 1 << 10
    monkeypatch.setattr(entropy_mod, "_BLOCK", block)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(64), 8)
    tree.level(6)
    excess = {}
    for ell in (7, 8):  # 8 and 16 blocks of slots
        tracemalloc.start()
        try:
            lvl = tree.level(ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lvl["valid"].size == (8 if ell == 7 else 16) * block
        excess[ell] = peak - sum(arr.nbytes for arr in lvl.values())
    # 0.28 MB at both levels; growing each level whole held about 120 bytes a
    # slot past the level itself (1.1 MB at level 7, 2.1 MB at level 8)
    assert excess[8] < 1.1 * excess[7]


def test_pair_budget_stop_level_is_never_grown():
    C = identity_and_negation()
    seeds = net(100)
    lazy = entropy_mod._LevelTree(C, *seeds, 5)
    counts, levels, stop = entropy_mod._separated_counts(lazy, 0.5, 11000, 1)
    assert stop == {"KT": 4, "DS": 5}
    # levels 0..4 exist; level 5, where the last convention stopped, does not
    assert len(lazy.levels) == max(stop.values())
    assert levels[-1]["level"] == 5 and levels[-1]["nodes"] is None
    assert lazy.node_count == sum(row["nodes"] for row in levels[:-1])
    # the same counts on a tree grown to the bottom first, and from the two-pass oracle
    eager = entropy_mod._LevelTree(C, *seeds, 5)
    eager.level(eager.n_levels)
    assert entropy_mod._separated_counts(eager, 0.5, 11000, 1) == (counts, levels, stop)
    assert eager.node_count > lazy.node_count
    want = two_pass_counts(entropy_mod._LevelTree(C, *seeds, 5), 0.5, 11000)
    for name in ("KT", "DS"):
        assert (counts[name], stop.get(name)) == want[name], name


def test_truncated_level_reports_no_nodes():
    prot = EntropyProtocol(eps_grid=(0.3,), n_max=5, budget=2 ** 12, pair_budget=2000)
    report = entropy_estimate(family_correspondence(4), prot)["KT"]
    levels = report.diagnostics["counting"]["eps=0.3"]["levels"]
    assert levels[-1]["nodes"] is None
    assert all(row["nodes"] > 0 for row in levels[:-1])
    # budget_usage counts the nodes grown: every level before the truncated one
    usage = report.diagnostics["budget_usage"]["eps=0.3"]
    assert usage["nodes"] == sum(row["nodes"] for row in levels[:-1])


# -- seeds as chart arrays, children in np.lexsort order -----------------------------

class _FixedChildren:
    """Stand-in correspondence whose forward images are given arrays, row after
    row as the tree asks for them (in blocks of parent rows); child u of every
    node carries label u, so a grown level's labels are its child order."""

    def __init__(self, W1, W2):
        self.d1 = W1.shape[1]
        self.labels = np.arange(self.d1, dtype=np.int16)
        self.W1, self.W2, self.row = W1, W2, 0

    def forward_batch(self, z1, z2):
        rows = slice(self.row, self.row + z1.size)
        self.row += z1.size
        return self.W1[rows], self.W2[rows]


@pytest.mark.parametrize("d1", range(2, 9))
def test_child_order_is_the_transposition_network_order(d1):
    # few distinct coordinates, signed zeros, equal points in several projective
    # forms and non-finite images: ties everywhere, which a stable sort keeps in slot order
    rng = np.random.default_rng(d1)
    n = 20000
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
    W1 = rng.choice(parts, (n, d1)) + 1j * rng.choice(parts, (n, d1))
    W2 = rng.choice(np.array([1, -1, 1j, -0.0, 2]), (n, d1)).astype(complex)
    W1[rng.random((n, d1)) < 0.02] = np.inf
    tree = entropy_mod._LevelTree(_FixedChildren(W1, W2), np.zeros(n, complex),
                                  np.zeros(n, bool), 1)
    got = tree.level(1)["label"].reshape(n, d1)
    bad = ~np.isfinite(W1.real) | ~np.isfinite(W2.real)
    W1, W2 = np.where(bad, 0.0, W1), np.where(bad, 1.0, W2)
    want = network_child_order(entropy_mod.embed_projective(W1, W2))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("strategy", ["net", "square_grid"])
def test_only_kept_seeds_are_built(monkeypatch, strategy):
    built = []
    for name in ("fibonacci_net", "chart_from_complex"):
        def record(*args, _orig=getattr(entropy_mod, name)):
            values, reciprocal = _orig(*args)
            built.append(values.size)
            return values, reciprocal
        monkeypatch.setattr(entropy_mod, name, record)
    prot = EntropyProtocol(eps_grid=(0.2, 0.1), n_max=5, budget=2 ** 12, seed_strategy=strategy)
    report = entropy_estimate(family_correspondence(4), prot)["KT"]
    usage = report.diagnostics["budget_usage"]
    assert built == [usage["eps=0.2"]["seeds"], usage["eps=0.1"]["seeds"]] == [65, 65]
    assert {"seed_net_subsampled@eps=0.2", "seed_net_subsampled@eps=0.1"} <= set(report.flags)


@pytest.mark.parametrize("grid_size, eps", [(64, 0.2), (64, 0.05), (1000, 0.013), (7, 3.0)])
def test_square_grid_cells_are_the_strided_cell_centres(monkeypatch, grid_size, eps):
    # the kept cells, computed from their indices, are bit for bit the strided
    # slice of all g cell centres
    monkeypatch.setattr(entropy_mod, "chart_from_complex", lambda x, y: (x, y))
    prot = EntropyProtocol(seed_strategy="square_grid", grid_size=grid_size)
    count, build = entropy_mod.seed_net(prot, eps)
    stride = max(1, int(round(prot.resolution_factor * eps / (2.0 / grid_size))))
    xs = ((np.arange(grid_size) + 0.5) / grid_size * 2.0 - 1.0)[::stride]
    assert count == xs.size ** 2
    idx = np.arange(count)
    x, y = build(idx)
    assert np.array_equal(x, xs[idx // xs.size]) and np.array_equal(y, xs[idx % xs.size])


def test_seed_count_is_arithmetic():
    def count(eps, **kw):
        return entropy_mod.seed_net(EntropyProtocol(**kw), eps)[0]
    assert count(1e-300) == math.inf
    # the largest nets below the bound are counted, not built
    assert 2 ** 53 < count(1e-8) < 2 ** 63
    assert count(0.2, seed_strategy="square_grid", grid_size=10 ** 12) == 20 ** 2
    assert count(1e-13, seed_strategy="square_grid", grid_size=10 ** 12) == 10 ** 24
    # a stride past the grid keeps one cell
    assert count(1e300, seed_strategy="square_grid") == 1


def test_level_of_int32_slots_is_refused_before_it_is_grown(monkeypatch):
    # 40 seeds with two children each: level 1 has 80 slots, level 2 would have 160
    monkeypatch.setattr(entropy_mod, "_MAX_SLOTS", 160)
    tree = entropy_mod._LevelTree(family_correspondence(4), *net(40), 3)
    assert tree.level(1)["valid"].size == 80
    with pytest.raises(BudgetExceeded, match="2\\^31"):
        tree.level(2)
    assert len(tree.levels) == 2


def test_seed_plan_refuses_a_seed_tree_past_the_budget():
    # one seed's tree to depth 12 has 8,191 nodes; a trillion levels are refused at once
    assert entropy_mod._plan_seeds(100, 2, 12, 8191)[0].tolist() == [0]
    for n_max, budget in ((12, 8190), (10 ** 12, 2 ** 20)):
        with pytest.raises(BudgetExceeded):
            entropy_mod._plan_seeds(100, 2, n_max, budget)


def test_seed_plan_refuses_a_count_past_int64_indices():
    # a protocol built in Python never passes read_protocol's check: an eps
    # whose net does not fit in int64 seed indices is refused, with no warning
    prot = EntropyProtocol(eps_grid=(1e-300,), n_max=2, budget=4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetExceeded, match="int64"):
            entropy_estimate(family_correspondence(4), prot)
        for count in (math.inf, math.nan, 2 ** 63):
            with pytest.raises(BudgetExceeded, match="int64"):
                entropy_mod._plan_seeds(count, 2, 2, 4096)
        idx, _flags = entropy_mod._plan_seeds(2 ** 52, 2, 2, 4096)
    assert idx.size == 585 and idx[-1] == 2 ** 52 - 1


def test_seed_plan_stays_inside_a_net_past_float64_integers():
    # 2^60 - 1 rounds up to 2^60 in float64: the last index is clamped into the net
    idx, flags = entropy_mod._plan_seeds(2 ** 60, 2, 2, 4096)
    assert idx.size == 585 and idx[0] == 0 and idx[-1] == 2 ** 60 - 1
    assert np.all(np.diff(idx) > 0) and flags == ["seed_net_subsampled"]


def test_seed_plan_keeps_every_seed_within_the_budget():
    idx, flags = entropy_mod._plan_seeds(100, 2, 5, 100 * 63)
    assert idx.tolist() == list(range(100)) and flags == []
    idx, flags = entropy_mod._plan_seeds(1383, 2, 9, 2 ** 17)
    assert idx.size == 128 and idx[0] == 0 and idx[-1] == 1382
    assert np.all(np.diff(idx) > 0) and flags == ["seed_net_subsampled"]
    # a net of 10^15 seeds (eps about 2e-7): only the kept indices are built
    idx, flags = entropy_mod._plan_seeds(10 ** 15, 2, 9, 2 ** 17)
    assert idx.size == 128 and idx[-1] == 10 ** 15 - 1 and flags == ["seed_net_subsampled"]
