import itertools
import time
import warnings

import numpy as np
import pytest

import object_lane_fibers
import stacked_fiber_kernel
from api_helpers import correspondence_json, mobius_compose, point_residual

from corrdyn import correspondence
from corrdyn.config import read_correspondence_data
import per_node_resultants
from corrdyn.correspondence import (
    DEGREE_BOUND,
    Correspondence,
    _branch_base_candidates,
    _resultant_nodes,
    _resultants,
    compose,
    compose_graph_poly,
    cov_graph,
    critical_values,
    deleted_covering,
    identity_correspondence,
    is_on_graph,
    map_graph,
    mobius_correspondence,
    ramification_pairs,
    ramification_points,
    tree_size,
)
from corrdyn.errors import DegreeBoundExceeded, DiscriminantDegenerate, FiberDegenerate, UsageError
from corrdyn.families import composed_covering_pair, family_correspondence, family_involution
from corrdyn.graphpoly import GraphPolynomial, identity_graph, mobius_graph
from corrdyn.rational import MobiusMap, RationalMap, critical_points, mobius_apply, polynomial_map, rational_eval
from corrdyn.sampling import random_rational_map
from corrdyn.sphere import INF, SpherePoint, chordal_distance, fiber_groups

Q = polynomial_map([0, -3, 0, 1])


def pt(z):
    return SpherePoint.from_complex(z)


def fiber_values(fr):
    return sorted(
        (("inf" if p.is_infinity else np.round(p.to_complex(), 8)), m) for p, m in fr
    )


# -- fibers -----------------------------------------------------------------

def test_covering_fiber_at_two_is_double():
    C = deleted_covering(Q)
    fr = C.forward(pt(2))
    assert sum(m for _, m in fr) == 2
    (p, m), = fr
    assert m == 2 and chordal_distance(p, pt(-1)) < 1e-7
    assert C.graph_residual(pt(2), p) < 1e-8


def test_quadratic_covering_is_negation():
    C = deleted_covering(polynomial_map([0, 0, 1]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        (p, m), = C.forward(pt(z))
        assert m == 1 and chordal_distance(p, pt(-z)) < 1e-10


def test_family_fibers_at_fixed_point():
    # forward fiber at 1 is {1, j_a(-2)}; backward fiber is {1, -2};
    # the double forward fiber {1 x2} occurs at -2
    for a in (4, 5, 10):
        C = family_correspondence(a)
        J = family_involution(a)
        fwd = C.forward(pt(1))
        expect = {1.0, mobius_apply(J, pt(-2)).to_complex()}
        got = {round(p.to_complex().real, 8) for p, _ in fwd}
        assert got == {round(x.real, 8) for x in expect}
        bwd = C.backward(pt(1))
        got_b = sorted(round(p.to_complex().real, 8) for p, _ in bwd)
        assert got_b == [-2.0, 1.0]
        fm2 = C.forward(pt(-2))
        assert sum(m for _, m in fm2) == 2
        assert all(chordal_distance(p, pt(1)) < 1e-7 for p, _ in fm2)


def test_fiber_at_infinity_compensation():
    fr = deleted_covering(Q).forward(INF)
    (p, m), = fr
    assert p.is_infinity and m == 2


def test_backward_equals_forward_for_symmetric_graphs():
    rng = np.random.default_rng(12)
    for _ in range(6):
        R = random_rational_map(rng, int(rng.integers(2, 6)))
        C = deleted_covering(R)
        for _ in range(8):
            z = pt(complex(rng.normal(), rng.normal()))
            fwd = sorted(p.sort_key() for p, _ in C.forward(z))
            bwd = sorted(p.sort_key() for p, _ in C.backward(z))
            assert len(fwd) == len(bwd)
            for u, v in zip(fwd, bwd):
                assert max(abs(x - y) for x, y in zip(u, v)) < 1e-9


def test_map_graph_backward_square_roots():
    C = map_graph(polynomial_map([0, 0, 1]))
    fr = C.backward(pt(4))
    got = sorted(p.to_complex().real for p, _ in fr)
    assert np.allclose(got, [-2, 2], atol=1e-9)
    # the backward orientation has the same fibers forward
    C2 = map_graph(polynomial_map([0, 0, 1]), backward=True)
    got2 = sorted(p.to_complex().real for p, _ in C2.forward(pt(4)))
    assert np.allclose(got2, [-2, 2], atol=1e-9)


def test_fiber_degenerate_vertical_line():
    # B(z, w) = (z - 1) * w has a vertical line over z = 1
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = -1.0
    c[1, 1] = 1.0
    C = Correspondence(components=((GraphPolynomial(c), 1),))
    with pytest.raises(FiberDegenerate):
        C.forward(pt(1))


def test_fiber_degenerate_in_a_later_stage_of_a_chain():
    # the shift z + 1 sends 0 to 1, over which (z - 1) w has its vertical line
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = -1.0
    c[1, 1] = 1.0
    dead = Correspondence(components=((GraphPolynomial(c), 1),))
    C = compose(dead, mobius_correspondence(MobiusMap(1, 1, 0, 1)))
    with pytest.raises(FiberDegenerate):
        C.forward(pt(0))


def test_chained_forward_batch_dead_row_is_nan_without_a_warning():
    # the shift z + 1 sends 0 to 1, over which (z - 1)(w^2 + 1) vanishes
    # identically; the NaN pairs then pass through cov(Q) as dead entries
    f = np.array([1, 0, 1], dtype=complex)
    dead = Correspondence(components=((GraphPolynomial(np.array([-f, f])), 1),))
    C = compose(deleted_covering(Q), compose(dead, mobius_correspondence(MobiusMap(1, 1, 0, 1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W1, W2 = C.forward_batch(np.array([0, 0.3, 1], dtype=complex), np.array([1, 1, 0], dtype=complex))
    assert W1.shape == (3, 4)
    assert np.isnan(W1[0]).all() and np.isnan(W2[0]).all()
    assert np.isfinite(W1[1:]).all() and np.isfinite(W2[1:]).all()


KERNEL_CASES = {
    "family_a4": family_correspondence(4),
    "covering_pair": composed_covering_pair(Q, polynomial_map([0, 0, 0, 1])),
    "cov_R4_after_cov_Q": compose(deleted_covering(polynomial_map([0.1, -1, 0, 0.3 + 0.2j, 1])),
                                  deleted_covering(Q)),
    "two_components_one_double": Correspondence(
        components=((cov_graph(Q), 1), (mobius_graph(MobiusMap(2, 1, 1, 3)), 2))),
    "identity_and_negation": Correspondence(
        components=((identity_graph(), 1), (mobius_graph(MobiusMap(-1, 0, 0, 1)), 1))),
    "one_component_doubled": Correspondence(components=((cov_graph(Q), 2),)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_forward_batch_is_the_stacked_kernel_bit_for_bit(name):
    C = KERNEL_CASES[name]
    z1, z2 = stacked_fiber_kernel.kernel_bases(np.random.default_rng(5), 200)
    got = C.forward_batch(z1, z2)
    want = stacked_fiber_kernel.forward_batch(C, z1, z2)
    assert len(got) == 2
    for g, w in zip(got, want[:2]):
        stacked_fiber_kernel.assert_same_bits(g, w)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_labels_are_the_labels_each_call_built(name):
    # a column's component is fixed by the correspondence, not by the base point
    C = KERNEL_CASES[name]
    z1, z2 = stacked_fiber_kernel.kernel_bases(np.random.default_rng(5), 200)
    want = stacked_fiber_kernel.forward_batch(C, z1, z2)[2]
    assert C.labels.dtype == want.dtype and C.labels.shape == (C.d1,)
    assert np.array_equal(np.broadcast_to(C.labels, want.shape), want)


# -- the per-point lane against the object-lane oracle ------------------------

def _oracle_cases():
    rng = np.random.default_rng(21)
    cases = {f"cov_degree_{d}": deleted_covering(random_rational_map(rng, d)) for d in (2, 3, 4, 5)}
    cases.update({f"family_a{a}": family_correspondence(a) for a in (4, 5, 10)})
    cases["cov_R_after_cov_S"] = compose(
        deleted_covering(random_rational_map(rng, 3)), deleted_covering(random_rational_map(rng, 4))
    )
    cases["two_components_one_double"] = Correspondence(
        components=((cov_graph(Q), 1), (mobius_graph(MobiusMap(2, 1, 1, 3)), 2))
    )
    return cases


ORACLE_CASES = _oracle_cases()


def _assert_same_fiber(C, z, got, want):
    """got = C.forward(z) has want's points and multiplicities, each on C's graph."""
    assert sum(m for _, m in got) == sum(m for _, m in want)
    assert len(got) == len(want)
    assert max(C.graph_residual(z, q) for q, _ in got) < 1e-8
    rest = list(want)
    for p, m in got:
        k = min(range(len(rest)), key=lambda i: chordal_distance(p, rest[i][0]))
        q, n = rest.pop(k)
        assert chordal_distance(p, q) < 1e-9 and m == n


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_forward_and_backward_match_object_lane(name):
    C = ORACLE_CASES[name]
    rng = np.random.default_rng(23)
    bases = [pt(0), INF] + [pt(complex(*rng.normal(size=2))) for _ in range(6)]
    for z in bases:
        _assert_same_fiber(C, z, C.forward(z), object_lane_fibers.forward(C, z))
        _assert_same_fiber(C.transpose(), z, C.backward(z), object_lane_fibers.backward(C, z))


@pytest.mark.parametrize("C, z", [
    (deleted_covering(Q), pt(2)),
    (family_correspondence(4), pt(-2)),
    (family_correspondence(5), pt(-2)),
    (family_correspondence(10), pt(-2)),
], ids=["Q_at_2", "family_a4_at_-2", "family_a5_at_-2", "family_a10_at_-2"])
def test_double_fibers_match_object_lane(C, z):
    got = C.forward(z)
    assert [m for _, m in got] == [2]
    _assert_same_fiber(C, z, got, object_lane_fibers.forward(C, z))
    _assert_same_fiber(C.transpose(), z, C.backward(z), object_lane_fibers.backward(C, z))


@pytest.mark.parametrize("name", sorted(ORACLE_CASES) + ["cov_Q"])
def test_forward_points_are_forward_batch_entries_bit_for_bit(name):
    # at a generic point every cluster is one child, kept as solved: the
    # per-point API and the orbit and entropy trees read the same numbers
    C = ORACLE_CASES.get(name) or deleted_covering(Q)
    z = pt(0.31 - 0.62j)
    W1, W2 = C.forward_batch(*(np.array([c]) for c in z.projective()))
    row = sorted((SpherePoint.from_projective(a, b) for a, b in zip(W1[0], W2[0])),
                 key=lambda p: p.sort_key())
    fr = C.forward(z)
    if name == "two_components_one_double":  # the doubled component's children coincide
        row = [p for i, p in enumerate(row) if p not in row[:i]]
    else:
        assert all(m == 1 for _, m in fr)
    assert [p for p, _ in fr] == row
    # at 0, infinity and the double fibers (Q at 2, the family at -2), both ways
    for D in (C, C.transpose()):
        for z in (pt(0), INF, pt(2), pt(-2)):
            W1, W2 = D.forward_batch(*(np.array([c]) for c in z.projective()))
            assert D.forward(z) == fiber_groups(W1[0], W2[0], 1e-6)


@pytest.mark.parametrize("coeffs", [[[1], [1]], [[1, 1]]], ids=["no_w", "no_z"])
def test_component_without_z_or_w_is_refused_at_construction(coeffs):
    # d1 or d2 would be 0, which the orbit tree cannot grow from
    with pytest.raises(UsageError, match="poly must have both z and w"):
        Correspondence(components=((GraphPolynomial(np.array(coeffs)), 1),))


def test_branch_invariant():
    rng = np.random.default_rng(8)
    for _ in range(8):
        R = random_rational_map(rng, int(rng.integers(2, 6)))
        C = deleted_covering(R)
        for _ in range(6):
            z = pt(complex(rng.normal(), rng.normal()))
            rz = rational_eval(R, z)
            for w, _ in C.forward(z):
                assert chordal_distance(rational_eval(R, w), rz) < 1e-7


# -- composition ------------------------------------------------------------

def test_compose_bidegrees():
    J = mobius_correspondence(family_involution(4))
    C = compose(J, deleted_covering(Q))
    assert (C.d1, C.d2) == (2, 2)
    R = random_rational_map(np.random.default_rng(1), 3)
    S = random_rational_map(np.random.default_rng(2), 3)
    C2 = compose(deleted_covering(R), deleted_covering(S))
    assert (C2.d1, C2.d2) == (4, 4)


def test_compose_with_identity():
    rng = np.random.default_rng(3)
    C = deleted_covering(Q)
    CI = compose(identity_correspondence(), C)
    IC = compose(C, identity_correspondence())
    for _ in range(20):
        z = pt(complex(rng.normal(), rng.normal()))
        base = sorted(p.sort_key() for p, _ in C.forward(z))
        for other in (CI, IC):
            got = sorted(p.sort_key() for p, _ in other.forward(z))
            assert len(base) == len(got)
            for u, v in zip(base, got):
                assert max(abs(x - y) for x, y in zip(u, v)) < 1e-9


def test_compose_graph_poly_mobius_pair():
    M1 = MobiusMap(2, 1, 0, 1)
    M2 = MobiusMap(1, -1j, 1, 1)
    gp = compose_graph_poly(mobius_correspondence(M1), mobius_correspondence(M2))
    comp = mobius_compose(M1, M2)
    want = np.zeros((2, 2), dtype=complex)
    want[0, 0], want[1, 0] = -comp.b, -comp.a
    want[0, 1], want[1, 1] = comp.d, comp.c
    scale = gp.coeffs[np.abs(want) > 0.1][0] / want[np.abs(want) > 0.1][0]
    assert np.allclose(gp.coeffs, want * scale, atol=1e-9)


def test_compose_graph_poly_agrees_with_chain():
    C = family_correspondence(4)
    gp = compose_graph_poly(C.chain[0], C.chain[1])
    assert gp.deg_z == 2 and gp.deg_w == 2
    rng = np.random.default_rng(9)
    for _ in range(30):
        z = pt(complex(rng.normal(), rng.normal()))
        for w, _ in C.forward(z):
            assert point_residual(gp, z, w) < 1e-6


def test_compose_graph_poly_cubic_pair_bidegree():
    R = polynomial_map([0, -3, 0, 1])
    S = polynomial_map([0, 0, 0, 1])
    gp = compose_graph_poly(deleted_covering(R), deleted_covering(S))
    assert gp.deg_z == 4 and gp.deg_w == 4


def test_compose_graph_poly_degree_bound():
    R = random_rational_map(np.random.default_rng(5), 5)
    S = random_rational_map(np.random.default_rng(6), 5)
    with pytest.raises(DegreeBoundExceeded):
        compose_graph_poly(deleted_covering(R), deleted_covering(S))  # 17^2 > DEGREE_BOUND^2


@pytest.mark.parametrize("order", ["two_first", "two_last", "resultant"])
def test_a_stage_with_two_components_is_refused_in_either_order(order):
    # every resultant stage is refused the same way, whichever factor has two components
    two = ORACLE_CASES["two_components_one_double"]
    with pytest.raises(DegreeBoundExceeded, match="single-component stages"):
        if order == "resultant":
            compose_graph_poly(two, deleted_covering(Q))
        else:
            pair = (two, deleted_covering(Q)) if order == "two_last" else (deleted_covering(Q), two)
            ramification_pairs(compose(*pair), 2)


def _same_bits(x, y) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_resultants_match_the_per_node_loops_on_random_rows():
    rng = np.random.default_rng(11)

    def rows(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(200):
        da, db = (int(d) for d in rng.integers(1, 6, size=2))
        k, l = (int(n) for n in rng.integers(1, 5, size=2))
        a, b = rows(k, da + 1), rows(l, db + 1)
        grid = per_node_resultants.grid(a, b, da, db)
        assert _same_bits(_resultants(a[:, None], b[None], da, db), grid)
        b = rows(k, db + 1)
        assert _same_bits(_resultants(a, b, da, db), per_node_resultants.paired(a, b, da, db))


def test_resultants_match_the_per_node_loops_on_the_family_graphs():
    # the grid of compose_graph_poly(j_4, cov(z^3 - 3z)) and the discriminant
    # nodes of every graph of family a = 4, each side
    C = family_correspondence(4)
    B1, B2 = (c.single_graph() for c in C.chain)
    zs = _resultant_nodes(B2.deg_z * B1.deg_z + 1)
    ws = _resultant_nodes(B1.deg_w * B2.deg_w + 1) * np.exp(0.11j)
    a_all = np.vander(zs, B2.deg_z + 1, increasing=True) @ B2.coeffs
    b_all = np.vander(ws, B1.deg_w + 1, increasing=True) @ B1.coeffs.T
    got = _resultants(a_all[:, None], b_all[None], B2.deg_w, B1.deg_z)
    assert _same_bits(got, per_node_resultants.grid(a_all, b_all, B2.deg_w, B1.deg_z))
    flat = compose_graph_poly(*C.chain)
    for gp in (B2, B2.transpose(), flat, flat.transpose()):
        m, n = gp.deg_z, gp.deg_w
        pow_z = np.vander(_resultant_nodes(m * (2 * n - 1) + 1), m + 1, increasing=True)
        a, b = pow_z @ gp.coeffs, pow_z @ (gp.coeffs[:, 1:] * np.arange(1, n + 1))
        assert _same_bits(_resultants(a, b, n, n - 1), per_node_resultants.paired(a, b, n, n - 1))


def test_resultant_interpolation_is_unitary():
    # the nodes are rotated roots of unity, so the Vandermonde matrix on N of
    # them is sqrt(N) times a unitary one: interpolation needs no conditioning check
    for N in range(1, DEGREE_BOUND ** 2 + 2):
        for nodes in (_resultant_nodes(N), _resultant_nodes(N) * np.exp(0.11j)):
            assert np.linalg.cond(np.vander(nodes, N, increasing=True)) <= 1 + 1e-9


# -- ramification -----------------------------------------------------------

def test_mobius_graph_has_no_ramification():
    C = mobius_correspondence(MobiusMap(2, 1, 1, 1))
    assert ramification_points(C) == []


def test_cubic_ramification_z_coords_in_critical_set():
    pairs = ramification_pairs(deleted_covering(Q), side=2)
    zs = sorted(
        (("inf" if z.is_infinity else round(z.to_complex().real, 6)) for (z, w), _ in pairs),
        key=str,
    )
    assert zs == [-1.0, 1.0, "inf"]


def test_cube_ramification_holds_the_double_root_at_zero():
    # over z = 0 the fiber of cov(z^3) is w^2 = 0: the pair (0, 0), with (inf, inf)
    pairs = ramification_pairs(deleted_covering(polynomial_map([0, 0, 0, 1])), side=2)
    assert [m for _, m in pairs] == [2, 2] and pairs[0][0] == (INF, INF)
    z, w = pairs[1][0]
    assert chordal_distance(z, pt(0)) < 1e-12 and chordal_distance(w, pt(0)) < 1e-12


def test_family_inverse_critical_values():
    C = family_correspondence(4)
    vals = critical_values(C, side=1)
    got = {("inf" if p.is_infinity else round(p.to_complex().real, 6)) for p, _ in vals}
    assert {"inf", -2.0, 2.0} <= got


def test_ramification_reflection_for_symmetric_graphs():
    C = deleted_covering(Q)
    a1 = {(str(np.round(z.embed_r3(), 5)), str(np.round(w.embed_r3(), 5))) for (z, w), _ in ramification_pairs(C, side=1)}
    a2 = {(str(np.round(w.embed_r3(), 5)), str(np.round(z.embed_r3(), 5))) for (z, w), _ in ramification_pairs(C, side=2)}
    assert a1 == a2


def test_ramification_skips_a_dead_fiber_row(monkeypatch):
    # B = (z - 1)(w^2 - z) vanishes identically over z = 1 (a NaN row of fiber_batch);
    # the branch pairs of w^2 = z are (0, 0) and (inf, inf)
    c = np.zeros((3, 3), dtype=complex)
    c[1, 2], c[0, 2], c[2, 0], c[1, 0] = 1, -1, -1, 1
    gp = GraphPolynomial(c)
    monkeypatch.setattr(correspondence, "_branch_base_candidates", lambda g: [INF, pt(1), pt(0)])
    pairs = ramification_pairs(Correspondence(components=((gp, 1),)), side=1)
    assert pairs == [((INF, INF), 2), ((pt(0), pt(0)), 2)]


def test_forward_near_infinity_returns_points_on_the_graph():
    # verify's sixth ramification map at rng_seed 0, on the transposed covering graph: over
    # this discriminant root two fiber roots lie 3.7e-6 chordal from infinity on opposite
    # sides of it, and their plane mean 0.79 + 0.44i is off the graph (residual 0.51)
    rng = np.random.default_rng(0)
    for _ in range(6):
        R = random_rational_map(rng, int(rng.integers(3, 6)))
    gp = cov_graph(R).transpose()
    z0 = pt(-0.3158809237033299 - 0.1768964996104448j)
    C = Correspondence(components=((gp, 1),))
    fr = C.forward(z0, cluster_radius=1e-5)
    (q, m), = [(q, m) for q, m in fr if m == 2]
    assert C.graph_residual(z0, q) < 1e-9
    assert max(C.graph_residual(z0, q) for q, _ in fr) < 1e-8


@pytest.mark.parametrize("name", ["cov_degree_2", "cov_degree_3", "cov_degree_5"])
def test_fiber_is_a_forward_row_grouped_by_the_same_rule(name):
    C = ORACLE_CASES[name]
    gp = C.single_graph()
    rng = np.random.default_rng(29)
    for z in [pt(0), INF] + [pt(complex(*rng.normal(size=2))) for _ in range(4)]:
        for radius in (1e-6, 0.5):
            assert gp.fiber(z, radius) == C.forward(z, radius)


def test_discriminant_degenerate_for_multiple_component():
    # (w - z)^2: squared component, identically vanishing discriminant
    c = np.zeros((3, 3), dtype=complex)
    c[0, 2] = 1
    c[1, 1] = -2
    c[2, 0] = 1
    C = Correspondence(components=((GraphPolynomial(c), 1),))
    with pytest.raises(DiscriminantDegenerate):
        ramification_pairs(C, side=1)


# -- membership -------------------------------------------------------------

def test_membership_examples():
    C = deleted_covering(Q)
    ok, res = is_on_graph(C, pt(2), pt(-1), 1e-8)
    assert ok and res < 1e-10
    # graph of the squaring covering is w = -z: the diagonal is off it
    C2 = deleted_covering(polynomial_map([0, 0, 1]))
    rng = np.random.default_rng(10)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        if abs(z) > 1e-3:
            ok, _ = is_on_graph(C2, pt(z), pt(z), 1e-8)
            assert not ok
    F4 = family_correspondence(4)
    ok, res = is_on_graph(F4, pt(1), pt(1), 1e-7)
    assert ok


def test_chain_residual_is_one_batch_row(monkeypatch):
    # the witnesses of a chain are one forward_batch row of z under the factors
    # after the first; no per-point forward runs
    C = compose(mobius_correspondence(MobiusMap(1, 2, 0, 1)),
                compose(deleted_covering(Q), deleted_covering(polynomial_map([0, 0, 0, 1]))))
    z = pt(0.4 - 0.7j)
    images = [q for q, _ in C.forward(z)]
    outer, depth = [], [0]
    batch = Correspondence.forward_batch

    def spy(self, Z1, Z2):
        if not depth[0]:
            outer.append(np.shape(Z1))
        depth[0] += 1
        try:
            return batch(self, Z1, Z2)
        finally:
            depth[0] -= 1

    def never(*args, **kwargs):
        raise AssertionError("graph_residual took a per-point forward")

    monkeypatch.setattr(Correspondence, "forward_batch", spy)
    monkeypatch.setattr(Correspondence, "forward", never)
    residuals = [C.graph_residual(z, q) for q in images]
    assert len(images) == 4 and outer == [(1,)] * 4
    assert max(residuals) < 1e-12


def test_chain_residual_over_a_dead_tail_stage_raises():
    # (z - 1)(w^2 - z) vanishes identically over z = 1, so the witness row is NaN
    c = np.zeros((3, 3), dtype=complex)
    c[1, 0], c[2, 0], c[0, 2], c[1, 2] = 1, -1, -1, 1
    C = compose(identity_correspondence(), Correspondence(components=((GraphPolynomial(c), 1),)))
    with pytest.raises(FiberDegenerate):
        C.graph_residual(pt(1), pt(1))
    # off z = 1 the witnesses are the square roots of z
    assert C.graph_residual(pt(4), pt(-2)) < 1e-15


def test_correspondence_json_round_trip():
    C = family_correspondence(4)
    C2 = read_correspondence_data(correspondence_json(C))
    assert (C2.d1, C2.d2) == (2, 2)
    z = pt(0.3 + 0.7j)
    a = sorted(p.sort_key() for p, _ in C.forward(z))
    b = sorted(p.sort_key() for p, _ in C2.forward(z))
    for u, v in zip(a, b):
        assert max(abs(x - y) for x, y in zip(u, v)) < 1e-12


@pytest.mark.parametrize("delta", [1e-8, 1e-10])
def test_branch_base_candidates_trim_the_discriminant_at_1e_9(delta):
    # B = w^2 - z + delta z^2 has discriminant 4z - 4 delta z^2, with roots 0 and
    # 1 / delta: its top coefficient is kept above 1e-9 of the largest, trimmed below
    gp = GraphPolynomial(np.array([[0, 0, 1], [-1, 0, 0], [delta, 0, 0]], dtype=complex))
    cands = _branch_base_candidates(gp)
    assert cands[0] == INF and chordal_distance(cands[1], pt(0)) < 1e-12
    if delta > 1e-9:
        assert len(cands) == 3 and chordal_distance(cands[2], pt(1 / delta)) < 1e-12
    else:
        assert len(cands) == 2


def test_tree_size_stops_past_the_budget():
    for roots, d, depth in itertools.product((0, 1, 3), (1, 2, 5), (0, 1, 4)):
        last = roots * d ** depth
        every = roots * sum(d ** ell for ell in range(depth + 1))
        for budget in (1, last - 1, last, every - 1, every, 10 ** 6):
            assert tree_size(roots, d, depth, budget) == min(every, budget + 1)
    # a trillion levels cost a few steps, for any width
    start = time.monotonic()
    for d in (2, 1):
        assert tree_size(1, d, 10 ** 12, 2 ** 20) == 2 ** 20 + 1
    assert time.monotonic() - start < 0.5
