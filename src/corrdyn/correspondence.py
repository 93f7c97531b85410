"""Holomorphic correspondences: construction, fibers, composition.

A Correspondence is either *direct* (a weighted list of graph polynomials)
or *chained* (a composition of factors, the last factor applied first, in
line with (F1 o F2)(z) = union of F1(w) over w in F2(z)).  Bidegrees d1/d2
count images/preimages of a generic point with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeBoundExceeded,
    DegreeTooLow,
    DiscriminantDegenerate,
    FiberDegenerate,
    InexactDivision,
    UsageError,
)
from .graphpoly import GraphPolynomial, identity_graph, mobius_graph
from .rational import MobiusMap, RationalMap
from .roots import roots_with_clusters
from .sphere import INF, SpherePoint, chart_pairs, chordal_distance, fiber_groups, greedy_groups
from .sphere import point_charts


# ---------------------------------------------------------------------------
# deleted covering graph
# ---------------------------------------------------------------------------

def divide_by_z_minus_w(N: np.ndarray) -> np.ndarray:
    """Exact quotient of a bivariate coefficient matrix by (z - w).

    N[i, j] is the coefficient of z^i w^j.  Synthetic division runs along
    the z-direction; the remainder must vanish below 1e-10 relative to the
    matrix scale or InexactDivision is raised.
    """
    N = np.asarray(N, dtype=complex)
    scale = np.max(np.abs(N))
    if scale == 0:
        raise DegreeTooLow("zero matrix cannot be divided")
    d = N.shape[0] - 1
    Np = np.zeros((d + 1, N.shape[1] + 1), dtype=complex)
    Np[:, : N.shape[1]] = N
    B = np.zeros((max(d, 1), N.shape[1] + 1), dtype=complex)
    B[d - 1] = Np[d]
    for i in range(d - 1, 0, -1):
        shifted = np.zeros(Np.shape[1], dtype=complex)
        shifted[1:] = B[i][:-1]
        B[i - 1] = Np[i] + shifted
    shifted = np.zeros(Np.shape[1], dtype=complex)
    shifted[1:] = B[0][:-1]
    remainder = Np[0] + shifted
    if np.max(np.abs(remainder)) > 1e-10 * scale:
        raise InexactDivision(
            f"(z - w) division left remainder of relative size "
            f"{np.max(np.abs(remainder)) / scale:.3e}"
        )
    return B


def cov_graph(R: RationalMap) -> GraphPolynomial:
    """Graph polynomial of the deleted covering correspondence of R.

    The exact quotient of p(z)q(w) - p(w)q(z) by (z - w); antisymmetry of
    the numerator makes the division exact, and the quotient symmetric.
    """
    if R.degree < 2:
        raise DegreeTooLow("deleted covering correspondence requires degree >= 2")
    d = R.degree
    p = np.zeros(d + 1, dtype=complex)
    q = np.zeros(d + 1, dtype=complex)
    p[: R.numerator.size] = R.numerator
    q[: R.denominator.size] = R.denominator
    # N[i, j] = p_i q_j - p_j q_i  (antisymmetric)
    N = np.outer(p, q) - np.outer(q, p)
    if np.max(np.abs(N)) == 0:
        raise DegreeTooLow("map is constant; covering graph undefined")
    return GraphPolynomial(divide_by_z_minus_w(N))


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correspondence:
    """Holomorphic correspondence on the sphere.

    components : tuple of (GraphPolynomial, multiplicity), direct strategy
    chain      : tuple of direct Correspondence factors; chain[-1] applied
                 first (the factors of a chained factor are spliced in)

    A component poly that lacks z or w raises UsageError.
    """

    components: tuple = ()
    chain: tuple = ()

    def __post_init__(self):
        if bool(self.components) == bool(self.chain):
            raise ValueError("exactly one of components/chain must be set")
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "chain", tuple(f for c in self.chain for f in (c.chain or (c,))))
        for gp, _ in self.components:
            if min(gp.deg_z, gp.deg_w) == 0:
                raise UsageError(
                    f"poly must have both z and w, got deg_z={gp.deg_z} and deg_w={gp.deg_w} "
                    "after trimming"
                )

    # -- structure ----------------------------------------------------------

    @property
    def is_direct(self) -> bool:
        return bool(self.components)

    @property
    def d1(self) -> int:
        if self.is_direct:
            return sum(n * gp.deg_w for gp, n in self.components)
        return math.prod(c.d1 for c in self.chain)

    @property
    def d2(self) -> int:
        if self.is_direct:
            return sum(n * gp.deg_z for gp, n in self.components)
        return math.prod(c.d2 for c in self.chain)

    def transpose(self) -> "Correspondence":
        """The inverse correspondence (graph reflected in the diagonal)."""
        if self.is_direct:
            return Correspondence(components=[(gp.transpose(), n) for gp, n in self.components])
        return Correspondence(chain=tuple(c.transpose() for c in reversed(self.chain)))

    def single_graph(self) -> GraphPolynomial:
        """The one graph polynomial of a resultant stage: DegreeBoundExceeded
        unless the correspondence is direct with a single component."""
        if not (self.is_direct and len(self.components) == 1):
            raise DegreeBoundExceeded("resultant composition needs single-component stages")
        return self.components[0][0]

    # -- evaluation ---------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """The component index of each forward_batch column, int16 of length d1:
        a direct correspondence's components in order, each repeated by its
        multiplicity times deg_w; a chain is one composite component, all 0."""
        if self.is_direct:
            counts = [n * gp.deg_w for gp, n in self.components]
            return np.repeat(np.arange(len(counts), dtype=np.int16), counts)
        return np.zeros(self.d1, dtype=np.int16)

    def forward(self, z: SpherePoint, cluster_radius: float = 1e-6) -> list[tuple[SpherePoint, int]]:
        """Multivalued image of z as (point, multiplicity), total multiplicity
        d1 at generic points.

        One row of forward_batch grouped within cluster_radius by
        sphere.fiber_groups, as GraphPolynomial.fiber is.  A stage fiber that
        vanishes identically on the way raises FiberDegenerate.
        """
        W1, W2 = self.forward_batch(*(np.array([c]) for c in z.projective()))
        if np.isnan(W1).any():
            raise FiberDegenerate(f"a stage fiber on the way from {z} vanishes identically")
        return fiber_groups(W1[0], W2[0], cluster_radius)

    def backward(self, w: SpherePoint, cluster_radius: float = 1e-6) -> list[tuple[SpherePoint, int]]:
        """Multivalued preimage of w, total multiplicity d2 generically."""
        return self.transpose().forward(w, cluster_radius)

    def forward_batch(self, Z1: np.ndarray, Z2: np.ndarray):
        """Vectorized fibers: (W1, W2), each of shape (N, d1).

        Column k belongs to component labels[k].  Stage fibers of any degree
        are batched (see GraphPolynomial.fiber_batch); children come in batch
        order, not sorted, and a degenerate stage fiber leaves NaN pairs.
        """
        if self.is_direct:
            parts = []
            for gp, n in self.components:
                parts += [gp.fiber_batch(Z1, Z2)] * n
            if len(parts) == 1:  # one simple component: its fibers need no copy
                return parts[0]
            return tuple(np.concatenate(arrs, axis=-1) for arrs in zip(*parts))
        shape = np.asarray(Z1).shape
        cur1 = np.asarray(Z1, dtype=complex).ravel()
        cur2 = np.asarray(Z2, dtype=complex).ravel()
        for c in reversed(self.chain):
            cur1, cur2 = (w.ravel() for w in c.forward_batch(cur1, cur2))
        return cur1.reshape(shape + (self.d1,)), cur2.reshape(shape + (self.d1,))

    # -- membership ---------------------------------------------------------

    def graph_residual(self, z: SpherePoint, w: SpherePoint) -> float:
        """Least scaled residual of (z, w) against the graph's components.  For a
        chain the first factor's components are paired with every witness u, the
        raw forward_batch row of z under the factors after the first; a NaN in
        that row raises FiberDegenerate, as forward does."""
        head, u = self, z.projective()
        if not self.is_direct:
            head = self.chain[0]
            u = Correspondence(chain=self.chain[1:]).forward_batch(*(np.array([c]) for c in u))
            if np.isnan(u[0]).any():
                raise FiberDegenerate(f"a stage fiber on the way from {z} vanishes identically")
        return min(float(gp.residuals(*u, *w.projective()).min()) for gp, _ in head.components)


def is_on_graph(C: Correspondence, z: SpherePoint, w: SpherePoint, tol: float = 1e-8):
    """(membership, residual): True iff some component, at some witness of a
    chain, has scaled residual below tol."""
    res = C.graph_residual(z, w)
    return res < tol, res


def tree_size(roots: int, d: int, depth: int, budget: int) -> int:
    """Nodes at levels 0..depth of a tree with `roots` roots and d children per
    node, or budget + 1 once that passes the budget: a depth of 10^12 costs at
    most log2(budget) steps."""
    if d <= 1 or not roots:
        return min(roots * (depth + 1), budget + 1)
    level = total = roots
    for _ in range(depth):
        if total > budget:
            break
        level *= d
        total += level
    return min(total, budget + 1)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def deleted_covering(R: RationalMap) -> Correspondence:
    return Correspondence(components=((cov_graph(R), 1),))


def mobius_correspondence(M: MobiusMap) -> Correspondence:
    return Correspondence(components=((mobius_graph(M), 1),))


def identity_correspondence() -> Correspondence:
    return Correspondence(components=((identity_graph(), 1),))


def map_graph(R: RationalMap, backward: bool = False) -> Correspondence:
    """Graph-of-map correspondence of R.

    Forward orientation has bidegree (1 : deg R); the backward orientation
    (z related to the preimages of z under R) has bidegree (deg R : 1).
    """
    p, q, d = R.numerator, R.denominator, R.degree
    c = np.zeros((d + 1, 2), dtype=complex)
    c[: p.size, 0] = -p
    c[: q.size, 1] = q
    gp = GraphPolynomial(c)  # q(z) w - p(z)
    if backward:
        gp = gp.transpose()
    return Correspondence(components=((gp, 1),))


def compose(C1: Correspondence, C2: Correspondence) -> Correspondence:
    """Composition with C2 applied first: (C1 o C2)(z) = U_{w in C2(z)} C1(w)."""
    return Correspondence(chain=(C1, C2))


# ---------------------------------------------------------------------------
# resultant composition
# ---------------------------------------------------------------------------

#: a resultant graph may have at most DEGREE_BOUND^2 coefficients
DEGREE_BOUND = 16


def _resultants(a: np.ndarray, b: np.ndarray, da: int, db: int) -> np.ndarray:
    """Res(a, b) of every broadcast pair of ascending coefficient rows of
    nominal degrees da, db: one Sylvester matrix per pair, one batched det."""
    n = da + db
    S = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n, n), dtype=complex)
    for r in range(db):
        S[..., r, r : r + da + 1] = a[..., ::-1]
    for r in range(da):
        S[..., db + r, r : r + db + 1] = b[..., ::-1]
    return np.linalg.det(S)


def _resultant_nodes(nn: int) -> np.ndarray:
    # roots of unity rotated off the real axis for determinism and to dodge
    # special points of the test families
    k = np.arange(nn)
    return np.exp(2j * np.pi * k / nn) * np.exp(0.37j)


def compose_graph_poly(C1: Correspondence, C2: Correspondence) -> GraphPolynomial:
    """Explicit graph polynomial of C1 o C2 (C2 first) via a resultant.

    Res_u(B2(z, u), B1(u, w)) is computed on a tensor grid of rotated roots
    of unity and interpolated back to a dense coefficient matrix.
    """
    B1 = C1.single_graph()
    B2 = C2.single_graph()
    du2, du1 = B2.deg_w, B1.deg_z
    dz = B2.deg_z * du1
    dw = B1.deg_w * du2
    if (dz + 1) * (dw + 1) > DEGREE_BOUND * DEGREE_BOUND:
        raise DegreeBoundExceeded(
            f"product bidegree ({dz}, {dw}) exceeds bound {DEGREE_BOUND}"
        )
    zs = _resultant_nodes(dz + 1)
    ws = _resultant_nodes(dw + 1) * np.exp(0.11j)
    a_all = np.vander(zs, B2.deg_z + 1, increasing=True) @ B2.coeffs  # B2(z_k, u) in u
    b_all = np.vander(ws, B1.deg_w + 1, increasing=True) @ B1.coeffs.T  # B1(u, w_l) in u
    V = _resultants(a_all[:, None], b_all[None], du2, du1)
    # no conditioning check: on these nodes each Vandermonde matrix is sqrt(N) times unitary
    Cz = np.linalg.solve(np.vander(zs, dz + 1, increasing=True), V)
    coeffs = np.linalg.solve(np.vander(ws, dw + 1, increasing=True), Cz.T).T
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise DiscriminantDegenerate("resultant vanished identically")
    coeffs[np.abs(coeffs) < 1e-10 * scale] = 0
    return GraphPolynomial(coeffs)


# ---------------------------------------------------------------------------
# ramification
# ---------------------------------------------------------------------------

def _branch_base_candidates(gp: GraphPolynomial) -> list[SpherePoint]:
    """z-values where the w-fiber of gp may contain a multiple point.

    Zeros of Res_w(B, dB/dw)(z) computed by node evaluation/interpolation,
    plus infinity, which is checked directly by the caller.
    """
    m, n = gp.deg_z, gp.deg_w
    if n < 2:
        return [INF]
    dcoeffs = gp.coeffs[:, 1:] * np.arange(1, n + 1)
    deg = m * (n - 1) + m * n  # generous bound on deg_z of the resultant
    zs = _resultant_nodes(deg + 1)
    pow_z = np.vander(zs, m + 1, increasing=True)
    vals = _resultants(pow_z @ gp.coeffs, pow_z @ dcoeffs, n, n - 1)
    scale = np.max(np.abs(vals))
    if scale == 0:
        raise DiscriminantDegenerate("w-discriminant vanishes identically")
    coeffs = np.linalg.solve(np.vander(zs, deg + 1, increasing=True), vals)
    # leading coefficients at or below 1e-9 of the largest are dropped
    degree = np.flatnonzero(~(np.abs(coeffs) <= 1e-9 * np.max(np.abs(coeffs))))[-1]
    cands: list[SpherePoint] = [INF]
    if degree >= 1:
        cands += [r for r, _ in roots_with_clusters(coeffs[: degree + 1], cluster_radius=1e-5)]
    return cands


def _polish_branch_pairs(gp: GraphPolynomial, u, rec_z, v, rec_w):
    """Newton refinement of start pairs on the system B = dB/dw = 0.

    (u, rec_z) and (v, rec_w) are the starts' chart coordinates; each runs on
    the coefficients flipped into its own charts, so pairs at or near infinity
    converge too.  Returns the polished coordinates and a mask of convergence.
    """
    m, n = gp.deg_z, gp.deg_w
    flips = np.array([[gp.coeffs, gp.coeffs[:, ::-1]], [gp.coeffs[::-1], gp.coeffs[::-1, ::-1]]])
    c = flips[rec_z.astype(int), rec_w.astype(int)]  # (starts, m + 1, n + 1)
    cz = c[:, 1:, :] * np.arange(1, m + 1)[:, None]
    cw = c[:, :, 1:] * np.arange(1, n + 1)
    czw = cw[:, 1:, :] * np.arange(1, m + 1)[:, None]
    cww = cw[:, :, 1:] * np.arange(1, n)

    def value(coeffs):  # sum of coeffs[k, i, j] u_k^i v_k^j over i, j
        U = u[:, None] ** np.arange(coeffs.shape[1])
        V = v[:, None] ** np.arange(coeffs.shape[2])
        return np.einsum("ki,kij,kj->k", U, coeffs, V)

    scale = gp.scale
    live, ok = np.ones((2,) + u.shape, dtype=bool)  # still iterating, not escaped
    for _ in range(25):
        f1, f2, j11, j21, j22 = (value(k) for k in (c, cw, cz, czw, cww))
        det = j11 * j22 - f2 * j21
        live &= ~(np.abs(det) < 1e-14 * scale * scale)
        if not live.any():
            break
        with np.errstate(all="ignore"):  # rows that stopped may divide by zero
            du = np.where(live, (f1 * j22 - f2 * f2) / det, 0)
            dv = np.where(live, (j11 * f2 - j21 * f1) / det, 0)
        u, v = u - du, v - dv
        escaped = live & ((np.abs(u) > 3) | (np.abs(v) > 3))
        ok &= ~escaped
        live &= ~escaped & ~(np.abs(du) + np.abs(dv) < 1e-15 * (1 + np.abs(u) + np.abs(v)))
    ok &= (np.abs(value(c)) <= 1e-9 * scale) & (np.abs(value(cw)) <= 1e-8 * scale)
    return u, v, ok


def _confirmed_pairs(gp: GraphPolynomial):
    """A1-type pairs (z0, w0): w0 a multiple point of the fiber over z0.

    Candidates come from the discriminant, their fibers from one fiber_batch
    call grouped within 1e-5 by sphere.fiber_groups (a dead row is skipped).
    They are approximate, so one Newton on (B, dB/dw) polishes each multiple
    point (kept as found if it fails) and the chart midpoint of each
    near-double pair (dropped if it fails).
    """
    candidates = _branch_base_candidates(gp)
    bases = [candidates[g[0]] for g in greedy_groups(candidates, 1e-9)]
    W1, W2 = gp.fiber_batch(*chart_pairs(*point_charts(bases)))
    starts = []  # (z0, w0, multiplicity, kept when Newton fails)
    for z0, row1, row2 in zip(bases, W1, W2):
        if np.isnan(row1).any():
            continue
        fib = fiber_groups(row1, row2, 1e-5)
        for idx, (w0, mult) in enumerate(fib):
            if mult >= 2:
                starts.append((z0, w0, mult, True))
                continue
            # near-double split by candidate error: polish from the midpoint
            for q, mq in fib[idx + 1 :]:
                if mq == 1 and chordal_distance(w0, q) < 5e-3:
                    mid = SpherePoint((w0.value + q.value) / 2.0, w0.chart) if w0.chart == q.chart else w0
                    starts.append((z0, mid, 2, False))
    (u, rz), (v, rw) = point_charts(s[0] for s in starts), point_charts(s[1] for s in starts)
    u, v, ok = _polish_branch_pairs(gp, u, rz, v, rw)
    (z1, z2), (w1, w2) = chart_pairs(u, rz), chart_pairs(v, rw)  # Newton may leave the disk
    found = []
    for k, (z0, w0, mult, keep) in enumerate(starts):
        if ok[k]:
            pair = SpherePoint.from_projective(z1[k], z2[k]), SpherePoint.from_projective(w1[k], w2[k])
            found.append((pair, mult))
        elif keep:
            found.append(((z0, w0), mult))
    # one pair per group of pairs within 1e-7 in both coordinates
    groups = greedy_groups([pair for pair, _ in found], 1e-7, _pair_distance)
    return [found[g[0]] for g in groups]


def _pair_distance(p, q) -> float:
    return max(chordal_distance(p[0], q[0]), chordal_distance(p[1], q[1]))


def ramification_pairs(C: Correspondence, side: int):
    """Ramification pairs on the graph.

    side=1: pairs where the first projection is locally non-injective (the
    ramification points of the inverse); side=2: of the correspondence
    itself.  Chained correspondences are first flattened to an explicit
    graph polynomial through resultants (at most DEGREE_BOUND^2 coefficients).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    gps = _flatten_components(C)
    out = []
    for gp in gps:
        work = gp if side == 1 else gp.transpose()
        for (z0, w0), mult in _confirmed_pairs(work):
            pair = (z0, w0) if side == 1 else (w0, z0)
            out.append((pair, mult))
    return out


def _flatten_components(C: Correspondence) -> list[GraphPolynomial]:
    if C.is_direct:
        return [gp for gp, _ in C.components]
    acc = C.chain[-1]
    for nxt in reversed(C.chain[:-1]):
        acc = Correspondence(components=((compose_graph_poly(nxt, acc), 1),))
    return [acc.single_graph()]


def ramification_points(C: Correspondence):
    """Pairs (z, w) on the graph where the correspondence is ramified (A2)."""
    return [pair for pair, _ in ramification_pairs(C, side=2)]


def critical_values(C: Correspondence, side: int):
    """Critical values: side=1 those of the inverse (pi_1 of A1), side=2 of
    the correspondence (pi_2 of A2).  Returns [(SpherePoint, count)]."""
    pairs = ramification_pairs(C, side=side)
    values = [z0 if side == 1 else w0 for (z0, w0), _ in pairs]
    return [(values[g[0]], len(g)) for g in greedy_groups(values, 1e-7)]
