"""Test oracle: per-point fibers solved component by component.

This is the fiber construction that Correspondence.forward used before it
became one row of forward_batch.  Every direct component is solved by the
eigenvalue fiber (`fiber`: GraphPolynomial.fiber before it became a row of
fiber_batch; companion eigenvalues, Newton polish and clustering within
cluster_radius at the plane mean), a chain is walked recursively one point
at a time, and the points of each step are merged within MERGE_TOL chordal,
in sort_key order, with their multiplicities added and their worst residual
kept.
"""

import numpy as np

from corrdyn.correspondence import Correspondence, FiberResult
from corrdyn.errors import FiberDegenerate
from corrdyn.graphpoly import GraphPolynomial
from corrdyn.roots import roots_with_clusters
from corrdyn.sphere import SpherePoint, greedy_groups

MERGE_TOL = 1e-9


def fiber(gp: GraphPolynomial, p: SpherePoint, cluster_radius: float = 1e-6):
    """w-roots over p with multiplicity, solved by roots_with_clusters on the
    specialized w-coefficients; degree drops become roots at inf."""
    z1, z2 = p.projective()
    cw = gp._w_coefficients(np.asarray(z1), np.asarray(z2))
    if not np.any(cw):
        raise FiberDegenerate(f"graph polynomial vanishes identically over {p}")
    return [(SpherePoint.from_complex(r), m) for r, m in roots_with_clusters(cw, cluster_radius)]


def _merge_weighted(items: list[tuple[SpherePoint, int, float]]) -> FiberResult:
    """Merge points within MERGE_TOL chordal; multiplicities add."""
    items = sorted(items, key=lambda t: t[0].sort_key())
    groups = greedy_groups([p for p, _, _ in items], MERGE_TOL)
    return FiberResult(
        tuple((items[g[0]][0], sum(items[i][1] for i in g)) for g in groups),
        tuple(max(items[i][2] for i in g) for g in groups),
    )


def forward(C: Correspondence, z: SpherePoint, cluster_radius: float = 1e-6) -> FiberResult:
    """Multivalued image of z, total multiplicity d1 at generic points."""
    if C.is_direct:
        items = []
        for gp, n in C.components:
            for w, m in fiber(gp, z, cluster_radius):
                items.append((w, n * m, gp.residual(z, w)))
        return _merge_weighted(items)
    frontier = [(z, 1, 0.0)]
    for c in reversed(C.chain):
        nxt = []
        for p, mult, res in frontier:
            fr = forward(c, p, cluster_radius)
            for (w, m), r in zip(fr.points, fr.residuals):
                nxt.append((w, mult * m, max(res, r)))
        frontier = nxt
    return _merge_weighted(frontier)


def backward(C: Correspondence, w: SpherePoint, cluster_radius: float = 1e-6) -> FiberResult:
    """Multivalued preimage of w, total multiplicity d2 generically."""
    return forward(C.transpose(), w, cluster_radius)
