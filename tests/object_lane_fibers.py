"""Test oracle: per-point fibers solved component by component.

This is the fiber construction that Correspondence.forward used before it
became one row of forward_batch.  Every direct component is solved by the
eigenvalue fiber (`fiber`: GraphPolynomial.fiber before it became a row of
fiber_batch), a chain is walked recursively one point at a time, and the
points of each step are merged within MERGE_TOL chordal, in sort_key order,
with their multiplicities added.

The eigenvalue fiber solves its w-polynomial by `solve`, the one-polynomial
solve that roots.roots_with_clusters was before it became a batch row grouped
by sphere.fiber_groups: the live part of the projective_roots_batch row, two
more plane Newton sweeps, (re, im) order, greedy chordal groups within
cluster_radius at the plane mean, and the degree drop last as (inf, drop).
"""

import numpy as np

from corrdyn.correspondence import Correspondence, FiberResult
from corrdyn.errors import FiberDegenerate
from corrdyn.graphpoly import GraphPolynomial
from corrdyn.roots import DROP_TOL, projective_roots_batch
from corrdyn.sphere import SpherePoint, chordal_distance, greedy_groups

MERGE_TOL = 1e-9


def _polish(coeffs: np.ndarray, roots: np.ndarray, sweeps: int = 2) -> np.ndarray:
    dp = (np.arange(1, coeffs.size) * coeffs[1:])[::-1]
    p = coeffs[::-1]
    z = roots.copy()
    for _ in range(sweeps):
        pv = np.polyval(p, z)
        dv = np.polyval(dp, z)
        with np.errstate(all="ignore"):
            step = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
        step = np.where(np.abs(step) < 1.0, step, 0.0)  # reject wild Newton steps
        z = z - step
    return z


def _chordal_from_complex(z: complex, w: complex) -> float:
    return chordal_distance(SpherePoint.from_complex(z), SpherePoint.from_complex(w))


def solve(coefficients, cluster_radius: float = 1e-6) -> list[tuple[complex, int]]:
    """All roots of nonzero finite ascending coefficients, as (plane centroid,
    multiplicity), with a degree drop last as (inf, drop)."""
    coeffs = np.asarray(coefficients, dtype=complex)
    coeffs = coeffs / np.max(np.abs(coeffs))
    k = int(np.nonzero(np.abs(coeffs) > DROP_TOL)[0][-1])  # degree after the drop
    W1, W2 = projective_roots_batch(coeffs[None, : k + 1])
    raw = _polish(coeffs[: k + 1], W1[0] / W2[0])
    raw = raw[np.lexsort((raw.imag, raw.real))]
    out = []
    for group in greedy_groups(raw, cluster_radius, _chordal_from_complex):
        cl = raw[group]
        out.append((complex(np.mean(cl)) if len(cl) > 1 else complex(cl[0]), len(cl)))
    if k < coeffs.size - 1:
        out.append((complex(np.inf), coeffs.size - 1 - k))
    return out


def fiber(gp: GraphPolynomial, p: SpherePoint, cluster_radius: float = 1e-6):
    """w-roots over p with multiplicity, solved by `solve` on the specialized
    w-coefficients; degree drops become roots at inf."""
    z1, z2 = p.projective()
    cw = gp._w_coefficients(np.asarray(z1), np.asarray(z2))
    if not np.any(cw):
        raise FiberDegenerate(f"graph polynomial vanishes identically over {p}")
    return [(SpherePoint.from_complex(r), m) for r, m in solve(cw, cluster_radius)]


def _merge_weighted(items: list[tuple[SpherePoint, int]]) -> FiberResult:
    """Merge points within MERGE_TOL chordal; multiplicities add."""
    items = sorted(items, key=lambda t: t[0].sort_key())
    groups = greedy_groups([p for p, _ in items], MERGE_TOL)
    return FiberResult(tuple((items[g[0]][0], sum(items[i][1] for i in g)) for g in groups))


def forward(C: Correspondence, z: SpherePoint, cluster_radius: float = 1e-6) -> FiberResult:
    """Multivalued image of z, total multiplicity d1 at generic points."""
    if C.is_direct:
        return _merge_weighted(
            [(w, n * m) for gp, n in C.components for w, m in fiber(gp, z, cluster_radius)]
        )
    frontier = [(z, 1)]
    for c in reversed(C.chain):
        frontier = [
            (w, mult * m) for p, mult in frontier for w, m in forward(c, p, cluster_radius).points
        ]
    return _merge_weighted(frontier)


def backward(C: Correspondence, w: SpherePoint, cluster_radius: float = 1e-6) -> FiberResult:
    """Multivalued preimage of w, total multiplicity d2 generically."""
    return forward(C.transpose(), w, cluster_radius)
