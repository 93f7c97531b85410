"""Test oracle: pullback clouds built one SpherePoint per atom.

This is the cloud construction that corrdyn.measures used before clouds were
held as chart arrays: every atom is made by SpherePoint.from_projective,
embedded by SpherePoint.embed_r3, and merged by the two-branch rule (exact
pairwise chordal distances for at most 64 atoms, a quantized embedding grid
above that).  Clouds are lists of (SpherePoint, weight) pairs, and `to_csv`
writes them exactly as WeightedCloud.to_csv did.
"""

import csv
import io

import numpy as np

from corrdyn.errors import FiberDegenerate
from corrdyn.measures import ATOM_MERGE_TOL
from corrdyn.sphere import SpherePoint, chordal_distance


def merge_atoms(items):
    """Sum weights of atoms within ATOM_MERGE_TOL, in sort_key order."""
    xyz = np.array([p.embed_r3() for p, _ in items], dtype=float).reshape(-1, 3)
    order = np.lexsort(xyz.T[::-1])
    items = [items[i] for i in order]
    if len(items) <= 64:
        merged = []
        for p, w in items:
            for slot in merged:
                if chordal_distance(p, slot[0]) <= ATOM_MERGE_TOL:
                    slot[1] += w
                    break
            else:
                merged.append([p, w])
        return [(p, w) for p, w in merged]
    weights = np.array([w for _, w in items], dtype=float)
    keys = np.round(xyz[order] / ATOM_MERGE_TOL).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    n_groups = int(inverse.max()) + 1
    sums = np.zeros(n_groups)
    np.add.at(sums, inverse, weights)
    first = np.full(n_groups, len(items), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(items)))
    groups = np.argsort(first)
    return [(items[f][0], float(w)) for f, w in zip(first[groups], sums[groups])]


def to_csv(atoms) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["re", "im", "chart", "weight"])
    for p, wt in atoms:
        w.writerow(
            [repr(float(p.value.real)), repr(float(p.value.imag)), p.chart, repr(float(wt))]
        )
    return buf.getvalue()


def _pairs_to_atoms(z1, z2, weight):
    return merge_atoms([(SpherePoint.from_projective(p, q), weight) for p, q in zip(z1, z2)])


def tree_levels(C, z0, ns):
    """{n: atoms} of the full preimage tree of z0 at the generations ns."""
    out = {0: [(z0, 1.0)]} if 0 in ns else {}
    CT = C.transpose()
    a, b = z0.projective()
    z1, z2 = np.array([a], dtype=complex), np.array([b], dtype=complex)
    for step in range(1, max(ns) + 1):
        W1, W2 = CT.forward_batch(z1, z2)
        if np.any(np.isnan(W1)):
            raise FiberDegenerate(f"degenerate fiber at level {step - 1}")
        z1, z2 = W1.ravel(), W2.ravel()
        if step in ns:
            out[step] = _pairs_to_atoms(z1, z2, 1.0 / z1.size)
    return out


def monte_carlo(C, z0, n, n_paths, rng_seed):
    """Atoms of n_paths backward random walks, keyed by (rng_seed, path)."""
    if n == 0:
        return [(z0, 1.0)]
    CT = C.transpose()
    choices = np.empty((n_paths, n), dtype=np.int64)
    for k in range(n_paths):
        g = np.random.Generator(np.random.Philox(key=(rng_seed, k)))
        choices[k] = g.integers(0, C.d2, size=n)
    z1 = np.full(n_paths, complex(z0.projective()[0]), dtype=complex)
    z2 = np.full(n_paths, complex(z0.projective()[1]), dtype=complex)
    rows = np.arange(n_paths)
    for step in range(n):
        W1, W2 = CT.forward_batch(z1, z2)
        pick = choices[:, step]
        z1, z2 = W1[rows, pick], W2[rows, pick]
    return _pairs_to_atoms(z1, z2, 1.0 / n_paths)


def per_point_pullback(C, z0, n):
    """Merged backward fibers from Correspondence.forward, weight = multiplicity share."""
    CT = C.transpose()
    level = [(z0, 1.0)]
    for _ in range(n):
        level = merge_atoms([(q, mult * m) for p, mult in level for q, m in CT.forward(p)])
    total = sum(m for _, m in level)
    return [(p, m / total) for p, m in level]
