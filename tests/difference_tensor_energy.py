"""Reference energy distance, kept as the oracle for corrdyn.measures.energy_distance.

Atoms are sorted by `SpherePoint.sort_key` in Python and reduced to one
representative per stratum of equal cumulative mass with a per-block `max`.
Each block of 2048 rows builds the (rows, N, 3) difference tensor and sums
its squares along the last axis.
"""

from __future__ import annotations

import numpy as np


def stratified_subsample(cloud, max_atoms):
    """(N, 3) embeddings and normalized weights after stratified reduction."""
    atoms = sorted(cloud.atoms, key=lambda t: t[0].sort_key())
    if len(atoms) <= max_atoms:
        pts = np.array([p.embed_r3() for p, _ in atoms])
        wts = np.array([w for _, w in atoms])
        return pts, wts / wts.sum()
    weights = np.array([w for _, w in atoms])
    cum = np.cumsum(weights) / weights.sum()
    edges = np.linspace(0, 1, max_atoms + 1)
    idx = np.searchsorted(cum, edges[1:-1], side="left")
    starts = np.concatenate([[0], idx])
    ends = np.concatenate([idx, [len(atoms)]])
    pts, wts = [], []
    for s, e in zip(starts, ends):
        if e <= s:
            continue
        block = range(s, e)
        rep = max(block, key=lambda i: (weights[i], -i))
        pts.append(atoms[rep][0].embed_r3())
        wts.append(weights[s:e].sum())
    pts = np.array(pts)
    wts = np.array(wts)
    return pts, wts / wts.sum()


def avg_dist(a, wa, b, wb):
    """Weighted mean chordal distance between the rows of a and of b."""
    total = 0.0
    step = 2048
    for i in range(0, a.shape[0], step):
        d = np.sqrt(
            np.maximum(
                0.0,
                ((a[i : i + step, None, :] - b[None, :, :]) ** 2).sum(-1),
            )
        )
        total += float(wa[i : i + step] @ d @ wb)
    return total


def energy_distance(c1, c2, max_atoms=4096):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| over the stratified subsamples."""
    x, wx = stratified_subsample(c1, max_atoms)
    y, wy = stratified_subsample(c2, max_atoms)
    exy = avg_dist(x, wx, y, wy)
    exx = avg_dist(x, wx, x, wx)
    eyy = avg_dist(y, wy, y, wy)
    return 2.0 * exy - exx - eyy
