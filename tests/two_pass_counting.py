"""Reference two-pass separated counting, kept as the oracle for corrdyn.entropy.

One propagation and one greedy sweep per convention: KT propagates pairs
strictly closer than eps at every level, DS pairs within eps (<= eps) whose
component labels agree at every level.  `_greedy_count` decides one head at
a time with a numpy `any` over its lower neighbours.
"""

from __future__ import annotations

import numpy as np


def close_seed_pairs(xyz, valid, eps, strict):
    """All pairs (i < j) of seeds with distance < eps (<= eps if not strict)."""
    n = xyz.shape[0]
    out_i, out_j = [], []
    block = 1024
    e2 = eps * eps
    for s in range(0, n, block):
        d2 = ((xyz[s : s + block, None, :] - xyz[None, :, :]) ** 2).sum(-1)
        close = (d2 < e2) if strict else (d2 <= e2)
        ii, jj = np.nonzero(close)
        ii = ii + s
        keep = (ii < jj) & valid[ii] & valid[jj]
        out_i.append(ii[keep])
        out_j.append(jj[keep])
    return np.concatenate(out_i), np.concatenate(out_j)


def propagate_pairs(tree, eps, strict, use_labels, pair_budget):
    """Yield per level the pair lists (i < j) of everywhere-close orbits."""
    lvl0 = tree.level(0)
    pi, pj = close_seed_pairs(lvl0["xyz"], lvl0["valid"], eps, strict)
    yield 0, pi, pj, False
    d1 = tree.d1
    e2 = eps * eps
    for ell in range(1, tree.n_levels + 1):
        lvl = tree.level(ell)
        xyz, valid, label = lvl["xyz"], lvl["valid"], lvl["label"]
        cand_i = []
        cand_j = []
        if pi.size:
            u = np.arange(d1)
            shape = (pi.size, d1, d1)
            ci = np.broadcast_to(pi[:, None, None] * d1 + u[None, :, None], shape)
            cj = np.broadcast_to(pj[:, None, None] * d1 + u[None, None, :], shape)
            cand_i.append(ci.reshape(-1))
            cand_j.append(cj.reshape(-1))
        parents = np.nonzero(tree.level(ell - 1)["valid"])[0]
        if parents.size and d1 > 1:
            combos = [(a, b) for b in range(d1) for a in range(b)]
            cand_i.append(np.concatenate([parents * d1 + a for a, b in combos]))
            cand_j.append(np.concatenate([parents * d1 + b for a, b in combos]))
        if cand_i:
            ci = np.concatenate(cand_i)
            cj = np.concatenate(cand_j)
            if ci.size > pair_budget:
                yield ell, None, None, True
                return
            ok = valid[ci] & valid[cj]
            ci, cj = ci[ok], cj[ok]
            d2 = ((xyz[ci] - xyz[cj]) ** 2).sum(-1)
            keep = (d2 < e2) if strict else (d2 <= e2)
            if use_labels:
                keep &= label[ci] == label[cj]
            pi, pj = ci[keep], cj[keep]
        else:
            pi = np.zeros(0, dtype=np.int64)
            pj = np.zeros(0, dtype=np.int64)
        yield ell, pi, pj, False


def greedy_count(valid, pi, pj):
    """Greedy maximal independent count in slot order on the close graph."""
    kept = valid.copy()
    if pi.size == 0:
        return int(kept.sum())
    order = np.lexsort((pi, pj))
    pi, pj = pi[order], pj[order]
    uniq = np.unique(pj)
    starts = np.searchsorted(pj, uniq, side="left")
    ends = np.searchsorted(pj, uniq, side="right")
    for j, s, e in zip(uniq, starts, ends):
        if kept[j] and kept[pi[s:e]].any():
            kept[j] = False
    return int(kept.sum())


def two_pass_counts(tree, eps, pair_budget, n_min=1):
    """Per convention: {level: count} over levels >= n_min, and the depth the
    pair budget cut it at (None when it ran to the bottom of the tree)."""
    out = {}
    for name, strict, labels in (("KT", True, False), ("DS", False, True)):
        counts, stop = {}, None
        for ell, pi, pj, truncated in propagate_pairs(tree, eps, strict, labels, pair_budget):
            if truncated:
                stop = ell
                break
            if ell >= max(1, n_min):
                counts[ell] = greedy_count(tree.level(ell)["valid"], pi, pj)
        out[name] = (counts, stop)
    return out
