"""Reference child order of corrdyn.entropy's level trees, kept as the oracle
for its np.lexsort order: an odd-even transposition network of strict
lexicographic compare-swaps, so equal keys keep their slot order."""

from __future__ import annotations

import numpy as np


def _lex_less(x1, x2):
    """Vectorized lexicographic compare of (N, 3) coordinate blocks."""
    a, b, c = x1[..., 0], x1[..., 1], x1[..., 2]
    d, e, f = x2[..., 0], x2[..., 1], x2[..., 2]
    return (a < d) | ((a == d) & ((b < e) | ((b == e) & (c < f))))


def _transposition_pairs(k: int):
    """Odd-even transposition network on k slots: k rounds of adjacent compare-swaps."""
    return [(i, i + 1) for r in range(k) for i in range(r % 2, k - 1, 2)]


def child_order(xyz: np.ndarray) -> np.ndarray:
    """(n, d1) slot indices that sort each row of xyz (n, d1, 3) lexicographically."""
    n, d1, _ = xyz.shape
    idx = np.tile(np.arange(d1), (n, 1))
    rows = np.arange(n)
    for a, b in _transposition_pairs(d1):
        swap = _lex_less(xyz[rows, idx[:, b]], xyz[rows, idx[:, a]])
        ia = idx[:, a].copy()
        idx[:, a] = np.where(swap, idx[:, b], idx[:, a])
        idx[:, b] = np.where(swap, ia, idx[:, b])
    return idx
