"""Per-node resultant loops, kept as the bit-for-bit oracle for correspondence._resultants.

The evaluation as it stood before it was batched: one Sylvester matrix built
per node, filled row by row, and one np.linalg.det each, over the tensor grid
of compose_graph_poly (grid) and along the nodes of the branch-base
discriminant (paired).  _resultants must return the same float64 bits.
"""

from __future__ import annotations

import numpy as np


def sylvester(a: np.ndarray, b: np.ndarray, da: int, db: int) -> np.ndarray:
    """Sylvester matrix for polynomials of nominal degrees da, db (ascending)."""
    n = da + db
    S = np.zeros((n, n), dtype=complex)
    for r in range(db):
        S[r, r : r + da + 1] = a[::-1]
    for r in range(da):
        S[db + r, r : r + db + 1] = b[::-1]
    return S


def grid(a_all: np.ndarray, b_all: np.ndarray, da: int, db: int) -> np.ndarray:
    """Res(a_all[k], b_all[l]) for every row k of a_all and l of b_all."""
    V = np.zeros((len(a_all), len(b_all)), dtype=complex)
    for k in range(len(a_all)):
        for l in range(len(b_all)):
            V[k, l] = np.linalg.det(sylvester(a_all[k], b_all[l], da, db))
    return V


def paired(a_all: np.ndarray, b_all: np.ndarray, da: int, db: int) -> np.ndarray:
    """Res(a_all[k], b_all[k]) for every row k."""
    return np.array([np.linalg.det(sylvester(a, b, da, db)) for a, b in zip(a_all, b_all)])
