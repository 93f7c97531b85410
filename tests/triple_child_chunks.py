"""The next level's child chunks read from kept (pi, pj, bits) triples, kept as
the bit-for-bit oracle for corrdyn.entropy._child_chunks, which reads each kept
chunk from its tail runs instead.

This is the generator as it stood while a kept chunk held its tails pair by
pair; it reads the module's _BLOCK and builds each chunk with its
_close_children, so both see the same chunk size and kernel.
"""

from __future__ import annotations

import numpy as np

import corrdyn.entropy as entropy


def child_chunks(lvl, d1: int, e2: float, keep: list, parents: np.ndarray, live: int):
    """entropy._child_chunks with each kept chunk a (pi, pj, bits) triple."""
    step = max(1, entropy._BLOCK // (d1 * d1))
    keep.reverse()  # popped from the end, in tail order
    held = parents[:0], parents[:0], np.zeros(0, np.uint8)  # rows past the last cut
    if not keep:
        keep.append(held)
    s, built = 0, False
    while keep:
        pi, pj, bits = keep.pop()
        e = np.searchsorted(parents, keep[-1][0][0]) if keep else parents.size
        bits = bits & live
        nz = bits != 0
        if not nz.all():
            pi, pj, bits = pi[nz], pj[nz], bits[nz]
        pi, pj, bits = (np.concatenate(pair) for pair in zip(held, (pi, pj, bits)))
        at = np.searchsorted(pi, parents[s:e])
        pi, pj, bits = (np.insert(pi, at, parents[s:e]), np.insert(pj, at, parents[s:e]),
                        np.insert(bits, at, np.uint8(live)))
        s, c = e, 0
        while c + step < pi.size:  # end the chunk on a run of equal tails
            e = np.searchsorted(pi, pi[c + step])
            if e <= c:
                e = np.searchsorted(pi, pi[c], side="right")
            yield entropy._close_children(lvl, d1, e2, pi[c:e], pj[c:e], bits[c:e])
            built, c = True, e
        held = pi[c:], pj[c:], bits[c:]
    if held[0].size:
        yield entropy._close_children(lvl, d1, e2, *held)
    elif not built:
        yield held
