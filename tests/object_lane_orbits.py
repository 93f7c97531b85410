"""Reference per-point orbit enumeration and separated counting, kept as the
oracle for corrdyn.entropy.

Orbits are built one point at a time from `Correspondence.forward`, children
closer than 1e-7 chordal collapsed and sorted by `sort_key`; each step's label
is the component whose graph residual is smallest.  The counts are greedy
insertions in lexicographic coordinate order: KT keeps an orbit when some
point is at distance >= eps from every kept orbit, DS groups the orbits by
label sequence and keeps one when some point is at distance > eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from api_helpers import point_residual
from corrdyn.correspondence import Correspondence
from corrdyn.entropy import DEDUP_TOL
from corrdyn.errors import BudgetExceeded
from corrdyn.sphere import SpherePoint, chordal_distance


class MissingLabels(ValueError):
    """Labeled separation counting received unlabeled orbits."""


@dataclass(frozen=True)
class OrbitTuple:
    """An orbit (x_0, ..., x_n) with optional per-step component labels."""

    points: tuple  # tuple[SpherePoint, ...]
    labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.points) - 1:
                raise ValueError("labels must have one entry per step")

    def sort_key(self):
        return tuple(p.sort_key() for p in self.points)


def enumerate_orbits(
    C: Correspondence, seeds, n: int, budget: int = 2 ** 20
) -> list[OrbitTuple]:
    """All forward n-step orbit tuples from the seeds, multiplicity collapsed."""
    seeds = sorted(seeds, key=lambda p: p.sort_key())
    if len(seeds) * max(1, C.d1) ** n > budget:
        raise BudgetExceeded(f"{len(seeds)} seeds at depth {n} exceed budget {budget}")
    orbits: list[OrbitTuple] = []
    for seed in seeds:
        stack = [((seed,), ())]
        for _ in range(n):
            nxt = []
            for path, labs in stack:
                fib = C.forward(path[-1])
                children = []
                for q, _m in fib.points:
                    if any(chordal_distance(q, c) <= DEDUP_TOL for c, _ in children):
                        continue
                    children.append((q, _component_of(C, path[-1], q)))
                children.sort(key=lambda t: t[0].sort_key())
                for q, lab in children:
                    nxt.append((path + (q,), labs + (lab,)))
            stack = nxt
        orbits.extend(OrbitTuple(path, labs) for path, labs in stack)
    return orbits


def _component_of(C: Correspondence, z: SpherePoint, w: SpherePoint) -> int:
    if not C.is_direct:
        return 0
    best, best_res = 0, math.inf
    for idx, (gp, _n) in enumerate(C.components):
        r = point_residual(gp, z, w)
        if r < best_res:
            best, best_res = idx, r
    return best


def _separated_strict(a: OrbitTuple, b: OrbitTuple, eps: float) -> bool:
    return any(chordal_distance(p, q) > eps for p, q in zip(a.points, b.points))


def _separated_weak(a: OrbitTuple, b: OrbitTuple, eps: float) -> bool:
    return any(chordal_distance(p, q) >= eps for p, q in zip(a.points, b.points))


def separated_count_KT(orbits, eps: float) -> int:
    """Greedy maximal count of point-separated orbits (some dist >= eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    kept: list[OrbitTuple] = []
    for o in sorted(orbits, key=lambda t: t.sort_key()):
        if all(_separated_weak(o, k, eps) for k in kept):
            kept.append(o)
    return len(kept)


def separated_count_DS(orbits, eps: float) -> int:
    """Greedy maximal count where label mismatches also separate (dist > eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    orbits = list(orbits)
    if any(o.labels is None for o in orbits):
        raise MissingLabels("labeled separation needs labels on every orbit")
    groups: dict = {}
    for o in sorted(orbits, key=lambda t: t.sort_key()):
        groups.setdefault(o.labels, []).append(o)
    total = 0
    for labs in sorted(groups):
        kept: list[OrbitTuple] = []
        for o in groups[labs]:
            if all(_separated_strict(o, k, eps) for k in kept):
                kept.append(o)
        total += len(kept)
    return total
