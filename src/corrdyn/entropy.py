"""Orbit-tree enumeration and separated counting for entropy estimation.

Orbits are enumerated as full forward trees from a seed net.  Separated
counting follows the greedy-insertion rule in the canonical order (orbits
sorted lexicographically by coordinates).  The fast lane exploits that two
orbit tuples can fail to separate only if their prefixes also fail: the set
of "everywhere-close" pairs is propagated level by level, and the greedy
sweep over that pair graph reproduces the sequential greedy result exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correspondence import Correspondence
from .errors import BudgetExceeded, MissingLabels
from .sphere import SpherePoint, chordal_distance, embed_projective, fibonacci_sphere_points

DEDUP_TOL = 1e-7  # collapse of merged-root children (multiplicity blind)


# ---------------------------------------------------------------------------
# object-lane orbit tuples
# ---------------------------------------------------------------------------

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
    """All forward n-step orbit tuples from the seeds, multiplicity collapsed.

    Children closer than 1e-7 chordal are enumerated once.  Raises
    BudgetExceeded (with partial results attached) when |seeds| d1^n exceeds
    the budget.
    """
    seeds = sorted(seeds, key=lambda p: p.sort_key())
    if len(seeds) * max(1, C.d1) ** n > budget:
        raise BudgetExceeded(
            f"{len(seeds)} seeds at depth {n} exceed budget {budget}", partial=[]
        )
    orbits: list[OrbitTuple] = []
    for seed in seeds:
        stack = [((seed,), ())]
        for _ in range(n):
            nxt = []
            for path, labs in stack:
                fib = C.forward(path[-1])
                children = []
                for idx, ((q, _m), _r) in enumerate(zip(fib.points, fib.residuals)):
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
        r = gp.residual(z, w)
        if r < best_res:
            best, best_res = idx, r
    return best


def _separated_strict(a: OrbitTuple, b: OrbitTuple, eps: float) -> bool:
    return any(chordal_distance(p, q) > eps for p, q in zip(a.points, b.points))


def _separated_weak(a: OrbitTuple, b: OrbitTuple, eps: float) -> bool:
    return any(chordal_distance(p, q) >= eps for p, q in zip(a.points, b.points))


def separated_count_KT(orbits, eps: float) -> int:
    """Greedy maximal count of point-separated orbits (some dist >= eps).

    Deterministic: orbits are processed in lexicographic coordinate order.
    A lower bound for the true maximum separated cardinality.
    """
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


def gromov_cap(C: Correspondence) -> float:
    """log max(d1, d2), the hard entropy cap for the correspondence graph."""
    return math.log(max(C.d1, C.d2))


# ---------------------------------------------------------------------------
# fast lane: fixed-width level tree
# ---------------------------------------------------------------------------

def _lex_less(x1, x2):
    """Vectorized lexicographic compare of (N,3) coordinate blocks."""
    a, b, c = x1[..., 0], x1[..., 1], x1[..., 2]
    d, e, f = x2[..., 0], x2[..., 1], x2[..., 2]
    return (a < d) | ((a == d) & ((b < e) | ((b == e) & (c < f))))


class _LevelTree:
    """Forward orbit tree with fixed child width per level.

    Level l holds n_seeds * d1^l slots; slot k has parent k // d1.  Children
    of each node are sorted lexicographically so slot order is the canonical
    lexicographic orbit order.  Invalid slots mark collapsed duplicates and
    degenerate fibers.
    """

    def __init__(self, C: Correspondence, seeds, n_levels: int):
        self.d1 = max(1, C.d1)
        xyz = np.array([p.embed_r3() for p in seeds])
        order = np.lexsort((xyz[:, 2], xyz[:, 1], xyz[:, 0]))
        seeds = [seeds[i] for i in order]
        z1 = np.array([p.projective()[0] for p in seeds], dtype=complex)
        z2 = np.array([p.projective()[1] for p in seeds], dtype=complex)
        self.levels = []
        lvl = {
            "z1": z1,
            "z2": z2,
            "xyz": embed_projective(z1, z2),
            "valid": np.ones(z1.size, dtype=bool),
            "label": np.zeros(z1.size, dtype=np.int16),
        }
        self.levels.append(lvl)
        self.node_count = z1.size
        for _ in range(n_levels):
            lvl = self._grow(C, lvl)
            self.levels.append(lvl)
            self.node_count += int(lvl["valid"].sum())

    def _grow(self, C: Correspondence, lvl):
        d1 = self.d1
        n = lvl["z1"].size
        W1 = np.zeros((n, d1), dtype=complex)
        W2 = np.ones((n, d1), dtype=complex)
        L = np.zeros((n, d1), dtype=np.int16)
        ok = lvl["valid"]
        if ok.any():
            w1, w2, lab = C.forward_batch(lvl["z1"][ok], lvl["z2"][ok])
            W1[ok], W2[ok], L[ok] = w1, w2, lab
        valid = np.repeat(ok[:, None], d1, axis=1)
        bad = ~np.isfinite(W1.real) | ~np.isfinite(W2.real)
        valid &= ~bad
        W1[bad], W2[bad] = 0.0, 1.0
        xyz = embed_projective(W1, W2)
        # sort the d1 children of each node lexicographically
        idx = np.tile(np.arange(d1), (n, 1))
        rows1 = np.arange(n)
        for a, b in _transposition_pairs(d1):
            xa, xb = xyz[rows1, idx[:, a]], xyz[rows1, idx[:, b]]
            swap = _lex_less(xb, xa)
            ia = idx[:, a].copy()
            idx[:, a] = np.where(swap, idx[:, b], idx[:, a])
            idx[:, b] = np.where(swap, ia, idx[:, b])
        rows = np.arange(n)[:, None]
        W1, W2 = W1[rows, idx], W2[rows, idx]
        L = L[rows, idx]
        valid = valid[rows, idx]
        xyz = np.take_along_axis(xyz, idx[..., None], axis=1)
        # collapse duplicate siblings (merged roots enumerated once)
        for a in range(1, d1):
            for b in range(a):
                same = (
                    valid[:, a]
                    & valid[:, b]
                    & (((xyz[:, a] - xyz[:, b]) ** 2).sum(-1) <= DEDUP_TOL ** 2)
                )
                valid[:, a] &= ~same
        return {
            "z1": W1.ravel(),
            "z2": W2.ravel(),
            "xyz": xyz.reshape(-1, 3),
            "valid": valid.ravel(),
            "label": L.ravel(),
        }


def _transposition_pairs(k: int):
    """Odd-even transposition network on k slots: k rounds of adjacent
    compare-swaps.  With a strict compare, equal keys keep slot order."""
    return [(i, i + 1) for r in range(k) for i in range(r % 2, k - 1, 2)]


def _close_seed_pairs(xyz: np.ndarray, valid: np.ndarray, eps: float, strict: bool):
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


def _propagate_pairs(tree: _LevelTree, eps: float, strict: bool, use_labels: bool,
                     pair_budget: int = 4_000_000):
    """Yield per level the pair lists (i < j) of everywhere-close orbits."""
    lvl0 = tree.levels[0]
    pi, pj = _close_seed_pairs(lvl0["xyz"], lvl0["valid"], eps, strict)
    yield 0, pi, pj, False
    d1 = tree.d1
    e2 = eps * eps
    for ell in range(1, len(tree.levels)):
        lvl = tree.levels[ell]
        xyz, valid, label = lvl["xyz"], lvl["valid"], lvl["label"]
        cand_i = []
        cand_j = []
        # descend pairs from the previous level (all d1 x d1 child combos)
        if pi.size:
            u = np.arange(d1)
            shape = (pi.size, d1, d1)
            ci = np.broadcast_to(pi[:, None, None] * d1 + u[None, :, None], shape)
            cj = np.broadcast_to(pj[:, None, None] * d1 + u[None, None, :], shape)
            cand_i.append(ci.reshape(-1))
            cand_j.append(cj.reshape(-1))
        # sibling pairs of every node at the previous level
        parents = np.nonzero(tree.levels[ell - 1]["valid"])[0]
        if parents.size and d1 > 1:
            combos = [(a, b) for b in range(d1) for a in range(b)]
            ca = np.concatenate([parents * d1 + a for a, b in combos])
            cb = np.concatenate([parents * d1 + b for a, b in combos])
            cand_i.append(ca)
            cand_j.append(cb)
        if cand_i:
            ci = np.concatenate(cand_i)
            cj = np.concatenate(cand_j)
            if ci.size > pair_budget:
                # cannot certify rejection pairs at this depth: stop here so
                # deeper counts are never reported from an incomplete graph
                yield ell, None, None, True
                return
            ok = valid[ci] & valid[cj]
            ci, cj = ci[ok], cj[ok]
            d2 = ((xyz[ci] - xyz[cj]) ** 2).sum(-1)
            keep = (d2 < e2) if strict else (d2 <= e2)
            if use_labels:
                keep &= label[ci] == label[cj]
            pi, pj = ci[keep], cj[keep]
            flip = pi > pj
            pi2 = np.where(flip, pj, pi)
            pj2 = np.where(flip, pi, pj)
            pi, pj = pi2, pj2
        else:
            pi = np.zeros(0, dtype=np.int64)
            pj = np.zeros(0, dtype=np.int64)
        yield ell, pi, pj, False


def _greedy_count(valid: np.ndarray, pi: np.ndarray, pj: np.ndarray) -> int:
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


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyProtocol:
    """Finite-size protocol replacing the double limit eps -> 0, n -> inf."""

    eps_grid: tuple = (0.2, 0.1, 0.05)
    n_max: int = 8
    n_min: int = 1
    budget: int = 2 ** 20
    seed_strategy: str = "net"  # "net" (Fibonacci, eps-dependent) or "square_grid"
    grid_size: int = 64
    resolution_factor: float = 0.5
    pair_budget: int = 8_000_000

    def to_json(self) -> dict:
        return {
            "eps_grid": list(self.eps_grid),
            "n_max": self.n_max,
            "n_min": self.n_min,
            "budget": self.budget,
            "seed_strategy": self.seed_strategy,
            "grid_size": self.grid_size,
            "resolution_factor": self.resolution_factor,
            "pair_budget": self.pair_budget,
        }

    @staticmethod
    def from_json(data) -> "EntropyProtocol":
        kwargs = dict(data)
        if "eps_grid" in kwargs:
            kwargs["eps_grid"] = tuple(kwargs["eps_grid"])
        return EntropyProtocol(**kwargs)


@dataclass
class EntropyReport:
    """Separated counts, per-eps slopes and the final estimate for one variant."""

    variant: str
    counts: list  # [[n, eps, count], ...]
    slopes: list  # [{"eps": e, "slope": s, "window": [n...]}, ...]
    estimate: float
    cap: float
    flags: list
    protocol: dict
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "counts": self.counts,
            "slopes": self.slopes,
            "estimate": self.estimate,
            "cap": self.cap,
            "flags": self.flags,
            "protocol": self.protocol,
            "diagnostics": self.diagnostics,
        }


def _square_grid_seeds(g: int, stride: int = 1) -> list[SpherePoint]:
    xs = ((np.arange(g) + 0.5) / g * 2.0 - 1.0)[::stride]
    return [SpherePoint.from_complex(complex(x, y)) for x in xs for y in xs]


def _net_seeds(eps: float, factor: float) -> list[SpherePoint]:
    spacing = factor * eps
    count = max(16, int(math.ceil(4.4 * math.pi / (spacing * spacing))))
    return fibonacci_sphere_points(count)


def _plan_seeds(seeds: list, d1: int, n_max: int, budget: int):
    """Deterministic subsample + depth cap so total nodes fit the budget."""
    flags = []
    if d1 <= 1:
        per_seed = n_max + 1
    else:
        per_seed = (d1 ** (n_max + 1) - 1) // (d1 - 1)
    max_seeds = max(1, budget // per_seed)
    if len(seeds) > max_seeds:
        idx = np.linspace(0, len(seeds) - 1, max_seeds).astype(int)
        idx = np.unique(idx)
        seeds = [seeds[i] for i in idx]
        flags.append("seed_net_subsampled")
    return seeds, flags


def _fit_slope(ns: np.ndarray, counts: np.ndarray):
    """Least-squares slope of log(count) vs n over the unsaturated prefix."""
    flags = []
    good = counts > 0
    ns, counts = ns[good], counts[good]
    if ns.size < 2:
        return 0.0, list(ns), ["degenerate_fit"]
    cut = ns.size
    for k in range(1, ns.size):
        if counts[k] < counts[k - 1] * 1.05:
            cut = k + 1
            flags.append("saturated_counts")
            break
    ns_f, cs_f = ns[:cut], np.log(counts[:cut].astype(float))
    if ns_f.size < 2:
        return 0.0, list(ns_f), flags + ["degenerate_fit"]
    if ns_f.size < 3:
        flags.append("short_fit_window")
    A = np.vstack([ns_f, np.ones_like(ns_f, dtype=float)]).T
    slope = float(np.linalg.lstsq(A, cs_f, rcond=None)[0][0])
    return slope, [int(x) for x in ns_f], flags


def entropy_estimate(C: Correspondence, protocol: EntropyProtocol):
    """Separated-orbit entropy estimates for both counting conventions.

    Returns {"KT": EntropyReport, "DS": EntropyReport}.  For each eps the
    counts over the depth window are fitted by least squares on log counts;
    the final estimate is the max slope over the eps grid.  The Gromov cap
    log max(d1, d2) is attached and never clips the estimate silently.
    """
    cap = gromov_cap(C)
    reports = {}
    all_flags = []
    usage = {}
    data = {"KT": {}, "DS": {}}
    for eps in protocol.eps_grid:
        if protocol.seed_strategy == "square_grid":
            # subsample the base grid to the eps-dependent net resolution
            spacing = 2.0 / protocol.grid_size
            stride = max(1, int(round(protocol.resolution_factor * eps / spacing)))
            seeds = _square_grid_seeds(protocol.grid_size, stride)
        else:
            seeds = _net_seeds(eps, protocol.resolution_factor)
        seeds, flags = _plan_seeds(seeds, max(1, C.d1), protocol.n_max, protocol.budget)
        all_flags.extend(f"{f}@eps={eps:g}" for f in flags)
        tree = _LevelTree(C, seeds, protocol.n_max)
        usage[f"eps={eps:g}"] = {"seeds": len(seeds), "nodes": tree.node_count}
        for variant, strict, labels in (("KT", True, False), ("DS", False, True)):
            counts = {}
            for ell, pi, pj, truncated in _propagate_pairs(
                tree, eps, strict, labels, protocol.pair_budget
            ):
                if truncated:
                    flag = f"pair_budget_truncated@eps={eps:g},depth={ell}"
                    if flag not in all_flags:  # the KT and DS passes may stop at one depth
                        all_flags.append(flag)
                    break
                if protocol.n_min <= ell <= protocol.n_max and ell >= 1:
                    counts[ell] = _greedy_count(tree.levels[ell]["valid"], pi, pj)
            data[variant][eps] = counts
    for variant in ("KT", "DS"):
        counts_rows = []
        slopes = []
        best = 0.0
        flags = list(all_flags)
        for eps in protocol.eps_grid:
            counts = data[variant][eps]
            ns = np.array(sorted(counts))
            cs = np.array([counts[n] for n in sorted(counts)])
            for n, c in zip(ns, cs):
                # KT tuples of length n have n points (tree depth n-1): the
                # reported n follows each definition's indexing
                n_rep = int(n) + 1 if variant == "KT" else int(n)
                counts_rows.append([n_rep, eps, int(c)])
            slope, window, f = _fit_slope(ns, cs)
            slopes.append({"eps": eps, "slope": slope, "window": window})
            flags.extend(f"{x}@eps={eps:g}" for x in f)
            best = max(best, slope)
        if best > cap + 0.05:
            flags.append("cap_exceeded_beyond_fit_slack")
        reports[variant] = EntropyReport(
            variant=variant,
            counts=counts_rows,
            slopes=slopes,
            estimate=best,
            cap=cap,
            flags=flags,
            protocol=protocol.to_json(),
            diagnostics={
                "budget_usage": usage,
                "cap_violations": [s["eps"] for s in slopes if s["slope"] > cap + 0.05],
            },
        )
    return reports
