"""Orbit-tree enumeration and separated counting for entropy estimation.

Orbits are enumerated as full forward level trees from a seed net; the
orbits themselves are the tree's valid leaves.  Separated counting follows
the greedy-insertion rule in the canonical order (orbits sorted
lexicographically by coordinates).  It exploits that two orbit tuples can
fail to separate only if their prefixes also fail: the set of
"everywhere-close" pairs is propagated level by level, and the greedy sweep
over that pair graph reproduces the sequential greedy result exactly.
One propagation serves both conventions (KT: distance < eps at every level;
DS: distance <= eps and equal labels at every level), each pair carrying one
bit per convention.  The pairs of a level are built a chunk at a time in
tail order, and the greedy walks each chunk as it is built: one walk serves
both conventions while every pair so far carries both bits, and each walks
its own copy from the first chunk where they differ.  Only the pairs a
deeper level reads are kept: once every convention is sure to pass the pair
budget at the next level, the level's chunks are dropped as they are walked.
The next level reads the kept chunks one at a time and releases each once its
children are built, so no level's pairs are ever joined into one array.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .correspondence import Correspondence, tree_size
from .errors import BudgetExceeded
from .sphere import SpherePoint, chart_from_complex, chart_pairs, embed_chart, embed_projective
from .sphere import fibonacci_net, point_charts

DEDUP_TOL = 1e-7  # collapse of merged-root children (multiplicity blind)
_MAX_SLOTS = 2 ** 31  # a level's slots are int32 pair indices
_BLOCK = 1 << 15  # tree slots grown, or candidate pairs built and filtered, at once (L2-sized)


def gromov_cap(C: Correspondence) -> float:
    """log max(d1, d2), the hard entropy cap for the correspondence graph."""
    return math.log(max(C.d1, C.d2))


# ---------------------------------------------------------------------------
# fixed-width level tree
# ---------------------------------------------------------------------------

class _LevelTree:
    """Forward orbit tree with fixed child width per level, grown on demand.

    The seeds are chart coordinates (values, reciprocal flags).  Level l holds
    n_seeds * d1^l slots; slot k has parent k // d1.  The seeds, and the
    children of each node, are sorted lexicographically by their embedding
    with the stable np.lexsort, so slot order is the canonical lexicographic
    orbit order.  Invalid slots mark collapsed duplicates and degenerate fibers.
    Only level 0 is built up front; `level(l)` grows the levels up to l the
    first time they are asked for, so `levels` holds the prefix grown so far
    and `node_count` its valid nodes.  A level is grown about _BLOCK slots at
    a time into its preallocated arrays; every step of growth is row-local, so
    the bytes are those of growing the level whole.
    """

    def __init__(self, C: Correspondence, values, reciprocal, n_levels: int):
        self.C = C
        self.d1 = max(1, C.d1)
        self.n_levels = n_levels
        order = np.lexsort(embed_chart(values, reciprocal).T[::-1])
        z1, z2 = chart_pairs(values[order], reciprocal[order])
        self.levels = [{
            "z1": z1,
            "z2": z2,
            "xyz": embed_projective(z1, z2),
            "valid": np.ones(z1.size, dtype=bool),
            "label": np.zeros(z1.size, dtype=np.int16),
        }]
        self.node_count = z1.size

    def level(self, ell: int) -> dict:
        """Level ell (0 <= ell <= n_levels), growing the missing levels before it."""
        if not 0 <= ell <= self.n_levels:
            raise IndexError(f"level {ell} outside 0..{self.n_levels}")
        while len(self.levels) <= ell:
            lvl = self._grow(self.levels[-1])
            self.levels.append(lvl)
            self.node_count += int(lvl["valid"].sum())
        return self.levels[ell]

    def _grow(self, lvl):
        d1 = self.d1
        n = lvl["z1"].size
        if n * d1 >= _MAX_SLOTS:
            raise BudgetExceeded(f"a level of {n * d1} slots reaches the int32 slot bound 2^31")
        out = [np.empty((n, d1), dtype=complex), np.empty((n, d1), dtype=complex),
               np.empty((n, d1, 3)), np.empty((n, d1), dtype=bool),
               np.empty((n, d1), dtype=np.int16)]
        step = max(1, _BLOCK // d1)  # parent rows grown at once; every step is row-local
        for s in range(0, n, step):
            rows = slice(s, s + step)
            children = self._children(lvl["z1"][rows], lvl["z2"][rows], lvl["valid"][rows])
            for arr, part in zip(out, children):
                arr[rows] = part
        return {key: arr.reshape((n * d1,) + arr.shape[2:])
                for key, arr in zip(("z1", "z2", "xyz", "valid", "label"), out)}

    def _children(self, z1, z2, ok):
        """The d1 children of each parent row, sorted, with duplicate siblings
        and degenerate fibers invalid: (z1, z2, xyz, valid, label), each (n, d1, ...)."""
        d1, n = self.d1, z1.size
        W1 = np.zeros((n, d1), dtype=complex)
        W2 = np.ones((n, d1), dtype=complex)
        L = np.zeros((n, d1), dtype=np.int16)
        if ok.any():
            w1, w2, lab = self.C.forward_batch(z1[ok], z2[ok])
            W1[ok], W2[ok], L[ok] = w1, w2, lab
        valid = np.repeat(ok[:, None], d1, axis=1)
        bad = ~np.isfinite(W1.real) | ~np.isfinite(W2.real)
        valid &= ~bad
        W1[bad], W2[bad] = 0.0, 1.0
        xyz = embed_projective(W1, W2)
        # sort the d1 children of each node lexicographically
        idx = np.lexsort(xyz.transpose(2, 0, 1)[::-1], axis=-1)
        rows = np.arange(n)[:, None]
        W1, W2 = W1[rows, idx], W2[rows, idx]
        L = L[rows, idx]
        valid = valid[rows, idx]
        xyz = np.take_along_axis(xyz, idx[..., None], axis=1)
        # collapse duplicate siblings (merged roots enumerated once)
        for a in range(1, d1):
            for b in range(a):
                sq = (xyz[:, a] - xyz[:, b]) ** 2
                d2 = (sq[:, 0] + sq[:, 1]) + sq[:, 2]  # summed in the order .sum(-1) takes
                valid[:, a] &= ~(valid[:, a] & valid[:, b] & (d2 <= DEDUP_TOL ** 2))
        return W1, W2, xyz, valid, L


def enumerate_orbits(C: Correspondence, seeds, n: int, budget: int = 2 ** 20) -> list[tuple]:
    """All forward n-step orbits from the seeds as (points, labels) pairs, in tree slot order.

    The orbits are the valid leaves of the level tree, each walked back to its
    seed through the parent links k // d1; labels[l] is the component of the
    step from points[l] to points[l + 1], as the tree labels level l + 1.  Siblings closer than 1e-7 chordal
    are enumerated once.  Raises BudgetExceeded, before anything is built,
    when the tree's nodes over all levels, |seeds| (d1^0 + ... + d1^n), exceed
    the budget.
    """
    seeds = list(seeds)
    if tree_size(len(seeds), max(1, C.d1), n, budget) > budget:
        raise BudgetExceeded(f"{len(seeds)} seeds at depth {n} exceed budget {budget}")
    if not seeds:
        return []
    tree = _LevelTree(C, *point_charts(seeds), n)
    leaves = np.flatnonzero(tree.level(n)["valid"])
    points, labels = [], []  # per level, the ancestor of every leaf
    for ell, lvl in enumerate(tree.levels):
        slots = leaves // tree.d1 ** (n - ell)
        pairs = zip(lvl["z1"][slots].tolist(), lvl["z2"][slots].tolist())
        points.append([SpherePoint.from_projective(z1, z2) for z1, z2 in pairs])
        labels.append(lvl["label"][slots].tolist())
    return [
        (tuple(pts[k] for pts in points), tuple(labs[k] for labs in labels[1:]))
        for k in range(leaves.size)
    ]


# Per-pair bits: KT while the pair is strictly closer than eps at every level,
# DS while its component labels agree at every level (and it is within eps).
KT, DS = 1, 2
CONVENTIONS = (("KT", KT), ("DS", DS))


def _close_seed_pairs(xyz: np.ndarray, valid: np.ndarray, eps: float):
    """All pairs (i < j) of valid seeds within eps (<= eps), with their bits,
    sorted by (i, j) as int32 slots.

    Seeds carry no labels, so every pair has DS; KT when the distance is < eps.
    """
    n = xyz.shape[0]
    out_i, out_j, out_b = [], [], []
    block = max(1, _BLOCK // max(1, n))  # rows of seeds compared with all seeds at once
    e2 = eps * eps
    for s in range(0, n, block):
        d2 = ((xyz[s : s + block, None, :] - xyz[None, :, :]) ** 2).sum(-1)
        ii, jj = np.nonzero(d2 <= e2)
        keep = (ii + s < jj) & valid[ii + s] & valid[jj]
        ii, jj = ii[keep], jj[keep]
        out_i.append(ii + s)
        out_j.append(jj)
        out_b.append(np.where(d2[ii, jj] < e2, KT | DS, DS).astype(np.uint8))
    return (np.concatenate(out_i).astype(np.int32), np.concatenate(out_j).astype(np.int32),
            np.concatenate(out_b))


def _run_starts(tails: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a non-empty sorted array starts."""
    first = np.empty(tails.size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    return np.flatnonzero(first)


def _close_children(lvl, d1: int, e2: float, pi, pj, bits):
    """Child pairs (pi*d1 + u, pj*d1 + v) with tail < head that stay close, and
    their bits, in non-decreasing tail order.

    The rows come sorted by pi, each run of equal pi whole; a sibling row has
    pi == pj, and tail < head keeps its pairs u < v.  Laid out u-major inside
    each run, entry e is child tails[e] of its run against the d1 children of
    pj[rows[e]], so the close entries come out sorted by tail.
    """
    pi, pj = pi.astype(np.intp), pj.astype(np.intp)
    starts = _run_starts(pi)
    runs = np.diff(starts, append=pi.size)
    u = np.arange(d1)
    lengths = np.repeat(runs, d1)  # entries of each (run, u) block
    # (run, u) block of rows starts..starts+run at entry d1*start + u*run
    rows = np.arange(pi.size * d1) - np.repeat(
        ((d1 - 1) * starts)[:, None] + runs[:, None] * u, lengths)
    tails = np.repeat((pi[starts] * d1)[:, None] + u, lengths)
    xyz = lvl["xyz"]
    diff = xyz[tails][:, None, :] - xyz.reshape(-1, d1, 3)[pj[rows]]
    np.multiply(diff, diff, out=diff)
    d2 = diff[..., 0] + diff[..., 1]  # summed in the order .sum(-1) takes
    d2 += diff[..., 2]
    d2 = d2.reshape(-1)
    near = np.flatnonzero(d2 <= e2)
    e, v = np.divmod(near, d1)
    k = rows[e]
    ci, cj, d2 = tails[e], pj[k] * d1 + v, d2[near]
    valid, label = lvl["valid"], lvl["label"]
    bits = bits[k] & (
        np.where(d2 < e2, KT, 0) | np.where(label[ci] == label[cj], DS, 0)
    ).astype(np.uint8)
    kept = (bits != 0) & (ci < cj) & valid[ci] & valid[cj]
    return ci[kept].astype(np.int32), cj[kept].astype(np.int32), bits[kept]


def _child_chunks(lvl, d1: int, e2: float, keep: list, parents: np.ndarray, live: int):
    """The close child pairs of the next level, a chunk of parent rows at a time.

    The parent rows are the kept pairs that still have a live bit and the
    sibling row (p, p) of every valid parent p, sorted by tail.  The kept
    chunks are non-empty and in tail order, and each leaves `keep` as it is
    read, taking in the sibling rows of the parents below the next chunk's
    first tail (the last chunk takes every parent left; with none kept, the
    rows are the sibling rows alone).  The rows left past a kept chunk's last
    cut are carried into the next, and every chunk ends on a run of equal
    tails (a longer run is one chunk).  One empty chunk when there are no rows.
    """
    step = max(1, _BLOCK // (d1 * d1))
    keep.reverse()  # popped from the end, in tail order
    held = parents[:0], parents[:0], np.zeros(0, np.uint8)  # rows past the last cut
    if not keep:
        keep.append(held)
    s, built = 0, False
    while keep:
        pi, pj, bits = keep.pop()
        e = np.searchsorted(parents, keep[-1][0][0]) if keep else parents.size
        bits = bits & live  # pairs whose every bit belongs to a stopped convention are dropped
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
            yield _close_children(lvl, d1, e2, pi[c:e], pj[c:e], bits[c:e])
            built, c = True, e
        held = pi[c:], pj[c:], bits[c:]
    if held[0].size:
        yield _close_children(lvl, d1, e2, *held)
    elif not built:
        yield held


def _propagate_pairs(tree: _LevelTree, eps: float, pair_budget: int, facts: dict):
    """Yield, a chunk at a time, the pairs (i < j) of orbits close in either
    convention at each level, as int32 slots in non-decreasing tail order i.

    One propagation serves both conventions: a pair is kept while it is within
    eps at every level and still has a bit (KT or DS).  Each item is one chunk
    of one level, and every level yields at least one (maybe empty) item; the
    chunks of a level come in tail order and end on runs of equal tails, so
    walking them one after another is one walk over the level.  Before each
    yield, `facts` holds "bits" (uint8, one per pair of the chunk), "live"
    (the bits of the conventions counted at this level), "kept" (per live
    convention, its pairs at this level so far: one dict per level, updated in
    place chunk by chunk), "candidates" (per convention live on entry, its
    candidate pair count) and "stop" (convention -> the depth the pair budget
    cut it at).  A convention whose candidates exceed the budget stops there,
    so no deeper count comes from an incomplete graph; the item's truncated
    flag is True once every convention has stopped, and that level is never
    grown.  Every child pair with tail i*d1 + u comes from the parent pairs
    with tail i or from i's sibling row (i, i); one generator,
    `_child_chunks`, hands the kept chunks to the next level with the sibling
    rows merged in and builds the candidates a chunk of parent rows at a time.
    A chunk is kept for the next level only while some live convention can
    still pass its budget check; once none can, the kept chunks are dropped.
    """
    d1 = tree.d1
    siblings = d1 * (d1 - 1) // 2  # sibling pairs u < v of one parent
    e2 = eps * eps
    lvl = tree.level(0)
    seeds = int(lvl["valid"].sum())
    facts.update(live=KT | DS, stop={},
                 candidates={name: seeds * (seeds - 1) // 2 for name, _ in CONVENTIONS})
    chunks = iter([_close_seed_pairs(lvl["xyz"], lvl["valid"], eps)])
    for ell in range(tree.n_levels + 1):
        if ell:
            # the budget is checked before level ell or any candidate is built
            live, candidates = facts["live"], {}
            for name, bit in CONVENTIONS:
                if live & bit:
                    candidates[name] = kept[name] * d1 * d1 + parents.size * siblings
                    if candidates[name] > pair_budget:
                        live &= ~bit
                        facts["stop"][name] = ell
            facts.update(live=live, candidates=candidates)
            if not live:
                yield ell, None, None, True
                return
            lvl = tree.level(ell)
            chunks = _child_chunks(lvl, d1, e2, keep, parents, live)
        live = facts["live"]
        kept = facts["kept"] = {name: 0 for name, bit in CONVENTIONS if live & bit}
        parents = np.flatnonzero(lvl["valid"]).astype(np.int32)
        room = pair_budget - parents.size * siblings  # for the children of kept pairs at ell + 1
        keep, going = [], ell < tree.n_levels and room >= 0
        for pi, pj, bits in chunks:
            for name, bit in CONVENTIONS:
                if name in kept:
                    kept[name] += int(np.count_nonzero(bits & bit))
            if going and pi.size:
                keep.append((pi, pj, bits))
                if min(kept.values()) * d1 * d1 > room:  # every live convention stops at ell + 1
                    keep, going = [], False
            facts["bits"] = bits
            yield ell, pi, pj, False


def _greedy_count(kept: bytearray, pi: np.ndarray, pj: np.ndarray) -> None:
    """Walk one chunk of pairs into `kept`, the greedy's slot flags.

    The greedy count is the size of the lexicographically-first maximal
    independent set in slot order: a valid slot is kept unless a lower
    neighbour is kept.  Every pair has pi < pj and the pairs come in
    non-decreasing tail order pi (as `_propagate_pairs` yields them), so
    walking them in order decides each slot before it is read: a kept tail
    clears its higher neighbours.  Chunks of one level walked one after
    another are one walk over the level; `kept.count(1)` is then the count.
    """
    if not pi.size:
        return
    clear = np.frombuffer(kept, dtype=np.uint8)
    heads = pj.astype(np.intp)
    starts = _run_starts(pi)
    ends = np.append(starts[1:], pi.size)
    tails = pi[starts]
    for t, s, e in zip(tails.tolist(), starts.tolist(), ends.tolist()):
        if kept[t]:
            clear[heads[s:e]] = 0


def _separated_counts(tree: _LevelTree, eps: float, pair_budget: int, n_min: int):
    """Greedy separated counts of both conventions on one tree, in one propagation.

    Returns the counts {convention: {level: count}} for levels >= max(1, n_min),
    one row of facts per level (nodes, candidate and kept pairs per convention,
    whether the two pair sets coincide), and {convention: depth} for each
    convention the pair budget stopped.  The level every convention stopped at
    is never grown, so its row's nodes is None.  Each chunk is walked as it
    comes: the conventions share one `kept` bytearray while every pair so far
    carries both bits, and split at the first chunk where the bits differ.
    """
    counts, levels, facts = {"KT": {}, "DS": {}}, [], {}
    items = _propagate_pairs(tree, eps, pair_budget, facts)
    for ell, chunks in groupby(items, key=itemgetter(0)):
        # facts now describe the level's first chunk
        row = {"level": ell, "nodes": None, "candidates": facts["candidates"]}
        levels.append(row)
        live = facts["live"]
        if not live:  # the truncated item: every convention stopped here
            break
        valid = tree.level(ell)["valid"]
        row.update(nodes=int(valid.sum()), kept=facts["kept"], coincide=live == KT | DS)
        walks = {}
        if ell >= max(1, n_min):
            shared = bytearray(valid.tobytes())
            walks = {name: shared for name, bit in CONVENTIONS if live & bit}
        for _, pi, pj, _ in chunks:
            bits = facts["bits"]
            if row["coincide"] and not np.all(bits == KT | DS):
                # the two pair sets part here: each convention walks on in its own copy
                row["coincide"] = False
                if walks:
                    walks["DS"] = bytearray(walks["KT"])
            if row["coincide"]:
                if walks:  # one walk serves both
                    _greedy_count(walks["KT"], pi, pj)
            else:
                for name, bit in CONVENTIONS:
                    if name in walks:
                        sel = (bits & bit) != 0
                        _greedy_count(walks[name], pi[sel], pj[sel])
        for name, kept in walks.items():
            counts[name][ell] = kept.count(1)
    return counts, levels, facts["stop"]


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
        return {**asdict(self), "eps_grid": list(self.eps_grid)}


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
        return asdict(self)


def seed_net(protocol: EntropyProtocol, eps: float):
    """(seed count, a function from seed indices to their chart coordinates) at eps:
    the Fibonacci net or the square grid of cell centres in [-1, 1]^2 (seed i
    in row i // m, column i % m), both at the eps-dependent resolution.  The
    count is computed, not built: inf when (resolution_factor * eps)^2
    underflows; `config.read_protocol` refuses counts of 2^63 or more."""
    if protocol.seed_strategy == "square_grid":
        g = protocol.grid_size
        stride = max(1, int(round(min(protocol.resolution_factor * eps / (2.0 / g), g))))
        m = -(-g // stride)  # cells 0, stride, 2 stride, ... of the g per side

        def build(idx):
            # k * stride is exact below 2^53, as np.arange(0, g, stride) would be
            x, y = ((k * float(stride) + 0.5) / g * 2.0 - 1.0 for k in np.divmod(idx, m))
            return chart_from_complex(x, y)

        return m * m, build
    spacing = protocol.resolution_factor * eps
    area = spacing * spacing
    count = 4.4 * math.pi / area if area else math.inf
    count = max(16, math.ceil(count)) if count < math.inf else count
    return count, lambda idx: fibonacci_net(count, idx)


def _plan_seeds(count: int, d1: int, n_max: int, budget: int):
    """Indices of the seeds kept of `count`: a deterministic subsample so the
    full tree fits the node budget.  Raises BudgetExceeded when one seed's
    full tree does not.  Only the kept indices are built, so a net of 10^15
    seeds costs no more than the budget.  A count that is not finite, or is
    past int64 indices, raises BudgetExceeded."""
    if not count < 2 ** 63:  # also inf and nan
        raise BudgetExceeded(f"a seed net of {count} points is past int64 seed indices")
    per_seed = tree_size(1, d1, n_max, budget)
    if per_seed > budget:
        raise BudgetExceeded(f"one seed's tree to depth {n_max} exceeds budget {budget}")
    max_seeds = budget // per_seed
    if count <= max_seeds:
        return np.arange(count), []
    # above 2^53 the float64 end point count - 1 can round up to count
    idx = np.minimum(np.linspace(0, count - 1, max_seeds).astype(int), count - 1)
    return np.unique(idx), ["seed_net_subsampled"]


def _fit_slope(ns: np.ndarray, counts: np.ndarray):
    """Least-squares slope of log(count) vs n over the unsaturated prefix."""
    flags = []
    good = counts > 0
    ns, counts = ns[good], counts[good]
    if ns.size < 2:
        return 0.0, [int(x) for x in ns], ["degenerate_fit"]
    cut = ns.size
    for k in range(1, ns.size):
        if counts[k] < counts[k - 1] * 1.05:
            cut = k + 1
            flags.append("saturated_counts")
            break
    ns_f, cs_f = ns[:cut], np.log(counts[:cut].astype(float))
    if ns_f.size < 2:
        return 0.0, [int(x) for x in ns_f], flags + ["degenerate_fit"]
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
    counting = {}  # per eps: nodes, candidate and kept pairs of every level
    data = {"KT": {}, "DS": {}}
    for eps in protocol.eps_grid:
        count, build = seed_net(protocol, eps)
        idx, flags = _plan_seeds(count, max(1, C.d1), protocol.n_max, protocol.budget)
        all_flags.extend(f"{f}@eps={eps:g}" for f in flags)
        tree = _LevelTree(C, *build(idx), protocol.n_max)
        counts, levels, stop = _separated_counts(tree, eps, protocol.pair_budget, protocol.n_min)
        # the nodes grown: levels past the pair budget's stop never exist
        usage[f"eps={eps:g}"] = {"seeds": idx.size, "nodes": tree.node_count}
        for name, _ in CONVENTIONS:
            flag = f"pair_budget_truncated@eps={eps:g},depth={stop.get(name)}"
            if name in stop and flag not in all_flags:  # KT and DS may stop at one depth
                all_flags.append(flag)
            data[name][eps] = counts[name]
        counting[f"eps={eps:g}"] = {
            "levels": levels,
            "truncated_depth": {name: stop.get(name) for name, _ in CONVENTIONS},
        }
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
                "counting": counting,
            },
        )
    return reports
