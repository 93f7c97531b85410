"""Empirical measures: weighted point clouds, Dirac pullbacks, entropy.

Clouds approximate Borel probability measures by finite atom lists.  The
pullback of a Dirac mass under the n-th iterate of a correspondence is
enumerated either as the full preimage tree or by backward random walks with
a counter-based RNG (reproducible and order-independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, map_graph, tree_size
from .errors import BudgetExceeded, ExceptionalStart, FiberDegenerate
from .rational import MobiusMap, RationalMap
from .sphere import RECIPROCAL, STANDARD, SpherePoint, chart_pairs, chart_values
from .sphere import embed_chart, embed_projective, point_charts

ATOM_MERGE_TOL = 1e-9

# energy_distance sums _ENERGY_ROWS rows of distances per BLAS call, so that
# size fixes the last bit of every result; the squares, sums and square roots
# that fill the rows are elementwise, so _TERM_ROWS is free to change.
_ENERGY_ROWS = 2048
_TERM_ROWS = 128


@dataclass(frozen=True, eq=False)
class WeightedCloud:
    """Finite weighted atom list with total mass 1, held as aligned arrays.

    values are the atoms' chart coordinates and reciprocal flags those stored
    in the reciprocal chart, as in SpherePoint; weights are the atom masses.
    """

    values: np.ndarray
    reciprocal: np.ndarray
    weights: np.ndarray

    @staticmethod
    def from_atoms(atoms) -> "WeightedCloud":
        """Cloud of (SpherePoint, weight) pairs, in their order."""
        atoms = tuple(atoms)
        values, reciprocal = point_charts(p for p, _ in atoms)
        weights = np.array([w for _, w in atoms], dtype=float)
        return WeightedCloud(values, reciprocal, weights)

    def _rows(self):
        """(value, chart name, weight) per atom, as Python scalars."""
        charts = np.where(self.reciprocal, RECIPROCAL, STANDARD).tolist()
        return zip(self.values.tolist(), charts, self.weights.tolist())

    @property
    def atoms(self) -> tuple:
        """(SpherePoint, weight) pairs in atom order, built on each access."""
        return tuple((SpherePoint(v, chart), w) for v, chart, w in self._rows())

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def projective(self):
        """Homogeneous pairs (z1, z2) of the atoms, as SpherePoint.projective."""
        return chart_pairs(self.values, self.reciprocal)

    def embedded(self) -> np.ndarray:
        """(N, 3) array of unit-sphere embeddings in atom order."""
        return embed_chart(self.values, self.reciprocal)

    def to_csv(self) -> str:
        """CSV with header re,im,chart,weight (LF endings, UTF-8 friendly).

        No field needs quoting: float reprs and chart names hold no comma,
        quote or newline."""
        lines = (f"{v.real!r},{v.imag!r},{chart},{wt!r}" for v, chart, wt in self._rows())
        return "\n".join(["re,im,chart,weight", *lines]) + "\n"


def _merge_atoms(z1, z2, weights) -> WeightedCloud:
    """Cloud of the points z1/z2, summing the weights of atoms within ATOM_MERGE_TOL.

    Atoms are sorted by their sphere embedding (the sort_key order) and
    grouped by quantizing it on an ATOM_MERGE_TOL grid (pairs that straddle a
    grid boundary stay split, which only fragments weights at the merge scale
    and leaves every measure statistic unchanged).  A group is its first atom
    with the weights summed in order; groups keep the order of first atoms.
    """
    values, reciprocal = chart_values(z1, z2)
    xyz = embed_chart(values, reciprocal)
    order = np.lexsort(xyz.T[::-1])  # stable, so the same order as sort_key
    keys = np.round(xyz[order] / ATOM_MERGE_TOL).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    groups = np.argsort(first)
    keep = order[first[groups]]
    sums = np.bincount(inverse, weights[order])[groups]
    return WeightedCloud(values[keep], reciprocal[keep], sums)


# ---------------------------------------------------------------------------
# Dirac pullbacks
# ---------------------------------------------------------------------------

def pullback_dirac_tree(C: Correspondence, z0: SpherePoint, n: int) -> WeightedCloud:
    """Full n-level preimage tree of z0, atoms weighted by multiplicity.

    Atoms are the solutions x of z0 in C^n(x), found by iterating backward
    fibers; the weight of an atom is its multiplicity over the total, so the
    cloud has mass exactly 1 at every generation.
    """
    return pullback_dirac_tree_levels(C, z0, (n,))[n]


def pullback_dirac_tree_levels(
    C: Correspondence, z0: SpherePoint, ns, budget: int = 2 ** 20
) -> dict:
    """Pullback clouds at several generations from one tree traversal.

    Raises BudgetExceeded, before anything is built, when the tree's nodes
    over all levels 0..max(ns) exceed the budget."""
    ns = sorted(set(int(n) for n in ns))
    if ns and ns[0] < 0:
        raise ValueError("generations must be nonnegative")
    n_max = ns[-1] if ns else 0
    if tree_size(1, max(C.d1, C.d2), n_max, budget) > budget:
        raise BudgetExceeded(f"preimage tree at depth {n_max} exceeds budget {budget}")
    out = {}
    if 0 in ns:
        out[0] = WeightedCloud.from_atoms(((z0, 1.0),))
    CT = C.transpose()
    a, b = z0.projective()
    z1 = np.array([a], dtype=complex)
    z2 = np.array([b], dtype=complex)
    for step in range(1, n_max + 1):
        W1, W2 = CT.forward_batch(z1, z2)
        if np.any(np.isnan(W1)):
            raise FiberDegenerate(f"degenerate fiber at level {step - 1}")
        z1, z2 = W1.ravel(), W2.ravel()
        if step in ns:
            out[step] = _merge_atoms(z1, z2, np.full(z1.size, 1.0 / z1.size))
    return out


def pullback_dirac_mc(
    C: Correspondence,
    z0: SpherePoint,
    n: int,
    n_paths: int,
    rng_seed: int,
    budget: int = 2 ** 20,
) -> WeightedCloud:
    """Monte-Carlo pullback: n_paths independent backward random walks.

    Each step picks uniformly among the d2 preimages counted with
    multiplicity.  The RNG is counter-based, keyed by (rng_seed, path), so
    results do not depend on evaluation order or batching.  Raises
    BudgetExceeded, before anything is built, when the n_paths x n choice
    table or one step's n_paths x d2 preimages exceed the budget.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_paths * max(n, C.d2) > budget:
        raise BudgetExceeded(
            f"{n_paths} walks of {n} steps over {C.d2} preimages exceed budget {budget}")
    if n == 0:
        return WeightedCloud.from_atoms(((z0, 1.0),))
    CT = C.transpose()
    # per-path choice tables from counter-based streams
    choices = np.empty((n_paths, n), dtype=np.int64)
    for k in range(n_paths):
        g = np.random.Generator(np.random.Philox(key=(rng_seed, k)))
        choices[k] = g.integers(0, C.d2, size=n)
    a, b = z0.projective()
    z1, z2 = np.full(n_paths, a, dtype=complex), np.full(n_paths, b, dtype=complex)
    rows = np.arange(n_paths)
    for step in range(n):
        W1, W2 = CT.forward_batch(z1, z2)
        if np.any(np.isnan(W1)):
            raise FiberDegenerate(f"degenerate fiber at step {step} of a walk")
        pick = choices[:, step]
        z1, z2 = W1[rows, pick], W2[rows, pick]
    return _merge_atoms(z1, z2, np.full(n_paths, 1.0 / n_paths))


def pushforward_mobius(cloud: WeightedCloud, M: MobiusMap) -> WeightedCloud:
    """Image cloud under a Moebius map; weights unchanged."""
    z1, z2 = cloud.projective()
    values, reciprocal = chart_values(M.a * z1 + M.b * z2, M.c * z1 + M.d * z2)
    return WeightedCloud(values, reciprocal, cloud.weights)


# ---------------------------------------------------------------------------
# energy distance
# ---------------------------------------------------------------------------

def _stratified_subsample(cloud: WeightedCloud, max_atoms: int):
    """Deterministic stratified reduction to at most max_atoms atoms.

    Atoms are taken in sort_key order; each stratum of equal cumulative mass
    is represented by its first heaviest atom.  Returns the (3, N) embedding
    rows and the normalized weights.
    """
    xyz = cloud.embedded()
    order = np.lexsort(xyz.T[::-1])  # stable, so the same order as sort_key
    xyz, weights = xyz[order], cloud.weights[order]
    if len(weights) > max_atoms:
        cum = np.cumsum(weights) / weights.sum()
        edges = np.linspace(0, 1, max_atoms + 1)
        idx = np.searchsorted(cum, edges[1:-1], side="left")
        bounds = [(s, e) for s, e in zip([0, *idx], [*idx, len(weights)]) if e > s]
        reps = [s + int(np.argmax(weights[s:e])) for s, e in bounds]
        xyz = xyz[reps]
        weights = np.array([weights[s:e].sum() for s, e in bounds])
    return np.ascontiguousarray(xyz.T), weights / weights.sum()


def energy_distance(c1: WeightedCloud, c2: WeightedCloud, max_atoms: int = 4096) -> float:
    """Energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| in the chordal metric.

    Computed exactly over atom pairs after deterministic stratified
    subsampling to max_atoms.  Zero iff the (subsampled) clouds agree as
    measures; a proxy for weak convergence on the sphere.  The pair
    distances of 2,048 rows fill one preallocated (2048, N) float64 block,
    128 rows at a time through a (128, N) term buffer (about 72 MB for two
    4,096-atom clouds), never a (rows, N, 3) difference tensor.  The block
    is summed in one BLAS product, whose summation order depends on its
    size, so a smaller block would move the last bit of the result.
    """
    x, wx = _stratified_subsample(c1, max_atoms)
    y, wy = _stratified_subsample(c2, max_atoms)
    n = max(x.shape[1], y.shape[1])
    dist_buf = np.empty(min(_ENERGY_ROWS, n) * n)
    term_buf = np.empty(min(_TERM_ROWS, n) * n)

    def avg_dist(a, wa, b, wb):
        total = 0.0
        for i in range(0, a.shape[1], _ENERGY_ROWS):
            rows = a[:, i : i + _ENERGY_ROWS]
            d = dist_buf[: rows.shape[1] * b.shape[1]].reshape(rows.shape[1], b.shape[1])
            for j in range(0, d.shape[0], _TERM_ROWS):
                sub, dj = rows[:, j : j + _TERM_ROWS], d[j : j + _TERM_ROWS]
                t = term_buf[: dj.size].reshape(dj.shape)
                # ((dx^2 + dy^2) + dz^2): the sum order of the (x, y, z) axis
                np.subtract(sub[0][:, None], b[0], out=dj)
                np.multiply(dj, dj, out=dj)
                for k in (1, 2):
                    np.subtract(sub[k][:, None], b[k], out=t)
                    np.multiply(t, t, out=t)
                    np.add(dj, t, out=dj)
            np.sqrt(d, out=d)
            total += float(wa[i : i + _ENERGY_ROWS] @ d @ wb)
        return total

    exy = avg_dist(x, wx, y, wy)
    exx = avg_dist(x, wx, x, wx)
    eyy = avg_dist(y, wy, y, wy)
    return 2.0 * exy - exx - eyy


# ---------------------------------------------------------------------------
# backward iteration for rational maps
# ---------------------------------------------------------------------------

def brolin_cloud(
    f: RationalMap, n: int, n_paths: int, rng_seed: int, z0: SpherePoint | None = None
) -> WeightedCloud:
    """Backward random iteration of a rational map from a seed point.

    Reference implementation of the maximal-entropy measure of a degree-d
    rational map.  Raises ExceptionalStart when the seed's preimages collapse
    to the seed itself for 3 consecutive steps.
    """
    if f.degree < 2:
        raise ValueError("backward iteration needs degree >= 2")
    if z0 is None:
        z0 = SpherePoint.from_complex(1.0)
    G = map_graph(f)
    # exceptional start: the probe's preimages, one batch row, all within 1e-9 of it
    z1, z2 = (np.array([c]) for c in z0.projective())
    for _ in range(3):
        W1, W2 = G.transpose().forward_batch(z1, z2)
        gap = embed_projective(W1, W2) - embed_projective(z1, z2)
        if not np.all(np.linalg.norm(gap, axis=-1) <= 1e-9):
            break
        z1, z2 = W1[0, :1], W2[0, :1]
    else:
        raise ExceptionalStart(f"seed {z0} is exceptional for backward iteration")
    return pullback_dirac_mc(G, z0, n, n_paths, rng_seed)


# ---------------------------------------------------------------------------
# partitions and metric entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPartition:
    """Equal-area latitude/longitude boxes on the sphere, totally ordered.

    Bands are uniform in the height coordinate (equal area by Archimedes),
    sectors uniform in azimuth starting at -pi.  Cell index = band * n_lon +
    sector, ascending bands first; intervals are half-open so the cells are
    disjoint and cover the sphere.
    """

    n_lat: int
    n_lon: int

    def __post_init__(self):
        if self.n_lat < 1 or self.n_lon < 1:
            raise ValueError("partition needs at least one band and sector")

    @property
    def k(self) -> int:
        return self.n_lat * self.n_lon

    def cells_of_embedded(self, xyz: np.ndarray) -> np.ndarray:
        u = xyz[..., 2]
        band = np.minimum(self.n_lat - 1, ((u + 1.0) / 2.0 * self.n_lat).astype(int))
        az = np.arctan2(xyz[..., 1], xyz[..., 0])
        sector = np.minimum(
            self.n_lon - 1, ((az + math.pi) / (2 * math.pi) * self.n_lon).astype(int)
        )
        return band * self.n_lon + sector


def partition_entropy(cloud: WeightedCloud, part: GridPartition) -> float:
    """Shannon entropy - sum m log m of the cell masses (natural log)."""
    return _shannon(np.bincount(part.cells_of_embedded(cloud.embedded()), cloud.weights, part.k))


def _shannon(masses: np.ndarray) -> float:
    m = masses[masses > 0]
    return float(-(m * np.log(m)).sum())


def metric_entropy_estimate(
    C: Correspondence,
    cloud: WeightedCloud,
    part: GridPartition,
    N_max: int,
    budget: int = 2 ** 18,
):
    """Preimage-refined partition entropy of a multivalued map.

    The n-th refinement assigns an atom x to the first cell j (in partition
    order) whose n-step forward image meets it: the ordered-difference rule
    F^{-n}(P_j) minus the earlier cells.  Returns (per_N, slope) where per_N
    lists (N, H_N / N) for N = 1..N_max and slope is the least-squares slope
    of H_N against N, the entropy estimate.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    n_atoms = cloud.weights.size
    if tree_size(n_atoms, C.d1, N_max - 1, budget) > budget:
        raise BudgetExceeded(f"orbits of {n_atoms} atoms to depth {N_max - 1} exceed budget {budget}")
    labels = np.empty((n_atoms, N_max), dtype=np.int64)
    cur1, cur2 = cloud.projective()
    for nlev in range(N_max):
        # cells met by the level-n points of each atom; first-match = min id
        width = cur1.size // n_atoms
        xyz = embed_projective(cur1, cur2).reshape(n_atoms, width, 3)
        labels[:, nlev] = part.cells_of_embedded(xyz).min(axis=1)
        if nlev < N_max - 1:
            W1, W2 = C.forward_batch(cur1, cur2)
            if np.any(np.isnan(W1)):
                raise FiberDegenerate(f"degenerate fiber at refinement level {nlev}")
            cur1, cur2 = W1.ravel(), W2.ravel()
    hs = []
    ids = np.zeros(n_atoms, dtype=np.int64)
    for N in range(1, N_max + 1):
        # atoms with equal labels 1..N share a class; masses in first-seen order
        _, first, ids = np.unique(
            ids * part.k + labels[:, N - 1], return_index=True, return_inverse=True
        )
        hs.append(_shannon(np.bincount(ids, cloud.weights)[np.argsort(first)]))
    per_n = [(N, H / N) for N, H in enumerate(hs, 1)]
    ns = np.arange(1, N_max + 1, dtype=float)
    if N_max == 1:
        slope = hs[0]
    else:
        # drop the N = 1 transient from the fit when enough points remain
        lo = 1 if N_max >= 3 else 0
        A = np.vstack([ns[lo:], np.ones_like(ns[lo:])]).T
        slope = float(np.linalg.lstsq(A, np.array(hs[lo:]), rcond=None)[0][0])
    return per_n, slope
