"""Empirical measures: weighted point clouds, Dirac pullbacks, entropy.

Clouds approximate Borel probability measures by finite atom lists.  The
pullback of a Dirac mass under the n-th iterate of a correspondence is
enumerated either as the full preimage tree or by backward random walks with
a counter-based RNG (reproducible and order-independent).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .correspondence import Correspondence
from .errors import BudgetExceeded, ExceptionalStart, FiberDegenerate
from .rational import MobiusMap, RationalMap, mobius_apply, rational_preimages
from .sphere import SpherePoint, chordal_distance, embed_projective

ATOM_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class WeightedCloud:
    """Finite weighted atom list with total mass 1."""

    atoms: tuple  # tuple[(SpherePoint, float weight), ...]
    generation: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def points(self) -> list[SpherePoint]:
        return [p for p, _ in self.atoms]

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def embedded(self) -> np.ndarray:
        """(N, 3) array of unit-sphere embeddings in atom order."""
        return np.array([p.embed_r3() for p, _ in self.atoms], dtype=float)

    def to_csv(self) -> str:
        """CSV with header re,im,chart,weight (LF endings, UTF-8 friendly)."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["re", "im", "chart", "weight"])
        for p, wt in self.atoms:
            w.writerow(
                [repr(float(p.value.real)), repr(float(p.value.imag)), p.chart, repr(float(wt))]
            )
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, generation: int = 0, provenance=None) -> "WeightedCloud":
        rows = list(csv.reader(io.StringIO(text)))
        atoms = []
        for re_, im_, chart, wt in rows[1:]:
            atoms.append((SpherePoint(complex(float(re_), float(im_)), chart), float(wt)))
        return WeightedCloud(tuple(atoms), generation, provenance or {})


def _merge_atoms(items: list[tuple[SpherePoint, float]]) -> tuple:
    """Sum weights of atoms within ATOM_MERGE_TOL, in a deterministic order.

    Small lists are merged by exact pairwise distances; large ones by
    quantizing the sphere embedding on an ATOM_MERGE_TOL grid (pairs that
    straddle a grid boundary stay split, which only fragments weights at the
    merge scale and leaves every measure statistic unchanged).
    """
    xyz = np.array([p.embed_r3() for p, _ in items], dtype=float).reshape(-1, 3)
    order = np.lexsort(xyz.T[::-1])  # stable, so the same order as sort_key
    items = [items[i] for i in order]
    if len(items) <= 64:
        merged: list[list] = []
        for p, w in items:
            for slot in merged:
                if chordal_distance(p, slot[0]) <= ATOM_MERGE_TOL:
                    slot[1] += w
                    break
            else:
                merged.append([p, w])
        return tuple((p, w) for p, w in merged)
    weights = np.array([w for _, w in items], dtype=float)
    keys = np.round(xyz[order] / ATOM_MERGE_TOL).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    n_groups = int(inverse.max()) + 1
    sums = np.zeros(n_groups)
    np.add.at(sums, inverse, weights)
    first = np.full(n_groups, len(items), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(items)))
    groups = np.argsort(first)
    return tuple((items[f][0], float(w)) for f, w in zip(first[groups], sums[groups]))


# ---------------------------------------------------------------------------
# Dirac pullbacks
# ---------------------------------------------------------------------------

def pullback_dirac_tree(
    C: Correspondence, z0: SpherePoint, n: int, budget: int = 2 ** 20
) -> WeightedCloud:
    """Full n-level preimage tree of z0, atoms weighted by multiplicity.

    Atoms are the solutions x of z0 in C^n(x), found by iterating backward
    fibers; the weight of an atom is its multiplicity over the total, so the
    cloud has mass exactly 1 at every generation.
    """
    return pullback_dirac_tree_levels(C, z0, (n,), budget)[n]


def pullback_dirac_tree_levels(
    C: Correspondence, z0: SpherePoint, ns, budget: int = 2 ** 20
) -> dict:
    """Pullback clouds at several generations from one tree traversal."""
    ns = sorted(set(int(n) for n in ns))
    if ns and ns[0] < 0:
        raise ValueError("generations must be nonnegative")
    n_max = ns[-1] if ns else 0
    if C.d1 ** n_max > budget or C.d2 ** n_max > budget:
        raise BudgetExceeded(f"preimage tree at depth {n_max} exceeds budget {budget}")
    prov = {
        "seed_point": _point_json(z0),
        "correspondence": C.name or "correspondence",
        "method": "full_tree",
        "rng_seed": None,
    }
    out = {}
    if 0 in ns:
        out[0] = WeightedCloud(((z0, 1.0),), 0, dict(prov))
    CT = C.transpose()
    a, b = z0.projective()
    z1 = np.array([a], dtype=complex)
    z2 = np.array([b], dtype=complex)
    for step in range(1, n_max + 1):
        W1, W2, _ = CT.forward_batch(z1, z2)
        if np.any(np.isnan(W1)):
            raise FiberDegenerate(f"degenerate fiber at level {step - 1}")
        z1, z2 = W1.ravel(), W2.ravel()
        if step in ns:
            w = 1.0 / z1.size
            atoms = _merge_atoms(
                [(SpherePoint.from_projective(p, q), w) for p, q in zip(z1, z2)]
            )
            out[step] = WeightedCloud(atoms, step, dict(prov))
    return out


def pullback_dirac_mc(
    C: Correspondence,
    z0: SpherePoint,
    n: int,
    n_paths: int,
    rng_seed: int,
) -> WeightedCloud:
    """Monte-Carlo pullback: n_paths independent backward random walks.

    Each step picks uniformly among the d2 preimages counted with
    multiplicity.  The RNG is counter-based, keyed by (rng_seed, path), so
    results do not depend on evaluation order or batching.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    prov = {
        "seed_point": _point_json(z0),
        "correspondence": C.name or "correspondence",
        "method": "monte_carlo",
        "rng_seed": rng_seed,
    }
    if n == 0:
        return WeightedCloud(((z0, 1.0),), generation=0, provenance=prov)
    CT = C.transpose()
    d2 = C.d2
    # per-path choice tables from counter-based streams
    choices = np.empty((n_paths, n), dtype=np.int64)
    for k in range(n_paths):
        g = np.random.Generator(np.random.Philox(key=(rng_seed, k)))
        choices[k] = g.integers(0, d2, size=n)
    z1 = np.full(n_paths, complex(z0.projective()[0]), dtype=complex)
    z2 = np.full(n_paths, complex(z0.projective()[1]), dtype=complex)
    rows = np.arange(n_paths)
    for step in range(n):
        W1, W2, _ = CT.forward_batch(z1, z2)
        if np.any(np.isnan(W1)):
            raise FiberDegenerate(f"degenerate fiber at step {step} of a walk")
        pick = choices[:, step]
        z1, z2 = W1[rows, pick], W2[rows, pick]
    endpoints = [SpherePoint.from_projective(a, b) for a, b in zip(z1, z2)]
    atoms = _merge_atoms([(p, 1.0 / n_paths) for p in endpoints])
    return WeightedCloud(atoms, generation=n, provenance=prov)


def _point_json(p: SpherePoint):
    return [p.value.real, p.value.imag, p.chart]


def pushforward_mobius(cloud: WeightedCloud, M: MobiusMap) -> WeightedCloud:
    """Image cloud under a Moebius map; weights unchanged."""
    atoms = tuple((mobius_apply(M, p), w) for p, w in cloud.atoms)
    return WeightedCloud(atoms, cloud.generation, dict(cloud.provenance))


# ---------------------------------------------------------------------------
# energy distance
# ---------------------------------------------------------------------------

def _stratified_subsample(cloud: WeightedCloud, max_atoms: int):
    """Deterministic stratified reduction to at most max_atoms atoms.

    Atoms are taken in sort_key order; each stratum of equal cumulative mass
    is represented by its first heaviest atom.  Returns the (3, N) embedding
    rows and the normalized weights.
    """
    xyz = cloud.embedded().reshape(-1, 3)
    weights = cloud.weights()
    order = np.lexsort(xyz.T[::-1])  # stable, so the same order as sort_key
    xyz, weights = xyz[order], weights[order]
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
    distances of a block of rows are formed in two preallocated
    (block, N) buffers, never as a (block, N, 3) difference tensor.
    """
    x, wx = _stratified_subsample(c1, max_atoms)
    y, wy = _stratified_subsample(c2, max_atoms)
    step = 2048
    size = min(step, max(x.shape[1], y.shape[1])) * max(x.shape[1], y.shape[1])
    dist_buf, term_buf = np.empty(size), np.empty(size)

    def avg_dist(a, wa, b, wb):
        total = 0.0
        for i in range(0, a.shape[1], step):
            rows = a[:, i : i + step]
            shape = (rows.shape[1], b.shape[1])
            d = dist_buf[: shape[0] * shape[1]].reshape(shape)
            t = term_buf[: d.size].reshape(shape)
            # ((dx^2 + dy^2) + dz^2): the sum order of the (x, y, z) axis
            np.subtract(rows[0][:, None], b[0], out=d)
            np.multiply(d, d, out=d)
            for k in (1, 2):
                np.subtract(rows[k][:, None], b[k], out=t)
                np.multiply(t, t, out=t)
                np.add(d, t, out=d)
            np.sqrt(d, out=d)
            total += float(wa[i : i + step] @ d @ wb)
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
    # exceptional-start detection
    probe = z0
    collapsed = 0
    for _ in range(3):
        pre = rational_preimages(f, probe)
        if all(chordal_distance(q, probe) <= 1e-9 for q, _ in pre):
            collapsed += 1
            probe = pre[0][0]
        else:
            break
    if collapsed == 3:
        raise ExceptionalStart(f"seed {z0} is exceptional for backward iteration")
    from .correspondence import map_graph

    cloud = pullback_dirac_mc(map_graph(f, name="map"), z0, n, n_paths, rng_seed)
    prov = dict(cloud.provenance)
    prov["correspondence"] = "rational-map-backward"
    return WeightedCloud(cloud.atoms, cloud.generation, prov)


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

    def cell_of(self, p: SpherePoint) -> int:
        x, y, u = p.embed_r3()
        band = min(self.n_lat - 1, int((u + 1.0) / 2.0 * self.n_lat))
        az = math.atan2(y, x)  # in [-pi, pi]
        sector = min(self.n_lon - 1, int((az + math.pi) / (2 * math.pi) * self.n_lon))
        return band * self.n_lon + sector

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
    masses = np.zeros(part.k)
    for p, w in cloud.atoms:
        masses[part.cell_of(p)] += w
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
    n_atoms = len(cloud.atoms)
    cost = n_atoms * sum(C.d1 ** i for i in range(N_max))
    if cost > budget:
        raise BudgetExceeded(f"orbit budget {cost} exceeds {budget}")
    pts = cloud.atoms
    z1 = np.array([p.projective()[0] for p, _ in pts], dtype=complex)
    z2 = np.array([p.projective()[1] for p, _ in pts], dtype=complex)
    weights = np.array([w for _, w in pts])
    labels = np.empty((n_atoms, N_max), dtype=np.int64)
    cur1, cur2 = z1.copy(), z2.copy()
    for nlev in range(N_max):
        # cells met by the level-n points of each atom; first-match = min id
        width = cur1.size // n_atoms
        xyz = embed_projective(cur1, cur2).reshape(n_atoms, width, 3)
        cells = part.cells_of_embedded(xyz)
        labels[:, nlev] = cells.min(axis=1)
        if nlev < N_max - 1:
            W1, W2, _ = C.forward_batch(cur1, cur2)
            cur1, cur2 = W1.ravel(), W2.ravel()
    per_n = []
    hs = []
    for N in range(1, N_max + 1):
        masses = {}
        for i in range(n_atoms):
            key = tuple(labels[i, :N])
            masses[key] = masses.get(key, 0.0) + weights[i]
        m = np.array(list(masses.values()))
        m = m[m > 0]
        H = float(-(m * np.log(m)).sum())
        hs.append(H)
        per_n.append((N, H / N))
    ns = np.arange(1, N_max + 1, dtype=float)
    if N_max == 1:
        slope = hs[0]
    else:
        # drop the N = 1 transient from the fit when enough points remain
        lo = 1 if N_max >= 3 else 0
        A = np.vstack([ns[lo:], np.ones_like(ns[lo:])]).T
        slope = float(np.linalg.lstsq(A, np.array(hs[lo:]), rcond=None)[0][0])
    return per_n, slope
