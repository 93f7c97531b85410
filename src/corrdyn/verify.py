"""Property suites behind the `verify` command.

Each suite draws its own samples from a seeded generator, checks one module
invariant, and reports pass/fail with witnesses.  Runtime is kept to a few
seconds per suite so the whole battery stays interactive.
"""

from __future__ import annotations

import numpy as np

from .correspondence import compose, deleted_covering, map_graph, ramification_pairs
from .entropy import EntropyProtocol, _LevelTree, _separated_counts, entropy_estimate
from .errors import UsageError
from .families import (
    family_correspondence,
    family_involution,
    involution_to_quadratic,
    quadratic_to_involution,
)
from .measures import GridPartition, pullback_dirac_tree, pushforward_mobius
from .rational import (
    MobiusMap,
    critical_points,
    mobius_apply,
    mobius_is_involution,
    mobius_projectively_equal,
    rational_eval,
)
from .roots import poly_roots
from .sampling import random_complex, random_involution, random_points, random_rational_map
from .sphere import SpherePoint, chordal_distance, embed_projective, uniform_sphere_charts


def _result(passed, witnesses=None, info=None):
    out = {"passed": bool(passed)}
    if witnesses:
        out["witnesses"] = witnesses[:8]
    if info is not None:
        out["info"] = info
    return out


def suite_chordal_metric(rng_seed: int) -> dict:
    """Triangle inequality and chart-swap invariance of the chordal metric."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(500):
        p, q, r = random_points(rng, 3, scale=2.0)
        if chordal_distance(p, r) > chordal_distance(p, q) + chordal_distance(q, r) + 1e-12:
            bad.append([str(p), str(q), str(r)])
        q2 = q.other_chart()
        if abs(q2.value) != float("inf"):
            if abs(chordal_distance(p, q) - chordal_distance(p, q2)) > 1e-12:
                bad.append([str(p), str(q), "chart swap"])
    return _result(not bad, bad)


def suite_root_recovery(rng_seed: int) -> dict:
    """Random degree <= 8 polynomials with separated roots are recovered."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(60):
        deg = int(rng.integers(1, 9))
        while True:
            roots = random_complex(rng, deg, 2.0) * rng.uniform(0.3, 2.5)
            roots = roots[np.abs(roots) <= 5.0]
            if roots.size == deg:
                d = np.abs(roots[:, None] - roots[None, :]) + np.eye(deg)
                if d.min() > 1e-3:
                    break
        p = np.poly(roots)[::-1] * random_complex(rng)
        found = poly_roots(p)
        got = sorted((pt.to_complex() for pt, m in found for _ in range(m)), key=lambda z: (z.real, z.imag))
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        err = max(abs(a - b) for a, b in zip(got, want))
        if err > 1e-7:
            bad.append({"roots": [str(r) for r in roots], "err": err})
    return _result(not bad, bad)


def suite_riemann_hurwitz(rng_seed: int) -> dict:
    """Critical points count to 2 deg - 2 with multiplicity."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(40):
        deg = int(rng.integers(2, 6))
        R = random_rational_map(rng, deg)
        total = sum(m for _, m in critical_points(R))
        if total != 2 * deg - 2:
            bad.append({"deg": deg, "total": total})
    return _result(not bad, bad)


def suite_involution_square(rng_seed: int) -> dict:
    """Trace-zero maps square to the identity on sample points."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(50):
        J = random_involution(rng)
        assert mobius_is_involution(J)
        for p in random_points(rng, 10, 2.0):
            q = mobius_apply(J, mobius_apply(J, p))
            if chordal_distance(p, q) > 1e-10:
                bad.append({"point": str(p), "err": chordal_distance(p, q)})
    return _result(not bad, bad)


def suite_covering_symmetry(rng_seed: int) -> dict:
    """w in F(z) iff z in F(w) for deleted covering correspondences."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(12):
        deg = int(rng.integers(2, 6))
        R = random_rational_map(rng, deg)
        C = deleted_covering(R)
        for z in random_points(rng, 4, 1.5):
            for w, _m in C.forward(z).points:
                back = C.forward(w).support()
                if min(chordal_distance(z, b) for b in back) > 1e-8:
                    bad.append({"z": str(z), "w": str(w)})
    return _result(not bad, bad)


def suite_branch_invariant(rng_seed: int) -> dict:
    """R takes the same value on z and every fiber point of the covering."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(12):
        deg = int(rng.integers(2, 6))
        R = random_rational_map(rng, deg)
        C = deleted_covering(R)
        for z in random_points(rng, 4, 1.5):
            rz = rational_eval(R, z)
            for w, _m in C.forward(z).points:
                if chordal_distance(rational_eval(R, w), rz) > 1e-7:
                    bad.append({"z": str(z), "w": str(w)})
    return _result(not bad, bad)


def suite_bidegree(rng_seed: int) -> dict:
    """Generic fibers carry deg - 1 points with multiplicity; compositions multiply."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(10):
        dr = int(rng.integers(2, 5))
        ds = int(rng.integers(2, 5))
        R = random_rational_map(rng, dr)
        S = random_rational_map(rng, ds)
        C = compose(deleted_covering(R), deleted_covering(S))
        for z in random_points(rng, 3, 1.5):
            tot = C.forward(z).total_multiplicity
            if tot != (dr - 1) * (ds - 1):
                bad.append({"degs": [dr, ds], "got": tot})
    return _result(not bad, bad)


def suite_closedness_surrogate(rng_seed: int) -> dict:
    """Boundary images are limits of open-disk images (closure surrogate).

    Each boundary sample of a disk is paired with an interior point a tiny
    step inward; their fibers must nearly coincide except at the few samples
    straddling a branch point, hence the high-quantile criterion.
    """
    rng = np.random.default_rng(rng_seed)
    R = random_rational_map(rng, 3)
    C = deleted_covering(R)
    center, radius = 0.3 + 0.1j, 0.8
    gaps = []
    for k in range(200):
        ang = np.exp(2j * np.pi * k / 200)
        zb = SpherePoint.from_complex(center + radius * ang)
        zi = SpherePoint.from_complex(center + radius * (1 - 1e-4) * ang)
        img_i = C.forward(zi).support()
        for w in C.forward(zb).support():
            gaps.append(min(chordal_distance(w, u) for u in img_i))
    q = float(np.quantile(gaps, 0.98))
    return _result(q < 0.05, info={"gap_q98": q})


def suite_ramification(rng_seed: int) -> dict:
    """z-coordinates of the ramification pairs lie among the critical points."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(8):
        deg = int(rng.integers(3, 6))
        R = random_rational_map(rng, deg)
        crit = [p for p, _ in critical_points(R)]
        try:
            pairs = ramification_pairs(deleted_covering(R), side=2)
        except Exception as exc:
            bad.append({"deg": deg, "error": str(exc)})
            continue
        for (z0, w0), _m in pairs:
            if min(chordal_distance(z0, c) for c in crit) > 1e-6:
                bad.append({"deg": deg, "z0": str(z0)})
    return _result(not bad, bad)


def suite_dictionary_roundtrip(rng_seed: int) -> dict:
    """involution -> quadratic -> involution is the projective identity."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for _ in range(200):
        J = random_involution(rng)
        J2 = quadratic_to_involution(involution_to_quadratic(J))
        if not mobius_projectively_equal(J, J2, 1e-9):
            bad.append({"J": str(J.matrix().tolist())})
    return _result(not bad, bad)


def suite_fixed_infinity_dichotomy(rng_seed: int) -> dict:
    """The quadratic is a polynomial iff the involution fixes infinity."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for k in range(100):
        if k % 2 == 0:
            a, b = random_complex(rng), random_complex(rng)
            if abs(a) < 1e-3:
                a += 1.0
            J = MobiusMap(a, b, 0, -a)  # fixes infinity
        else:
            J = random_involution(rng)
        R = involution_to_quadratic(J)
        fixes_inf = abs(J.c) <= 1e-10
        is_poly = R.denominator.size == 1
        if fixes_inf != is_poly:
            bad.append({"J": str(J.matrix().tolist()), "fixes_inf": fixes_inf})
    return _result(not bad, bad)


def suite_family_fixed_fiber(rng_seed: int) -> dict:
    """Backward fiber of the family at 1 is {1, -2} for sampled parameters."""
    bad = []
    for a in (4, 5, 10):
        C = family_correspondence(a)
        got = C.backward(SpherePoint.from_complex(1)).support()
        want = [SpherePoint.from_complex(1), SpherePoint.from_complex(-2)]
        for w in want:
            if min(chordal_distance(w, g) for g in got) > 1e-9:
                bad.append({"a": a, "missing": str(w)})
        if C.d1 != 2 or C.d2 != 2:
            bad.append({"a": a, "bidegree": [C.d1, C.d2]})
    return _result(not bad, bad)


def suite_conjugacy(rng_seed: int) -> dict:
    """The family satisfies F = J o F^{-1} o J on sample points."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    for a in (4, 5.5):
        C = family_correspondence(a)
        J = family_involution(a)
        CT = C.transpose()
        for z in random_points(rng, 25, 1.5):
            left = sorted(p.sort_key() for p in C.forward(z).support())
            rhs_in = mobius_apply(J, z)
            right = sorted(
                mobius_apply(J, p).sort_key() for p in CT.forward(rhs_in).support()
            )
            err = max(
                max(abs(x - y) for x, y in zip(l, r)) for l, r in zip(left, right)
            )
            if len(left) != len(right) or err > 1e-7:
                bad.append({"a": a, "z": str(z), "err": err})
    return _result(not bad, bad)


def suite_mass_conservation(rng_seed: int) -> dict:
    """Pullback tree clouds have mass one at every generation."""
    rng = np.random.default_rng(rng_seed)
    bad = []
    C = family_correspondence(4)
    for z in random_points(rng, 3, 1.0):
        for n in (0, 3, 6):
            cloud = pullback_dirac_tree(C, z, n)
            if abs(cloud.total_mass - 1.0) > 1e-12:
                bad.append({"z": str(z), "n": n, "mass": cloud.total_mass})
    return _result(not bad, bad)


def suite_mu_plus_consistency(rng_seed: int) -> dict:
    """Pushforward by the involution matches the inverse-correspondence tree."""
    C = family_correspondence(4)
    J = family_involution(4)
    z0 = SpherePoint.from_complex(0.3 + 0.2j)
    n = 8
    left = pushforward_mobius(pullback_dirac_tree(C, z0, n), J)
    right = pullback_dirac_tree(C.transpose(), mobius_apply(J, z0), n)
    targets = right.atoms  # built once: the atoms property makes new points
    bad = []
    for p, w in left.atoms:
        best = min((chordal_distance(p, q), abs(w - v)) for q, v in targets)
        if best[0] > 1e-8 or best[1] > 1e-9:
            bad.append({"atom": str(p), "gap": best[0]})
    return _result(not bad, bad)


def suite_invariance_inequality(rng_seed: int) -> dict:
    """Cloud mass of F^{-1}(A) at least mass(A) - 0.02 on random cells."""
    rng = np.random.default_rng(rng_seed)
    C = family_correspondence(4)
    cloud = pullback_dirac_tree(C, SpherePoint.from_complex(0.3 + 0.2j), 12)
    part = GridPartition(8, 8)
    cells = part.cells_of_embedded(cloud.embedded())
    weights = cloud.weights
    # one-step forward images of each atom
    W1, W2, _ = C.forward_batch(*cloud.projective())
    img_cells = part.cells_of_embedded(embed_projective(W1, W2))
    bad = []
    for cell in rng.choice(part.k, size=50, replace=True):
        mass_a = weights[cells == cell].sum()
        hits = (img_cells == cell).any(axis=1)
        mass_pre = weights[hits].sum()
        if mass_pre < mass_a - 0.02:
            bad.append({"cell": int(cell), "mass_a": mass_a, "mass_pre": mass_pre})
    return _result(not bad, bad)


def suite_separation_monotonicity(rng_seed: int) -> dict:
    """Separated counts at depth 4 grow as eps falls; labeled counts dominate."""
    rng = np.random.default_rng(rng_seed)
    tree = _LevelTree(family_correspondence(4), *uniform_sphere_charts(20, rng), 4)
    bad = []
    rows = []  # [eps, KT, DS]
    for eps in (0.4, 0.2, 0.1, 0.05):
        counts, _, _ = _separated_counts(tree, eps, EntropyProtocol.pair_budget, 4)
        kt, ds = counts["KT"][4], counts["DS"][4]
        if ds < kt:
            bad.append({"eps": eps, "kt": kt, "ds": ds})
        if rows and kt < rows[-1][1]:
            bad.append({"eps": eps, "kt": kt, "prev": rows[-1][1]})
        rows.append([eps, kt, ds])
    return _result(not bad, bad, info={"counts": rows})


def suite_estimator_determinism(rng_seed: int) -> dict:
    """Two runs of the estimator produce identical reports."""
    C = map_graph(
        random_rational_map(np.random.default_rng(rng_seed), 2), backward=True
    )
    prot = EntropyProtocol(eps_grid=(0.2, 0.1), n_max=5, budget=2 ** 14)
    r1 = entropy_estimate(C, prot)
    r2 = entropy_estimate(C, prot)
    same = all(r1[v].to_json() == r2[v].to_json() for v in ("KT", "DS"))
    return _result(same)


# each suite under the one name that selects it and that its result prints
SUITES = {
    "chordal_metric": suite_chordal_metric,
    "root_recovery": suite_root_recovery,
    "riemann_hurwitz_count": suite_riemann_hurwitz,
    "involution_square": suite_involution_square,
    "covering_symmetry": suite_covering_symmetry,
    "branch_invariant": suite_branch_invariant,
    "composition_bidegree": suite_bidegree,
    "closedness_surrogate": suite_closedness_surrogate,
    "ramification_in_critical_set": suite_ramification,
    "dictionary_roundtrip": suite_dictionary_roundtrip,
    "fixed_infinity_dichotomy": suite_fixed_infinity_dichotomy,
    "family_fixed_fiber": suite_family_fixed_fiber,
    "family_conjugacy": suite_conjugacy,
    "pullback_mass": suite_mass_conservation,
    "pushforward_conjugacy": suite_mu_plus_consistency,
    "invariance_inequality": suite_invariance_inequality,
    "separation_monotonicity": suite_separation_monotonicity,
    "estimator_determinism": suite_estimator_determinism,
}


def run_suites(names=None, rng_seed: int = 0) -> dict:
    """Run the requested suites (all by default); returns the full report."""
    chosen = list(SUITES) if names in (None, "all") else list(names)
    unknown = [n for n in chosen if not (isinstance(n, str) and n in SUITES)]
    if unknown:
        raise UsageError(f"unknown suite(s): {unknown}")
    results = [{"name": n, **SUITES[n](rng_seed)} for n in chosen]
    return {
        "rng_seed": rng_seed,
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
