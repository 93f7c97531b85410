"""Acceptance suite: one test per shipping criterion, stated tolerances.

Each criterion prints a `[criterion NN] PASS/FAIL` line with its wall time
(visible with `pytest -s`) and, when all 12 criteria ran, the collected lines
without the times are written to acceptance_summary.txt next to this file's
package root.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from corrdyn.cli import main as cli_main
from corrdyn.config import build_correspondence, read_map, read_protocol
from corrdyn.correspondence import (
    compose_graph_poly,
    cov_graph,
    critical_values,
    deleted_covering,
    ramification_pairs,
)
from corrdyn.entropy import entropy_estimate
from corrdyn.families import (
    RegionSpec,
    family_correspondence,
    family_involution,
    fixed_point_branch_coefficients,
    involution_to_quadratic,
    klein_pair_check,
    quadratic_to_involution,
)
from corrdyn.measures import (
    GridPartition,
    WeightedCloud,
    energy_distance,
    metric_entropy_estimate,
    partition_entropy,
    pullback_dirac_tree,
    pullback_dirac_tree_levels,
)
from corrdyn.rational import (
    MobiusMap,
    RationalMap,
    critical_points,
    mobius_apply,
    mobius_projectively_equal,
    rational_eval,
)
from corrdyn.roots import roots_with_clusters
from corrdyn.sampling import random_rational_map
from corrdyn.sphere import SpherePoint, chordal_distance

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

N_CRITERIA = 12
_LINES = {}  # criterion number -> summary line


def record(num, ok, detail, timing=None):
    """Print the criterion's line with its timing; keep it for the summary without.

    Wall-clock times change from run to run, so the tracked summary file holds
    only the deterministic part and a clean run leaves it unchanged.
    """
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    _LINES[num] = line
    print(line if timing is None else f"{line}, {timing}")
    return ok


@pytest.fixture(scope="session", autouse=True)
def _summary_file():
    yield
    # a partial run (one criterion, a -k selection) leaves the summary alone
    if len(_LINES) == N_CRITERIA:
        lines = [_LINES[num] for num in sorted(_LINES)]
        (ROOT / "acceptance_summary.txt").write_text("\n".join(lines) + "\n")


def load_config(name):
    return json.loads((CONFIGS / name).read_text())


def pt(z):
    return SpherePoint.from_complex(z)


def family_quadratic(a):
    return RationalMap([-a, 0, 1], [1, -2, 1])


# -- criterion 1: involution dictionary ---------------------------------------

def test_criterion_01_involution_dictionary():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_match = 0.0
    roundtrips_ok = True
    for _ in range(200):
        while True:
            a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(a) <= 10 and abs(a - 1) > 0.1:
                break
        R = family_quadratic(a)
        C = deleted_covering(R)
        J = family_involution(a)
        for _ in range(50):
            z = pt(complex(rng.normal(), rng.normal()) * 2)
            (w, _m), = C.forward(z)
            worst_match = max(worst_match, chordal_distance(w, mobius_apply(J, z)))
        J1 = quadratic_to_involution(R)
        J2 = quadratic_to_involution(involution_to_quadratic(J1))
        if not mobius_projectively_equal(J1, J2, 1e-9):
            roundtrips_ok = False
    elapsed = time.monotonic() - t0
    ok = worst_match < 1e-8 and roundtrips_ok and elapsed < 10.0
    record(
        1,
        ok,
        f"covering matches involution (worst {worst_match:.2e} < 1e-8), "
        "round trips projective identity",
        f"{elapsed:.1f}s < 10s",
    )
    assert worst_match < 1e-8
    assert roundtrips_ok
    assert elapsed < 10.0


# -- criterion 2: graph algebra ------------------------------------------------

def test_criterion_02_graph_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst_sym = 0.0
    worst_branch = 0.0
    for _ in range(100):
        deg = int(rng.integers(2, 6))
        R = random_rational_map(rng, deg)
        C = deleted_covering(R)  # raises InexactDivision if the check fails
        for _ in range(3):
            z = pt(complex(rng.normal(), rng.normal()) * 1.5)
            fr = C.forward(z)
            assert sum(m for _, m in fr) == deg - 1
            rz = rational_eval(R, z)
            for w, _m in fr:
                back = [b for b, _ in C.forward(w)]
                worst_sym = max(worst_sym, min(chordal_distance(z, b) for b in back))
                worst_branch = max(worst_branch, chordal_distance(rational_eval(R, w), rz))
    elapsed = time.monotonic() - t0
    ok = worst_sym < 1e-8 and worst_branch < 1e-7 and elapsed < 30.0
    record(
        2,
        ok,
        f"exact division, deg-1 fibers, symmetry {worst_sym:.2e} < 1e-8, "
        f"branch invariant {worst_branch:.2e} < 1e-7",
        f"{elapsed:.1f}s < 30s",
    )
    assert worst_sym < 1e-8
    assert worst_branch < 1e-7
    assert elapsed < 30.0


# -- criterion 3: ramification ---------------------------------------------------

def test_criterion_03_ramification():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(50):
        deg = int(rng.integers(3, 6))
        R = random_rational_map(rng, deg)
        crit = [p for p, _ in critical_points(R)]
        pairs = ramification_pairs(deleted_covering(R), side=2)
        zs = [z for (z, _w), _m in pairs]
        # bidirectional set matching within 1e-6
        for z in zs:
            assert min(chordal_distance(z, c) for c in crit) < 1e-6
        for c in crit:
            assert min(chordal_distance(c, z) for z in zs) < 1e-6
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 50 and elapsed < 30.0
    record(
        3,
        ok,
        f"ramification first coordinates match the critical set both ways "
        f"on {checked} maps",
        f"{elapsed:.1f}s < 30s",
    )
    assert ok


# -- criterion 4: family fixed-point data ------------------------------------------

def _fixed_point_multiplicities(C, z):
    """Multiplicities of the fixed-point divisor of a two-factor chain near z.

    The divisor is the composed graph polynomial restricted to the diagonal
    w = z.  Its double roots separate by about sqrt(eps), so they are merged
    with the cluster radius of
    tests/test_families.py::test_double_fixed_point_of_the_family.
    """
    gp = compose_graph_poly(C.chain[0], C.chain[1])
    diag = np.zeros(gp.deg_z + gp.deg_w + 1, dtype=complex)
    for i in range(gp.deg_z + 1):
        for j in range(gp.deg_w + 1):
            diag[i + j] += gp.coeffs[i, j]
    return [
        m
        for root, m in roots_with_clusters(diag, cluster_radius=1e-5)
        if chordal_distance(root, z) <= 1e-7
    ]


def test_criterion_04_family_fixed_point_data():
    """Fixed-point data of the one-parameter family F_a = j_a o cov(z^3 - 3z).

    The covering factor acts first.  cov(1) is the root set of
    (Q(w) - Q(1))/(w - 1) = (w - 1)(w + 2), so F_a(1) = {j_a(1), j_a(-2)}
    = {1, (4a+2)/(a+5)}, two simple points.  z = 1 is a parabolic double
    fixed point: the fixed-point divisor has a root of multiplicity 2 there.
    Since w^3 - 3w + 2 = (w - 1)^2 (w + 2), F_a(-2) = {1 x2}.  The backward
    fiber over 1 is {1, -2} and the critical values of the inverse contain
    {inf, -2, 2}.  Simple points are held to 1e-9 chordal; the double point
    to 1e-7, since a double root is fixed only to about sqrt(eps).  The same
    facts are tested one at a time in
    tests/test_correspondence.py::test_family_fibers_at_fixed_point and
    tests/test_families.py::test_double_fixed_point_of_the_family.
    """
    backward_ok = True
    forward_ok = True
    divisor_ok = True
    double_ok = True
    b1_ok = True
    for a in (4, 5, 10):
        C = family_correspondence(a)
        got_b = C.backward(pt(1))
        for want in (pt(1), pt(-2)):
            if min(chordal_distance(want, q) for q, _ in got_b) > 1e-9:
                backward_ok = False
        got_f = C.forward(pt(1))
        if not (
            sorted(m for _, m in got_f) == [1, 1]
            and _multiset_match(
                [q for q, _ in got_f], [pt(1), pt((4 * a + 2) / (a + 5))], 1e-9
            )
        ):
            forward_ok = False
        if _fixed_point_multiplicities(C, pt(1)) != [2]:
            divisor_ok = False
        got_d = C.forward(pt(-2))
        if not (
            sum(m for _, m in got_d) == 2
            and all(chordal_distance(q, pt(1)) <= 1e-7 for q, _ in got_d)
        ):
            double_ok = False
        vals = critical_values(C, side=1)
        for want in (SpherePoint.infinity(), pt(-2), pt(2)):
            if min(chordal_distance(want, v) for v, _ in vals) > 1e-6:
                b1_ok = False

    def note(flag):
        return "ok" if flag else "FAILED"

    record(
        4,
        backward_ok and forward_ok and divisor_ok and double_ok and b1_ok,
        f"backward fiber {{1,-2}} {note(backward_ok)}; "
        f"forward fiber over 1 {{1, (4a+2)/(a+5)}} simple {note(forward_ok)}; "
        f"fixed-point multiplicity 2 at z=1 {note(divisor_ok)}; "
        f"forward fiber over -2 {{1 x2}} {note(double_ok)}; "
        f"inverse critical values contain {{inf,-2,2}} {note(b1_ok)}",
    )
    assert backward_ok
    assert b1_ok
    assert forward_ok, (
        "forward(F_a, 1) is not {1, (4a+2)/(a+5)} with multiplicities (1, 1); "
        "see tests/test_correspondence.py::test_family_fibers_at_fixed_point"
    )
    assert divisor_ok, (
        "the fixed-point divisor has no root of multiplicity exactly 2 at z = 1; "
        "see tests/test_families.py::test_double_fixed_point_of_the_family"
    )
    assert double_ok, "forward(F_a, -2) is not {1 x2}"


# -- criterion 5: branch Taylor data -------------------------------------------------

def test_criterion_05_branch_taylor_data():
    t0 = time.monotonic()
    for a in (4, 5, 10):
        c2, _c4, _res = fixed_point_branch_coefficients(a)
        assert abs(c2 - (a - 7) / (3 * (a - 1))) < 1e-4
    c2, c4, _res = fixed_point_branch_coefficients(7)
    assert abs(c2) < 1e-3
    assert abs(c4 - 1 / 27) < 1e-3
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    record(
        5,
        ok,
        f"quadratic coefficient matches (a-7)/(3(a-1)) at a=4,5,10; a=7 quartic "
        "1/27",
        f"{elapsed:.1f}s < 5s",
    )
    assert ok


# -- criterion 6: composition bidegree ------------------------------------------------

def _multiset_match(ps, qs, tol):
    if len(ps) != len(qs):
        return False
    qs = list(qs)
    for p in ps:
        best, bd = None, tol
        for i, q in enumerate(qs):
            d = chordal_distance(p, q)
            if d <= bd:
                best, bd = i, d
        if best is None:
            return False
        qs.pop(best)
    return True


def test_criterion_06_composition_bidegree():
    t0 = time.monotonic()
    rng = np.random.default_rng(106)
    from corrdyn.correspondence import compose

    for _ in range(10):
        dr = int(rng.integers(2, 5))
        ds = int(rng.integers(2, 5))
        R = random_rational_map(rng, dr)
        S = random_rational_map(rng, ds)
        C = compose(deleted_covering(R), deleted_covering(S))
        for _ in range(3):
            z = pt(complex(rng.normal(), rng.normal()) * 1.5)
            assert sum(m for _, m in C.forward(z)) == (dr - 1) * (ds - 1)
    # explicit graph polynomial vs chained evaluation at 100 points
    agree = 0
    for _ in range(4):
        R = random_rational_map(rng, int(rng.integers(2, 4)))
        S = random_rational_map(rng, int(rng.integers(2, 4)))
        C1, C2 = deleted_covering(R), deleted_covering(S)
        C = compose(C1, C2)
        gp = compose_graph_poly(C1, C2)
        for _ in range(25):
            z = pt(complex(rng.normal(), rng.normal()))
            chained = [q for q, m in C.forward(z) for _ in range(m)]
            resultant = [q for q, m in gp.fiber(z, cluster_radius=1e-7) for _ in range(m)]
            assert _multiset_match(chained, resultant, 1e-6), (z, chained, resultant)
            agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == 100 and elapsed < 60.0
    record(
        6,
        ok,
        f"chained fibers have (degR-1)(degS-1) points; resultant graph agrees "
        f"with chained evaluation at {agree} points within 1e-6",
        f"{elapsed:.1f}s < 60s",
    )
    assert ok


# -- criteria 7-9: entropy runs ---------------------------------------------------------

@pytest.fixture(scope="module")
def fa4_entropy_reports():
    cfg = load_config("accept_c08_entropy_fa4.json")
    C = build_correspondence(cfg["correspondence"])
    prot = read_protocol(cfg["protocol"])
    fwd = entropy_estimate(C, prot)
    inv = entropy_estimate(C.transpose(), prot)
    return fwd, inv


def test_criterion_07_entropy_sanity_oracle():
    t0 = time.monotonic()
    cfg = load_config("accept_c07_entropy_z2.json")
    C = build_correspondence(cfg["correspondence"])
    assert C.d1 == 2  # the branching orientation of the squaring graph
    prot = read_protocol(cfg["protocol"])
    reports = entropy_estimate(C, prot)
    est = reports["KT"].estimate
    elapsed = time.monotonic() - t0
    ok = 0.55 <= est <= 0.80 and elapsed < 60.0
    record(
        7,
        ok,
        f"squaring-map estimate {est:.4f} in [0.55, 0.80] (target log 2 = 0.6931)",
        f"{elapsed:.0f}s < 60s",
    )
    assert 0.55 <= est <= 0.80
    assert elapsed < 60.0


def test_criterion_08_family_entropy(fa4_entropy_reports):
    t0 = time.monotonic()
    fwd, inv = fa4_entropy_reports
    cap = math.log(2)
    est_f = max(fwd["KT"].estimate, fwd["DS"].estimate)
    est_i = max(inv["KT"].estimate, inv["DS"].estimate)
    elapsed = time.monotonic() - t0
    ok = (
        0.55 <= fwd["KT"].estimate <= 0.75
        and est_f <= cap + 0.05
        and est_i <= cap + 0.05
        and abs(fwd["KT"].estimate - inv["KT"].estimate) <= 0.1
        and fwd["KT"].estimate <= fwd["DS"].estimate + 1e-9
    )
    record(
        8,
        ok,
        f"family estimate {fwd['KT'].estimate:.4f} in [0.55, 0.75], inverse "
        f"{inv['KT'].estimate:.4f} within 0.1, cap log 2 respected",
    )
    assert 0.55 <= fwd["KT"].estimate <= 0.75
    assert est_f <= cap + 0.05 and est_i <= cap + 0.05
    assert abs(fwd["KT"].estimate - inv["KT"].estimate) <= 0.1
    assert fwd["KT"].estimate <= fwd["DS"].estimate + 1e-9


def test_criterion_09_cubic_pair_entropy():
    t0 = time.monotonic()
    cfg = load_config("accept_c09_entropy_frs.json")
    C = build_correspondence(cfg["correspondence"])
    assert (C.d1, C.d2) == (4, 4)
    prot = read_protocol(cfg["protocol"])
    reports = entropy_estimate(C, prot)
    est = reports["KT"].estimate
    cap = math.log(4)
    # no Klein pair is certifiable with the supported region shapes: the
    # checked-in report notes say so, and a representative candidate fails
    assert cfg["report_notes"], "config must carry the Klein status note"
    candidate = klein_pair_check(
        deleted_covering(read_map(cfg["correspondence"]["R"])),
        deleted_covering(read_map(cfg["correspondence"]["S"])),
        RegionSpec("half_plane", point=0j, normal=1 + 0j),
        RegionSpec("half_plane", point=0j, normal=-1 + 0j),
        n_samples=2000,
        rng_seed=9,
    )
    elapsed = time.monotonic() - t0
    ok = 1.15 <= est <= 1.45 and est <= cap + 0.05 and not candidate["passed"]
    record(
        9,
        ok,
        f"cubic-pair estimate {est:.4f} in [1.15, 1.45] against log 4 = 1.3863, "
        f"cap enforced; Klein pair not certified (report notes present)",
        f"{elapsed:.0f}s < 900s",
    )
    assert 1.15 <= est <= 1.45
    assert est <= cap + 0.05
    assert reports["KT"].estimate <= reports["DS"].estimate + 1e-9
    assert not candidate["passed"]
    assert elapsed < 900.0


# -- criterion 10: equidistribution --------------------------------------------------------

def test_criterion_10_equidistribution(capsys):
    t0 = time.monotonic()
    cfg = load_config("accept_c10_equidist_a4.json")
    C = build_correspondence(cfg["correspondence"])
    gens = cfg["generations"]
    seeds = [pt(complex(*p)) for p in cfg["seeds"]]
    la = pullback_dirac_tree_levels(C, seeds[0], gens, budget=cfg["budget"])
    lb = pullback_dirac_tree_levels(C, seeds[1], gens, budget=cfg["budget"])
    dists = [energy_distance(la[n], lb[n]) for n in gens]
    inversions = sum(1 for x, y in zip(dists, dists[1:]) if y > x)
    # exceptional-seed rejection through the command
    code = cli_main(
        [
            "equidist",
            "--config",
            str(CONFIGS / "accept_c10_reject_a5.json"),
            "--set",
            "out_prefix=/tmp/corrdyn_reject_check",
        ]
    )
    err = capsys.readouterr().err
    elapsed = time.monotonic() - t0
    ok = dists[-1] < 0.05 and inversions <= 1 and code == 1 and "exceptional set" in err
    record(
        10,
        ok,
        f"two-seed distances {['%.2e' % d for d in dists]} decreasing "
        f"(inversions {inversions} <= 1), final {dists[-1]:.2e} < 0.05; "
        "exceptional seed rejected at a=5",
        f"{elapsed:.0f}s < 300s",
    )
    assert dists[-1] < 0.05
    assert inversions <= 1
    assert code == 1 and "exceptional set" in err
    assert elapsed < 300.0


# -- criterion 11: metric entropy ------------------------------------------------------------

def test_criterion_11_metric_entropy(fa4_entropy_reports):
    t0 = time.monotonic()
    # exactness of the partition entropy on uniform splits
    for k_lat, k_lon in ((1, 2), (2, 2), (4, 4)):
        part = GridPartition(k_lat, k_lon)
        atoms = []
        # place one atom per cell by inverting band/sector midpoints
        for band in range(k_lat):
            u = -1 + (band + 0.5) * 2 / k_lat
            for sec in range(k_lon):
                az = -math.pi + (sec + 0.5) * 2 * math.pi / k_lon
                r = math.sqrt(max(0.0, 1 - u * u))
                x, y = r * math.cos(az), r * math.sin(az)
                atoms.append(
                    (SpherePoint.from_complex(complex(x, y) / (1 - u)), 1.0 / part.k)
                )
        H = partition_entropy(WeightedCloud.from_atoms(tuple(atoms)), part)
        assert abs(H - math.log(part.k)) < 1e-12
    # family metric entropy against the topological estimate
    cfg = load_config("accept_c11_metric_fa4.json")
    C = build_correspondence(cfg["correspondence"])
    m = cfg["metric"]
    cloud = pullback_dirac_tree(C, pt(complex(*m["cloud_seed"])), m["cloud_generation"])
    part = GridPartition(*m["partition"])
    per_n, slope = metric_entropy_estimate(C, cloud, part, m["N_max"], m["budget"])
    topo = fa4_entropy_reports[0]["KT"].estimate
    elapsed = time.monotonic() - t0
    ok = slope <= topo + 0.1
    record(
        11,
        ok,
        f"uniform-split entropies exact to 1e-12; metric estimate {slope:.4f} "
        f"<= topological {topo:.4f} + 0.1",
        f"{elapsed:.0f}s < 600s",
    )
    assert slope <= topo + 0.1
    assert elapsed < 600.0


# -- criterion 12: determinism ------------------------------------------------------------------

def _run_config_to(tmpdir, name, command, out_keys, tag):
    cfg_path = CONFIGS / name
    overrides = []
    outs = []
    for key in out_keys:
        target = str(tmpdir / f"{tag}_{key.replace('.', '_')}")
        overrides += ["--set", f"{key}={target}"]
        outs.append(target)
    assert cli_main([command, "--config", str(cfg_path)] + overrides) == 0
    return outs


def _collect_bytes(prefix_or_file):
    p = Path(prefix_or_file)
    if p.is_file():
        return {p.name: p.read_bytes()}
    out = {}
    for f in sorted(p.parent.glob(p.name + "*")):
        out[f.name] = f.read_bytes()
    assert out, f"no artifacts under {prefix_or_file}"
    return out


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    jobs = [
        ("accept_c12_det_entropy.json", "entropy", ["out"]),
        ("accept_c12_det_equidist.json", "equidist", ["out_prefix"]),
        ("accept_c12_det_limitset.json", "limitset", ["out"]),
    ]
    all_same = True
    for name, command, keys in jobs:
        outs1 = _run_config_to(tmp_path, name, command, keys, tag="r1")
        outs2 = _run_config_to(tmp_path, name, command, keys, tag="r2")
        for o1, o2 in zip(outs1, outs2):
            b1 = _collect_bytes(o1)
            b2 = _collect_bytes(o2)
            names1 = {n.replace("r1_", "") for n in b1}
            names2 = {n.replace("r2_", "") for n in b2}
            assert names1 == names2
            for n in b1:
                if b1[n] != b2[n.replace("r1_", "r2_")]:
                    all_same = False
    elapsed = time.monotonic() - t0
    record(
        12,
        all_same,
        "entropy/equidist/limitset artifacts byte-identical across two runs",
        f"{elapsed:.0f}s",
    )
    assert all_same
