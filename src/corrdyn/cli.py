"""Command-line front end.

    corrdyn <cov|orbit|entropy|equidist|limitset|verify> --config FILE [--set k=v ...]

Exit codes: 0 success, 1 math/runtime error, 2 usage or parse error.
Outputs are byte identical for identical configs.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .config import REQUIRED, Section, boolean, build_correspondence, complex_number, integer
from .config import list_of, load_config, make_parent, point, read_map, read_metric
from .config import read_protocol, read_region, read_viewport, string
from .config import write_bytes, write_json, write_text
from .correspondence import cov_graph
from .entropy import EntropyProtocol, entropy_estimate, enumerate_orbits
from .errors import CorrdynError, SeedRejected, UsageError
from .families import exceptional_seeds
from .measures import energy_distance, metric_entropy_estimate, pullback_dirac_mc
from .measures import pullback_dirac_tree, pullback_dirac_tree_levels
from .raster import Viewport, render_survival_set
from .sphere import SpherePoint, chordal_distance

# Each command reads its config with cfg.field and closes it (refusing the
# keys it did not read) before it builds the correspondence or does any work.


def cmd_cov(cfg: Section) -> int:
    """Write the deleted-covering graph polynomial of a rational map."""
    R = cfg.field("map", read_map)
    out = cfg.field("out", string)
    cfg.close()
    gp = cov_graph(R)
    write_json(out, gp.to_json())
    print(f"deg_z={gp.deg_z} deg_w={gp.deg_w} (bidegree {gp.deg_w}:{gp.deg_z})")
    return 0


def cmd_orbit(cfg: Section) -> int:
    """Enumerate forward orbit tuples from explicit seeds, in tree slot order."""
    spec = cfg.field("correspondence")
    seeds = cfg.field("seeds", list_of, item=point)
    n = cfg.field("n", integer, least=0)
    budget = cfg.field("budget", integer, 2 ** 20)
    out = cfg.field("out", string)
    cfg.close()
    C = build_correspondence(spec)
    orbits = enumerate_orbits(C, seeds, n, budget)
    data = {
        "n": n,
        "count": len(orbits),
        "orbits": [
            {"points": [[p.value.real, p.value.imag, p.chart] for p in points],
             "labels": list(labels)}
            for points, labels in orbits
        ],
    }
    write_json(out, data)
    print(f"orbits={len(orbits)} depth={n}")
    return 0


def cmd_entropy(cfg: Section) -> int:
    """Separated-orbit entropy report (both counting variants).

    An optional "metric" section adds a preimage-refined partition-entropy
    estimate computed on a pullback cloud of the same correspondence.
    """
    out = cfg.field("out", string)
    metric = cfg.field("metric", read_metric, None)
    spec = cfg.field("correspondence")
    protocol = cfg.field("protocol", read_protocol, EntropyProtocol())
    inverse = cfg.field("estimate_inverse", boolean, False)
    notes = cfg.field("report_notes", default=None)
    cfg.close()
    C = build_correspondence(spec)
    make_parent(out)
    reports = entropy_estimate(C, protocol)
    payload = {v: r.to_json() for v, r in reports.items()}
    if inverse:
        inv = entropy_estimate(C.transpose(), protocol)
        payload.update({f"{v}_inverse": r.to_json() for v, r in inv.items()})
    if metric is not None:
        seed, generation, part, N_max, budget = metric
        cloud = pullback_dirac_tree(C, seed, generation)
        per_n, slope = metric_entropy_estimate(C, cloud, part, N_max, budget)
        payload["metric_entropy"] = {
            "per_N": [[n, h] for n, h in per_n],
            "estimate": slope,
            "partition": [part.n_lat, part.n_lon],
        }
    if notes is not None:
        payload["notes"] = notes
    write_json(out, payload)
    flags = sorted({f.split("@")[0] for r in reports.values() for f in r.flags})
    print(
        f"estimate KT={reports['KT'].estimate:.6f} DS={reports['DS'].estimate:.6f} "
        f"cap={reports['KT'].cap:.6f} flags={','.join(flags) if flags else 'none'}"
    )
    return 0


def cmd_equidist(cfg: Section) -> int:
    """Pullback clouds from one or more seeds, plus an energy-distance table.

    Each cloud's JSON sidecar records its seed point, the correspondence spec
    as read, the method, rng_seed (null for full_tree) and its generation.
    """
    out_prefix = cfg.field("out_prefix", string)
    spec = cfg.field("correspondence")
    seeds = cfg.field("seeds", list_of, item=point)
    generations = cfg.field("generations", list_of, item=integer, least=0)
    method = cfg.field("method", string, "full_tree", options=("full_tree", "monte_carlo"))
    budget = cfg.field("budget", integer, 2 ** 20)
    n_paths = cfg.field("n_paths", integer, 10000)
    rng_seed = cfg.field("rng_seed", integer, REQUIRED if method == "monte_carlo" else 0,
                         least=0, below=2 ** 63)
    cfg.close()
    C = build_correspondence(spec)
    if spec["kind"] == "family_a":
        a = complex_number(spec["a"], "a")
        for bad in exceptional_seeds(a):
            if any(chordal_distance(s, SpherePoint.from_complex(bad)) < 1e-9 for s in seeds):
                raise SeedRejected(
                    f"seed {bad} lies in the exceptional set {{-1, 2}} of the parameter "
                    f"a = {a.real:g}; pullbacks from it do not equidistribute"
                )
    make_parent(out_prefix)
    clouds: dict = {}
    for si, seed in enumerate(seeds):
        if method == "full_tree":
            levels = pullback_dirac_tree_levels(C, seed, generations, budget=budget)
        else:
            levels = {
                n: pullback_dirac_mc(C, seed, n, n_paths, rng_seed, budget)
                for n in generations
            }
        provenance = {
            "seed_point": [seed.value.real, seed.value.imag, seed.chart],
            "correspondence": spec,
            "method": method,
            "rng_seed": rng_seed if method == "monte_carlo" else None,
        }
        for n, cloud in levels.items():
            base = f"{out_prefix}_seed{si}_n{n}"
            write_text(base + ".csv", cloud.to_csv())
            write_json(base + ".json", {**provenance, "generation": n})
            clouds[(si, n)] = cloud
    table = [
        {"n": n, "seed_i": i, "seed_j": j,
         "energy_distance": energy_distance(clouds[(i, n)], clouds[(j, n)])}
        for n in generations for i in range(len(seeds)) for j in range(i + 1, len(seeds))
    ]
    write_json(out_prefix + "_distances.json", table)
    for row in table:
        print(
            f"n={row['n']} seeds ({row['seed_i']},{row['seed_j']}): "
            f"energy_distance={row['energy_distance']:.6f}"
        )
    return 0


def cmd_limitset(cfg: Section) -> int:
    """Render the region-survival set of the forward multivalued orbit."""
    out = cfg.field("out", string)
    spec = cfg.field("correspondence")
    region = cfg.field("region", read_region)
    viewport = cfg.field("viewport", read_viewport, Viewport())
    render_args = dict(
        width=cfg.field("width", integer, 256),
        height=cfg.field("height", integer, 256),
        depth=cfg.field("depth", integer, 18, least=0),
        frontier_cap=cfg.field("frontier_cap", integer, 64),
        budget=cfg.field("budget", integer, 2 ** 30),
    )
    cfg.close()
    C = build_correspondence(spec)
    make_parent(out)
    img = render_survival_set(C, region, viewport, **render_args)
    write_bytes(out, img.to_ppm())
    print(f"raster {img.width}x{img.height} depth={render_args['depth']} -> {out}")
    return 0


def cmd_verify(cfg: Section) -> int:
    """Run the module invariant suites; exit 1 when any suite fails."""
    names = cfg.field("suites", default="all")
    if names != "all":
        names = list_of(names, "suites", item=string)
    rng_seed = cfg.field("rng_seed", integer, 0, least=0)
    out = cfg.field("out", string, None)
    cfg.close()
    report = verify_mod.run_suites(names, rng_seed)
    if out is not None:
        write_json(out, report)
    for r in report["results"]:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


COMMANDS = {
    "cov": cmd_cov,
    "orbit": cmd_orbit,
    "entropy": cmd_entropy,
    "equidist": cmd_equidist,
    "limitset": cmd_limitset,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrdyn",
        description="dynamics of deleted covering correspondences on the sphere",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (dot-separated keys, JSON values)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.overrides)
        return COMMANDS[args.command](Section(cfg, f"{args.command} config", prefix=""))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CorrdynError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
