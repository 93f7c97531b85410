"""Command-line front end.

    corrdyn <cov|orbit|entropy|equidist|limitset|verify> --config FILE [--set k=v ...]

Exit codes: 0 success, 1 math/runtime error, 2 usage or parse error.  The
CORRDYN_THREADS environment variable sets the limitset raster's thread
count; outputs are byte identical for identical configs regardless of it.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .config import (
    _complex_field,
    build_correspondence,
    int_field,
    list_field,
    load_config,
    make_parent,
    object_field,
    require,
    thread_count,
    write_bytes,
    write_json,
    write_text,
)
from .correspondence import cov_graph
from .entropy import EntropyProtocol, entropy_estimate, enumerate_orbits
from .errors import CorrdynError, SeedRejected, UsageError
from .families import RegionSpec, exceptional_seeds
from .measures import GridPartition, energy_distance, metric_entropy_estimate, pullback_dirac_mc
from .measures import pullback_dirac_tree, pullback_dirac_tree_levels
from .rational import RationalMap
from .raster import Viewport, render_survival_set
from .sphere import SpherePoint, chordal_distance


def cmd_cov(cfg: dict) -> int:
    """Write the deleted-covering graph polynomial of a rational map."""
    R = RationalMap.from_json(object_field(cfg, "map"))
    gp = cov_graph(R)
    out = require(cfg, "out")
    write_json(out, gp.to_json())
    print(f"deg_z={gp.deg_z} deg_w={gp.deg_w} (bidegree {gp.deg_w}:{gp.deg_z})")
    return 0


def cmd_orbit(cfg: dict) -> int:
    """Enumerate forward orbit tuples from explicit seeds, in tree slot order."""
    C = build_correspondence(require(cfg, "correspondence"))
    seeds = [_parse_point(p) for p in list_field(cfg, "seeds")]
    n = int_field(cfg, "n", None, 0)
    budget = int_field(cfg, "budget", 2 ** 20, 1)
    out = require(cfg, "out")
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


def cmd_entropy(cfg: dict) -> int:
    """Separated-orbit entropy report (both counting variants).

    An optional "metric" section adds a preimage-refined partition-entropy
    estimate computed on a pullback cloud of the same correspondence.
    """
    out = require(cfg, "out")
    metric = _metric_section(cfg)
    C = build_correspondence(require(cfg, "correspondence"))
    protocol = EntropyProtocol.from_json(cfg.get("protocol", {}))
    make_parent(out)
    reports = entropy_estimate(C, protocol)
    payload = {v: r.to_json() for v, r in reports.items()}
    if cfg.get("estimate_inverse", False):
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
    if "report_notes" in cfg:
        payload["notes"] = cfg["report_notes"]
    write_json(out, payload)
    flags = sorted({f.split("@")[0] for r in reports.values() for f in r.flags})
    print(
        f"estimate KT={reports['KT'].estimate:.6f} DS={reports['DS'].estimate:.6f} "
        f"cap={reports['KT'].cap:.6f} flags={','.join(flags) if flags else 'none'}"
    )
    return 0


def _metric_section(cfg: dict):
    """The entropy config's optional "metric" section, checked: None or
    (cloud seed, cloud generation, partition, N_max, budget)."""
    if "metric" not in cfg:
        return None
    m = cfg["metric"]
    if type(m) is not dict:
        raise UsageError(f"metric must be an object, got {m!r}")
    partition = list_field(m, "partition") if "partition" in m else [4, 4]
    if len(partition) != 2 or any(type(k) is not int or k < 1 for k in partition):
        raise UsageError(f"partition must be two integers >= 1, got {partition!r}")
    return (
        _parse_point(require(m, "cloud_seed")),
        int_field(m, "cloud_generation", None, 0),
        GridPartition(*partition),
        int_field(m, "N_max", 6, 1),
        int_field(m, "budget", 2 ** 18, 1),
    )


def cmd_equidist(cfg: dict) -> int:
    """Pullback clouds from one or more seeds, plus an energy-distance table."""
    out_prefix = require(cfg, "out_prefix")
    spec = require(cfg, "correspondence")
    C = build_correspondence(spec)
    seeds = [_parse_point(p) for p in list_field(cfg, "seeds")]
    generations = list_field(cfg, "generations")
    if any(type(n) is not int or n < 0 for n in generations):
        raise UsageError(f"generations must be integers >= 0, got {generations!r}")
    method = cfg.get("method", "full_tree")
    if method not in ("full_tree", "monte_carlo"):
        raise UsageError(f"unknown method {method!r}")
    budget = int_field(cfg, "budget", 2 ** 20, 1)
    n_paths = int_field(cfg, "n_paths", 10000, 1)
    if method == "monte_carlo" and "rng_seed" not in cfg:
        raise UsageError("rng_seed is mandatory for monte_carlo runs")
    rng_seed = int_field(cfg, "rng_seed", 0, 0, below=2 ** 63)
    if spec.get("kind") == "family_a":
        a = _complex_field(spec["a"])
        for bad in exceptional_seeds(a):
            for s in seeds:
                if chordal_distance(s, SpherePoint.from_complex(bad)) < 1e-9:
                    raise SeedRejected(
                        f"seed {bad} lies in the exceptional set "
                        f"{{-1, 2}} of the parameter a = {a.real:g}; "
                        "pullbacks from it do not equidistribute"
                    )
    make_parent(out_prefix)
    clouds: dict = {}
    for si, seed in enumerate(seeds):
        if method == "full_tree":
            levels = pullback_dirac_tree_levels(C, seed, generations, budget=budget)
        else:
            levels = {
                n: pullback_dirac_mc(C, seed, n, n_paths, rng_seed)
                for n in generations
            }
        for n, cloud in levels.items():
            base = f"{out_prefix}_seed{si}_n{n}"
            write_text(base + ".csv", cloud.to_csv())
            write_json(base + ".json", {**cloud.provenance, "generation": n})
            clouds[(si, n)] = cloud
    table = []
    for n in generations:
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                table.append(
                    {
                        "n": n,
                        "seed_i": i,
                        "seed_j": j,
                        "energy_distance": energy_distance(clouds[(i, n)], clouds[(j, n)]),
                    }
                )
    write_json(out_prefix + "_distances.json", table)
    for row in table:
        print(
            f"n={row['n']} seeds ({row['seed_i']},{row['seed_j']}): "
            f"energy_distance={row['energy_distance']:.6f}"
        )
    return 0


def cmd_limitset(cfg: dict) -> int:
    """Render the region-survival set of the forward multivalued orbit."""
    out = require(cfg, "out")
    C = build_correspondence(require(cfg, "correspondence"))
    region = RegionSpec.from_json(require(cfg, "region"))
    viewport = Viewport.from_json(cfg.get("viewport", {}))
    render_args = dict(
        width=int_field(cfg, "width", 256, 1),
        height=int_field(cfg, "height", 256, 1),
        depth=int_field(cfg, "depth", 18, 0),
        frontier_cap=int_field(cfg, "frontier_cap", 64, 1),
        threads=thread_count(),
    )
    make_parent(out)
    img = render_survival_set(C, region, viewport, **render_args)
    write_bytes(out, img.to_ppm())
    print(f"raster {img.width}x{img.height} depth={img.metadata['depth']} -> {out}")
    return 0


def cmd_verify(cfg: dict) -> int:
    """Run the module invariant suites; exit 1 when any suite fails."""
    names = cfg.get("suites", "all")
    if names != "all" and (type(names) is not list or not names):
        raise UsageError(f'suites must be "all" or a non-empty list of suite names, got {names!r}')
    rng_seed = int_field(cfg, "rng_seed", 0, 0)
    report = verify_mod.run_suites(names, rng_seed)
    if "out" in cfg:
        write_json(cfg["out"], report)
    for r in report["results"]:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def _parse_point(p) -> SpherePoint:
    if isinstance(p, str) and p in ("inf", "infinity"):
        return SpherePoint.infinity()
    return SpherePoint.from_complex(_complex_field(p))


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
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CorrdynError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
