"""Reference Klein pair check, one SpherePoint at a time, kept as the oracle
for corrdyn.families.klein_pair_check.

Each sample is tested with api_helpers.contains (RegionSpec.mask on one
pair), mapped by mobius_apply or by Correspondence.forward (its clustered
support), and the covering check measures punctures with chordal_distance.
"""

from __future__ import annotations

import numpy as np

from corrdyn.correspondence import Correspondence
from corrdyn.errors import BadParameter
from corrdyn.rational import MobiusMap, mobius_apply
from corrdyn.sphere import SpherePoint, chordal_distance
from api_helpers import contains
from per_point_net import uniform_sphere_points


def _apply_object(obj, p: SpherePoint) -> list[SpherePoint]:
    if isinstance(obj, MobiusMap):
        return [mobius_apply(obj, p)]
    if isinstance(obj, Correspondence):
        return obj.forward(p).support()
    raise BadParameter("expected a Moebius map or a correspondence")


def sample_hits(obj, region, pts):
    """Yield (p, its images inside region) for every sample p inside region
    that has such an image, in sample order, with no cap on their number."""
    for p in pts:
        if contains(region, p):
            images = [img for img in _apply_object(obj, p) if contains(region, img)]
            if images:
                yield p, images


def factor2_samples(n_samples: int, rng_seed: int) -> list[SpherePoint]:
    """The samples klein_pair_check draws for its second factor."""
    rng = np.random.default_rng(rng_seed)
    uniform_sphere_points(n_samples, rng)
    return uniform_sphere_points(n_samples, rng)


def klein_pair_check(
    factor1,
    factor2,
    delta1,
    delta2,
    n_samples: int = 10_000,
    rng_seed: int = 0,
    punctures: tuple = (),
    puncture_radius: float = 1e-3,
) -> dict:
    """The report of corrdyn.families.klein_pair_check, point by point."""
    rng = np.random.default_rng(rng_seed)
    report = {
        "rng_seed": rng_seed,
        "n_samples": n_samples,
        "factor1_violations": [],
        "factor2_violations": [],
        "covering_misses": [],
    }

    def check_factor(obj, region, key):
        for p, images in sample_hits(obj, region, uniform_sphere_points(n_samples, rng)):
            for img in images:
                if len(report[key]) < 16:
                    report[key].append({"point": p.embed_r3(), "image": img.embed_r3()})
                else:
                    return

    check_factor(factor1, delta1, "factor1_violations")
    check_factor(factor2, delta2, "factor2_violations")

    punct = [SpherePoint.from_complex(q) if not isinstance(q, SpherePoint) else q for q in punctures]
    for p in uniform_sphere_points(n_samples, rng):
        if any(chordal_distance(p, q) < puncture_radius for q in punct):
            continue
        if not (contains(delta1, p) or contains(delta2, p)):
            if len(report["covering_misses"]) < 16:
                report["covering_misses"].append({"point": p.embed_r3()})
    report["passed"] = not (
        report["factor1_violations"]
        or report["factor2_violations"]
        or report["covering_misses"]
    )
    return report
