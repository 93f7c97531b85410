"""Readers, per-point checks and Moebius algebra that only the tests use.

The program writes clouds (WeightedCloud.to_csv) and rasters
(RasterImage.to_ppm) but never reads them back, and it tests region
membership and graph residuals on arrays of homogeneous pairs
(RegionSpec.mask, GraphPolynomial.residuals); these helpers read the written
bytes and test one SpherePoint through the same array code.  No program path
needs the identity map or a product of two Moebius maps.
"""

import csv
import io

import numpy as np

from corrdyn.families import RegionSpec
from corrdyn.graphpoly import GraphPolynomial
from corrdyn.measures import WeightedCloud
from corrdyn.raster import RasterImage
from corrdyn.rational import MobiusMap
from corrdyn.sphere import RECIPROCAL, STANDARD, SpherePoint


def cloud_from_csv(text: str) -> WeightedCloud:
    """The cloud of a re,im,chart,weight CSV (WeightedCloud.to_csv)."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if any(chart not in (STANDARD, RECIPROCAL) for _, _, chart, _ in rows):
        raise ValueError("cloud CSV chart must be standard or reciprocal")
    return WeightedCloud.from_atoms(
        (SpherePoint(complex(float(re_), float(im_)), chart), float(wt))
        for re_, im_, chart, wt in rows
    )


def raster_from_ppm(data: bytes) -> RasterImage:
    """The image of a binary PPM (RasterImage.to_ppm)."""
    parts = data.split(b"\n", 3)
    if parts[0] != b"P6":
        raise ValueError("not a binary PPM")
    w, h = (int(t) for t in parts[1].split())
    px = np.frombuffer(parts[3], dtype=np.uint8)[: w * h * 3].reshape(h, w, 3)
    return RasterImage(w, h, px.copy())


def contains(region: RegionSpec, p: SpherePoint) -> bool:
    """Membership of one point, by RegionSpec.mask on its projective pair."""
    return bool(region.mask(*(np.array([c]) for c in p.projective()))[0])


def point_residual(gp: GraphPolynomial, p: SpherePoint, q: SpherePoint) -> float:
    """Scaled homogeneous residual |B(p, q)| / max|coeff| of one pair, by
    GraphPolynomial.residuals."""
    return float(gp.residuals(*p.projective(), *q.projective()))


def mobius_identity() -> MobiusMap:
    return MobiusMap(1, 0, 0, 1)


def mobius_compose(M: MobiusMap, N: MobiusMap) -> MobiusMap:
    """M after N."""
    m = M.matrix() @ N.matrix()
    return MobiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
