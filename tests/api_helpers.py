"""Readers, writers, per-point checks and Moebius algebra that only the tests use.

The program writes clouds (WeightedCloud.to_csv) and rasters
(RasterImage.to_ppm) but never reads them back, and it tests region
membership and graph residuals on arrays of homogeneous pairs
(RegionSpec.mask, GraphPolynomial.residuals); these helpers read the written
bytes and test one SpherePoint through the same array code.  The program
reads polynomials, maps, regions and correspondences (corrdyn.config) but
writes only graph polynomials (GraphPolynomial.to_json); the writers here
make the other formats for round trips.  No program path needs the identity
map, an inverse or a product of two Moebius maps.
"""

import csv
import io

import numpy as np

from corrdyn.correspondence import Correspondence
from corrdyn.families import RegionSpec
from corrdyn.graphpoly import GraphPolynomial
from corrdyn.measures import WeightedCloud
from corrdyn.raster import RasterImage
from corrdyn.rational import MobiusMap, RationalMap
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


def mobius_inverse(M: MobiusMap) -> MobiusMap:
    return MobiusMap(M.d, -M.b, -M.c, M.a)


def poly_json(p: np.ndarray) -> list:
    """A polynomial as config.read_map reads one: [re, im] pairs, ascending degree."""
    return [[c.real, c.imag] for c in p]


def map_json(R: RationalMap) -> dict:
    return {"num": poly_json(R.numerator), "den": poly_json(R.denominator)}


def region_json(region: RegionSpec) -> dict:
    """A region as config.read_region reads one."""
    if region.kind == "disk":
        return {"kind": "disk", "center": [region.center.real, region.center.imag],
                "radius": region.radius}
    if region.kind == "half_plane":
        return {"kind": "half_plane", "point": [region.point.real, region.point.imag],
                "normal": [region.normal.real, region.normal.imag]}
    return {"kind": "complement", "of": region_json(region.of)}


def correspondence_json(C: Correspondence) -> dict:
    """A correspondence as config.read_correspondence_data reads one, with its bidegree."""
    data = {"d1": C.d1, "d2": C.d2}
    if C.is_direct:
        data["components"] = [{"poly": gp.to_json(), "multiplicity": n} for gp, n in C.components]
    else:
        data["chain"] = [correspondence_json(c) for c in C.chain]
    return data
