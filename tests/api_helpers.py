"""Readers and a per-point region check that only the tests use.

The program writes clouds (WeightedCloud.to_csv) and rasters
(RasterImage.to_ppm) but never reads them back, and it tests region
membership on arrays of homogeneous pairs (RegionSpec.mask); these helpers
read the written bytes and test one SpherePoint through the same mask.
"""

import csv
import io

import numpy as np

from corrdyn.families import RegionSpec
from corrdyn.measures import WeightedCloud
from corrdyn.raster import RasterImage
from corrdyn.sphere import RECIPROCAL, STANDARD, SpherePoint


def cloud_from_csv(text: str, generation: int = 0, provenance=None) -> WeightedCloud:
    """The cloud of a re,im,chart,weight CSV (WeightedCloud.to_csv)."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if any(chart not in (STANDARD, RECIPROCAL) for _, _, chart, _ in rows):
        raise ValueError("cloud CSV chart must be standard or reciprocal")
    return WeightedCloud.from_atoms(
        ((SpherePoint(complex(float(re_), float(im_)), chart), float(wt))
         for re_, im_, chart, wt in rows),
        generation,
        provenance,
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
