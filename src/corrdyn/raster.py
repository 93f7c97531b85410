"""Limit-set rasterization and PPM output.

A pixel is marked when some branch of the forward multivalued orbit of its
center stays inside the user-supplied region for the requested number of
steps (branches leaving the region are pruned).  Escape depth is encoded in
gray levels, survivors in black, like a classical escape-time renderer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .correspondence import Correspondence
from .errors import BudgetExceeded
from .families import RegionSpec


@dataclass(frozen=True)
class RasterImage:
    """8-bit RGB image."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("raster dimensions must be positive")
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.shape != (self.height, self.width, 3):
            raise ValueError("pixel grid shape mismatch")
        object.__setattr__(self, "pixels", px)

    def to_ppm(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        return header + self.pixels.tobytes()


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned window in standard-chart coordinates."""

    re_min: float = -2.0
    re_max: float = 2.0
    im_min: float = -2.0
    im_max: float = 2.0

    def to_json(self) -> dict:
        return asdict(self)


def _region_mask(region: RegionSpec, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """RegionSpec.mask, under the name perfbench's raster.mask span traces."""
    return region.mask(z1, z2)


def _frontier_images(d1: int, depth: int, frontier_cap: int) -> int:
    """The images one pixel's frontier may make: the sum over steps s = 1..depth
    of min(frontier_cap, d1^(s-1)) * d1.  A depth of 10^12 costs a few steps."""
    total, branches = 0, 1
    for s in range(depth):
        if branches >= frontier_cap or d1 <= 1:  # every later step adds the same
            return total + (depth - s) * min(branches, frontier_cap) * d1
        total, branches = total + branches * d1, branches * d1
    return total


# Pixels whose branches one frontier step moves together (whole rows, at
# least one).  Larger blocks cut per-call overhead but hold a larger
# frontier: at 640 wide, 8,192 ran slower than 4,096 and peaked 2.8 MB higher.
_BLOCK_PIXELS = 4096


def render_survival_set(
    C: Correspondence,
    region: RegionSpec,
    viewport: Viewport,
    width: int,
    height: int,
    depth: int = 18,
    frontier_cap: int = 64,
    budget: int = 2 ** 30,
) -> RasterImage:
    """Mark pixels whose forward orbit admits a branch staying in the region.

    The image is cut into blocks of whole rows (about _BLOCK_PIXELS pixels);
    each step moves the frontier of a whole block with one forward_batch
    call, every branch tagged with its pixel index.  Branches are pruned on
    leaving the region and deduplicated per pixel on a quarter-pixel grid;
    at most frontier_cap branches per pixel are kept (canonical order), so
    the render cost is linear in depth.  A pixel's branches do not depend on
    the block it shares.  Raises BudgetExceeded, before anything is
    allocated, when width x height x _frontier_images (at least one step)
    exceeds the budget.
    """
    images = width * height * _frontier_images(C.d1, max(depth, 1), frontier_cap)
    if images > budget:
        raise BudgetExceeded(
            f"raster of {width}x{height} pixels to depth {depth} at frontier_cap {frontier_cap} "
            f"makes {images} images, past budget {budget}"
        )
    xs = viewport.re_min + (np.arange(width) + 0.5) * (viewport.re_max - viewport.re_min) / width
    ys = viewport.im_min + (np.arange(height) + 0.5) * (viewport.im_max - viewport.im_min) / height
    quantum = max(
        (viewport.re_max - viewport.re_min) / width,
        (viewport.im_max - viewport.im_min) / height,
    ) / 4.0

    def do_rows(rows):
        z1 = np.concatenate([xs + 1j * ys[row] for row in rows])
        z2 = np.ones_like(z1)
        reached = np.zeros(z1.size, dtype=np.int32)
        pix = np.flatnonzero(_region_mask(region, z1, z2))
        z1, z2 = z1[pix], z2[pix]
        for step in range(1, depth + 1):
            if pix.size == 0:
                break
            W1, W2 = C.forward_batch(z1, z2)
            npix = np.repeat(pix, W1.shape[-1])
            c1, c2 = W1.ravel(), W2.ravel()
            keep = _region_mask(region, c1, c2)  # dead children (NaN pairs) lie in no region
            npix, c1, c2 = npix[keep], c1[keep], c2[keep]
            if npix.size:
                # dedupe per pixel on a quarter-pixel grid, canonical order
                finite = np.abs(c2) > 1e-15 * np.abs(c1)
                w = np.where(finite, c1 / np.where(finite, c2, 1.0), np.inf)
                qx = np.where(finite, np.round(w.real / quantum), 2 ** 31).astype(np.int64)
                qy = np.where(finite, np.round(w.imag / quantum), 2 ** 31).astype(np.int64)
                order = np.lexsort((qy, qx, npix))
                npix, c1, c2, qx, qy = npix[order], c1[order], c2[order], qx[order], qy[order]
                first = np.ones(npix.size, dtype=bool)
                first[1:] = (npix[1:] != npix[:-1]) | (qx[1:] != qx[:-1]) | (qy[1:] != qy[:-1])
                npix, c1, c2 = npix[first], c1[first], c2[first]
                # cap branches per pixel (running index within each group)
                idx = np.arange(npix.size)
                start = np.ones(npix.size, dtype=bool)
                start[1:] = npix[1:] != npix[:-1]
                group_start = np.maximum.accumulate(np.where(start, idx, 0))
                under = (idx - group_start) < frontier_cap
                npix, c1, c2 = npix[under], c1[under], c2[under]
            reached[npix] = step
            pix, z1, z2 = npix, c1, c2
        return reached.reshape(len(rows), width)

    rows = max(1, _BLOCK_PIXELS // width)
    blocks = [range(r, min(r + rows, height)) for r in range(0, height, rows)]
    depth_map = np.vstack([do_rows(b) for b in blocks])

    # grayscale: survivors black, immediate escapes white
    frac = np.clip(depth_map.astype(float) / depth, 0.0, 1.0) if depth else np.ones(depth_map.shape)
    gray = np.round(255.0 * (1.0 - frac)).astype(np.uint8)
    return RasterImage(width, height, np.stack([gray, gray, gray], axis=-1))
