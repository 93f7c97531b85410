"""Reference row-at-a-time survival-set renderer, kept as the oracle for corrdyn.raster.

Each image row moves its own frontier: one forward_batch call, one region
mask, one lexsort, dedupe and frontier cap per row and step.  Same per-pixel
rules as `render_survival_set`: quarter-pixel dedupe, canonical order within
each pixel, at most frontier_cap branches per pixel, depth reached per pixel.
"""

from __future__ import annotations

import numpy as np

from corrdyn.raster import RasterImage, _region_mask


def render_rows(C, region, viewport, width, height, depth=18, frontier_cap=64) -> RasterImage:
    xs = viewport.re_min + (np.arange(width) + 0.5) * (viewport.re_max - viewport.re_min) / width
    ys = viewport.im_min + (np.arange(height) + 0.5) * (viewport.im_max - viewport.im_min) / height
    quantum = max(
        (viewport.re_max - viewport.re_min) / width,
        (viewport.im_max - viewport.im_min) / height,
    ) / 4.0
    depth_map = np.zeros((height, width), dtype=np.int32)
    for row in range(height):
        z = xs + 1j * ys[row]
        pix = np.arange(width)
        z1 = z.astype(complex)
        z2 = np.ones_like(z1)
        alive = _region_mask(region, z1, z2)
        pix, z1, z2 = pix[alive], z1[alive], z2[alive]
        reached = np.zeros(width, dtype=np.int32)
        for step in range(1, depth + 1):
            if pix.size == 0:
                break
            W1, W2, _ = C.forward_batch(z1, z2)
            d1 = W1.shape[-1]
            npix = np.repeat(pix, d1)
            c1, c2 = W1.ravel(), W2.ravel()
            good = np.isfinite(c1.real) & np.isfinite(c2.real)
            inside = np.zeros_like(good)
            inside[good] = _region_mask(region, c1[good], c2[good])
            keep = good & inside
            npix, c1, c2 = npix[keep], c1[keep], c2[keep]
            if npix.size:
                finite = np.abs(c2) > 1e-15 * np.abs(c1)
                w = np.where(finite, c1 / np.where(finite, c2, 1.0), np.inf)
                qx = np.where(finite, np.round(w.real / quantum), 2 ** 31).astype(np.int64)
                qy = np.where(finite, np.round(w.imag / quantum), 2 ** 31).astype(np.int64)
                order = np.lexsort((qy, qx, npix))
                npix, c1, c2, qx, qy = npix[order], c1[order], c2[order], qx[order], qy[order]
                first = np.ones(npix.size, dtype=bool)
                first[1:] = (npix[1:] != npix[:-1]) | (qx[1:] != qx[:-1]) | (qy[1:] != qy[:-1])
                npix, c1, c2 = npix[first], c1[first], c2[first]
                idx = np.arange(npix.size)
                start = np.ones(npix.size, dtype=bool)
                start[1:] = npix[1:] != npix[:-1]
                group_start = np.maximum.accumulate(np.where(start, idx, 0))
                under = (idx - group_start) < frontier_cap
                npix, c1, c2 = npix[under], c1[under], c2[under]
            reached[np.unique(npix)] = step
            pix, z1, z2 = npix, c1, c2
        depth_map[row] = reached
    frac = np.clip(depth_map.astype(float) / depth, 0.0, 1.0)
    gray = np.round(255.0 * (1.0 - frac)).astype(np.uint8)
    return RasterImage(width, height, np.stack([gray, gray, gray], axis=-1))
