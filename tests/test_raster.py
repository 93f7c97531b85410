"""The block-frontier renderer against the row-at-a-time oracle, byte for byte."""

import functools
import json

import pytest

from corrdyn import raster
from corrdyn.cli import main
from corrdyn.config import build_correspondence, read_region, read_viewport
from row_loop_raster import render_rows

FAMILY_A4 = {"kind": "family_a", "a": 4}
Z_SQUARED = {
    "kind": "map_graph",
    "map": {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]},
    "orientation": "forward",
}
QUARTIC_COV = {
    "kind": "covering",
    "map": {"num": [[0.1, 0], [-1, 0], [0, 0], [0.3, 0.2], [1, 0]], "den": [[1, 0]]},
}

# No height is a multiple of 7 rows, nor of the 4 rows the default block
# holds at width 1000, so the last block is a partial one.
CASES = {
    "family_a4_complement": {
        "correspondence": FAMILY_A4,
        "region": {"kind": "complement",
                   "of": {"kind": "disk", "center": [1.75, 0], "radius": 0.75}},
        "viewport": {"re_min": -2.5, "re_max": 3.5, "im_min": -3.0, "im_max": 3.0},
        "width": 1000,
        "height": 11,
        "depth": 9,
    },
    "z_squared_disk": {
        "correspondence": Z_SQUARED,
        "region": {"kind": "disk", "center": [0, 0], "radius": 1.0000001},
        "viewport": {"re_min": -1.6, "re_max": 1.6, "im_min": -1.6, "im_max": 1.6},
        "width": 40,
        "height": 29,
        "depth": 14,
    },
    "quartic_half_plane": {
        "correspondence": QUARTIC_COV,
        "region": {"kind": "half_plane", "point": [-0.5, 0], "normal": [1, 0.3]},
        "viewport": {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2},
        "width": 33,
        "height": 23,
        "depth": 5,
    },
    # here the branch the cap keeps decides the depth some pixels reach
    "family_a4_disk_cap_one": {
        "correspondence": FAMILY_A4,
        "region": {"kind": "disk", "center": [0, 0], "radius": 2.0},
        "viewport": {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2},
        "width": 36,
        "height": 31,
        "depth": 10,
        "frontier_cap": 1,
    },
    # the middle row lies on the real axis, where F_4 maps real points to
    # real branches: they share a quarter-pixel row (qy = 0) and only their
    # column qx keeps them apart in the per-pixel dedupe
    "family_a4_real_axis_dedupe": {
        "correspondence": FAMILY_A4,
        "region": {"kind": "disk", "center": [0, 0], "radius": 1.8},
        "viewport": {"re_min": -2.5, "re_max": 2.5, "im_min": -1, "im_max": 1},
        "width": 48,
        "height": 5,
        "depth": 10,
        "frontier_cap": 2,
    },
}


@functools.lru_cache(maxsize=None)
def _oracle_ppm(case: str) -> bytes:
    cfg = CASES[case]
    img = render_rows(
        build_correspondence(cfg["correspondence"]),
        read_region(cfg["region"]),
        read_viewport(cfg["viewport"]),
        cfg["width"],
        cfg["height"],
        depth=cfg["depth"],
        frontier_cap=cfg.get("frontier_cap", 64),
    )
    return img.to_ppm()


@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_frontier_matches_row_loop(tmp_path, monkeypatch, case, block_rows):
    cfg = dict(CASES[case], out=str(tmp_path / "ls.ppm"))
    if block_rows is not None:
        monkeypatch.setattr(raster, "_BLOCK_PIXELS", block_rows * cfg["width"])
    path = tmp_path / "ls.json"
    path.write_text(json.dumps(cfg))
    assert main(["limitset", "--config", str(path)]) == 0
    assert (tmp_path / "ls.ppm").read_bytes() == _oracle_ppm(case)
