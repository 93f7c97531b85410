import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrdyn import cli
from corrdyn.cli import main
from corrdyn.config import build_correspondence, point, read_poly, read_protocol
from corrdyn.correspondence import Correspondence
from corrdyn.entropy import entropy_estimate
from corrdyn.graphpoly import identity_graph, mobius_graph
from corrdyn.measures import GridPartition, metric_entropy_estimate, pullback_dirac_tree
from corrdyn.rational import MobiusMap
from corrdyn.raster import RasterImage
from corrdyn.sphere import SpherePoint
from api_helpers import cloud_from_csv, correspondence_json, raster_from_ppm
from object_lane_orbits import enumerate_orbits as oracle_orbits
from per_point_net import fibonacci_sphere_points

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HUGE = 10 ** 400  # a JSON integer beyond the float range


def run(args, capsys=None):
    code = main(args)
    return code


def test_cov_command(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(
        json.dumps(
            {
                "map": {"num": [[0, 0], [-3, 0], [0, 0], [1, 0]], "den": [[1, 0]]},
                "out": str(tmp_path / "cov_out.json"),
            }
        )
    )
    assert main(["cov", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "deg_z=2 deg_w=2" in out
    gp = read_poly(json.loads((tmp_path / "cov_out.json").read_text()))
    want = np.array([[-3, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    assert np.allclose(gp.coeffs, want)


def test_cov_quadratic_pattern_gives_mobius_graph(tmp_path):
    # (az^2+bz+c)/(dz^2+ez+f) produces a bilinear (Moebius) graph
    cfg = tmp_path / "cov2.json"
    cfg.write_text(
        json.dumps(
            {
                "map": {
                    "num": [[-4, 0], [0, 0], [1, 0]],
                    "den": [[1, 0], [-2, 0], [1, 0]],
                },
                "out": str(tmp_path / "cov2_out.json"),
            }
        )
    )
    assert main(["cov", "--config", str(cfg)]) == 0
    gp = read_poly(json.loads((tmp_path / "cov2_out.json").read_text()))
    assert gp.deg_z == 1 and gp.deg_w == 1


def test_cov_degree_too_low_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cov1.json"
    cfg.write_text(
        json.dumps({"map": {"num": [[0, 0], [1, 0]], "den": [[1, 0]]}, "out": "x.json"})
    )
    assert main(["cov", "--config", str(cfg)]) == 1


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cov", "--config", str(bad)]) == 2
    assert main(["cov", "--config", str(tmp_path / "missing.json")]) == 2


def test_orbit_command(tmp_path):
    cfg = tmp_path / "orbit.json"
    cfg.write_text(
        json.dumps(
            {
                "correspondence": {"kind": "family_a", "a": 4},
                "seeds": [[1, 0]],
                "n": 2,
                "out": str(tmp_path / "orbits.json"),
            }
        )
    )
    assert main(["orbit", "--config", str(cfg)]) == 0
    data = json.loads((tmp_path / "orbits.json").read_text())
    assert data["count"] == 3


def test_orbit_over_a_dead_fiber_row_prints_no_warning(tmp_path):
    # B = (z - 1) w vanishes identically over the seed 1: its row is pruned
    # silently, in a real process whose stderr is read whole
    cfg = tmp_path / "orbit.json"
    poly = {"deg_z": 1, "deg_w": 1, "coeffs": [[0, 0], [-1, 0], [0, 0], [1, 0]]}
    cfg.write_text(json.dumps({
        "correspondence": {"kind": "explicit",
                           "data": {"components": [{"poly": poly, "multiplicity": 1}]}},
        "seeds": [[1, 0], [0.5, 0]],
        "n": 3,
        "out": str(tmp_path / "orbits.json"),
    }))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "corrdyn.cli", "orbit", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0
    assert not [line for line in done.stderr.splitlines() if "Warning" in line]


def test_override_flag(tmp_path, capsys):
    cfg = tmp_path / "orbit.json"
    cfg.write_text(
        json.dumps(
            {
                "correspondence": {"kind": "family_a", "a": 4},
                "seeds": [[1, 0]],
                "n": 2,
                "out": str(tmp_path / "a.json"),
            }
        )
    )
    assert main(["orbit", "--config", str(cfg), "--set", "n=1"]) == 0
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["n"] == 1 and data["count"] == 2


def test_equidist_rejects_exceptional_seed(tmp_path, capsys):
    cfg = tmp_path / "eq.json"
    cfg.write_text(
        json.dumps(
            {
                "correspondence": {"kind": "family_a", "a": 5},
                "seeds": [[-1, 0]],
                "generations": [3],
                "method": "full_tree",
                "out_prefix": str(tmp_path / "eq"),
            }
        )
    )
    assert main(["equidist", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "exceptional set" in err and "-1, 2" in err


def test_equidist_writes_clouds_and_distances(tmp_path):
    cfg = tmp_path / "eq.json"
    cfg.write_text(
        json.dumps(
            {
                "correspondence": {"kind": "family_a", "a": 4},
                "seeds": [[0.3, 0.2], [-3, 0]],
                "generations": [4],
                "method": "full_tree",
                "out_prefix": str(tmp_path / "eq"),
            }
        )
    )
    assert main(["equidist", "--config", str(cfg)]) == 0
    csv_text = (tmp_path / "eq_seed0_n4.csv").read_text()
    cloud = cloud_from_csv(csv_text)
    assert cloud.total_mass == pytest.approx(1.0, abs=1e-12)
    sidecar = json.loads((tmp_path / "eq_seed0_n4.json").read_text())
    assert sidecar["method"] == "full_tree"
    dist = json.loads((tmp_path / "eq_distances.json").read_text())
    assert len(dist) == 1 and dist[0]["n"] == 4


def test_limitset_unit_circle(tmp_path):
    cfg = tmp_path / "ls.json"
    out = tmp_path / "ls.ppm"
    width = height = 160
    cfg.write_text(
        json.dumps(
            {
                "correspondence": {
                    "kind": "map_graph",
                    "map": {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]},
                    "orientation": "forward",
                },
                "region": {"kind": "disk", "center": [0, 0], "radius": 1.0000001},
                "viewport": {"re_min": -1.6, "re_max": 1.6, "im_min": -1.6, "im_max": 1.6},
                "width": width,
                "height": height,
                "depth": 14,
                "out": str(out),
            }
        )
    )
    assert main(["limitset", "--config", str(cfg)]) == 0
    img = raster_from_ppm(out.read_bytes())
    marked = img.pixels[:, :, 0] == 0
    ys, xs = np.nonzero(marked)
    re = -1.6 + (xs + 0.5) * 3.2 / width
    im = -1.6 + (ys + 0.5) * 3.2 / height
    r = np.hypot(re, im)
    px = 3.2 / width
    # every marked boundary pixel lies within 2 pixels of the unit circle
    boundary = marked & ~(
        np.roll(marked, 1, 0) & np.roll(marked, -1, 0) & np.roll(marked, 1, 1) & np.roll(marked, -1, 1)
    )
    by, bx = np.nonzero(boundary)
    bre = -1.6 + (bx + 0.5) * px
    bim = -1.6 + (by + 0.5) * px
    assert np.max(np.abs(np.hypot(bre, bim) - 1.0)) < 2 * px
    # and the circle is fully covered by marked pixels
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    d = np.min(
        np.hypot(bre[None, :] - np.cos(th)[:, None], bim[None, :] - np.sin(th)[:, None]),
        axis=1,
    )
    assert d.max() < 2 * px


def test_verify_command_small(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(
        json.dumps(
            {
                "suites": ["chordal_metric", "involution_square", "family_fixed_fiber"],
                "rng_seed": 0,
                "out": str(tmp_path / "verify.json.out"),
            }
        )
    )
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "verify.json.out").read_text())
    assert report["passed"] is True
    assert {r["name"] for r in report["results"]} == {
        "chordal_metric",
        "involution_square",
        "family_fixed_fiber",
    }


def test_ppm_round_trip(tmp_path):
    px = np.zeros((3, 5, 3), dtype=np.uint8)
    px[1, 2] = (7, 8, 9)
    img = RasterImage(5, 3, px)
    back = raster_from_ppm(img.to_ppm())
    assert np.array_equal(img.pixels, back.pixels)


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 2


# -- quartic coverings: stage fibers of degree 3 and more ------------------------

QUARTIC_COV = {
    "kind": "covering",
    "map": {"num": [[0.1, 0], [-1, 0], [0, 0], [0.3, 0.2], [1, 0]], "den": [[1, 0]]},
}
TINY_PROTOCOL = {"eps_grid": [0.5], "n_max": 4, "budget": 4096}


def _run_config(tmp_path, command, cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


def test_entropy_on_quartic_covering(tmp_path):
    out = tmp_path / "entropy_out.json"
    cfg = {"correspondence": QUARTIC_COV, "protocol": TINY_PROTOCOL, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 0
    report = json.loads(out.read_text())["KT"]
    assert report["cap"] == pytest.approx(np.log(3))
    assert report["estimate"] <= report["cap"] + 0.05


def test_entropy_with_one_level_writes_a_degenerate_fit(tmp_path):
    # one count per eps cannot be fitted; the report says so instead of crashing
    out = tmp_path / "entropy_out.json"
    protocol = {**TINY_PROTOCOL, "n_max": 1}
    cfg = {"correspondence": QUARTIC_COV, "protocol": protocol, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 0
    report = json.loads(out.read_text())["KT"]
    assert report["slopes"][0]["window"] == [1]
    assert "degenerate_fit@eps=0.5" in report["flags"]


def test_entropy_writes_the_inverse_and_metric_sections(tmp_path):
    # the CLI's inverse and metric sections are the API's reports, as JSON
    out = tmp_path / "entropy_out.json"
    spec = {"kind": "family_a", "a": 4}
    protocol = {"eps_grid": [0.4], "n_max": 3, "budget": 4096}
    metric = {"cloud_seed": [0.3, 0.2], "cloud_generation": 4, "N_max": 2}
    cfg = {"correspondence": spec, "protocol": protocol, "estimate_inverse": True,
           "metric": metric, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 0
    payload = json.loads(out.read_text())
    C = build_correspondence(spec)
    inverse = entropy_estimate(C.transpose(), read_protocol(protocol))
    for variant in ("KT", "DS"):
        assert payload[f"{variant}_inverse"] == json.loads(json.dumps(inverse[variant].to_json()))
        assert payload[f"{variant}_inverse"]["counts"] != payload[variant]["counts"]
    cloud = pullback_dirac_tree(C, SpherePoint.from_complex(0.3 + 0.2j), 4)
    per_n, slope = metric_entropy_estimate(C, cloud, GridPartition(4, 4), 2)
    assert payload["metric_entropy"] == {
        "per_N": [[n, h] for n, h in per_n], "estimate": slope, "partition": [4, 4]}


def test_entropy_on_quartic_composition_above_six_children(tmp_path):
    # cov(R4) o cov(R4) has d1 = 9 children per node
    out = tmp_path / "entropy_out.json"
    spec = {"kind": "compose", "factors": [QUARTIC_COV, QUARTIC_COV]}
    protocol = {"eps_grid": [0.5], "n_max": 2, "budget": 4096}
    cfg = {"correspondence": spec, "protocol": protocol, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 0
    assert json.loads(out.read_text())["KT"]["cap"] == pytest.approx(np.log(9))


# sha256 of the entropy reports of two checked-in configs. Both run only the
# closed-form degree-2 fibers, so no BLAS build moves a bit; c09 (d1 = 4) hits
# the pair budget. A change to the pair stream must leave these bytes alone.
REPORT_SHA256 = {
    "accept_c12_det_entropy.json": "83a4ed67054c054057c3f6191332c3a1d0c98e42bf573067cdb9cd29634f3301",
    "accept_c09_entropy_frs.json": "952f9cc0f0502eda4ad2e0c237db6cd85689caa8602c31716f78e89a9211571a",
}


@pytest.mark.parametrize("config", sorted(REPORT_SHA256))
def test_entropy_report_bytes_are_pinned(tmp_path, capsys, config):
    out = tmp_path / "report.json"
    assert main(["entropy", "--config", str(CONFIGS / config), "--set", f"out={out}"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[config]


def _scaled(spec, j):
    """spec with every map, graph and Moebius coefficient times 2^j."""
    def scale(x):
        return [math.ldexp(v, j) for v in x] if type(x) is list else math.ldexp(x, j)
    if type(spec) is dict:
        return {k: ([scale(c) for c in v] if k in ("num", "den", "coeffs")
                    else [[scale(c) for c in row] for row in v] if k == "matrix"
                    else _scaled(v, j))
                for k, v in spec.items()}
    return [_scaled(v, j) for v in spec] if type(spec) is list else spec


def _config_spec(name):
    return json.loads((CONFIGS / name).read_text())["correspondence"]


SCALE_SPECS = {
    "c07": _config_spec("accept_c07_entropy_z2.json"),
    "c09": _config_spec("accept_c09_entropy_frs.json"),
    "c12_det_limitset": _config_spec("accept_c12_det_limitset.json"),
    # F_4 = j_4 o cov(z^3 - 3z), with j_4(z) = (5z - 8)/(2z - 5)
    "j4_after_cov": {"kind": "compose", "factors": [
        {"kind": "mobius", "matrix": [[5, -8], [2, -5]]},
        {"kind": "covering", "map": {"num": [0, -3, 0, 1], "den": [1]}}]},
    # w^2 - z^2 + z w / 2 + 1/4, a (2:2) graph with degree-2 fibers
    "explicit": {"kind": "explicit", "data": {"components": [{"multiplicity": 1, "poly": {
        "deg_z": 2, "deg_w": 2, "coeffs": [0.25, 0, 1, 0, 0.5, 0, -1, 0, 0]}}]}},
}
SMALL_PROTOCOL = {"eps_grid": [0.2], "n_max": 3}


@functools.lru_cache(maxsize=None)
def _scale_report(name: str, j: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        cfg = {"correspondence": _scaled(SCALE_SPECS[name], j), "protocol": SMALL_PROTOCOL,
               "out": str(out)}
        assert _run_config(Path(tmp), "entropy", cfg) == 0
        return out.read_bytes()


@pytest.mark.parametrize("name, j", [
    *(("c09", j) for j in (-900, -600, -450, 450, 600, 900)), ("explicit", -1000), ("explicit", 1000)])
def test_a_map_or_graph_scaled_by_a_power_of_two_writes_the_unscaled_report(name, j):
    # maps and graph polynomials whose largest coefficient lies outside
    # [2^-256, 2^256] are scaled into [1, 2) by a power of two, which moves no fiber
    assert _scale_report(name, j) == _scale_report(name, 0)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["c07", "c09", "c12_det_limitset", "j4_after_cov"]),
       j=st.integers(-1000, 1000))
@example(name="j4_after_cov", j=-100)
@example(name="j4_after_cov", j=-257)
def test_a_checked_in_map_scaled_by_any_power_of_two_writes_the_unscaled_report(name, j):
    # the Moebius determinant test is scale-free: j_4's matrix times 2^-100, inside
    # the [2^-256, 2^256] window and so not rescaled, is the map it was
    assert _scale_report(name, j) == _scale_report(name, 0)


@pytest.mark.parametrize("a", [1.7e308, -1.7e308, 1.7976931348623157e308])
def test_family_at_a_parameter_whose_matrix_overflows_is_one_error_line(tmp_path, capsys, a):
    # j_a's entry -2a overflows to infinity, so its determinant is not finite
    out = tmp_path / "report.json"
    cfg = {"correspondence": {"kind": "family_a", "a": a}, "protocol": SMALL_PROTOCOL, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 1
    assert capsys.readouterr().err == "error: Moebius map must have a finite, nonzero determinant\n"
    assert not out.exists()


@pytest.mark.parametrize("a", [1e160, 1e300, -1e300])
def test_family_at_a_huge_parameter_runs(tmp_path, capsys, a):
    # j_a's Moebius entries, of modulus about |a|, are scaled into [1, 2) before its determinant test
    out = tmp_path / "report.json"
    cfg = {"correspondence": {"kind": "family_a", "a": a}, "protocol": SMALL_PROTOCOL, "out": str(out)}
    assert _run_config(tmp_path, "entropy", cfg) == 0
    assert capsys.readouterr().err == "" and out.exists()


def test_limitset_on_quartic_covering(tmp_path):
    out = tmp_path / "ls.ppm"
    cfg = {
        "correspondence": QUARTIC_COV,
        "region": {"kind": "disk", "center": [0, 0], "radius": 2.0},
        "viewport": {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2},
        "width": 24,
        "height": 24,
        "depth": 4,
        "out": str(out),
    }
    assert _run_config(tmp_path, "limitset", cfg) == 0
    assert raster_from_ppm(out.read_bytes()).width == 24


def test_equidist_on_quartic_covering(tmp_path):
    cfg = {
        "correspondence": QUARTIC_COV,
        "seeds": [[0.3, 0.2], [-0.5, 0.1]],
        "generations": [2],
        "method": "full_tree",
        "out_prefix": str(tmp_path / "eq"),
    }
    assert _run_config(tmp_path, "equidist", cfg) == 0
    cloud = cloud_from_csv((tmp_path / "eq_seed0_n2.csv").read_text())
    assert cloud.total_mass == pytest.approx(1.0, abs=1e-12)
    assert len(json.loads((tmp_path / "eq_distances.json").read_text())) == 1


@pytest.mark.parametrize("spec", [{"kind": "family_a", "a": 4}, QUARTIC_COV], ids=["family_a", "covering"])
@pytest.mark.parametrize("method, rng_seed", [("full_tree", None), ("monte_carlo", 7)])
def test_equidist_sidecar_records_the_spec_it_read(tmp_path, spec, method, rng_seed):
    cfg = {
        "correspondence": spec,
        "seeds": [[0.3, 0.2], "inf"],
        "generations": [0, 2],
        "method": method,
        "out_prefix": str(tmp_path / "eq"),
    }
    if method == "monte_carlo":
        cfg.update(n_paths=50, rng_seed=rng_seed)
    assert _run_config(tmp_path, "equidist", cfg) == 0
    for i, seed_point in enumerate([[0.3, 0.2, "standard"], [0.0, 0.0, "reciprocal"]]):
        for n in (0, 2):
            assert json.loads((tmp_path / f"eq_seed{i}_n{n}.json").read_text()) == {
                "correspondence": spec,
                "generation": n,
                "method": method,
                "rng_seed": rng_seed,
                "seed_point": seed_point,
            }


@pytest.mark.parametrize(
    "override",
    [
        "protocol.n_max=-1",
        "protocol.bogus=1",
        "protocol.eps_grid=[0]",
        'protocol.seed_strategy="hex"',
        'protocol.eps_grid="x"',
        "protocol.n_min=8",
        "protocol.pair_budget=0",
        "protocol.n_max=1" + "0" * 400,
    ],
)
def test_entropy_protocol_violation_is_a_usage_error(tmp_path, capsys, override):
    out = tmp_path / "entropy_out.json"
    code = main(
        [
            "entropy",
            "--config",
            str(CONFIGS / "accept_c07_entropy_z2.json"),
            "--set",
            override,
            "--set",
            f"out={out}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: protocol")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "width=0",
        "height=-3",
        'width="x"',
        "depth=-1",
        "frontier_cap=0",
        "viewport.bogus=1",
        "viewport.re_min=9",
        "viewport.re_max=1" + "0" * 400,
        'viewport.im_max="a"',
        'region={"kind": "disk", "radius": 1}',
        'region.kind="disc"',
        "region.radius=0",
        'region.center="x"',
        f"region.center=[{HUGE}, 0]",
        f"region.radius={HUGE}",
        "region.radius=true",
        "region.center=[true, 0]",
        'region={"kind": "complement", "of": {"kind": "disk", "center": [0, 0], "radius": true}}',
        'region={"kind": "complement", "of": {"kind": "disk", "center": [0, 0], "radius": 1, '
        '"colour": 3}}',
        "region.colour=3",
        "colour=3",
    ],
)
def test_limitset_config_violation_is_a_usage_error(tmp_path, capsys, override):
    out = tmp_path / "ls.ppm"
    code = main(
        [
            "limitset",
            "--config",
            str(CONFIGS / "accept_c12_det_limitset.json"),
            "--set",
            override,
            "--set",
            f"out={out}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "generations=[-1]",
        'generations="x"',
        "generations=[]",
        "generations=[2.5]",
        "generations=8",
        "seeds=[]",
        'seeds="x"',
        "seeds=[[0.3, false]]",
        "budget=0",
        "n_paths=0",
        'n_paths="x"',
        'method="grid"',
        'rng_seed="x"',
        "rng_seed=-1",
        "rng_seed=2.5",
        f"rng_seed={2 ** 63}",
        f"rng_seed={2 ** 64}",
        f"seeds=[[{HUGE}, 0]]",
        f"n_paths={HUGE}",
        "methd=1",
    ],
)
def test_equidist_config_violation_is_a_usage_error(tmp_path, capsys, override):
    prefix = tmp_path / "eq"
    code = main(
        [
            "equidist",
            "--config",
            str(CONFIGS / "accept_c12_det_equidist.json"),
            "--set",
            override,
            "--set",
            f"out_prefix={prefix}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_limitset_depth_zero_renders_without_warnings(tmp_path, capsys):
    out = tmp_path / "ls.ppm"
    cfg = {
        "correspondence": QUARTIC_COV,
        "region": {"kind": "disk", "center": [0, 0], "radius": 2.0},
        "width": 8,
        "height": 6,
        "depth": 0,
        "out": str(out),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_config(tmp_path, "limitset", cfg) == 0
    assert capsys.readouterr().err == ""
    assert not raster_from_ppm(out.read_bytes()).pixels.any()


def test_equidist_runs_the_largest_rng_seed(tmp_path, capsys):
    prefix = tmp_path / "eq"
    overrides = [f"rng_seed={2 ** 63 - 1}", "n_paths=50", "generations=[2]", f"out_prefix={prefix}"]
    args = ["equidist", "--config", str(CONFIGS / "accept_c12_det_equidist.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + [x for o in overrides for x in ("--set", o)]) == 0
    assert capsys.readouterr().err == ""
    sidecar = json.loads((tmp_path / "eq_seed0_n2.json").read_text())
    assert sidecar["rng_seed"] == 2 ** 63 - 1


# -- orbit: the level-tree leaves against the object-lane oracle -----------------

CUBIC = {"num": [[0, 0], [-3, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
Z3 = {"num": [[0, 0], [0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
Z2 = {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}


def _net(count):
    return [[p.to_complex().real, p.to_complex().imag] for p in fibonacci_sphere_points(count)]


def _identity_and_negation_spec():
    comps = ((identity_graph(), 1), (mobius_graph(MobiusMap(-1, 0, 0, 1)), 1))
    return {"kind": "explicit", "data": correspondence_json(Correspondence(components=comps))}


ORBIT_CASES = {
    "family_fixed_point": ({"kind": "family_a", "a": 4}, [[1, 0]], 2, 3),
    "family_net": ({"kind": "family_a", "a": 4}, _net(30), 4, 480),
    "family_net_with_infinity": ({"kind": "family_a", "a": 4}, _net(30) + ["inf"], 3, 244),
    "identity_and_negation": (_identity_and_negation_spec(), [0.5, [0, 1], 0], 2, 9),
    "cubic_pair": ({"kind": "covering_pair", "R": CUBIC, "S": Z3}, _net(20), 2, 320),
    "quartic_covering": (QUARTIC_COV, _net(20), 2, 180),
    "squaring": ({"kind": "map_graph", "map": Z2}, _net(20), 3, 20),
}


def _embedded(points):
    return [p.embed_r3() for p in points]


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_matches_object_lane(tmp_path, case):
    # same count and labels; points within 1e-9 chordal when matched as multisets
    # (the order may differ where conjugate children tie in the last bit)
    spec, seeds, n, count = ORBIT_CASES[case]
    out = tmp_path / "orbits.json"
    cfg = {"correspondence": spec, "seeds": seeds, "n": n, "out": str(out)}
    assert _run_config(tmp_path, "orbit", cfg) == 0
    data = json.loads(out.read_text())
    got = [
        ([SpherePoint(complex(re, im), chart) for re, im, chart in o["points"]], o["labels"])
        for o in data["orbits"]
    ]
    want = oracle_orbits(build_correspondence(spec), [point(p, "seeds") for p in seeds], n)
    assert data["n"] == n and data["count"] == len(got) == len(want) == count
    xg = np.array([_embedded(points) for points, _ in got])
    xw = np.array([_embedded(o.points) for o in want])
    # chordal distance is the distance of the embeddings; an orbit's is its worst point's
    dist = np.sqrt(((xg[:, None] - xw[None]) ** 2).sum(-1)).max(-1)
    labels = [tuple(o.labels) for o in want]
    used = np.zeros(len(want), dtype=bool)
    for i, (_, labs) in enumerate(got):
        same = np.array([tuple(labs) == w for w in labels])
        match = np.flatnonzero(same & (dist[i] <= 1e-9) & ~used)
        assert match.size, f"orbit {i} has no oracle match"
        used[match[0]] = True


@pytest.mark.parametrize(
    "override",
    [
        "n=-1",
        'n="x"',
        "n=2.5",
        "seeds=[]",
        'seeds="x"',
        "seeds=[true]",
        "seeds=[[true, 0]]",
        'seeds=[["a", 0]]',
        "budget=0",
        'budget="x"',
        f"seeds=[[{HUGE}, 0]]",
        f"n={HUGE}",
        f'correspondence={{"kind": "family_a", "a": {HUGE}}}',
        f'correspondence={{"kind": "family_a", "a": [{HUGE}, 0]}}',
        f'correspondence={{"kind": "mobius", "matrix": [[{HUGE}, 0], [0, 1]]}}',
        'correspondence={"kind": "family_a", "a": 4, "b": 5}',
        "out=3",
        "bogus=1",
    ],
)
def test_orbit_config_violation_is_a_usage_error(tmp_path, capsys, override):
    out = tmp_path / "orbits.json"
    cfg = tmp_path / "orbit.json"
    cfg.write_text(
        json.dumps(
            {"correspondence": {"kind": "family_a", "a": 4}, "seeds": [[1, 0]], "n": 2, "out": str(out)}
        )
    )
    code = main(["orbit", "--config", str(cfg), "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        'suites="chordal_metric"',
        "suites=[]",
        'suites=["chordal_metric", "nope"]',
        "suites=[1]",
        "suites=[[1]]",
        'rng_seed="x"',
        "rng_seed=-1",
        "rng_seed=2.5",
        f"rng_seed={HUGE}",
        "sutes=[]",
    ],
)
def test_verify_config_violation_is_a_usage_error(tmp_path, capsys, override):
    out = tmp_path / "verify.json"
    code = main(["verify", "--set", override, "--set", f"out={out}"])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, config, key, worker",
    [
        ("entropy", "accept_c07_entropy_z2.json", "out", "entropy_estimate"),
        ("limitset", "demo_limitset_fa4.json", "out", "render_survival_set"),
        ("equidist", "accept_c12_det_equidist.json", "out_prefix", "pullback_dirac_mc"),
    ],
)
def test_missing_output_path_is_a_usage_error_before_any_work(
    tmp_path, capsys, monkeypatch, command, config, key, worker
):
    def never(*args, **kwargs):
        raise AssertionError(f"{worker} ran before the output path was checked")

    monkeypatch.setattr(cli, worker, never)
    cfg = json.loads((CONFIGS / config).read_text())
    del cfg[key]
    assert _run_config(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err == f"usage error: config field {key!r} is required\n"


@pytest.mark.parametrize(
    "override",
    [
        "metric=3",
        "metric=null",
        "metric.partition=[0, 4]",
        "metric.partition=[4]",
        'metric.partition="x"',
        "metric.N_max=0",
        "metric.N_max=2.5",
        "metric.cloud_generation=-1",
        'metric.cloud_seed="x"',
        "metric.budget=0",
        f"metric.partition=[{HUGE}, 1]",
        "metric.bogus=1",
        'estimate_inverse="no"',
        "estimate_inverse=1",
        "protcol.n_max=3",
    ],
)
def test_entropy_metric_violation_is_a_usage_error_before_any_work(
    tmp_path, capsys, monkeypatch, override
):
    def never(*args, **kwargs):
        raise AssertionError("entropy_estimate ran before the metric section was checked")

    monkeypatch.setattr(cli, "entropy_estimate", never)
    out = tmp_path / "metric.json"
    code = main(
        [
            "entropy",
            "--config",
            str(CONFIGS / "accept_c11_metric_fa4.json"),
            "--set",
            override,
            "--set",
            f"out={out}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_number_in_a_config_file_is_a_usage_error(tmp_path, capsys, literal):
    text = (CONFIGS / "demo_cov_cubic.json").read_text()
    path = tmp_path / "cov.json"
    path.write_text(text.replace('"num": [[0, 0]', f'"num": [[{literal}, 0]', 1))
    assert literal in path.read_text()
    out = tmp_path / "cov_out.json"
    assert main(["cov", "--config", str(path), "--set", f"out={out}"]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: config numbers must be finite, got {literal}\n"
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_in_an_override_is_a_usage_error(tmp_path, capsys, literal):
    prefix = tmp_path / "eq"
    code = main(
        [
            "equidist",
            "--config",
            str(CONFIGS / "accept_c12_det_equidist.json"),
            "--set",
            f"seeds=[[{literal}, 0]]",
            "--set",
            f"out_prefix={prefix}",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: config numbers must be finite, got {literal}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "mobius", "matrix": [1, 2]}, "matrix must be 2x2, [[a, b], [c, d]]"),
        ({"kind": "mobius", "matrix": [[1, 2], [3]]}, "matrix must be 2x2, [[a, b], [c, d]]"),
        ({"kind": "compose", "factors": 3}, "factors must be a non-empty list"),
        ({"kind": "covering", "map": 3}, "map must be an object"),
        ({"kind": "covering_pair", "R": 3, "S": {"num": [[1, 0]], "den": [[1, 0]]}},
         "R must be an object"),
        ({"kind": "map_graph", "map": [1, 2]}, "map must be an object"),
        ({"kind": "explicit", "data": 3}, "data must be an object"),
        ({"kind": "compose", "factors": [{"kind": "mobius", "matrix": [[1, 0], [0, 1]]},
                                         {"kind": "covering", "map": {"num": [1], "den": 3}}]},
         "factors[1].map.den must be a non-empty list"),
    ],
)
def test_malformed_correspondence_spec_is_a_usage_error(tmp_path, capsys, monkeypatch, spec,
                                                        message):
    def never(*args, **kwargs):
        raise AssertionError("entropy_estimate ran on a malformed correspondence")

    monkeypatch.setattr(cli, "entropy_estimate", never)
    out = tmp_path / "entropy.json"
    code = main(
        [
            "entropy",
            "--config",
            str(CONFIGS / "accept_c07_entropy_z2.json"),
            "--set",
            f"correspondence={json.dumps(spec)}",
            "--set",
            f"out={out}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {message}, got ")
    assert not out.exists()


def test_cov_map_not_an_object_is_a_usage_error(tmp_path, capsys):
    assert main(["cov", "--set", "map=3", "--set", f"out={tmp_path / 'cov.json'}"]) == 2
    assert capsys.readouterr().err == "usage error: map must be an object, got 3\n"


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(
        [
            "entropy",
            "--config",
            str(CONFIGS / "accept_c07_entropy_z2.json"),
            "--set",
            'protocol={"eps_grid": [0.5], "n_max": 2, "budget": 4096}',
            "--set",
            f"out={blocker / 'report.json'}",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(blocker) in err


_POLY = {"deg_z": 1, "deg_w": 1, "coeffs": [[0, 0], [-1, 0], [1, 0], [0, 0]]}  # w - z
_NO_W = {"deg_z": 1, "deg_w": 0, "coeffs": [[1, 0], [1, 0]]}  # 1 + z


def _explicit(data):
    return f"correspondence={json.dumps({'kind': 'explicit', 'data': data})}"


_COMPONENT = {"poly": _POLY, "multiplicity": 1}


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("cov", 'map={"num": 3}', "map.num must be a non-empty list"),
        ("cov", 'map={"num": [[0, 0], [0, 0], [1, 0]], "den": "x"}',
         "map.den must be a non-empty list"),
        ("cov", 'map={"num": [[0, 0], [true, 0], [1, 0]], "den": [[1, 0]]}',
         "map.num[1] must be a number or an [re, im] pair"),
        ("cov", 'map={"num": [[0, 0], [0, 0, 1]], "den": [[1, 0]]}',
         "map.num[1] must be a number or an [re, im] pair"),
        ("cov", f'map={{"num": [[{HUGE}, 0], [1, 0]], "den": [[1, 0]]}}',
         "map.num[0] must be a number or an [re, im] pair"),
        ("orbit", _explicit({}), "data must be an object with exactly one of components and chain"),
        ("orbit", _explicit({"chain": 3}), "data.chain must be a non-empty list"),
        ("orbit", _explicit({"chain": [3]}), "data.chain[0] must be an object"),
        ("orbit", _explicit({"components": [{"poly": 3}]}), "data.components[0].poly must be"),
        ("orbit", _explicit({"components": [{"poly": _POLY, "multiplicity": 1.5}]}),
         "data.components[0].multiplicity must be an integer >= 1"),
        ("orbit", _explicit({"components": [{"poly": 3, "multiplicity": 1}]}),
         "data.components[0].poly must be an object"),
        ("orbit", _explicit({"components": [{"poly": {**_POLY, "deg_w": 2}, "multiplicity": 1}]}),
         "data.components[0].poly.coeffs must be a list of 6"),
        ("orbit", _explicit({"components": [{"poly": {**_POLY, "coeffs": "x"}, "multiplicity": 1}]}),
         "data.components[0].poly.coeffs must be a list of 4"),
        # the constructor's refusal: the poly is read, then trimmed
        ("orbit", _explicit({"components": [{"poly": _NO_W, "multiplicity": 1}]}),
         "poly must have both z and w, got deg_z=1 and deg_w=0"),
        ("orbit", _explicit({"components": [{"poly": {**_NO_W, "deg_w": 1, "coeffs": [
            [1, 0], [0, 0], [1, 0], [0, 0]]}, "multiplicity": 1}]}),
         "poly must have both z and w, got deg_z=1 and deg_w=0"),
        ("orbit", _explicit({"components": [{"poly": {**_NO_W, "deg_z": 0, "deg_w": 1},
                                             "multiplicity": 1}]}),
         "poly must have both z and w, got deg_z=0 and deg_w=1"),
        ("orbit", _explicit({"components": [{"poly": {**_POLY, "coeffs": [[0, 0]] * 4},
                                             "multiplicity": 1}]}),
         "data.components[0].poly.coeffs must be a list with a nonzero coefficient"),
        ("cov", 'map={"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]], "colour": 3}',
         "map has unknown key(s): colour"),
        ("orbit", _explicit({"components": [{"poly": {**_POLY, "note": "w - z"},
                                             "multiplicity": 1}]}),
         "data.components[0].poly has unknown key(s): note"),
        ("orbit", _explicit({"components": [{**_COMPONENT, "weight": 2}]}),
         "data.components[0] has unknown key(s): weight"),
        ("orbit", _explicit({"components": [_COMPONENT], "name": "x"}),
         "data has unknown key(s): name"),
        ("orbit", _explicit({"components": [_COMPONENT], "chain": "junk"}),
         "data must be an object with exactly one of components and chain"),
        ("orbit", _explicit({"components": [_COMPONENT], "d1": 2}),
         "data.d1 must be 1, the built d1, got 2"),
        ("orbit", _explicit({"chain": [{"components": [_COMPONENT], "d2": 3}]}),
         "data.chain[0].d2 must be 1, the built d2, got 3"),
    ],
    ids=["map_without_den", "den_not_a_list", "boolean_coefficient", "triple_coefficient",
         "oversized_coefficient",
         "empty_data", "chain_not_a_list", "chain_of_numbers", "component_without_multiplicity",
         "fractional_multiplicity", "poly_not_an_object", "coeff_count", "coeffs_not_a_list",
         "poly_without_w", "zero_w_coefficients", "poly_without_z", "zero_poly",
         "unknown_map_key", "unknown_poly_key", "unknown_component_key", "unknown_data_key",
         "components_and_chain", "d1_not_built", "chained_d2_not_built"],
)
def test_malformed_map_or_data_contents_are_a_usage_error(tmp_path, capsys, command, override,
                                                          message):
    out = tmp_path / "out.json"
    base = {"cov": [], "orbit": ["--set", "seeds=[[0.5, 0]]", "--set", "n=1"]}[command]
    code = main([command, "--set", override, "--set", f"out={out}", *base])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {message}")
    assert not out.exists()


def test_poly_coefficients_are_numbers_or_pairs():
    gp = read_poly({"deg_z": 1, "deg_w": 1, "coeffs": [0, [-1, 0], 1.0, [0, 0]]})
    assert np.array_equal(gp.coeffs, read_poly(_POLY).coeffs)


def test_chain_nested_300_deep_is_read(tmp_path):
    # a chain level costs the reader as many stack frames as the JSON decoder
    data = {"components": [_COMPONENT]}
    for _ in range(300):
        data = {"chain": [data]}
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"correspondence": {"kind": "explicit", "data": data},
                                "seeds": [0.5], "n": 1, "out": str(tmp_path / "out.json")}))
    assert main(["orbit", "--config", str(path)]) == 0


def test_json_nested_past_the_stack_is_one_usage_error_line(tmp_path, capsys):
    path = tmp_path / "cov.json"
    path.write_text('{"map": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = f"out={tmp_path / 'out.json'}"
    assert main(["cov", "--config", str(path), "--set", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config file is not valid JSON: ") and err.count("\n") == 1
    assert main(["cov", "--set", "map=" + "[" * 100_000 + "]" * 100_000, "--set", out]) == 2
    assert capsys.readouterr().err == "usage error: override 'map' is nested past the stack\n"


def test_explicit_correspondence_round_trips_through_the_config():
    C = build_correspondence({"kind": "explicit", "data": {"components": [{"poly": _POLY,
                                                                           "multiplicity": 1}]}})
    data = {"chain": [correspondence_json(C)] * 2}
    chain = build_correspondence({"kind": "explicit", "data": data})
    assert (C.d1, C.d2) == (1, 1) and (chain.d1, chain.d2) == (1, 1)


WORKERS = [
    ("entropy", "accept_c07_entropy_z2.json", "out", "entropy_estimate", "protocol.n_max=0"),
    ("limitset", "demo_limitset_fa4.json", "out", "render_survival_set", "width=0"),
    ("equidist", "accept_c12_det_equidist.json", "out_prefix", "pullback_dirac_mc",
     "generations=[-1]"),
]


@pytest.mark.parametrize("command, config, key, worker, _bad", WORKERS)
def test_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch, command, config,
                                                 key, worker, _bad):
    def never(*args, **kwargs):
        raise AssertionError(f"{worker} ran before the output directory was made")

    monkeypatch.setattr(cli, worker, never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [command, "--config", str(CONFIGS / config), "--set", f"{key}={blocker / 'x'}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(blocker) in err


@pytest.mark.parametrize("command, config, key, _worker, bad", WORKERS)
def test_config_that_fails_validation_makes_no_directory(tmp_path, capsys, command, config, key,
                                                        _worker, bad):
    target = tmp_path / "new" / "x"
    args = [command, "--config", str(CONFIGS / config), "--set", f"{key}={target}", "--set", bad]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "new").exists()


SHRUNK_PROTOCOL = 'protocol={"eps_grid": [0.5], "n_max": 2, "budget": 4096}'
MOBIUS_SHIFT = 'correspondence={"kind": "mobius", "matrix": [[1, 1], [0, 1]]}'


@pytest.mark.parametrize(
    "command, config, overrides",
    [
        ("orbit", None, ['correspondence={"kind": "family_a", "a": 4}', "seeds=[[1, 0]]",
                         "n=1000000000000"]),
        ("entropy", "accept_c07_entropy_z2.json", ["protocol.n_max=1000000000000"]),
        ("entropy", "accept_c08_entropy_fa4.json",
         ['protocol={"eps_grid": [0.5], "n_max": 12, "budget": 4096}']),
        ("entropy", "accept_c11_metric_fa4.json", [SHRUNK_PROTOCOL, "metric.N_max=1000000000000"]),
        ("entropy", "accept_c11_metric_fa4.json",
         [SHRUNK_PROTOCOL, "metric.cloud_generation=1000000000000"]),
        ("equidist", "accept_c12_det_equidist.json", ["generations=[1000000000000]"]),
        # d = 1: every level holds the seeds, so only the work over all levels grows
        ("orbit", None, [MOBIUS_SHIFT, "seeds=[[1, 0]]", "n=1000000000"]),
        ("equidist", "accept_c12_det_equidist.json", [MOBIUS_SHIFT, "generations=[1000000000]"]),
    ],
    ids=["orbit_depth", "entropy_depth", "entropy_one_seed_tree", "metric_N_max",
         "metric_cloud_generation", "monte_carlo_walks", "orbit_depth_d1", "equidist_depth_d1"],
)
def test_work_past_the_budget_is_one_error_line_at_once(tmp_path, capsys, command, config,
                                                        overrides):
    # each size is checked against its budget before anything that size is built
    key = "out_prefix" if command == "equidist" else "out"
    args = [command] + (["--config", str(CONFIGS / config)] if config else [])
    args += [x for o in overrides + [f"{key}={tmp_path / 'out'}"] for x in ("--set", o)]
    start = time.monotonic()
    assert main(args) == 1
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "budget" in err


def _limit_address_space():
    # 2 GiB: a render that allocates its full size fails in the child, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


def _run_child(args):
    """The CLI in a child process, with a 5 s timeout and 2 GiB of address space."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "corrdyn.cli", *args], capture_output=True,
                          text=True, timeout=5, env=env, preexec_fn=_limit_address_space)


@pytest.mark.parametrize("size", ["width", "height", "depth"])
def test_limitset_size_past_the_budget_is_one_error_line_in_a_real_run(tmp_path, size):
    # the real command, not a stubbed renderer: without a budget, width and
    # height run out of memory and depth (d1 = 1) runs without end
    done = _run_child(["limitset", "--config", str(CONFIGS / "accept_c12_det_limitset.json"),
                       "--set", f"{size}=1000000000000", "--set", f"out={tmp_path / 'out.ppm'}"])
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert "budget" in done.stderr and not (tmp_path / "out.ppm").exists()


def test_limitset_frontier_cap_past_the_budget_is_one_error_line_in_a_real_run(tmp_path):
    # the budget counts the branches the frontier may hold: at a cap of 10^12 the demo's
    # 320 x 320 frontiers could double at each of 40 steps, 2^41 - 2 images a pixel in
    # all, and the message gives that count, not 320 x 320 x 40 x 2
    done = _run_child(["limitset", "--config", str(CONFIGS / "demo_limitset_fa4.json"),
                       "--set", "frontier_cap=1000000000000", "--set", "depth=40",
                       "--set", f"out={tmp_path / 'out.ppm'}"])
    assert done.returncode == 1
    assert done.stderr == (
        "error: raster of 320x320 pixels to depth 40 at frontier_cap 1000000000000 makes "
        f"{320 * 320 * (2 ** 41 - 2)} images, past budget {2 ** 30}\n")
    assert not (tmp_path / "out.ppm").exists()


@pytest.mark.parametrize(
    "command, config",
    [("orbit", None), ("entropy", "accept_c07_entropy_z2.json"),
     ("equidist", "accept_c12_det_equidist.json"), ("limitset", "accept_c12_det_limitset.json")],
)
def test_fiber_width_past_the_budget_is_one_error_line_in_a_real_run(tmp_path, command, config):
    # w = z with multiplicity 10^12: every fiber is 10^12 points wide
    key = "out_prefix" if command == "equidist" else "out"
    spec = {"kind": "explicit",
            "data": {"components": [{"poly": _POLY, "multiplicity": 10 ** 12}]}}
    args = [command] + (["--config", str(CONFIGS / config)] if config else
                        ["--set", "seeds=[[0.5, 0]]", "--set", "n=2"])
    args += ["--set", f"correspondence={json.dumps(spec)}", "--set", f"{key}={tmp_path / 'out'}"]
    done = _run_child(args)
    assert done.returncode in (1, 2)
    assert len(done.stderr.splitlines()) == 1 and "budget" in done.stderr
    assert not list(tmp_path.iterdir())


def test_metric_on_a_dead_fiber_row_is_one_error_line_in_a_real_run(tmp_path):
    # B = (z - 1) w vanishes identically over z = 1, where the metric cloud sits
    poly = {"deg_z": 1, "deg_w": 1, "coeffs": [[0, 0], [-1, 0], [0, 0], [1, 0]]}
    spec = {"kind": "explicit", "data": {"components": [{"poly": poly, "multiplicity": 1}]}}
    out = tmp_path / "out.json"
    done = _run_child(["entropy", "--config", str(CONFIGS / "accept_c11_metric_fa4.json"),
                       "--set", f"correspondence={json.dumps(spec)}", "--set", SHRUNK_PROTOCOL,
                       "--set", "metric.cloud_seed=0.5", "--set", "metric.cloud_generation=1",
                       "--set", "metric.N_max=3", "--set", f"out={out}"])
    assert done.returncode == 1
    assert done.stderr == "error: degenerate fiber at refinement level 0\n"
    assert not out.exists()


def test_limitset_budget_key_bounds_pixels_times_depth(tmp_path, capsys):
    # c12 is 160 x 160 pixels to depth 14: 358,400 pixel steps
    args = ["limitset", "--config", str(CONFIGS / "accept_c12_det_limitset.json"),
            "--set", f"out={tmp_path / 'out.ppm'}"]
    assert main(args + ["--set", "budget=358399"]) == 1
    assert capsys.readouterr().err == (
        "error: raster of 160x160 pixels to depth 14 at frontier_cap 64 makes 358400 images, "
        "past budget 358399\n")
    assert main(args + ["--set", "budget=358400"]) == 0


def test_limitset_budget_counts_every_image_of_a_step(tmp_path, capsys):
    # family a = 4 has d1 = 2: 4 x 4 pixels to depth 1 make 32 images
    args = ["limitset", "--config", str(CONFIGS / "demo_limitset_fa4.json"), "--set", "width=4",
            "--set", "height=4", "--set", "depth=1", "--set", f"out={tmp_path / 'out.ppm'}"]
    assert main(args + ["--set", "budget=31"]) == 1
    assert capsys.readouterr().err == (
        "error: raster of 4x4 pixels to depth 1 at frontier_cap 64 makes 32 images, "
        "past budget 31\n")
    assert main(args + ["--set", "budget=32"]) == 0



@pytest.mark.parametrize(
    "config, overrides",
    [
        # eps * eps underflows to 0: the net size is not finite
        ("accept_c08_entropy_fa4.json", ['protocol={"eps_grid": [1e-300], "n_max": 2, '
                                         '"budget": 4096}']),
        # a net of about 5.5e25 points, past int64 indices
        ("accept_c08_entropy_fa4.json", ['protocol={"eps_grid": [1e-12], "n_max": 2, '
                                         '"budget": 4096}']),
        # stride 1 on a 10^12 grid: 10^24 cells
        ("accept_c07_entropy_z2.json", ["protocol.grid_size=1000000000000",
                                        "protocol.eps_grid=[1e-13]"]),
    ],
    ids=["net_underflow", "net_past_int64", "grid_past_int64"],
)
def test_seed_net_too_large_to_index_is_a_usage_error_at_once(tmp_path, capsys, config,
                                                              overrides):
    out = tmp_path / "out.json"
    args = ["entropy", "--config", str(CONFIGS / config)]
    args += [x for o in overrides + [f"out={out}"] for x in ("--set", o)]
    start = time.monotonic()
    assert main(args) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("usage error: protocol.eps_grid")
    assert not out.exists()


def test_square_grid_builds_only_the_kept_cells(tmp_path, capsys):
    # a 10^12 grid at stride 5e10 has 20 cells a side: nothing of size g is built
    out = tmp_path / "out.json"
    args = ["entropy", "--config", str(CONFIGS / "accept_c07_entropy_z2.json")]
    overrides = ["protocol.grid_size=1000000000000", "protocol.eps_grid=[0.2]",
                 "protocol.n_max=3", f"out={out}"]
    start = time.monotonic()
    assert main(args + [x for o in overrides for x in ("--set", o)]) == 0
    assert time.monotonic() - start < 5.0
    report = json.loads(out.read_text())["KT"]
    assert report["diagnostics"]["budget_usage"]["eps=0.2"]["seeds"] == 20 * 20


def test_level_past_int32_slots_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the bound is lowered so that no level of 2^31 slots is ever allocated
    monkeypatch.setattr("corrdyn.entropy._MAX_SLOTS", 1000)
    out = tmp_path / "out.json"
    args = ["entropy", "--config", str(CONFIGS / "accept_c12_det_entropy.json"),
            "--set", f"out={out}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "2^31" in err
    assert not out.exists()


# -- config mutations: a checked-in config with one key dropped, added or replaced --------

#: the command each checked-in config runs
CONFIG_COMMANDS = {
    "accept_c07_entropy_z2.json": "entropy",
    "accept_c08_entropy_fa4.json": "entropy",
    "accept_c09_entropy_frs.json": "entropy",
    "accept_c10_equidist_a4.json": "equidist",
    "accept_c10_reject_a5.json": "equidist",
    "accept_c11_metric_fa4.json": "entropy",
    "accept_c12_det_entropy.json": "entropy",
    "accept_c12_det_equidist.json": "equidist",
    "accept_c12_det_limitset.json": "limitset",
    "demo_cov_cubic.json": "cov",
    "demo_limitset_fa4.json": "limitset",
}
#: the compute entry points cli calls once a config has passed every check
COMPUTE = ["cov_graph", "enumerate_orbits", "entropy_estimate", "pullback_dirac_tree",
           "pullback_dirac_tree_levels", "pullback_dirac_mc", "metric_entropy_estimate",
           "energy_distance", "render_survival_set"]
WRONG_VALUES = ["x", "", [], {}, None, True, False, 0, -1, 0.5, -2.5, 10 ** 12, -(10 ** 12),
                HUGE, -HUGE, [HUGE, 0], [True, 0], [0, 0, 0], {"kind": "x"},
                1e300, -1e300, 1.7e308, -1.7e308, 1e-300, 5e-324, [1e300, 1e300], [5e-324, 0]]


class _Reached(Exception):
    """A compute entry point was called: the config passed every check."""


def _reached(*args, **kwargs):
    raise _Reached


def _key_paths(node, prefix=()):
    """The path of every dict key and list item in a JSON tree."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    return [p for key, value in items for p in [prefix + (key,)] + _key_paths(value, prefix + (key,))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_config_is_one_error_line_or_reaches_the_work(tmp_path_factory, data):
    assert sorted(CONFIG_COMMANDS) == sorted(p.name for p in CONFIGS.glob("*.json"))
    name = data.draw(st.sampled_from(sorted(CONFIG_COMMANDS)))
    command = CONFIG_COMMANDS[name]
    cfg = json.loads((CONFIGS / name).read_text())
    key = "out_prefix" if command == "equidist" else "out"
    tmp = tmp_path_factory.mktemp("mutation")
    cfg[key] = str(tmp / "out" / key)
    path = data.draw(st.sampled_from(_key_paths(cfg)))
    parent = cfg
    for part in path[:-1]:
        parent = parent[part]
    how = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "drop":
        del parent[path[-1]]
    elif how == "add" and type(parent) is dict:
        parent["bogus"] = 1
    else:
        parent[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES))
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for entry in COMPUTE:
            mp.setattr(cli, entry, _reached)
        try:
            code = main([command, "--config", str(tmp / "cfg.json")])
        except _Reached:
            return
    lines = err.getvalue().splitlines()
    assert code in (1, 2) and len(lines) == 1, (name, path, how, lines)
    assert lines[0].startswith("usage error: " if code == 2 else "error: ")
