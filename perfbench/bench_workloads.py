"""The four benchmark workloads: generated configs, output checks, references.

Each workload turns the benchmark seed into a config for one `corrdyn`
command.  Workloads with random inputs have a few input variants, chosen by
seed modulo the variant count, so that every run can be checked against a
reference recorded when the benchmark was added (by record_reference.py).
Why each workload is in the benchmark is written in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_check

REF_DIR = Path(__file__).resolve().parent / "reference"

FAMILY_A4 = {"kind": "family_a", "a": 4}
CUBIC_CHEBYSHEV = {"num": [[0, 0], [-3, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
CUBE = {"num": [[0, 0], [0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
# z^4 + (0.3+0.2i) z^3 - z + 0.1: a quartic without symmetry
QUARTIC = {"num": [[0.1, 0], [-1, 0], [0, 0], [0.3, 0.2], [1, 0]], "den": [[1, 0]]}


@dataclass(frozen=True)
class Entropy:
    """`corrdyn entropy`; the protocol has no random input, so one variant."""

    name: str
    correspondence: dict
    protocol: dict
    inverse: bool
    band: tuple  # acceptance band every estimate must stay in
    command: str = "entropy"
    variants: int = 1

    def config(self, variant: int) -> dict:
        return {
            "correspondence": self.correspondence,
            "protocol": self.protocol,
            "estimate_inverse": self.inverse,
        }

    def out_args(self, tmp: Path) -> list[str]:
        return ["--set", f"out={tmp / 'entropy.json'}"]

    def _ref(self, variant: int) -> Path:
        return REF_DIR / f"{self.name}.json"

    def check(self, tmp: Path, variant: int) -> list[str]:
        artifact = bench_check.load_json(tmp / "entropy.json")
        reference = bench_check.load_json(self._ref(variant))
        return bench_check.check_entropy(artifact, reference, self.band)

    def record(self, tmp: Path, variant: int) -> Path:
        artifact = bench_check.load_json(tmp / "entropy.json")
        return _write_json(self._ref(variant), {"reports": bench_check.entropy_summary(artifact)})


@dataclass(frozen=True)
class Equidist:
    """`corrdyn equidist` full-tree pullbacks from two seed points in |z| <= 1."""

    name: str
    correspondence: dict
    generations: tuple
    command: str = "equidist"
    variants: int = 4

    def seeds(self, variant: int) -> list[list[float]]:
        rng = np.random.default_rng(variant)
        r = np.sqrt(rng.random(2))
        theta = 2 * math.pi * rng.random(2)
        return [[round(float(a), 6), round(float(b), 6)]
                for a, b in zip(r * np.cos(theta), r * np.sin(theta))]

    def config(self, variant: int) -> dict:
        return {
            "correspondence": self.correspondence,
            "seeds": self.seeds(variant),
            "generations": list(self.generations),
            "method": "full_tree",
        }

    def out_args(self, tmp: Path) -> list[str]:
        return ["--set", f"out_prefix={tmp / 'cloud'}"]

    def _ref(self, variant: int) -> Path:
        return REF_DIR / f"{self.name}_v{variant}.npz"

    def _arrays(self, tmp: Path) -> dict:
        arrays = {}
        for si in range(2):
            for n in self.generations:
                text = (tmp / f"cloud_seed{si}_n{n}.csv").read_text(encoding="utf-8")
                arrays[f"s{si}_n{n}"] = bench_check.parse_cloud_csv(text)
        return arrays

    def _distances(self, tmp: Path) -> list:
        return bench_check.load_json(tmp / "cloud_distances.json")

    def check(self, tmp: Path, variant: int) -> list[str]:
        with np.load(self._ref(variant), allow_pickle=False) as ref:
            got = self._arrays(tmp)
            problems = []
            for key, cloud in got.items():
                problems += bench_check.check_cloud(cloud, ref[key], key)
            problems += bench_check.check_distances(self._distances(tmp), ref["distances"])
        return problems

    def record(self, tmp: Path, variant: int) -> Path:
        rows = [[r["n"], r["seed_i"], r["seed_j"], r["energy_distance"]]
                for r in self._distances(tmp)]
        path = self._ref(variant)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, distances=np.array(rows, dtype=float), **self._arrays(tmp))
        return path


@dataclass(frozen=True)
class Limitset:
    """`corrdyn limitset` with the viewport shifted by a sub-pixel offset per variant."""

    name: str
    base: dict
    command: str = "limitset"
    variants: int = 4

    def config(self, variant: int) -> dict:
        cfg = dict(self.base)
        vp = dict(cfg["viewport"])
        dx, dy = np.random.default_rng(variant).random(2)
        px = (vp["re_max"] - vp["re_min"]) / cfg["width"]
        py = (vp["im_max"] - vp["im_min"]) / cfg["height"]
        for lo, hi, off in (("re_min", "re_max", dx * px), ("im_min", "im_max", dy * py)):
            vp[lo] = round(vp[lo] + off, 9)
            vp[hi] = round(vp[hi] + off, 9)
        cfg["viewport"] = vp
        return cfg

    def out_args(self, tmp: Path) -> list[str]:
        return ["--set", f"out={tmp / 'limitset.ppm'}"]

    def _ref(self, variant: int) -> Path:
        return REF_DIR / f"{self.name}_v{variant}.json"

    def check(self, tmp: Path, variant: int) -> list[str]:
        want = bench_check.load_json(self._ref(variant))["sha256"]
        return bench_check.check_ppm((tmp / "limitset.ppm").read_bytes(), want)

    def record(self, tmp: Path, variant: int) -> Path:
        data = (tmp / "limitset.ppm").read_bytes()
        return _write_json(self._ref(variant), {"sha256": bench_check.sha256(data)})


def _write_json(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# The c08 protocol (family a=4, forward and inverse, eps 0.2/0.1/0.05,
# n_max 9) with the node budget cut from 2^20 to 2^17, so one sample takes
# seconds rather than half a minute and a run holds several; the estimate
# stays in the c08 band.
ENTROPY_FA4 = Entropy(
    name="entropy_fa4",
    correspondence=FAMILY_A4,
    protocol={"eps_grid": [0.2, 0.1, 0.05], "n_max": 9, "budget": 131072,
              "seed_strategy": "net"},
    inverse=True,
    band=(0.55, 0.75),
)

# The c09 protocol unchanged: its 8 M candidate-pair budget sets the peak
# memory the ROADMAP target is about.
ENTROPY_FRS = Entropy(
    name="entropy_frs",
    correspondence={"kind": "covering_pair", "R": CUBIC_CHEBYSHEV, "S": CUBE},
    protocol={"eps_grid": [0.2, 0.1, 0.05], "n_max": 6, "budget": 1048576,
              "seed_strategy": "net"},
    inverse=False,
    band=(1.15, 1.45),
)

# Generations 2/3/4 instead of 3/4/5: one generation less keeps a sample near
# 2 s instead of 18 s, so a run holds several samples.
EQUIDIST_COV43 = Equidist(
    name="equidist_cov43",
    correspondence={"kind": "compose", "factors": [
        {"kind": "covering", "map": QUARTIC},
        {"kind": "covering", "map": CUBIC_CHEBYSHEV},
    ]},
    generations=(2, 3, 4),
)

# configs/demo_limitset_fa4.json at 640 x 640 instead of 320 x 320.
LIMITSET_FA4 = Limitset(
    name="limitset_fa4",
    base={
        "correspondence": FAMILY_A4,
        "region": {"kind": "complement",
                   "of": {"kind": "disk", "center": [1.75, 0], "radius": 0.75}},
        "viewport": {"re_min": -2.5, "re_max": 3.5, "im_min": -3.0, "im_max": 3.0},
        "width": 640,
        "height": 640,
        "depth": 14,
    },
)

WORKLOADS = {w.name: w for w in (ENTROPY_FA4, ENTROPY_FRS, EQUIDIST_COV43, LIMITSET_FA4)}
