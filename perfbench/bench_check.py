"""Output checks: each artifact is compared with a recorded reference.

Every check returns a list of problems; an empty list means the output is correct.

Tolerances for pullback clouds, and why:

* ATOM_TOL = 1e-9 chordal for atom positions.  It equals corrdyn's own
  ATOM_MERGE_TOL (atoms closer than that are one atom to the program) and the
  1e-9 fiber match of acceptance criterion 4; the loosest acceptance point
  match, 1e-6 (criterion 6), is looser.
* WEIGHT_TOL = 1e-12 absolute.  Weights are multiplicity over total, exact
  up to rounding, and 1e-12 is the exactness bound of acceptance criterion 11.
* ENERGY_TOL = 1e-8 absolute.  Moving every atom by ATOM_TOL moves each of the
  four expectations in 2 E|X-Y| - E|X-X'| - E|Y-Y'| by at most 2 ATOM_TOL, so
  the distance by at most 8 ATOM_TOL.  The acceptance suite only bounds the
  distances (< 0.05); this is far tighter.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

ATOM_TOL = 1e-9
WEIGHT_TOL = 1e-12
ENERGY_TOL = 1e-8

# Fields of an entropy report that are compared; protocol and diagnostics are
# skipped, so adding pair_budget to the protocol or per-level facts to the
# diagnostics is not a failure.
ENTROPY_EXACT = ("counts", "slopes", "estimate", "cap")


def entropy_summary(artifact: dict) -> dict:
    """The compared part of an entropy artifact: per report, exact fields and the flag set."""
    out = {}
    for key, report in artifact.items():
        if isinstance(report, dict) and "estimate" in report:
            out[key] = {f: report[f] for f in ENTROPY_EXACT}
            out[key]["flags"] = sorted(set(report["flags"]))
    return out


def check_entropy(artifact: dict, reference: dict, band: tuple[float, float]) -> list[str]:
    problems = []
    got = entropy_summary(artifact)
    want = reference["reports"]
    if sorted(got) != sorted(want):
        return [f"reports {sorted(got)} != reference {sorted(want)}"]
    lo, hi = band
    for key in sorted(want):
        for field, value in want[key].items():
            if got[key][field] != value:
                problems.append(f"{key}.{field} differs from the reference")
        est = got[key]["estimate"]
        if not lo <= est <= hi:
            problems.append(f"{key}.estimate {est} outside the band [{lo}, {hi}]")
    return problems


def parse_cloud_csv(text: str) -> np.ndarray:
    """(N, 4) array of re, im, chart (1 = reciprocal), weight."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["re", "im", "chart", "weight"]:
        raise ValueError("not a cloud CSV")
    return np.array(
        [[float(r), float(i), c == "reciprocal", float(w)] for r, i, c, w in rows[1:]],
        dtype=float,
    ).reshape(-1, 4)


def embed(cloud: np.ndarray) -> np.ndarray:
    """Unit-sphere embedding of cloud rows (Euclidean distance = corrdyn's chordal distance)."""
    v = cloud[:, 0] + 1j * cloud[:, 1]
    rec = cloud[:, 2] == 1.0
    # a reciprocal-chart value u stands for z = 1/u, i.e. the pair (1, u)
    z1 = np.where(rec, 1.0, v)
    z2 = np.where(rec, v, 1.0)
    n = np.abs(z1) ** 2 + np.abs(z2) ** 2
    w = 2.0 * z1 * np.conj(z2) / n
    return np.stack([w.real, w.imag, (np.abs(z1) ** 2 - np.abs(z2) ** 2) / n], axis=-1)


def check_cloud(got: np.ndarray, want: np.ndarray, label: str) -> list[str]:
    """Same atom count; each reference atom has its own atom within ATOM_TOL, same weight."""
    if got.shape[0] != want.shape[0]:
        return [f"{label}: {got.shape[0]} atoms, reference has {want.shape[0]}"]
    xg, xw = embed(got), embed(want)
    nearest = np.empty(xw.shape[0], dtype=np.int64)
    dist = np.empty(xw.shape[0])
    for s in range(0, xw.shape[0], 1024):
        d = np.sqrt(((xw[s : s + 1024, None, :] - xg[None, :, :]) ** 2).sum(-1))
        nearest[s : s + 1024] = d.argmin(axis=1)
        dist[s : s + 1024] = d[np.arange(d.shape[0]), nearest[s : s + 1024]]
    problems = []
    if dist.max(initial=0.0) > ATOM_TOL:
        problems.append(f"{label}: an atom moved by {dist.max():.3g} > {ATOM_TOL}")
    elif np.unique(nearest).size != nearest.size:
        problems.append(f"{label}: two reference atoms match one output atom")
    else:
        dw = np.abs(got[nearest, 3] - want[:, 3]).max(initial=0.0)
        if dw > WEIGHT_TOL:
            problems.append(f"{label}: a weight differs by {dw:.3g} > {WEIGHT_TOL}")
    return problems


def check_distances(got: list, want: np.ndarray) -> list[str]:
    """Energy-distance table rows (n, seed_i, seed_j, distance) against the reference."""
    rows = np.array(
        [[r["n"], r["seed_i"], r["seed_j"], r["energy_distance"]] for r in got], dtype=float
    ).reshape(-1, 4)
    if rows.shape != want.shape or not np.array_equal(rows[:, :3], want[:, :3]):
        return ["energy-distance table rows differ from the reference"]
    err = np.abs(rows[:, 3] - want[:, 3]).max(initial=0.0)
    if err > ENERGY_TOL:
        return [f"an energy distance differs by {err:.3g} > {ENERGY_TOL}"]
    return []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_ppm(data: bytes, want_sha256: str) -> list[str]:
    if sha256(data) != want_sha256:
        return ["PPM bytes differ from the reference"]
    return []


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
