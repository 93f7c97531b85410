"""Points of the Riemann sphere in a two-chart representation.

A point is stored as (value, chart).  In the "standard" chart the stored
value is z itself, in the "reciprocal" chart it is 1/z, and points are always
re-charted so the stored coordinate lies in the closed unit disk.  Infinity
is exactly (0, "reciprocal").  The chordal metric (sphere of diameter 2,
maximum distance 2) is the only metric used in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STANDARD = "standard"
RECIPROCAL = "reciprocal"

#: longitude step of the Fibonacci lattice
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SpherePoint:
    """Immutable point of the Riemann sphere.

    value : complex
        Chart coordinate, |value| <= 1 after normalization.
    chart : str
        "standard" (value is z) or "reciprocal" (value is 1/z).
    """

    value: complex
    chart: str = STANDARD

    def __post_init__(self):
        if type(self.value) is not complex:
            object.__setattr__(self, "value", complex(self.value))

    @staticmethod
    def from_complex(z: complex) -> "SpherePoint":
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return INF
        if abs(z.real) <= 1.0 and abs(z.imag) <= 1.0 and abs(z) <= 1.0:  # abs(z) cannot overflow
            return SpherePoint(z, STANDARD)
        return SpherePoint(1.0 / z, RECIPROCAL)

    @staticmethod
    def from_projective(z1: complex, z2: complex) -> "SpherePoint":
        """Point z = z1/z2 from homogeneous coordinates, (0,0) rejected."""
        a1, a2 = abs(z1), abs(z2)
        if a1 == 0.0 and a2 == 0.0:
            raise ValueError("projective pair (0, 0) does not define a point")
        if a1 <= a2:
            return SpherePoint(z1 / z2, STANDARD)
        return SpherePoint(z2 / z1, RECIPROCAL)

    @staticmethod
    def infinity() -> "SpherePoint":
        return INF

    @property
    def is_infinity(self) -> bool:
        return self.chart == RECIPROCAL and self.value == 0

    def to_complex(self) -> complex:
        """Plane coordinate; raises on the point at infinity."""
        if self.chart == STANDARD:
            return self.value
        if self.value == 0:
            raise ValueError("point at infinity has no plane coordinate")
        return 1.0 / self.value

    def projective(self) -> tuple[complex, complex]:
        """Homogeneous pair (z1, z2) with z = z1/z2, max-norm 1."""
        if self.chart == STANDARD:
            return (self.value, 1.0 + 0.0j)
        return (1.0 + 0.0j, self.value)

    def other_chart(self) -> "SpherePoint":
        """Same point expressed in the opposite chart (may leave the disk)."""
        if self.value == 0:
            if self.chart == STANDARD:
                return SpherePoint(complex(math.inf), RECIPROCAL)  # marker; 1/0
            return SpherePoint(complex(math.inf), STANDARD)
        return SpherePoint(
            1.0 / self.value,
            RECIPROCAL if self.chart == STANDARD else STANDARD,
        )

    def embed_r3(self) -> tuple[float, float, float]:
        """Stereographic embedding onto the unit sphere in R^3.

        Chordal distance between two points equals the Euclidean distance of
        their embeddings.
        """
        z1, z2 = self.projective()
        a1, a2 = abs(z1), abs(z2)
        n = a1 * a1 + a2 * a2
        w = 2.0 * z1 * z2.conjugate() / n
        return (w.real, w.imag, (a1 * a1 - a2 * a2) / n)

    def sort_key(self) -> tuple[float, float, float]:
        """Canonical total order key (used for deterministic enumeration)."""
        return self.embed_r3()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.to_complex():.12g}, {self.chart})"


INF = SpherePoint(0j, RECIPROCAL)


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal distance 2|p - q| / sqrt((1+|p|^2)(1+|q|^2)), diameter 2.

    Computed projectively so poles and infinity need no special casing:
    dist = 2 |z1 w2 - z2 w1| / (|(z1,z2)| |(w1,w2)|).
    """
    z1, z2 = p.projective()
    w1, w2 = q.projective()
    zs = max(abs(z1), abs(z2))
    ws = max(abs(w1), abs(w2))
    z1, z2 = z1 / zs, z2 / zs
    w1, w2 = w1 / ws, w2 / ws
    num = 2.0 * abs(z1 * w2 - z2 * w1)
    den = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2) * math.sqrt(abs(w1) ** 2 + abs(w2) ** 2)
    return num / den


def embed_projective(z1, z2):
    """Stereographic embedding of homogeneous pairs, shape (..., 3).

    The same formula as SpherePoint.embed_r3 but not bit-identical to it:
    numpy's complex abs is not a hypot and its complex division is not
    Python's, so the last bit can differ.  embed_chart is the bit-identical
    array form.  A (0, 0) pair maps to (0, 0, 0) instead of dividing by zero.
    """
    a1, a2 = np.abs(z1) ** 2, np.abs(z2) ** 2
    n = a1 + a2
    n = np.where(n == 0, 1.0, n)
    w = 2.0 * z1 * np.conj(z2) / n
    return np.stack([w.real, w.imag, (a1 - a2) / n], axis=-1)


def chart_values(z1, z2):
    """Chart coordinates (values, reciprocal flags) of homogeneous pairs.

    The array form of SpherePoint.from_projective on numpy complex scalars,
    bit for bit: the chart compares hypot moduli (what abs does on a numpy
    complex scalar) and the value is numpy's complex division.  On Python
    complex values from_projective divides as Python does, and numpy's
    quotient differs from Python's in the last bit on about 4 in 10 random
    pairs, so there the two can differ.
    """
    a1, a2 = np.hypot(z1.real, z1.imag), np.hypot(z2.real, z2.imag)
    if np.any((a1 == 0.0) & (a2 == 0.0)):
        raise ValueError("projective pair (0, 0) does not define a point")
    reciprocal = ~(a1 <= a2)
    return np.where(reciprocal, z2, z1) / np.where(reciprocal, z1, z2), reciprocal


def chart_from_complex(re, im):
    """Chart coordinates (values, reciprocal flags) of the plane points re + i im.

    SpherePoint.from_complex, bit for bit: the chart compares the hypot modulus
    with 1, and 1/z is Python's complex division spelled out on real arrays.
    """
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    finite = np.isfinite(re) & np.isfinite(im)
    by_re = np.abs(re) >= np.abs(im)
    with np.errstate(all="ignore"):  # a modulus, or the branch np.where drops, may overflow
        reciprocal = ~(finite & (np.hypot(re, im) <= 1.0))
        ratio = np.where(by_re, im / re, re / im)
        denom = np.where(by_re, re + im * ratio, re * ratio + im)
        inv_re = np.where(by_re, 1.0 + 0.0 * ratio, 1.0 * ratio + 0.0) / denom
        inv_im = np.where(by_re, 0.0 - 1.0 * ratio, 0.0 * ratio - 1.0) / denom
    values = np.where(reciprocal, inv_re, re).astype(complex)
    values.imag = np.where(reciprocal, inv_im, im)
    values[~finite] = 0.0
    return values, reciprocal


def point_charts(points):
    """Chart coordinates (values, reciprocal flags) of SpherePoints, in their order."""
    points = list(points)
    return (np.array([p.value for p in points], dtype=complex),
            np.array([p.chart == RECIPROCAL for p in points], dtype=bool))


def chart_pairs(values, reciprocal):
    """Homogeneous pairs (z1, z2) of chart coordinates: SpherePoint.projective."""
    one = np.ones_like(values)
    return np.where(reciprocal, one, values), np.where(reciprocal, values, one)


def embed_chart(values, reciprocal):
    """Embeddings (N, 3) of chart coordinates: SpherePoint.embed_r3, bit for bit.

    Python's complex arithmetic spelled out on real arrays: 2 * z1 and the
    product with conj(z2) are complex products, and dividing by the real n
    is complex division by (n, 0), so zero signs come out the same too.
    """
    z1, z2 = chart_pairs(values, reciprocal)
    a1, a2 = np.hypot(z1.real, z1.imag), np.hypot(z2.real, z2.imag)
    n = a1 * a1 + a2 * a2
    p, q = 2.0 * z1.real - 0.0 * z1.imag, 2.0 * z1.imag + 0.0 * z1.real
    c, d = z2.real, -z2.imag
    wr, wi = p * c - q * d, p * d + q * c
    x, y = (wr + wi * 0.0) / n, (wi - wr * 0.0) / n
    return np.stack([x, y, (a1 * a1 - a2 * a2) / n], axis=-1)


def greedy_groups(items, tol: float, dist=chordal_distance) -> list[list[int]]:
    """Indices of items in greedy groups: in item order, each item joins the
    first group whose first item lies within tol (<=), else starts a group."""
    groups: list[list[int]] = []
    for i, item in enumerate(items):
        for group in groups:
            if dist(item, items[group[0]]) <= tol:
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _centroid(points: list[SpherePoint]) -> SpherePoint:
    """A group's point: itself when alone, infinity when it holds infinity, the
    mean of the chart values when all lie in the reciprocal chart (so two large
    opposite roots mean a point near infinity), else the mean of the plane values."""
    if len(points) == 1:
        return points[0]
    if any(p.is_infinity for p in points):
        return INF
    if all(p.chart == RECIPROCAL for p in points):
        return SpherePoint(sum(p.value for p in points) / len(points), RECIPROCAL)
    return SpherePoint.from_complex(sum(p.to_complex() for p in points) / len(points))


def fiber_groups(z1, z2, tol: float) -> list[tuple[SpherePoint, int]]:
    """The one rule that makes a fiber of homogeneous pairs (z1, z2) a multiset:
    the points in sort_key order, in greedy chordal groups within tol, each
    group as (its _centroid, its size as the multiplicity)."""
    points = sorted((SpherePoint.from_projective(a, b) for a, b in zip(z1, z2)), key=SpherePoint.sort_key)
    return [(_centroid([points[i] for i in g]), len(g)) for g in greedy_groups(points, tol)]


def _sphere_charts(x, y, u):
    """Chart coordinates (values, reciprocal flags) of the unit vectors (x, y, u):
    the inverse stereographic embedding z = (x + i y)/(1 - u), divided as Python
    divides a complex by a real, and infinity where u > 1 - 1e-12."""
    re, im = (x + y * 0.0) / (1.0 - u), (y - x * 0.0) / (1.0 - u)
    return chart_from_complex(np.where(u > 1 - 1e-12, np.inf, re), im)


def uniform_sphere_charts(n: int, rng):
    """Chart coordinates of n points drawn uniformly from the sphere: one
    rng.normal(size=(n, 3)) draw of 3D Gaussians, normalized."""
    x, y, u = rng.normal(size=(n, 3)).T
    r = np.sqrt(x * x + y * y + u * u)
    return _sphere_charts(x / r, y / r, u / r)


def fibonacci_net(n: int, index):
    """Chart coordinates of the points `index` of the n-point Fibonacci lattice,
    a deterministic quasi-uniform sphere net.  Point k depends only on k and n:
    height u = 1 - 2(k + 1/2)/n, longitude k times the golden angle, and
    z = (x + i y)/(1 - u) (_sphere_charts).
    """
    k = np.asarray(index, dtype=float)
    u = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    th = GOLDEN_ANGLE * k
    return _sphere_charts(r * np.cos(th), r * np.sin(th), u)


def fibonacci_sphere_points(n: int) -> list[SpherePoint]:
    """The n-point Fibonacci net (fibonacci_net) as SpherePoints, for API callers."""
    values, reciprocal = fibonacci_net(n, np.arange(n))
    charts = np.where(reciprocal, RECIPROCAL, STANDARD).tolist()
    return [SpherePoint(v, chart) for v, chart in zip(values.tolist(), charts)]
