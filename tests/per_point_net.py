"""Reference sphere nets built one SpherePoint at a time, kept as the oracles
for corrdyn.sphere.fibonacci_net and corrdyn.sphere.uniform_sphere_charts."""

from __future__ import annotations

import math

from corrdyn.sphere import INF, SpherePoint


def fibonacci_sphere_points(n: int) -> list[SpherePoint]:
    """Deterministic quasi-uniform net of n sphere points (Fibonacci lattice)."""
    ga = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(n):
        u = 1.0 - 2.0 * (k + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - u * u))
        th = ga * k
        x, y = r * math.cos(th), r * math.sin(th)
        if u > 1 - 1e-12:
            pts.append(INF)
        else:
            pts.append(SpherePoint.from_complex(complex(x, y) / (1 - u)))
    return pts


def uniform_sphere_points(n: int, rng) -> list[SpherePoint]:
    """n points drawn uniformly from the sphere (normalized 3D Gaussians)."""
    out = []
    while len(out) < n:
        x, y, u = rng.normal(size=3)
        r = math.sqrt(x * x + y * y + u * u)
        if r < 1e-12:
            continue
        x, y, u = x / r, y / r, u / r
        # invert the stereographic embedding: z = (x + i y)/(1 - u)
        if u > 1 - 1e-12:
            out.append(INF)
        else:
            out.append(SpherePoint.from_complex(complex(x, y) / (1 - u)))
    return out
