"""Reference Fibonacci net built one SpherePoint at a time, kept as the oracle
for corrdyn.sphere.fibonacci_net."""

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
