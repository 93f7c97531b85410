"""Random generators for rational maps, involutions and sphere points.

Used by the verification suites and the test suite; all draws are from a
caller-supplied numpy Generator so runs are reproducible.
"""

from __future__ import annotations

from .errors import CorrdynError
from .rational import MobiusMap, RationalMap
from .sphere import SpherePoint


def random_complex(rng, n=None, scale=1.0):
    if n is None:
        return complex(rng.normal() * scale, rng.normal() * scale)
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale


def random_polynomial(rng, degree: int):
    c = random_complex(rng, degree + 1)
    while abs(c[-1]) < 0.1:
        c[-1] = random_complex(rng)
    return c


def random_rational_map(rng, degree: int) -> RationalMap:
    """Random rational map of exact degree with well-separated roots (50 tries)."""
    for _ in range(50):
        num_deg = degree
        den_deg = int(rng.integers(0, degree + 1))
        if rng.random() < 0.5:
            num_deg, den_deg = den_deg, num_deg
        try:
            R = RationalMap(
                random_polynomial(rng, num_deg),
                random_polynomial(rng, den_deg) if den_deg > 0 else [1],
            )
        except CorrdynError:
            continue
        if R.degree == degree:
            return R
    raise RuntimeError("failed to sample a rational map")


def random_involution(rng) -> MobiusMap:
    """Random trace-zero Moebius map with a well-conditioned determinant."""
    while True:
        a, b, c = (random_complex(rng) for _ in range(3))
        if abs(a * a + b * c) > 1e-3:
            return MobiusMap(a, b, c, -a)


def random_points(rng, n: int, scale: float = 1.5) -> list[SpherePoint]:
    return [SpherePoint.from_complex(z) for z in random_complex(rng, n, scale)]
