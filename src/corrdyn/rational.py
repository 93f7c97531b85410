"""Rational maps and Moebius transformations on the Riemann sphere."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooLow, Indeterminate
from .roots import poly_roots, power_of_two_window, roots_with_clusters
from .sphere import INF, SpherePoint, chordal_distance


@dataclass(frozen=True, eq=False)
class RationalMap:
    """R = numerator / denominator, with no common roots.

    Numerator and denominator are ascending complex coefficient arrays, with
    exactly-zero leading coefficients dropped, taken together through
    roots.power_of_two_window.  The common-root check is numerical:
    construction fails if some root of the numerator lies within 1e-10
    (chordal) of a root of the denominator.
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        num, den = power_of_two_window(
            *(np.array(c, dtype=complex, ndmin=1).ravel() for c in (self.numerator, self.denominator))
        )
        if not (num.any() and den.any()):
            raise DegreeTooLow("numerator and denominator must be nonzero")
        num, den = (c[: np.flatnonzero(c)[-1] + 1] for c in (num, den))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        if self.degree < 1:
            raise DegreeTooLow("rational map must have degree >= 1")
        if num.size > 1 and den.size > 1:
            rn = [r for r, _ in roots_with_clusters(num)]
            rd = [r for r, _ in roots_with_clusters(den)]
            for a in rn:
                for b in rd:
                    if chordal_distance(a, b) < 1e-10:
                        raise Indeterminate(f"numerator and denominator share a root near {a}")

    @property
    def degree(self) -> int:
        return max(self.numerator.size, self.denominator.size) - 1

    def derivative_wronskian(self) -> np.ndarray:
        """p'q - pq', the numerator of R', without exactly-zero leading coefficients."""
        p, q = self.numerator, self.denominator
        # the derivative of a constant is the zero polynomial [0], whatever it multiplies
        dpq = np.convolve(p[1:] * np.arange(1, p.size), q) if p.size > 1 else np.zeros(1, dtype=complex)
        pdq = np.convolve(p, q[1:] * np.arange(1, q.size)) if q.size > 1 else np.zeros(1, dtype=complex)
        w = np.zeros(max(dpq.size, pdq.size), dtype=complex)
        w[: dpq.size] = dpq
        w[: pdq.size] -= pdq
        return w[: np.flatnonzero(w)[-1] + 1] if w.any() else w[:1]


def polynomial_map(coefficients) -> RationalMap:
    return RationalMap(coefficients, [1])


def rational_eval(R: RationalMap, p: SpherePoint) -> SpherePoint:
    """Evaluate R at a sphere point.

    Poles return infinity; at infinity the reciprocal-chart conjugate map is
    evaluated, so the result is exact whenever the chart coordinate is.
    Raises Indeterminate when numerator and denominator both vanish at p
    within 1e-12, which signals an unreduced map.
    """
    num, den = R.numerator, R.denominator
    d = R.degree
    if p.chart == "standard":
        z = p.value
        nv, dv = complex(np.polyval(num[::-1], z)), complex(np.polyval(den[::-1], z))
        scale = max(1.0, abs(z)) ** d
    else:
        # z = 1/u: u^d num(1/u) and u^d den(1/u) read the padded coefficients descending
        u = p.value
        nv, dv = (complex(np.polyval(np.pad(c, (0, d + 1 - c.size)), u)) for c in (num, den))
        scale = 1.0
    nmag, dmag = abs(nv), abs(dv)
    coeff_scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
    if nmag <= 1e-12 * coeff_scale * scale and dmag <= 1e-12 * coeff_scale * scale:
        raise Indeterminate("numerator and denominator vanish together")
    if dmag == 0.0:
        return INF
    return SpherePoint.from_projective(nv, dv)


def critical_points(R: RationalMap) -> list[tuple[SpherePoint, int]]:
    """Critical points of R with multiplicity (grouped within 1e-6); total count 2 deg(R) - 2.

    Finite critical points are the roots of the Wronskian p'q - pq'; the
    remaining multiplicity is assigned to infinity (reciprocal chart count).
    """
    if R.degree < 2:
        raise DegreeTooLow("critical points require degree >= 2")
    # p'q - pq' has formal degree 2d - 1, but that coefficient cancels
    w = np.zeros(2 * R.degree - 1, dtype=complex)
    wc = R.derivative_wronskian()[: w.size]
    w[: wc.size] = wc
    if not np.any(w):
        raise DegreeTooLow("Wronskian vanished identically; map is degenerate")
    return poly_roots(w, 1e-6)


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b)/(c z + d), normalized to determinant 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        entries = np.array([self.a, self.b, self.c, self.d], dtype=complex)
        scaled = power_of_two_window(entries)[0]
        if scaled is not entries:  # outside the window; inside, the entries keep their own types
            for name, x in zip("abcd", scaled):
                object.__setattr__(self, name, x)
        det = self.a * self.d - self.b * self.c
        m = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if not abs(det) > 1e-12 * m * m:  # scale-free, and refuses a NaN or infinite entry
            raise DegreeTooLow("Moebius map must have a finite, nonzero determinant")
        s = cmath.sqrt(det)
        object.__setattr__(self, "a", complex(self.a / s))
        object.__setattr__(self, "b", complex(self.b / s))
        object.__setattr__(self, "c", complex(self.c / s))
        object.__setattr__(self, "d", complex(self.d / s))

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


def mobius_apply(M: MobiusMap, p: SpherePoint) -> SpherePoint:
    """Projective action of M on a sphere point; total on the sphere."""
    z1, z2 = p.projective()
    return SpherePoint.from_projective(M.a * z1 + M.b * z2, M.c * z1 + M.d * z2)


def mobius_is_involution(M: MobiusMap) -> bool:
    """True iff M is an involution other than the identity (trace zero within 1e-10)."""
    return abs(M.a + M.d) <= 1e-10


def mobius_projectively_equal(M1: MobiusMap, M2: MobiusMap, tol: float = 1e-9) -> bool:
    """Equality of normalized matrices up to overall sign."""
    m1, m2 = M1.matrix(), M2.matrix()
    return bool(min(np.max(np.abs(m1 - m2)), np.max(np.abs(m1 + m2))) <= tol)
