"""The concrete families studied by the package.

* the one-parameter family: the involution j_a(z) = ((a+1)z - 2a)/(2z - (a+1))
  composed with the deleted covering correspondence of Q(z) = z^3 - 3z
  (covering factor applied first), a (2:2) correspondence fixing z = 1;
* compositions of two deleted covering correspondences of rational maps;
* the dictionary between involutions and quadratic rational maps;
* Monte-Carlo checking of Klein combination pair candidates;
* Taylor data of the single-valued branch through the fixed point (1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, compose, deleted_covering, mobius_correspondence
from .errors import BadParameter, BranchAmbiguity, DegreeMismatch, NotAnInvolution
from .rational import MobiusMap, RationalMap, mobius_is_involution, polynomial_map
from .sphere import SpherePoint, chart_pairs, chart_values, embed_chart, point_charts, uniform_sphere_charts

CUBIC_CHEBYSHEV = polynomial_map([0, -3, 0, 1])  # z^3 - 3z


@dataclass(frozen=True)
class FamilyParameterA:
    """Parameter of the one-parameter family; a = 1 is excluded."""

    a: complex

    def __post_init__(self):
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        if abs(a - 1) <= 1e-12:
            raise BadParameter("parameter a = 1 is excluded")


def _param(a) -> complex:
    return (a if isinstance(a, FamilyParameterA) else FamilyParameterA(a)).a


def family_involution(a) -> MobiusMap:
    """The involution j_a(z) = ((a+1)z - 2a)/(2z - (a+1)); fixes 1 and a."""
    av = _param(a)
    return MobiusMap(av + 1, -2 * av, 2, -(av + 1))


def family_correspondence(a) -> Correspondence:
    """The (2:2) correspondence j_a after the deleted covering of z^3 - 3z."""
    av = _param(a)
    return compose(
        mobius_correspondence(family_involution(av)),
        deleted_covering(CUBIC_CHEBYSHEV),
    )


def composed_covering_pair(R: RationalMap, S: RationalMap) -> Correspondence:
    """Composition cov(R) o cov(S), the covering factor of S applied first."""
    return compose(deleted_covering(R), deleted_covering(S))


def exceptional_seeds(a) -> list[complex]:
    """Seeds excluded from equidistribution runs: {-1, 2} at a = 5, else none."""
    av = _param(a)
    if abs(av - 5) <= 1e-12:
        return [-1 + 0j, 2 + 0j]
    return []


# ---------------------------------------------------------------------------
# involution <-> quadratic dictionary
# ---------------------------------------------------------------------------

def quadratic_to_involution(R: RationalMap) -> MobiusMap:
    """Covering involution of a degree-2 rational map.

    For R = (a z^2 + b z + c)/(d z^2 + e z + f) the deleted covering relation
    is linear in each variable and the induced map is
    z -> ((cd - af) z + (ce - bf)) / ((ae - bd) z - (cd - af)).
    """
    if R.degree != 2:
        raise DegreeMismatch("quadratic_to_involution requires degree 2")
    pc = np.zeros(3, dtype=complex)
    qc = np.zeros(3, dtype=complex)
    pc[: R.numerator.size] = R.numerator
    qc[: R.denominator.size] = R.denominator
    c, b, a = pc
    f, e, d = qc
    A = c * d - a * f
    B = c * e - b * f
    Cc = a * e - b * d
    return MobiusMap(A, B, Cc, -A)


def involution_to_quadratic(J: MobiusMap) -> RationalMap:
    """A degree-2 rational map whose covering involution is J.

    The linear system cd - af = A, ce - bf = B, ae - bd = C is
    underdetermined; a normalization is chosen per branch so that all three
    equations hold exactly.  Correctness is the round trip, not coefficients.
    """
    if not mobius_is_involution(J):
        raise NotAnInvolution("input map has nonzero trace")
    A, B, Cc = J.a, J.b, J.c
    scale = max(abs(A), abs(B), abs(Cc))
    A, B, Cc = A / scale, B / scale, Cc / scale
    if abs(A) > 1e-8:
        if abs(Cc) > 1e-8:
            coeffs = (-A, 0, -B * A / Cc, 0, -Cc / A, 1)
        else:
            coeffs = (-A, -B, 0, 0, 0, 1)
    else:
        # J fixes no finite normalization with a = -A; use a denominator of
        # the form A z^2 + B z (B != 0 since the determinant is nonzero)
        coeffs = (Cc / B, 0, 1, A, B, 0)
    a, b, c, d, e, f = coeffs
    return RationalMap([c, b, a], [f, e, d])


# ---------------------------------------------------------------------------
# branch expansion at the fixed point
# ---------------------------------------------------------------------------

def fixed_point_branch_coefficients(a, fit_radius: float = 0.05):
    """Quadratic and quartic Taylor coefficients of the branch through (1, 1).

    The family correspondence has a single-valued branch through its fixed
    point z = 1.  The branch is tracked by continuity at 64 points around a
    circle of radius fit_radius and fitted by a degree-5 polynomial in
    (z - 1); returns (c2, c4, fit_residual).
    """
    av = _param(a)
    thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    zs = 1.0 + fit_radius * np.exp(1j * thetas)
    W1, W2 = family_correspondence(av).forward_batch(zs, np.ones_like(zs))
    prev = 1.0 + 0j
    ws = np.empty(zs.size, dtype=complex)
    for k, z in enumerate(zs):
        finite = W2[k] != 0
        cands = (W1[k][finite] / W2[k][finite]).tolist()
        if not cands:
            raise BranchAmbiguity("fiber escaped to infinity during tracking")
        dists = sorted(((abs(c - prev), c) for c in cands), key=lambda t: t[0])
        if len(dists) > 1 and dists[1][0] < 4.0 * max(dists[0][0], fit_radius / 4):
            raise BranchAmbiguity(
                f"fiber points {dists[0][1]:.6g} and {dists[1][1]:.6g} too close "
                f"to disambiguate at z = {z:.6g} (fit_radius too large)"
            )
        prev = dists[0][1]
        ws[k] = prev
    V = np.vander(zs - 1.0, 6, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, ws - 1.0, rcond=None)
    fit = V @ coeffs
    residual = float(np.max(np.abs(fit - (ws - 1.0))))
    return complex(coeffs[2]), complex(coeffs[4]), residual


# ---------------------------------------------------------------------------
# regions and Klein pair checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """Disk, half-plane or complement region on the sphere.

    disk:       {"center": complex, "radius": r > 0}
    half_plane: {"point": complex, "normal": complex != 0}, the side
                Re((z - point) * conj(normal)) > 0
    complement: {"of": RegionSpec}
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    point: complex = 0j
    normal: complex = 0j
    of: "RegionSpec | None" = None

    def __post_init__(self):
        if self.kind == "disk":
            if not self.radius > 0:
                raise BadParameter("disk radius must be positive")
        elif self.kind == "half_plane":
            if abs(self.normal) == 0:
                raise BadParameter("half-plane normal must be nonzero")
        elif self.kind == "complement":
            if self.of is None:
                raise BadParameter("complement needs an inner region")
        else:
            raise BadParameter(f"unknown region kind {self.kind!r}")

    def mask(self, z1, z2):
        """Membership of the homogeneous pairs z1/z2 (arrays), the one region rule.

        A pair with |z2| <= 1e-15 |z1| is the point at infinity, which lies
        only in complements; a pair with a NaN coordinate (a dead fiber's
        image) lies in no region."""
        if self.kind == "complement":
            return ~(self.of.mask(z1, z2) | np.isnan(z1) | np.isnan(z2))
        finite = np.abs(z2) > 1e-15 * np.abs(z1)
        w = np.where(finite, z1 / np.where(finite, z2, 1.0), 0.0)
        if self.kind == "disk":
            inside = np.abs(w - self.center) < self.radius
        else:
            inside = ((w - self.point) * np.conj(self.normal)).real > 0
        return inside & finite


def _violations(C: Correspondence, region: RegionSpec, values, reciprocal) -> list:
    """The first 16 (point, image) embeddings, in sample then batch order, of
    samples inside the region with an image of C inside it too."""
    z1, z2 = chart_pairs(values, reciprocal)
    inside = np.flatnonzero(region.mask(z1, z2))
    W1, W2 = C.forward_batch(z1[inside], z2[inside])
    rows, cols = (idx[:16] for idx in np.nonzero(region.mask(W1, W2)))
    points = embed_chart(values[inside[rows]], reciprocal[inside[rows]])
    images = embed_chart(*chart_values(W1[rows, cols], W2[rows, cols]))
    return [{"point": tuple(p), "image": tuple(q)}
            for p, q in zip(points.tolist(), images.tolist())]


def klein_pair_check(
    factor1,
    factor2,
    delta1: RegionSpec,
    delta2: RegionSpec,
    n_samples: int = 10_000,
    rng_seed: int = 0,
    punctures: tuple = (),
    puncture_radius: float = 1e-3,
) -> dict:
    """Monte-Carlo verdict on a Klein combination pair candidate.

    Checks that factor1 moves delta1 off itself, factor2 moves delta2 off
    itself, and that sphere-uniform samples (outside small disks around the
    declared punctures) are covered by the union.  Each factor is a Moebius
    map or a correspondence.  Report only: returns a JSON-ready dict with
    witnesses, never raises on failure.
    """
    factors = [mobius_correspondence(f) if isinstance(f, MobiusMap) else f
               for f in (factor1, factor2)]
    if not all(isinstance(f, Correspondence) for f in factors):
        raise BadParameter("expected a Moebius map or a correspondence")
    rng = np.random.default_rng(rng_seed)
    report = {"rng_seed": rng_seed, "n_samples": n_samples}
    for k, (C, region) in enumerate(zip(factors, (delta1, delta2)), 1):
        report[f"factor{k}_violations"] = _violations(C, region, *uniform_sphere_charts(n_samples, rng))
    values, reciprocal = uniform_sphere_charts(n_samples, rng)
    z1, z2 = chart_pairs(values, reciprocal)
    xyz = embed_chart(values, reciprocal)
    punct = embed_chart(*point_charts(
        q if isinstance(q, SpherePoint) else SpherePoint.from_complex(q) for q in punctures))
    # chordal distance is the distance of the embeddings
    near = (np.linalg.norm(xyz[:, None] - punct[None], axis=-1) < puncture_radius).any(axis=1)
    missed = ~(near | delta1.mask(z1, z2) | delta2.mask(z1, z2))
    report["covering_misses"] = [{"point": tuple(p)} for p in xyz[missed][:16].tolist()]
    report["passed"] = not any(
        report[key] for key in ("factor1_violations", "factor2_violations", "covering_misses"))
    return report
