"""Polynomial root extraction with multiplicity clustering.

projective_roots_batch is the one root finder: companion-matrix eigenvalues,
in the chart where each root lies in the unit disk, polished by Newton.  A
coefficient array's length fixes the nominal degree; top coefficients at or
below DROP_TOL of the largest are a degree drop, and the dropped degree is a
root at infinity.  roots_with_clusters solves one polynomial as one row of
it and groups the row by sphere.fiber_groups, the rule that makes a fiber a
multiset, for the one-polynomial solves (critical_points and
ramification's discriminant); poly_roots adds a residual check.  A
polynomial in one variable is an ascending complex array;
power_of_two_window scales the coefficients of maps and graph polynomials.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, ZeroPolynomial
from .sphere import RECIPROCAL, SpherePoint, chordal_distance, fiber_groups

DEFAULT_CLUSTER_RADIUS = 1e-6

#: coefficients at or below this share of the row maximum count as zero
DROP_TOL = 1e-11

def power_of_two_window(*arrays) -> list:
    """The complex arrays as given when the largest modulus among their entries
    lies in [2^-256, 2^256], or is 0 or not finite; else each array times the
    one power of two that puts that modulus in [1, 2), taken by np.ldexp on the
    real and imaginary parts, which is exact."""
    top = max(np.max(np.abs(a), initial=0.0) for a in arrays)
    if not 0 < top < np.inf or 2.0 ** -256 <= top <= 2.0 ** 256:
        return list(arrays)
    k = 1 - np.frexp(top)[1]
    return [np.ldexp(np.stack((a.real, a.imag), -1), k).view(complex)[..., 0] for a in arrays]


def roots_with_clusters(
    coefficients, cluster_radius: float = DEFAULT_CLUSTER_RADIUS
) -> list[tuple[SpherePoint, int]]:
    """All roots of the ascending coefficients, as (SpherePoint, multiplicity).

    One row of projective_roots_batch over the whole array, whose length fixes
    the nominal degree (a degree drop is a root at infinity), made a multiset
    by sphere.fiber_groups within cluster_radius, as a fiber is.
    """
    coeffs = np.atleast_1d(np.asarray(coefficients, dtype=complex))
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if not np.isfinite(scale):
        raise NonConvergence("polynomial coefficients must be finite")
    W1, W2 = projective_roots_batch(coeffs[None] / scale)
    return fiber_groups(W1[0], W2[0], cluster_radius)


def projective_roots_batch(coeffs: np.ndarray):
    """Roots of many polynomials at once, as projective pairs.

    coeffs is (N, n+1), ascending, each row max-normalized.  Returns (W1, W2)
    of shape (N, n) with w = W1/W2, multiplicities implicit in repetition.
    Top coefficients at or below DROP_TOL are a degree drop, returned as roots
    (1, 0) at infinity; an all-zero row has only roots at infinity.  Each row
    is solved by the eigenvalues of a companion matrix, of the reversed
    polynomial when |c_0| > |c_n| so large roots come out as small
    reciprocals, then polished by three Newton steps in the chart where the
    root lies in the unit disk.
    """
    N, n = coeffs.shape[0], coeffs.shape[1] - 1
    W1 = np.ones((N, n), dtype=complex)
    W2 = np.zeros((N, n), dtype=complex)
    live = np.abs(coeffs) > DROP_TOL
    deg = np.where(live.any(axis=1), n - np.argmax(live[:, ::-1], axis=1), 0)
    for k in np.unique(deg[deg > 0]):
        rows = np.nonzero(deg == k)[0]
        W1[rows, :k], W2[rows, :k] = _roots_of_degree(coeffs[rows, : k + 1])
    return W1, W2


def _roots_of_degree(c: np.ndarray):
    """projective_roots_batch for rows whose top coefficient is nonzero."""
    M, k = c.shape[0], c.shape[1] - 1
    rev = np.abs(c[:, 0]) > np.abs(c[:, -1])
    cc = np.where(rev[:, None], c[:, ::-1], c)
    A = np.zeros((M, k, k), dtype=complex)
    A[:, 0, :] = -cc[:, -2::-1] / cc[:, -1:]
    A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    x = np.linalg.eigvals(A)
    # chart of each root: w itself inside the unit disk, 1/w outside
    inside = np.where(rev[:, None], np.abs(x) >= 1.0, np.abs(x) <= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(inside == rev[:, None], 1.0 / x, x)
    P = np.where(inside[..., None], c[:, None, :], c[:, None, ::-1])
    p, dp = _horner(P, t)
    for _ in range(3):
        with np.errstate(all="ignore"):  # a step off a double root (dp = 0) may blow up
            t1 = t - p / dp
            p1, dp1 = _horner(P, t1)
        better = np.abs(p1) < np.abs(p)  # False on NaN: a failed step is dropped
        t = np.where(better, t1, t)
        p = np.where(better, p1, p)
        dp = np.where(better, dp1, dp)
    one = np.ones_like(t)
    return np.where(inside, t, one), np.where(inside, one, t)


def _horner(P: np.ndarray, t: np.ndarray):
    """Value and derivative at t of the polynomials with ascending coefficients
    along the last axis of P."""
    p = P[..., -1]
    dp = np.zeros_like(t)
    for j in range(P.shape[-1] - 2, -1, -1):
        dp = dp * t + p
        p = p * t + P[..., j]
    return p, dp


def poly_roots(p, cluster_radius: float = DEFAULT_CLUSTER_RADIUS) -> list[tuple[SpherePoint, int]]:
    """Roots of p with multiplicity, as sphere points (roots_with_clusters).

    p is an ascending coefficient array, whose length fixes the nominal
    degree; a degree drop is a root at infinity.  Raises ZeroPolynomial for p
    identically zero and NonConvergence when a simple finite root fails the
    residual check.
    """
    coeffs = np.asarray(p, dtype=complex)
    clusters = roots_with_clusters(coeffs, cluster_radius)
    # residual contract for simple finite roots, on the polynomial left after
    # the degree drop; evaluated scale-free (coefficients max-normalized, and
    # z^-deg p(z) in the reciprocal chart) so far roots are not penalized by
    # |z|^deg roundoff amplification
    cn = coeffs / np.max(np.abs(coeffs))
    cn = cn[: 1 + np.nonzero(np.abs(cn) > DROP_TOL)[0][-1]]
    bad = []
    for root, mult in clusters:
        if mult != 1 or root.is_infinity:
            continue
        # nearly-multiple roots (just outside the cluster radius) get slack
        near_other = any(
            q != root and chordal_distance(root, q) < 10 * cluster_radius for q, _ in clusters
        )
        chart_poly = cn if root.chart == RECIPROCAL else cn[::-1]
        res = abs(np.polyval(chart_poly, root.value)) / (1.0 + abs(cn[-1]))
        if not np.isfinite(res) or res > (1e-6 if near_other else 1e-8):
            bad.append((root, res))
    if bad:
        raise NonConvergence(f"{len(bad)} root(s) failed the residual check")
    return clusters
