"""Bivariate graph polynomials B(z, w) and their fiber extraction.

Coefficients are stored densely as a matrix coeffs[i, j] of z^i w^j.  Fibers
are computed chart-aware, many base points at once (fiber_batch; the
per-point fiber is one of its rows): a reciprocal-chart base point uses the
z-homogenized coefficients, and degree drops of the specialized w-polynomial
are roots at infinity, matching the closure of the affine graph in the
product of two spheres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiberDegenerate
from .roots import power_of_two_window, projective_roots_batch
from .sphere import SpherePoint, fiber_groups


def _tight(coeffs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ValueError("graph polynomial must be nonzero")
    m = np.abs(coeffs) > 1e-12 * scale
    rows = np.nonzero(m.any(axis=1))[0]
    cols = np.nonzero(m.any(axis=0))[0]
    out = coeffs[: rows[-1] + 1, : cols[-1] + 1].copy()
    small = np.abs(out) <= 1e-12 * scale
    out[small] = 0
    return out


def _powers(Z, m: int, ones) -> list:
    """[Z**0, ..., Z**m] with the bits of numpy's **: Z**0 is the shared ones,
    Z**2 is Z * Z, and the others stay ** (Z**1 makes a signed zero (+0, +0))."""
    powers = [ones, Z ** 1]
    if m >= 2:
        powers.append(Z * Z)
    return powers + [Z ** k for k in range(3, m + 1)]


def _quadratic_fiber(cw: np.ndarray):
    """(W1, W2, mag) of the normalized quadratics cw (..., 3): closed-form roots and
    their max-moduli.  A root pair near (0, 0) is (1, 0) at infinity when it is the
    first (a double degree drop), (0, 1) when the second (a double root at 0)."""
    a, b, c = cw[..., 2], cw[..., 1], cw[..., 0]
    qq = np.sqrt(b * b - 4 * a * c)
    # align sqrt sign with b to avoid cancellation
    np.negative(qq, out=qq, where=(b.real * qq.real + b.imag * qq.imag) < 0)
    qq = -(b + qq) / 2.0
    W1, W2 = np.empty((2,) + cw.shape[:-1] + (2,), dtype=complex)
    W1[..., 0], W1[..., 1], W2[..., 0], W2[..., 1] = qq, c, a, qq
    aq, aa, ac = np.abs(qq), np.abs(a), np.abs(c)
    mag = np.stack([np.maximum(aq, aa), np.maximum(ac, aq)], axis=-1)
    small = aq < 1e-14
    if small.any():
        drop, zero = small & (aa < 1e-14), (ac < 1e-14) & small
        W1[drop, 0], W2[drop, 0], mag[drop, 0] = 1.0, 0.0, 1.0
        W1[zero, 1], W2[zero, 1], mag[zero, 1] = 0.0, 1.0, 1.0
    return W1, W2, mag


@dataclass(frozen=True)
class GraphPolynomial:
    """One irreducible-component polynomial of a correspondence graph, its
    coefficients scaled by roots.power_of_two_window."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", _tight(*power_of_two_window(arr)))

    @property
    def deg_z(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_w(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def transpose(self) -> "GraphPolynomial":
        return GraphPolynomial(self.coeffs.T)

    # -- evaluation ---------------------------------------------------------

    def residuals(self, z1, z2, w1, w2) -> np.ndarray:
        """Scaled homogeneous residuals |B(z, w)| / max|coeff| of broadcast
        arrays of pairs (z1, z2) and (w1, w2), each pair unit-normalized: the
        fiber kernel's w-coefficients over z summed against w1^j w2^(n - j)."""
        nz = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
        nw = np.sqrt(np.abs(w1) ** 2 + np.abs(w2) ** 2)
        cw = self._w_coefficients(z1 / nz, z2 / nz)
        n = self.deg_w
        p1, p2 = _powers(w1 / nw, n, 1.0), _powers(w2 / nw, n, 1.0)
        return np.abs(sum(cw[..., j] * p1[j] * p2[n - j] for j in range(n + 1))) / self.scale

    def _w_coefficients(self, Z1, Z2) -> np.ndarray:
        """Specialized w-coefficients over homogeneous base pairs, shape (..., deg_w + 1).

        Column i is Z1**i * Z2**(m - i), bit for bit, the ones included (1*z is not z)."""
        m = self.deg_z
        shape = np.broadcast_shapes(np.shape(Z1), np.shape(Z2))
        ones = np.ones(shape, dtype=complex)[()]  # a numpy scalar for 0-d bases, as Z1**0 was
        p1, p2 = _powers(Z1, m, ones), _powers(Z2, m, ones)
        zp = np.empty(shape + (m + 1,), dtype=complex)
        for i in range(m + 1):
            zp[..., i] = p1[i] * p2[m - i]
        return zp @ self.coeffs

    def fiber(self, p: SpherePoint, cluster_radius: float = 1e-6) -> list[tuple[SpherePoint, int]]:
        """w-points over p with multiplicity; degree drops become points at inf.

        One row of fiber_batch, grouped within cluster_radius by the rule
        Correspondence.forward uses (sphere.fiber_groups).  Raises
        FiberDegenerate when the specialized polynomial vanishes identically
        (a vertical line over p).
        """
        W1, W2 = self.fiber_batch(*(np.array([c]) for c in p.projective()))
        if np.isnan(W1).any():
            raise FiberDegenerate(f"graph polynomial vanishes identically over {p}")
        return [(q, len(members)) for q, members in fiber_groups(W1[0], W2[0], cluster_radius)]

    # -- vectorized lane ----------------------------------------------------

    def fiber_batch(self, Z1: np.ndarray, Z2: np.ndarray):
        """Fibers of many base points given as homogeneous pairs.

        Returns (W1, W2) arrays of shape (N, deg_w): projective w-roots per
        base point, multiplicities implicit in repetition, degree drops as
        roots (1, 0) at infinity.  deg_w 1 and 2 use closed forms; higher
        degrees use roots.projective_roots_batch, in no particular root
        order.  Entries where the specialized polynomial vanishes identically,
        or whose base pair is NaN (a dead entry of an earlier chain stage),
        are returned as NaN pairs for the caller to prune.
        """
        n = self.deg_w
        cw = self._w_coefficients(np.asarray(Z1, dtype=complex), np.asarray(Z2, dtype=complex))
        scale = np.abs(cw[..., 0])  # the row max as a chain: np.max over a short axis is slow
        for k in range(1, n + 1):
            np.maximum(scale, np.abs(cw[..., k]), out=scale)
        dead = ~(scale >= 1e-250)
        scale[dead] = 1.0
        cw /= scale[..., None]
        if n == 1:
            W1, W2 = -cw[..., :1], cw[..., 1:]
            mag = np.maximum(np.abs(W1), np.abs(W2))
        elif n == 2:
            W1, W2, mag = _quadratic_fiber(cw)
        else:
            cw[dead] = 0.0
            roots = projective_roots_batch(cw.reshape(-1, n + 1))
            W1, W2 = (W.reshape(cw.shape[:-1] + (n,)) for W in roots)
            mag = np.maximum(np.abs(W1), np.abs(W2))
        if dead.any():
            W1[dead], W2[dead], mag[dead] = np.nan, np.nan, 1.0
        # normalize pairs to max-modulus 1 for stability
        mag[~(mag > 0)] = 1.0  # NaN rows stay NaN, without a warning
        return W1 / mag, W2 / mag

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        flat = [[c.real, c.imag] for c in self.coeffs.ravel()]
        return {"deg_z": self.deg_z, "deg_w": self.deg_w, "coeffs": flat}


def mobius_graph(M) -> GraphPolynomial:
    """Graph polynomial (c z + d) w - (a z + b) of a Moebius map."""
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = -M.b
    c[1, 0] = -M.a
    c[0, 1] = M.d
    c[1, 1] = M.c
    return GraphPolynomial(c)


def identity_graph() -> GraphPolynomial:
    """Graph polynomial w - z of the identity map."""
    c = np.zeros((2, 2), dtype=complex)
    c[1, 0] = -1.0
    c[0, 1] = 1.0
    return GraphPolynomial(c)
