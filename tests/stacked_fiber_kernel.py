"""Reference batch fiber kernel, kept as the bit-for-bit oracle for GraphPolynomial.fiber_batch.

The kernel as it stood before the lean rewrite: the powers Z1^i and Z2^(m-i)
taken afresh for every column and stacked, the row scale as np.max over the
coefficient axis, and the quadratic roots stacked and masked through np.where
copies (with the one correction made since: a second quadratic root whose
pair is ~(0, 0) is a double root at 0, not a root at infinity).  Every value
the shipped kernel returns must equal this one's float64
bits, with NaN at the same entries (assert_same_bits), over bases that hold
the signed zeros, infinities and NaN pairs where bits can part (kernel_bases).
"""

from __future__ import annotations

import numpy as np

from corrdyn.roots import projective_roots_batch


def w_coefficients(gp, Z1, Z2) -> np.ndarray:
    """Specialized w-coefficients over homogeneous base pairs, shape (..., deg_w + 1)."""
    m = gp.deg_z
    zp = np.stack([Z1 ** i * Z2 ** (m - i) for i in range(m + 1)], axis=-1)
    return zp @ gp.coeffs


def fiber_batch(gp, Z1, Z2):
    """(W1, W2) of shape (N, deg_w), as GraphPolynomial.fiber_batch documents them."""
    n = gp.deg_w
    cw = w_coefficients(gp, np.asarray(Z1, dtype=complex), np.asarray(Z2, dtype=complex))
    scale = np.max(np.abs(cw), axis=-1)
    dead = ~(scale >= 1e-250)
    scale = np.where(dead, 1.0, scale)
    cw = cw / scale[..., None]
    if n == 1:
        W1 = -cw[..., 0][..., None]
        W2 = cw[..., 1][..., None]
    elif n == 2:
        a, b, c = cw[..., 2], cw[..., 1], cw[..., 0]
        disc = b * b - 4 * a * c
        sq = np.sqrt(disc)
        # align sqrt sign with b to avoid cancellation
        flip = (b.real * sq.real + b.imag * sq.imag) < 0
        sq = np.where(flip, -sq, sq)
        qq = -(b + sq) / 2.0
        W1 = np.stack([qq, c], axis=-1)
        W2 = np.stack([a, qq], axis=-1)
        # both components ~0: the first root is at infinity (a double degree
        # drop), the second at 0 (a double root at 0)
        tiny = (np.abs(W1) < 1e-14) & (np.abs(W2) < 1e-14)
        W1 = np.where(tiny, [1.0, 0.0], W1)
        W2 = np.where(tiny, [0.0, 1.0], W2)
    else:
        W1, W2 = projective_roots_batch(np.where(dead[..., None], 0.0, cw).reshape(-1, n + 1))
        W1 = W1.reshape(cw.shape[:-1] + (n,))
        W2 = W2.reshape(cw.shape[:-1] + (n,))
    if np.any(dead):
        W1 = np.where(dead[..., None], np.nan, W1)
        W2 = np.where(dead[..., None], np.nan, W2)
    # normalize pairs to max-modulus 1 for stability
    mag = np.maximum(np.abs(W1), np.abs(W2))
    mag = np.where(mag > 0, mag, 1.0)  # NaN rows stay NaN, without a warning
    return W1 / mag, W2 / mag


def forward_batch(C, Z1, Z2):
    """(W1, W2, labels): Correspondence.forward_batch over this kernel, with
    the labels as each call built them before they became Correspondence.labels.
    Every direct stage concatenates its components' fibers and fills their
    labels; a chain's labels are zero."""
    if C.is_direct:
        parts = []
        for idx, (gp, n) in enumerate(C.components):
            w1, w2 = fiber_batch(gp, Z1, Z2)
            parts += [(w1, w2, np.full(w1.shape, idx, dtype=np.int16))] * n
        return tuple(np.concatenate(arrs, axis=-1) for arrs in zip(*parts))
    shape = np.asarray(Z1).shape
    cur1 = np.asarray(Z1, dtype=complex).ravel()
    cur2 = np.asarray(Z2, dtype=complex).ravel()
    for c in reversed(C.chain):
        w1, w2, _ = forward_batch(c, cur1, cur2)
        cur1, cur2 = w1.ravel(), w2.ravel()
    W1 = cur1.reshape(shape + (C.d1,))
    W2 = cur2.reshape(shape + (C.d1,))
    return W1, W2, np.zeros(W1.shape, dtype=np.int16)


SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def kernel_bases(rng, n: int = 24):
    """Base pairs for bit-for-bit checks: 0 and infinity with zeros of every sign,
    the pair (1, 0), a NaN pair (a dead entry of an earlier stage), a far and a
    near point, and random pairs normalized to max-modulus 1 as stages return them."""
    r, s = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    m = np.maximum(np.abs(r), np.abs(s))
    far = 1e6 * np.exp(2j * np.pi * rng.random())
    z1 = np.concatenate([SIGNED_ZEROS, [1] * 4, [1, np.nan, far, 1e-7j], r / m])
    z2 = np.concatenate([[1] * 4, SIGNED_ZEROS, [0, np.nan, 1, 1], s / m])
    return z1, z2


def assert_same_bits(got, want):
    """float64 views equal bit for bit (signed zeros included), NaN at the same entries."""
    g = np.ascontiguousarray(got).view(np.float64)
    w = np.ascontiguousarray(want).view(np.float64)
    assert g.shape == w.shape
    nan = np.isnan(w)
    assert np.array_equal(np.isnan(g), nan)
    assert np.array_equal(g[~nan].view(np.int64), w[~nan].view(np.int64))
