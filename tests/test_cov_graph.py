import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import object_lane_fibers
import stacked_fiber_kernel

from corrdyn.config import read_poly
from corrdyn.correspondence import cov_graph
from corrdyn.errors import DegreeTooLow, InexactDivision
from corrdyn.graphpoly import GraphPolynomial, _powers
from corrdyn.rational import RationalMap, polynomial_map
from corrdyn.sampling import random_rational_map
from corrdyn.sphere import INF, SpherePoint, chordal_distance


def is_symmetric(gp: GraphPolynomial, tol: float = 1e-10) -> bool:
    c = gp.coeffs
    if c.shape[0] != c.shape[1]:
        return False
    return bool(np.max(np.abs(c - c.T)) <= tol * gp.scale)


def diagonal_vanishing_fraction(gp: GraphPolynomial, n_samples: int = 200, seed: int = 7) -> float:
    """Fraction of random diagonal points (t, t) where B nearly vanishes.

    Diagnostic for the "diagonal deleted" invariant: a genuinely deleted
    graph evaluates to non-small values at most diagonal points.
    """
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    t = t / np.maximum(1.0, np.abs(t))  # keep in the unit disk
    vals = gp.residuals(t, np.ones_like(t), t, np.ones_like(t))
    return float(np.mean(vals < 1e-10))


def test_cubic_chebyshev_like():
    gp = cov_graph(polynomial_map([0, -3, 0, 1]))
    want = np.array([[-3, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    assert gp.deg_z == gp.deg_w == 2
    assert np.allclose(gp.coeffs, want)


def test_quadratic_polynomial_formula():
    # quotient of (P(z) - P(w)) by (z - w) for P = a z^2 + b z + c is a(z+w) + b
    a, b, c = 2.0 + 1j, -0.7, 3.3j
    gp = cov_graph(RationalMap([c, b, a], [1]))
    assert gp.deg_z == gp.deg_w == 1
    assert gp.coeffs[0, 0] == pytest.approx(b)
    assert gp.coeffs[1, 0] == pytest.approx(a)
    assert gp.coeffs[0, 1] == pytest.approx(a)
    assert abs(gp.coeffs[1, 1]) < 1e-12


def test_quadratic_rational_formula():
    # (ae-bd) zw + (af-cd)(z+w) + (bf-ce)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c, d, e, f = rng.normal(size=6) + 1j * rng.normal(size=6)
        try:
            R = RationalMap([c, b, a], [f, e, d])
        except Exception:
            continue
        if R.degree != 2:
            continue
        gp = cov_graph(R)
        scale = gp.coeffs[1, 1] / (a * e - b * d) if abs(a * e - b * d) > 1e-9 else 1.0
        assert gp.coeffs[1, 1] == pytest.approx((a * e - b * d) * scale)
        assert gp.coeffs[1, 0] == pytest.approx((a * f - c * d) * scale)
        assert gp.coeffs[0, 1] == pytest.approx((a * f - c * d) * scale)
        assert gp.coeffs[0, 0] == pytest.approx((b * f - c * e) * scale)


def test_symmetry_random_maps():
    rng = np.random.default_rng(4)
    for _ in range(12):
        R = random_rational_map(rng, int(rng.integers(2, 6)))
        assert is_symmetric(cov_graph(R))


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        cov_graph(RationalMap([0, 1], [1]))


def test_exact_division_and_failure():
    from corrdyn.correspondence import divide_by_z_minus_w

    # z^2 - w^2 = (z - w)(z + w)
    N = np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    B = divide_by_z_minus_w(N)
    gp = GraphPolynomial(B)
    assert gp.coeffs[1, 0] == 1 and gp.coeffs[0, 1] == 1
    # a symmetric matrix is not divisible by (z - w)
    with pytest.raises(InexactDivision):
        divide_by_z_minus_w(np.array([[0.0, 1.0], [1.0, 0.5]], dtype=complex))


def test_diagonal_deleted_diagnostic():
    gp = cov_graph(polynomial_map([0, -3, 0, 1]))
    assert diagonal_vanishing_fraction(gp) < 0.05


def _residual_double_sum(gp: GraphPolynomial, z1, z2, w1, w2) -> float:
    """|sum c_ij z1^i z2^(m-i) w1^j w2^(n-j)| / max|c|, both pairs scaled to unit norm."""
    m, n = gp.deg_z, gp.deg_w
    total = sum(
        complex(gp.coeffs[i, j]) * z1 ** i * z2 ** (m - i) * w1 ** j * w2 ** (n - j)
        for i in range(m + 1) for j in range(n + 1)
    )
    nz, nw = math.hypot(abs(z1), abs(z2)), math.hypot(abs(w1), abs(w2))
    return abs(total) / (nz ** m * nw ** n) / gp.scale


@pytest.mark.parametrize("deg_z, deg_w", [(1, 1), (2, 2), (3, 1), (2, 4), (5, 3)])
def test_residuals_are_the_homogeneous_double_sum(deg_z, deg_w):
    # off the graph (random pairs), on (N, 1) x (N, d) arrays and on Python scalars,
    # pairs at 0 and infinity included
    rng = np.random.default_rng(deg_z * 10 + deg_w)
    shape = (deg_z + 1, deg_w + 1)
    gp = GraphPolynomial(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    N, d = 5, 3
    z1, z2, w1, w2 = (rng.normal(size=(N, k)) + 1j * rng.normal(size=(N, k)) for k in (1, 1, d, d))
    z1[0, 0], w2[1, 1], w1[2, 2], z2[3, 0] = 0, 0, 0, 0
    got = gp.residuals(z1, z2, w1, w2)
    assert got.shape == (N, d)
    for k in range(N):
        for j in range(d):
            pair = complex(z1[k, 0]), complex(z2[k, 0]), complex(w1[k, j]), complex(w2[k, j])
            want = _residual_double_sum(gp, *pair)
            assert got[k, j] == pytest.approx(want, rel=1e-12)
            assert float(gp.residuals(*pair)) == pytest.approx(want, rel=1e-12)


def test_graph_json_round_trip():
    gp = cov_graph(polynomial_map([0, -3, 0, 1]))
    gp2 = read_poly(gp.to_json())
    assert np.allclose(gp.coeffs, gp2.coeffs)


# -- per-point and batched fibers against np.roots --------------------------------

def _fiber_drop_graph(rng, deg_z, deg_w, drop, drop_row, zero_root):
    """Random graph whose fiber over 0 (drop_row 0) or inf (drop_row -1)
    loses `drop` degrees and, with zero_root, also contains w = 0."""
    c = rng.normal(size=(deg_z + 1, deg_w + 1)) + 1j * rng.normal(size=(deg_z + 1, deg_w + 1))
    if drop:
        c[drop_row, deg_w + 1 - drop :] = 0
    if zero_root and drop < deg_w:
        c[drop_row, 0] = 0
    return GraphPolynomial(c)


def _oracle_fiber(gp, p):
    """np.roots of the dehomogenized specialized polynomial over p, plus one
    root at infinity per degree it loses against deg_w."""
    z1, z2 = p.projective()
    cw = sum(gp.coeffs[i] * z1 ** i * z2 ** (gp.deg_z - i) for i in range(gp.deg_z + 1))
    finite = [SpherePoint.from_complex(r) for r in np.roots(cw[::-1])]
    return finite + [INF] * (gp.deg_w - len(finite))


def _assert_fiber_matches(found, want):
    """Each point of `found` (with multiplicity) takes the nearest point of
    `want`; simple and infinite points must lie within 1e-8 of it."""
    want = list(want)
    for q, mult in found:
        for _ in range(mult):
            dists = [chordal_distance(q, g) for g in want]
            k = int(np.argmin(dists))
            if mult == 1 or q.is_infinity:
                assert dists[k] <= 1e-8, (q, dists[k])
            want.pop(k)
    assert not want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    deg_z=st.integers(1, 4),
    deg_w=st.integers(1, 6),
    drop=st.integers(0, 2),
    drop_row=st.sampled_from([0, -1]),
    zero_root=st.booleans(),
)
def test_fiber_batch_matches_fiber(seed, deg_z, deg_w, drop, drop_row, zero_root):
    rng = np.random.default_rng(seed)
    gp = _fiber_drop_graph(rng, deg_z, deg_w, min(drop, deg_w), drop_row, zero_root)
    far = 1e6 * np.exp(2j * np.pi * rng.random())
    bases = [SpherePoint.from_complex(0), INF, SpherePoint.from_complex(far)]
    bases += [SpherePoint.from_complex(complex(*rng.normal(size=2)) * 2) for _ in range(4)]
    z1 = np.array([p.projective()[0] for p in bases])
    z2 = np.array([p.projective()[1] for p in bases])
    W1, W2 = gp.fiber_batch(z1, z2)
    assert W1.shape == W2.shape == (len(bases), gp.deg_w)
    for p, w1, w2 in zip(bases, W1, W2):
        want = _oracle_fiber(gp, p)
        _assert_fiber_matches(object_lane_fibers.fiber(gp, p), want)
        batch = [(SpherePoint.from_projective(a, b), 1) for a, b in zip(w1, w2)]
        _assert_fiber_matches(batch, want)


@pytest.mark.parametrize("b, first", [(0.0, 1.0), (5e-15, 1.0), (5e-14, -1.0)])
def test_fiber_batch_quadratic_sends_a_vanishing_root_to_infinity(b, first):
    # over z = 1 the w-coefficients are 1 + b w + 0 w^2, and the closed form's first
    # root is the pair (-b, 0): below 1e-14 in both components it becomes (1, 0)
    gp = GraphPolynomial(np.array([[1, -1, -1], [0, 1 + b, 1]], dtype=complex))
    assert gp.deg_w == 2
    W1, W2 = gp.fiber_batch(np.ones(1, dtype=complex), np.ones(1, dtype=complex))
    assert W1[0, 0] == first and W2[0, 0] == 0
    # the second root, 1 / (-b), is at or near infinity
    assert W1[0, 1] == 1 and abs(W2[0, 1]) < 1e-13


def test_fiber_batch_quadratic_keeps_a_double_root_at_zero():
    # cov(z^3) is z^2 + z w + w^2: over z = 0 it is w^2, whose closed-form second root
    # is the pair (0, 0); it is the double root 0, not a root at infinity
    gp = cov_graph(polynomial_map([0, 0, 0, 1]))
    W1, W2 = gp.fiber_batch(np.zeros(1, dtype=complex), np.ones(1, dtype=complex))
    assert np.array_equal(W1, [[0, 0]]) and np.abs(W2).min() == 1
    assert gp.fiber(SpherePoint.from_complex(0)) == [(SpherePoint.from_complex(0), 2)]


def test_fiber_batch_dead_row_is_nan_without_a_warning():
    # B = (z - 1) w vanishes identically over z = 1; the row over z = 0.5 lives
    gp = GraphPolynomial(np.array([[0, -1], [0, 1]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W1, W2 = gp.fiber_batch(np.array([1, 0.5], dtype=complex), np.ones(2, dtype=complex))
    assert np.isnan(W1[0]).all() and np.isnan(W2[0]).all()
    assert W1[1, 0] == 0 and W2[1, 0] == -1


@pytest.mark.parametrize("f", [[1, 0, 1], [1, -2, 0, 1]], ids=["deg_w_2", "deg_w_3"])
def test_fiber_batch_dead_row_is_nan_without_a_warning_at_higher_degree(f):
    # B = (z - 1) f(w) vanishes identically over z = 1; over 0.5 and infinity the
    # specialized polynomial is a multiple of f, so those rows hold the roots of f
    f = np.array(f, dtype=complex)
    gp = GraphPolynomial(np.array([-f, f]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W1, W2 = gp.fiber_batch(np.array([1, 0.5, 1], dtype=complex), np.array([1, 1, 0], dtype=complex))
    assert np.isnan(W1[0]).all() and np.isnan(W2[0]).all()
    for w1, w2 in zip(W1[1:], W2[1:]):
        dist = np.abs((w1 / w2)[:, None] - np.roots(f[::-1])[None])
        assert dist.min(axis=0).max() < 1e-12 and dist.min(axis=1).max() < 1e-12


# -- the batch kernel against the stacked kernel it replaced -------------------

@pytest.mark.parametrize("zero_d", [False, True], ids=["array", "0-d"])
def test_powers_are_numpy_powers_bit_for_bit(zero_d):
    # the kernel takes the powers as ones, Z ** 1, Z * Z and Z ** k; each must be
    # Z ** k itself, signed zeros included (Z ** 1 makes any zero (+0, +0))
    rng = np.random.default_rng(2)
    z = np.concatenate([stacked_fiber_kernel.SIGNED_ZEROS, [np.nan, complex(5, -0.0), complex(-0.0, 5)],
                        rng.normal(size=64) + 1j * rng.normal(size=64)])
    for Z in ([np.asarray(x) for x in z] if zero_d else [z]):
        ones = np.ones(Z.shape, dtype=complex)[()]
        for k, power in enumerate(_powers(Z, 4, ones)):
            stacked_fiber_kernel.assert_same_bits(power, Z ** k)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    deg_z=st.integers(1, 4),
    deg_w=st.integers(1, 4),
    drop=st.integers(0, 2),
    drop_row=st.sampled_from([0, -1]),
    zero_root=st.booleans(),
    vanish=st.booleans(),
)
def test_fiber_batch_is_the_stacked_kernel_bit_for_bit(seed, deg_z, deg_w, drop, drop_row, zero_root, vanish):
    # single and double degree drops over 0 or infinity, w = 0 roots, and with
    # vanish a zero z^0 row: B = z B', whose fiber over 0 vanishes identically
    rng = np.random.default_rng(seed)
    c = _fiber_drop_graph(rng, deg_z, deg_w, min(drop, deg_w), drop_row, zero_root).coeffs.copy()
    if vanish:
        c[0] = 0
    gp = GraphPolynomial(c)
    assume(min(gp.deg_z, gp.deg_w) >= 1)
    z1, z2 = stacked_fiber_kernel.kernel_bases(rng)
    for got, want in zip(gp.fiber_batch(z1, z2), stacked_fiber_kernel.fiber_batch(gp, z1, z2)):
        stacked_fiber_kernel.assert_same_bits(got, want)
    for a, b in zip(z1, z2):  # the per-point fiber's 0-d specialization
        a, b = np.asarray(a), np.asarray(b)
        stacked_fiber_kernel.assert_same_bits(
            gp._w_coefficients(a, b), stacked_fiber_kernel.w_coefficients(gp, a, b))
