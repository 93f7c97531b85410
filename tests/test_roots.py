import numpy as np
import pytest

from corrdyn.errors import NonConvergence, ZeroPolynomial
from corrdyn.polynomials import ComplexPolynomial, poly_from_roots
from corrdyn.roots import poly_roots
from corrdyn.sphere import chordal_distance, SpherePoint


def roots_as_complex(found):
    return sorted(
        (p.to_complex() for p, m in found for _ in range(m)),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )


def test_perfect_square():
    found = poly_roots(ComplexPolynomial([1, 2, 1]))
    assert len(found) == 1
    p, m = found[0]
    assert m == 2
    assert abs(p.to_complex() + 1) < 1e-7


def test_plus_minus_one():
    found = roots_as_complex(poly_roots(ComplexPolynomial([-1, 0, 1])))
    assert np.allclose(found, [-1, 1], atol=1e-10)


def test_cubic_fiber_quotient_oracle():
    # fiber of the deleted covering of z^3 - 3z over z = 2: the quotient
    # (Q(2) - Q(w)) / (2 - w) computed by exact synthetic division
    q2 = 2 ** 3 - 3 * 2
    num = ComplexPolynomial([q2, 3, 0, -1])  # Q(2) - Q(w) as poly in w
    # divide by (2 - w): synthetic division at w = 2 after sign flip
    c = (-num.coefficients)[::-1]  # (Q(w) - Q(2)) descending
    out = [c[0]]
    for k in c[1:-1]:
        out.append(k + 2 * out[-1])
    quotient = ComplexPolynomial(out[::-1])  # (Q(w)-Q(2))/(w-2) ascending
    assert np.allclose(quotient.coefficients, [1, 2, 1])  # w^2 + 2w + 1
    found = poly_roots(quotient)
    assert len(found) == 1 and found[0][1] == 2
    assert abs(found[0][0].to_complex() + 1) < 1e-7


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        poly_roots(ComplexPolynomial([0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_raise(bad):
    with pytest.raises(NonConvergence):
        poly_roots(np.array([1, bad, 1]))


@pytest.mark.parametrize("top, at_inf", [(0.0, 1), (1e-12, 1), (1e-10, 0)])
def test_degree_drop_is_a_root_at_infinity(top, at_inf):
    # 2 - z + top z^2 with nominal degree 2: a top at or below 1e-11 of the
    # largest coefficient is a degree drop, so its root sits exactly at inf
    found = poly_roots(np.array([2, -1, top]))
    assert sum(m for _, m in found) == 2
    assert sum(m for p, m in found if p.is_infinity) == at_inf
    assert abs(found[0][0].to_complex() - 2) < 1e-9


def test_random_recovery_in_disk_of_radius_five():
    rng = np.random.default_rng(42)
    for _ in range(40):
        deg = int(rng.integers(2, 9))
        while True:
            roots = (rng.normal(size=deg) + 1j * rng.normal(size=deg)) * 2.2
            mag = np.abs(roots)
            roots = np.where(mag > 5.0, roots * (5.0 / mag) * rng.uniform(0.8, 1.0), roots)
            d = np.abs(roots[:, None] - roots[None, :]) + np.eye(deg)
            if d.min() > 1e-3:
                break
        p = poly_from_roots(roots)
        found = roots_as_complex(poly_roots(p))
        want = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert max(abs(a - b) for a, b in zip(found, want)) < 1e-7


def test_residual_contract_simple_roots():
    p = poly_from_roots([0.5, -2.0, 1j]) * 3.7
    for pt, m in poly_roots(p):
        if m == 1:
            assert abs(p(pt.to_complex())) / (1 + abs(p.leading)) < 1e-8


def test_cluster_radius_merging():
    p = poly_from_roots([1.0, 1.0 + 1e-8])
    found = poly_roots(p, cluster_radius=1e-6)
    assert len(found) == 1 and found[0][1] == 2
    found = poly_roots(p, cluster_radius=1e-10)
    assert sum(m for _, m in found) == 2


def test_degree_count_with_multiplicity():
    p = poly_from_roots([2, 2, 2, -1j])
    found = poly_roots(p, cluster_radius=1e-4)
    assert sum(m for _, m in found) == 4
    mults = sorted(m for _, m in found)
    assert mults == [1, 3]
