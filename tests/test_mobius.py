import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from api_helpers import mobius_compose, mobius_identity, mobius_inverse
from corrdyn.errors import DegreeTooLow
from corrdyn.rational import (
    MobiusMap,
    mobius_apply,
    mobius_is_involution,
    mobius_projectively_equal,
)
from corrdyn.sampling import random_involution
from corrdyn.sphere import INF, SpherePoint, chordal_distance


def mobius_is_identity(M: MobiusMap, tol: float = 1e-12) -> bool:
    m = M.matrix()
    return bool(min(np.max(np.abs(m - np.eye(2))), np.max(np.abs(m + np.eye(2)))) <= tol)


def pt(z):
    return SpherePoint.from_complex(z)


def test_family_involution_at_two():
    J4 = MobiusMap(5, -8, 2, -5)
    assert mobius_apply(J4, pt(2)).to_complex() == pytest.approx(-2)


def test_identity_fixes_everything():
    I = mobius_identity()
    for z in (0, 1, 2 + 3j):
        assert mobius_apply(I, pt(z)).to_complex() == pytest.approx(z)
    assert mobius_apply(I, INF).is_infinity
    assert mobius_is_identity(I)
    assert not mobius_is_involution(I)


def test_involution_double_apply_random_points():
    rng = np.random.default_rng(3)
    J = random_involution(rng)
    for _ in range(100):
        z = complex(rng.normal(), rng.normal()) * 2
        p = pt(z)
        q = mobius_apply(J, mobius_apply(J, p))
        assert chordal_distance(p, q) < 1e-10


def test_degenerate_rejected():
    with pytest.raises(DegreeTooLow):
        MobiusMap(1, 2, 2, 4)


def test_determinant_normalization():
    M = MobiusMap(10, 0, 0, 10)
    det = M.a * M.d - M.b * M.c
    assert abs(det - 1) < 1e-12


def test_inverse_and_compose():
    M = MobiusMap(2, 1, 1, 1)
    I = mobius_compose(M, mobius_inverse(M))
    assert mobius_is_identity(I, 1e-12)


def test_pole_maps_to_infinity():
    M = MobiusMap(1, 0, 1, -2)  # z/(z-2)
    assert mobius_apply(M, pt(2)).is_infinity
    assert mobius_apply(M, INF).to_complex() == pytest.approx(1.0)


def test_projective_equality_up_to_sign():
    M = MobiusMap(2, 1, 1, 1)
    N = MobiusMap(-2, -1, -1, -1)
    assert mobius_projectively_equal(M, N)
