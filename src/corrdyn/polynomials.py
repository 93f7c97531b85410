"""Dense univariate complex polynomials, ascending-degree coefficients.

The zero polynomial carries the degree flag -inf.  Coefficients are kept
exactly as given; trimming of numerically negligible leading coefficients is
an explicit operation, because root extraction decides degree drops against
a nominal degree that the polynomial alone does not know (see roots.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")


def _as_array(coefficients) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coefficients, dtype=complex)).ravel()
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    # strip exactly-zero leading coefficients so degree is well defined
    k = arr.size - 1
    while k > 0 and arr[k] == 0:
        k -= 1
    return arr[: k + 1].copy()


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial sum_k coefficients[k] z^k with complex coefficients."""

    coefficients: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _as_array(self.coefficients))

    @property
    def degree(self):
        """Integer degree, or -inf for the zero polynomial."""
        c = self.coefficients
        if c.size == 1 and c[0] == 0:
            return NEG_INF
        return c.size - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == NEG_INF

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def derivative(self) -> "ComplexPolynomial":
        c = self.coefficients
        if c.size == 1:
            return ComplexPolynomial([0])
        return ComplexPolynomial(c[1:] * np.arange(1, c.size))

    def reversed(self, length: int | None = None) -> "ComplexPolynomial":
        """Coefficients reversed against degree `length` (default own degree).

        reversed(p)(u) = u^length * p(1/u); used for reciprocal-chart work.
        """
        c = self.coefficients
        if length is None:
            length = c.size - 1
        if length + 1 < c.size:
            raise ValueError("length below degree")
        padded = np.zeros(length + 1, dtype=complex)
        padded[: c.size] = c
        return ComplexPolynomial(padded[::-1])

    def trimmed(self, rel_tol: float = 1e-12) -> "ComplexPolynomial":
        """Drop leading coefficients below rel_tol * max |coefficient|."""
        c = self.coefficients
        scale = np.max(np.abs(c))
        if scale == 0:
            return ComplexPolynomial([0])
        k = c.size - 1
        while k > 0 and abs(c[k]) <= rel_tol * scale:
            k -= 1
        return ComplexPolynomial(c[: k + 1])

    def __add__(self, other):
        other = _coerce(other)
        n = max(self.coefficients.size, other.coefficients.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coefficients.size] = self.coefficients
        a[: other.coefficients.size] += other.coefficients
        return ComplexPolynomial(a)

    def __neg__(self):
        return ComplexPolynomial(-self.coefficients)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        if np.isscalar(other):
            return ComplexPolynomial(self.coefficients * complex(other))
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return ComplexPolynomial([0])
        return ComplexPolynomial(np.convolve(self.coefficients, other.coefficients))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        return a.size == b.size and bool(np.all(a == b))

    def __hash__(self):
        return hash(tuple(self.coefficients.tolist()))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ComplexPolynomial({list(self.coefficients)})"


def _coerce(p) -> ComplexPolynomial:
    if isinstance(p, ComplexPolynomial):
        return p
    return ComplexPolynomial(p)


def poly_from_roots(roots) -> ComplexPolynomial:
    acc = ComplexPolynomial([1])
    for r in roots:
        acc = acc * ComplexPolynomial([-complex(r), 1])
    return acc
