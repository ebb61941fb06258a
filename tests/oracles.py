"""Reference routes the tests check resonet against.

None of these is on the synthesize -> sweep -> optimize -> extract chain:
each is a slower, independent way to the same numbers.

- s_parameters_cramer: S11 and S21 at one point from determinants and
  cofactors, under the kernel's own singularity guard.
- char_poly_from_eigenvalues: a monic polynomial expanded from its roots,
  the check on the eigenvalue route to the characteristic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resonet.coupling import CouplingMatrix, system_matrix
from resonet.errors import InvalidSpecError
from resonet.response import _diagonal_constants, _guard


def s_parameters_cramer(cm: CouplingMatrix, s: complex) -> tuple[complex, complex]:
    """Same contract as s_parameters, via the adjugate of the filter matrix.

    inv(A) = adj(A) / det(A); the two adjugate entries needed are the
    cofactors obtained by deleting the first row and the first (or last)
    column and taking determinants. It applies the kernel's singularity
    guard to cof / det.
    """
    a = system_matrix(cm, s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.linalg.det(a)
        cof11 = np.linalg.det(a[1:, 1:])
        cof1n = (-1) ** (1 + cm.n) * np.linalg.det(a[1:, :-1])
        x_port = np.array([[cof11], [cof1n]]) / det
        s11 = 1.0 - (2.0 / cm.qe1) * x_port[0, 0]
        s21 = (2.0 / np.sqrt(cm.qe1 * cm.qen)) * x_port[1, 0]
        _guard(cm, np.asarray(s), np.abs(x_port), np.array([[s11], [s21]]), _diagonal_constants(cm))
    return s11, s21


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Monic polynomial, coefficients stored in ascending degree order."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidSpecError("polynomial needs at least one coefficient")
        if self.coeffs[-1] != 1.0:
            raise InvalidSpecError("leading coefficient must be exactly 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s: complex) -> complex:
        out = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            out = out * s + c
        return out


def char_poly_from_eigenvalues(eigenvalues) -> PolynomialCoefficients:
    """Monic characteristic polynomial from its roots.

    Expands prod(s - lambda_i) one root at a time, which accumulates the
    alternating elementary-symmetric sums: the coefficient of s^(N-k) is
    (-1)^k e_k(lambda), down to the constant term (-1)^N prod(lambda_i).
    """
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    if lam.size == 0:
        raise InvalidSpecError("need at least one eigenvalue")
    coeffs = np.array([1.0 + 0.0j])
    for li in lam:
        coeffs = np.convolve(coeffs, np.array([1.0, -li]))
    return PolynomialCoefficients(coeffs=tuple(coeffs[::-1]))
