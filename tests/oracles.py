"""Reference routes the tests check resonet against.

None of these is on the synthesize -> sweep -> optimize -> extract chain:
each is a slower, independent way to the same numbers.

- s_parameters_cramer: S11 and S21 at one point from determinants and
  cofactors, under the kernel's own singularity guard.
- char_poly_from_eigenvalues: a monic polynomial expanded from its roots,
  the check on the eigenvalue route to the characteristic polynomials.
- residuals_all_columns: the least-squares residual and its Jacobian over
  the orbits, from the derivative along every entry of p.
- marquardt_step_svd: the damped least-squares step from the SVD of the
  Marquardt-scaled Jacobian, with no normal equations.
- chebyshev_reference: the closed-form response, poles, reflection zeros
  and ripple constant of the equiripple prototype synthesize_design builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from resonet.coupling import CouplingMatrix, system_matrix
from resonet.errors import InvalidSpecError
from resonet.prototype import FilterSpec, _realized_ripple_db
from resonet.response import _guard


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
        _guard(np.reshape(s, 1), np.abs(a).max().reshape(1), np.abs(x_port), np.array([[s11], [s21]]))
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


def residuals_all_columns(solved, orbits, config) -> tuple[np.ndarray, np.ndarray]:
    """optimizer._residuals the long way: dS11 along all n^2 + 2 entries of
    p = [*m.ravel(), qe1, qen], real and imaginary rows at the zeros and
    d|S11| rows at the edges, then one .sum per orbit over its columns."""
    qe1, qen, x, s11 = solved.qe1, solved.qen, solved.x, solved.s11
    d = np.empty((s11.size, x.shape[1] ** 2 + 2), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d[:, :-2] = ((-2j / qe1) * x[:, :, None] * x[:, None, :]).reshape(s11.size, -1)
        d[:, -2] = 2.0 * x[:, 0] / qe1**2 * (1.0 - x[:, 0] / qe1)
        d[:, -1] = -2.0 / qe1 * x[:, -1] ** 2 / qen**2
        zeros, edges = s11[:-2], s11[-2:]
        mag = np.abs(edges)
        r = np.concatenate([zeros.real, zeros.imag, mag - config.edge_s11_mag])
        edge_rows = (edges.conj()[:, None] * d[-2:]).real / np.where(mag > 0, mag, 1.0)[:, None]
        jac = np.concatenate([d[:-2].real, d[:-2].imag, edge_rows])
        return r, np.stack([jac[:, orbit].sum(axis=1) for orbit in orbits], axis=1)


def marquardt_step_svd(r, jac, damping) -> np.ndarray:
    """The minimizer of |r + J delta|^2 + damping |D delta|^2, D the column
    norms of J (1 for a zero column), from the thin SVD U S V^T of Js = J / D:
    delta = -V (S U^T r / (S^2 + damping)) / D. A zero or repeated column
    gives a zero singular value, whose direction takes no step."""
    scale = np.sqrt(np.add.reduce(jac * jac, axis=0))
    scale[scale == 0.0] = 1.0
    u, sv, vt = np.linalg.svd(jac / scale, full_matrices=False)
    return -(vt.T @ (sv * (u.T @ r) / (sv * sv + damping))) / scale


@dataclass(frozen=True)
class ChebyshevReference:
    """The equiripple prototype of order n in closed form: eps from the
    realized ripple, the poles E and reflection zeros F in the order
    k = 1 .. n, and epsilon = eps 2^(n - 1), the ripple constant of the
    monic polynomials E and F."""

    order: int
    eps: float
    e_roots: np.ndarray
    f_roots: np.ndarray
    epsilon: float

    def s21_squared(self, omega) -> np.ndarray:
        """|S21(j omega)|^2 = 1 / (1 + eps^2 T_n(omega)^2), with T_n(omega)
        = cos(n acos omega) in the band and cosh(n acosh |omega|) off it, up
        to a sign that squaring drops."""
        w = np.abs(np.asarray(omega, dtype=float))
        with np.errstate(invalid="ignore"):  # arccos and arccosh are NaN where the other is taken
            t = np.where(w <= 1.0, np.cos(self.order * np.arccos(w)), np.cosh(self.order * np.arccosh(w)))
        return 1.0 / (1.0 + (self.eps * t) ** 2)


def chebyshev_reference(spec: FilterSpec) -> ChebyshevReference:
    """The closed-form Chebyshev response of spec's prototype (Cameron,
    Kudsia & Mansour, ch. 3; Matthaei, Young & Jones, ch. 4): with
    eps^2 = 10^(L / 10) - 1 for the ripple L that chebyshev_g_values
    realizes, theta_k = (2 k - 1) pi / 2 n and a = asinh(1 / eps) / n, the
    poles are -sinh(a) sin(theta_k) + j cosh(a) cos(theta_k) and the
    reflection zeros j cos(theta_k)."""
    n = spec.order
    eps = math.sqrt(10.0 ** (_realized_ripple_db(spec.ripple_db) / 10.0) - 1.0)
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    a = math.asinh(1.0 / eps) / n
    return ChebyshevReference(
        order=n,
        eps=eps,
        e_roots=-math.sinh(a) * np.sin(theta) + 1j * math.cosh(a) * np.cos(theta),
        f_roots=1j * np.cos(theta),
        epsilon=eps * 2.0 ** (n - 1),
    )
