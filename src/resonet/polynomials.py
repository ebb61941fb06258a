"""Characteristic polynomials of the filtering function via eigenvalue methods.

The scattering response factors into three polynomials: S11 = F/E and
S21 = P/(eps E), where the roots of E are the common poles, the roots of
F the reflection zeros and the roots of P the transmission zeros. No
polynomial arithmetic is needed: each root set is the spectrum of a small
matrix derived from the pole matrix, so standard eigen-solvers do all the
root finding. An inline (ladder) matrix, which every synthesized design
is, has all its transmission zeros at infinity; that is read off its
structure, so only a cross-coupled matrix reaches the generalized eigen
solve and imports scipy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix, pole_matrix
from .errors import InvalidSpecError, NumericalError, SingularFrequencyError
from .response import _scattering

_POLE_FLOOR = 1e-250


@dataclass(frozen=True)
class CharacteristicPolynomials:
    """Root form of the response polynomials plus the ripple constant.

    e_roots are the poles (left half plane for a passive network), f_roots
    the reflection zeros (on the imaginary axis for a lossless matched
    filter) and p_roots the finite transmission zeros (empty for ladder
    topologies, where every zero sits at infinity). epsilon scales S21 so
    the band edge sits at the equiripple level.
    """

    e_roots: tuple[complex, ...]
    f_roots: tuple[complex, ...]
    p_roots: tuple[complex, ...]
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidSpecError("ripple constant must be positive")


def _prod_over_roots(roots, s: complex) -> complex:
    out = 1.0 + 0.0j
    for r in roots:
        out *= s - r
    return out


def _ripple_constant(cm: CouplingMatrix, e_roots, f_roots, p_roots) -> float:
    # S21 = P / (eps E) at every s. Read eps at one point, from one kernel
    # evaluation over the reflection zeros projected onto the imaginary
    # axis: at the one where |S21| is largest, which is ~1 for a tuned
    # design and keeps the most relative accuracy on a detuned one.
    s0 = 1j * np.imag(f_roots)
    s21 = np.abs(_scattering(cm, s0)[1, 0])
    k = int(np.argmax(s21))
    # |S21| = 0 at every such point (a zero coupling cuts the path): eps = inf
    with np.errstate(divide="ignore"):
        return float(abs(_prod_over_roots(p_roots, s0[k])) / (abs(_prod_over_roots(e_roots, s0[k])) * s21[k]))


def extract_polynomials(cm: CouplingMatrix) -> CharacteristicPolynomials:
    """Recover E, F, P roots and the ripple constant from a coupling matrix.

    The poles are the eigenvalues of the pole matrix M. Subtracting the
    reflection term 2/qe1 * cof11(A) from det(A) only changes the
    first diagonal entry of M, flipping the sign of its loading
    contribution, so the reflection zeros are the eigenvalues of that
    modified matrix. Transmission zeros solve the generalized problem
    det(s I' - M') = 0 with the first row and last column deleted; the
    deleted-identity pencil is singular, so infinite generalized
    eigenvalues appear and are discarded as zeros at infinity. When M has
    no coupling two or more off its diagonal (an inline or ladder
    matrix), M' - s I' is upper triangular with the s-free couplings
    j m[i+1, i] on its diagonal: its determinant does not depend on s, so
    there are no finite zeros and no eigen solve is run. The ripple
    constant is |P| / (|E| |S21|) at one point, with S21 from the
    S-parameter kernel, so it holds for detuned and cross-coupled
    matrices as well as tuned ones.
    """
    if cm.n < 2:
        raise InvalidSpecError("polynomial extraction needs order >= 2")
    mm = pole_matrix(cm)
    mf = mm.copy()
    mf[0, 0] += 2.0 / cm.qe1
    sub = mm[1:, :-1]
    try:
        e_roots = np.linalg.eigvals(mm)
        f_roots = np.linalg.eigvals(mf)
        if np.any(np.tril(sub, -1)):
            import scipy.linalg  # only cross-coupled matrices pay for the import

            gen = scipy.linalg.eig(sub, np.eye(cm.n)[1:, :-1], right=False)
            p_roots = gen[np.isfinite(gen)]
        else:
            p_roots = ()
    except np.linalg.LinAlgError as err:  # scipy.linalg raises this class too
        raise NumericalError(
            f"eigen solve failed on an order-{cm.n} matrix "
            f"(cond ~ {np.linalg.cond(mm):.3e})"
        ) from err
    return CharacteristicPolynomials(
        e_roots=tuple(e_roots),
        f_roots=tuple(f_roots),
        p_roots=tuple(p_roots),
        epsilon=_ripple_constant(cm, e_roots, f_roots, p_roots),
    )


def response_from_polynomials(
    cp: CharacteristicPolynomials, s: complex
) -> tuple[float, float]:
    """Evaluate (|S11|, |S21|) from the root products.

    Magnitudes only: the relative phase between this route and the
    matrix-inverse route is not pinned down, but the magnitudes must
    agree.
    """
    e = _prod_over_roots(cp.e_roots, s)
    if abs(e) < _POLE_FLOOR:
        raise SingularFrequencyError(f"s = {s} is a pole of the response")
    f = _prod_over_roots(cp.f_roots, s)
    p = _prod_over_roots(cp.p_roots, s)
    return abs(f) / abs(e), abs(p) / (cp.epsilon * abs(e))
