"""Normalized coupling-matrix model of a coupled-resonator filter.

The matrix entries live in the low-pass prototype domain: off-diagonal
m_ij = k_ij / FBW and normalized external quality factors qe = Qe * FBW.
This normalization makes designs that share order and ripple identical
regardless of their center frequency and bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .prototype import CouplingTargets


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric n x n coupling matrix plus external loading.

    The diagonal is zero for synchronously tuned filters; nonzero diagonal
    entries represent resonator frequency offsets and are legal (the
    optimizer may introduce them).
    """

    m: np.ndarray
    qe1: float
    qen: float

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidSpecError(f"coupling matrix must be square, got shape {m.shape}")
        _refuse(m, self.qe1, self.qen)
        if not (m == m.T).all():  # no NaN reaches this test
            raise InvalidSpecError("coupling matrix must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.m.shape[0]


def _refuse(m: np.ndarray, qe1: float, qen: float) -> None:
    """Refuse what CouplingMatrix refuses, asymmetry aside; optimizer trials too."""
    if not np.isfinite(m).all():
        raise InvalidSpecError("coupling matrix entries must be finite")
    if not (0 < qe1 < math.inf and 0 < qen < math.inf):
        raise InvalidSpecError("external quality factors must be positive and finite")
    for name, qe in (("qe1", qe1), ("qen", qen)):
        if 2.0 / float(qe) == math.inf:  # S's port factor -2 / qe
            raise InvalidSpecError(f"{name} = {qe} is too small: 2 / {name} overflows")
    if float(qe1) * float(qen) == 0.0:  # and 2 / sqrt(qe1 qen)
        raise InvalidSpecError(f"qe1 * qen underflows to 0 for qe1 = {qe1}, qen = {qen}")


def from_couplings(targets: CouplingTargets, fbw: float) -> CouplingMatrix:
    """Build the normalized ladder matrix from bandpass-domain targets.

    Superdiagonal entries are k_i / fbw, the diagonal is zero (synchronous
    tuning), and the external loading is qe = Qe * fbw.
    """
    if not 0 < fbw < 1:
        raise InvalidSpecError(f"fractional bandwidth must lie in (0, 1), got {fbw}")
    n = len(targets.k) + 1
    m = np.zeros((n, n))
    for i, ki in enumerate(targets.k):
        m[i, i + 1] = m[i + 1, i] = ki / fbw
    return CouplingMatrix(m=m, qe1=targets.qe_in * fbw, qen=targets.qe_out * fbw)


def system_matrix(cm: CouplingMatrix, s) -> np.ndarray:
    """Frequency-dependent filter matrix at complex prototype frequency s.

    A(s) = Q + s I - j m, where Q is zero except for 1/qe1 and 1/qen in
    the first and last diagonal entries. A is complex-symmetric (not
    Hermitian) and affine in s. For an array s the result has shape
    s.shape + (n, n), one matrix per point, filled in place.
    """
    s = np.asarray(s)
    return _fill(np.empty(s.shape + (cm.n, cm.n), dtype=complex), cm.m, s, cm.qe1, cm.qen)


def _fill(a: np.ndarray, m: np.ndarray, s: np.ndarray, qe1: float, qen: float) -> np.ndarray:
    """system_matrix written into a, of shape s.shape + m.shape, in place."""
    np.multiply(-1j, m, out=a)
    diag = a.reshape(s.shape + (-1,))[..., :: m.shape[0] + 1]  # a view of each diagonal
    diag += s[..., None]
    diag[..., 0] += 1.0 / qe1
    diag[..., -1] += 1.0 / qen
    return a


def pole_matrix(cm: CouplingMatrix) -> np.ndarray:
    """Constant matrix M = j m - Q whose eigenvalues are the response poles.

    Satisfies system_matrix(cm, s) == s I - pole_matrix(cm) for every s;
    for a passive loaded network all eigenvalues lie in the left half
    plane.
    """
    return -system_matrix(cm, 0.0)


def _eigenpairs(cm: CouplingMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues lam, unit eigenvectors v (columns) and d = diag(v^T v) of
    the pole matrix. It is complex-symmetric, so for distinct eigenvalues
    inv(v) = diag(1 / d) v^T, and 1 / |d_k| is the condition number of
    lam_k (Wilkinson, The Algebraic Eigenvalue Problem, ch. 2). Raises
    LinAlgError where eig fails."""
    lam, v = np.linalg.eig(pole_matrix(cm))
    return lam, v, (v * v).sum(axis=0)
