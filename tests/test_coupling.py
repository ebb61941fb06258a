import numpy as np
import pytest

import resonet as rn
from resonet.errors import InvalidSpecError


def laplace_det(a):
    """Recursive cofactor-expansion determinant, independent of LAPACK."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * laplace_det(minor)
    return total


@pytest.fixture(scope="module")
def table2_matrix(xband4):
    return rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)


def test_table2_normalized_matrix(table2_matrix):
    m = table2_matrix.m
    assert m[0, 1] == pytest.approx(0.92, abs=0.02)
    assert m[1, 2] == pytest.approx(0.70, abs=0.02)
    assert table2_matrix.qe1 == pytest.approx(0.9314, abs=0.003)
    assert np.all(np.diag(m) == 0.0)


def test_zero_couplings_give_zero_matrix():
    targets = rn.CouplingTargets(qe_in=18.0, qe_out=18.0, k=(0.0, 0.0, 0.0))
    cm = rn.from_couplings(targets, 0.05)
    assert np.all(cm.m == 0.0)


@pytest.mark.parametrize("k", [-0.01, 1.0, float("nan")])
def test_coupling_outside_unit_interval_rejected(k):
    with pytest.raises(InvalidSpecError, match=r"\[0, 1\)"):
        rn.CouplingTargets(qe_in=18.0, qe_out=18.0, k=(0.05, k))


def test_yband_and_xband_share_normalized_matrix(xband4, yband4):
    a = rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)
    b = rn.from_couplings(rn.spec_to_couplings(yband4), yband4.fbw)
    assert np.allclose(a.m, b.m, rtol=1e-12, atol=0)
    assert a.qe1 == pytest.approx(b.qe1, rel=1e-12)


def test_coupling_round_trip(xband4):
    targets = rn.spec_to_couplings(xband4)
    cm = rn.from_couplings(targets, xband4.fbw)
    for i, k in enumerate(targets.k):
        assert cm.m[i, i + 1] * xband4.fbw == pytest.approx(k, rel=1e-15)


@pytest.mark.parametrize("fbw", [0.0, 1.0, -0.2, 1.5])
def test_fbw_range_enforced(fbw):
    targets = rn.CouplingTargets(qe_in=18.0, qe_out=18.0, k=(0.05,))
    with pytest.raises(InvalidSpecError):
        rn.from_couplings(targets, fbw)


def test_matrix_must_be_symmetric():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0  # no matching m[1, 0]
    with pytest.raises(InvalidSpecError):
        rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0)


def test_matrix_rejects_nan():
    m = np.full((2, 2), np.nan)
    with pytest.raises(InvalidSpecError):
        rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_names_a_non_finite_entry_before_symmetry(bad):
    # NaN != NaN: the symmetry check alone would call this matrix asymmetric
    with pytest.raises(InvalidSpecError, match="entries must be finite"):
        rn.CouplingMatrix(m=[[0.0, bad], [bad, 0.0]], qe1=1.0, qen=1.0)


@pytest.mark.parametrize("qe1,qen", [(0.0, 1.0), (1.0, -2.0), (np.inf, 1.0), (1.0, np.inf)])
def test_external_q_positive(qe1, qen):
    # an infinite qe is an unloaded port, which sweeps as |S11| = 1, |S21| = 0
    with pytest.raises(InvalidSpecError, match="positive and finite"):
        rn.CouplingMatrix(m=np.zeros((2, 2)), qe1=qe1, qen=qen)


def test_stored_matrix_is_immutable(table2_matrix):
    with pytest.raises(ValueError):
        table2_matrix.m[0, 0] = 1.0


def test_system_matrix_two_by_two():
    cm = rn.CouplingMatrix(m=np.array([[0.0, 1.0], [1.0, 0.0]]), qe1=1.0, qen=1.0)
    a = rn.system_matrix(cm, 0.0)
    assert np.array_equal(a, np.array([[1.0, -1.0j], [-1.0j, 1.0]]))


def test_system_matrix_affine_in_s(table2_matrix):
    # exactly representable values make the affine identity exact
    s1, s2 = 2.0 + 0.0j, -1.0 + 0.5j
    a1 = rn.system_matrix(table2_matrix, s1)
    a2 = rn.system_matrix(table2_matrix, s2)
    assert np.array_equal(a1 - a2, (s1 - s2) * np.eye(4))


def test_system_matrix_symmetric(table2_matrix):
    a = rn.system_matrix(table2_matrix, 0.3 + 0.7j)
    assert np.array_equal(a, a.T)


def test_large_s_dominates_diagonal(table2_matrix):
    a = rn.system_matrix(table2_matrix, 1e6j)
    assert np.linalg.norm(np.linalg.inv(a)) < 1e-5


def test_pole_matrix_identity(table2_matrix):
    rng = np.random.default_rng(3)
    mm = rn.pole_matrix(table2_matrix)
    for _ in range(10):
        s = complex(rng.normal(), rng.normal())
        a = rn.system_matrix(table2_matrix, s)
        assert np.allclose(a, s * np.eye(4) - mm, rtol=0, atol=1e-15)


def test_pole_matrix_uncoupled_unit_loading():
    cm = rn.CouplingMatrix(m=np.zeros((2, 2)), qe1=1.0, qen=1.0)
    assert np.array_equal(rn.pole_matrix(cm), np.diag([-1.0 + 0j, -1.0 + 0j]))


def test_determinant_against_cofactor_expansion(table2_matrix):
    a = rn.system_matrix(table2_matrix, 0.0)
    lu = np.linalg.det(a)
    cofactor = laplace_det(a)
    assert lu == pytest.approx(cofactor, rel=1e-10)


def test_pole_matrix_eigenvalues_left_half_plane(table2_matrix):
    eigs = np.linalg.eigvals(rn.pole_matrix(table2_matrix))
    assert np.all(eigs.real < 0)
