import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import resonet as rn
from oracles import char_poly_from_eigenvalues, chebyshev_reference
from resonet.errors import InvalidSpecError, NumericalError, SingularFrequencyError


@pytest.fixture(scope="module")
def cm4(xband4):
    return rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)


@pytest.fixture(scope="module")
def cp4(cm4):
    return rn.extract_polynomials(cm4)


def laplace_det(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * laplace_det(minor)
    return total


def test_vieta_two_roots():
    poly = char_poly_from_eigenvalues([1.0, 2.0])
    assert poly.coeffs == (2.0 + 0j, -3.0 + 0j, 1.0 + 0j)
    assert poly.degree == 2
    assert poly(1.0) == 0.0
    assert poly(2.0) == 0.0


def test_vieta_single_root():
    poly = char_poly_from_eigenvalues([2.5 - 1.0j])
    assert poly.coeffs == (-(2.5 - 1.0j), 1.0 + 0j)


def test_vieta_empty_rejected():
    with pytest.raises(InvalidSpecError):
        char_poly_from_eigenvalues([])


def test_vieta_against_cofactor_determinant():
    rng = np.random.default_rng(21)
    lam = rng.normal(size=6) + 1j * rng.normal(size=6)
    poly = char_poly_from_eigenvalues(lam)
    for _ in range(8):
        s = complex(rng.normal(scale=3), rng.normal(scale=3))
        direct = laplace_det(s * np.eye(6) - np.diag(lam))
        assert poly(s) == pytest.approx(direct, rel=1e-10)


def test_vieta_against_lu_determinant_random_matrices(random_lossless):
    rng = np.random.default_rng(22)
    for _ in range(30):
        cm = random_lossless(rng)
        mm = rn.pole_matrix(cm)
        poly = char_poly_from_eigenvalues(np.linalg.eigvals(mm))
        s = 3 * math.sqrt(cm.n) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        direct = np.linalg.det(s * np.eye(cm.n) - mm)
        assert poly(s) == pytest.approx(direct, rel=1e-9)


def test_reflection_zero_pattern(cp4):
    got = sorted(r.imag for r in cp4.f_roots)
    want = sorted(
        sign * math.cos((2 * i - 1) * math.pi / 8) for i in (1, 2) for sign in (1, -1)
    )
    assert np.allclose(got, want, atol=1e-9)
    assert max(abs(r.real) for r in cp4.f_roots) < 1e-8


def test_ladder_has_no_finite_transmission_zeros(cp4):
    assert cp4.p_roots == ()


def test_degree_bookkeeping(cp4, cm4):
    assert len(cp4.e_roots) == cm4.n
    assert len(cp4.f_roots) == cm4.n
    assert len(cp4.p_roots) == 0


def test_poles_strictly_left_half_plane(cp4):
    assert all(r.real < 0 for r in cp4.e_roots)


def test_cross_coupled_matrix_gets_finite_zeros(xband4):
    # a folded cross coupling moves one transmission-zero pair in from infinity
    base = rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)
    m = np.array(base.m)
    m[0, 3] = m[3, 0] = -0.15
    cp = rn.extract_polynomials(rn.CouplingMatrix(m=m, qe1=base.qe1, qen=base.qen))
    assert sorted(r.imag for r in cp.p_roots) == pytest.approx([-2.090805728946922, 2.090805728946922], abs=1e-9)
    assert max(abs(r.real) for r in cp.p_roots) < 1e-9


def random_inline(rng, n, kind):
    """A random inline matrix: couplings of either sign, plus a random
    diagonal ("diagonal"), one coupling set to zero ("zero coupling") or
    one coupling two or more off the diagonal ("cross coupling")."""
    k = rng.uniform(0.2, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    if kind == "zero coupling":
        k[rng.integers(n - 1)] = 0.0
    m = np.diag(k, 1) + np.diag(k, -1)
    if kind == "diagonal":
        m += np.diag(rng.normal(scale=0.3, size=n))
    if kind == "cross coupling":
        i = rng.integers(n - 2)
        j = rng.integers(i + 2, n)
        m[i, j] = m[j, i] = rng.uniform(0.05, 0.5)
    return rn.CouplingMatrix(m=m, qe1=float(rng.uniform(0.2, 5.0)), qen=float(rng.uniform(0.2, 5.0)))


@pytest.mark.parametrize("kind", ["no diagonal", "diagonal", "zero coupling", "cross coupling"])
def test_transmission_zeros_match_the_generalized_eigen_solve(kind):
    # a ladder skips the pencil; its finite set must be what the pencil gives
    rng = np.random.default_rng(31)
    for n in range(3 if kind == "cross coupling" else 2, 21):
        for _ in range(5):
            cm = random_inline(rng, n, kind)
            mm = rn.pole_matrix(cm)
            gen = scipy.linalg.eig(mm[1:, :-1], np.eye(n)[1:, :-1], right=False)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cp = rn.extract_polynomials(cm)
            assert cp.p_roots == tuple(gen[np.isfinite(gen)])
            assert (len(cp.p_roots) > 0) == (kind == "cross coupling")
            assert (cp.epsilon == math.inf) == (kind == "zero coupling")


def test_only_cross_coupled_matrices_import_scipy_linalg():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, numpy as np, resonet as rn\n"
        "spec = rn.bundled_filter_spec('xband-4pole')\n"
        "cm = rn.from_couplings(rn.spec_to_couplings(spec), spec.fbw)\n"
        "rn.extract_polynomials(cm)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "m = np.array(cm.m); m[0, 3] = m[3, 0] = -0.15\n"
        "print(len(rn.extract_polynomials(rn.CouplingMatrix(m=m, qe1=cm.qe1, qen=cm.qen)).p_roots))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "2", "True"]


@pytest.mark.parametrize("raised, expected", [(np.linalg.LinAlgError, NumericalError), (ValueError, ValueError)])
def test_a_failed_pencil_solve_is_a_numerical_error(cm4, monkeypatch, raised, expected):
    # the handler catches LinAlgError (scipy's is numpy's) and nothing wider
    def fail(*args, **kwargs):
        raise raised("no convergence")

    m = np.array(cm4.m)
    m[0, 3] = m[3, 0] = -0.15
    monkeypatch.setattr(scipy.linalg, "eig", fail)
    with pytest.raises(expected):
        rn.extract_polynomials(rn.CouplingMatrix(m=m, qe1=cm4.qe1, qen=cm4.qen))


def test_an_overflowing_reflection_term_is_a_numerical_error(cm4):
    # 1 / qe1 and 2 / qe1 overflow, so M_F would read -inf + inf at [0, 0]:
    # CouplingMatrix refuses such a qe1, naming it, before extract_polynomials
    # can reach an eigen solve on it
    with pytest.raises(InvalidSpecError, match="qe1 = 1e-310"):
        rn.extract_polynomials(rn.CouplingMatrix(m=cm4.m, qe1=1e-310, qen=cm4.qen))


def test_epsilon_positive_and_stable(cp4):
    assert cp4.epsilon > 0
    assert cp4.epsilon == pytest.approx(0.8000064032, rel=1e-6)


def test_feldtkeller_identity(cp4):
    rng = np.random.default_rng(23)
    for _ in range(100):
        s11, s21 = rn.response_from_polynomials(cp4, 1j * rng.uniform(-3, 3))
        assert s11**2 + s21**2 == pytest.approx(1.0, abs=1e-8)


def test_vanishes_at_own_reflection_zero(cp4):
    s11, _ = rn.response_from_polynomials(cp4, 1j * math.cos(3 * math.pi / 8))
    assert s11 < 1e-8


def test_band_edge_equiripple_level(cp4):
    s11, _ = rn.response_from_polynomials(cp4, 1j)
    assert s11 == pytest.approx(0.0995, abs=1e-3)


def test_polynomial_path_matches_matrix_path(xband4, xband8, yband4):
    for spec in (xband4, xband8, yband4):
        cm = rn.from_couplings(rn.spec_to_couplings(spec), spec.fbw)
        cp = rn.extract_polynomials(cm)
        for omega in np.linspace(-3, 3, 201):
            p11, p21 = rn.response_from_polynomials(cp, 1j * omega)
            s11, s21 = rn.s_parameters(cm, 1j * omega)
            assert abs(p11 - abs(s11)) < 1e-7
            assert abs(p21 - abs(s21)) < 1e-7


@pytest.mark.parametrize("order", range(2, 21))
def test_roots_and_epsilon_are_the_closed_form_chebyshev_ones(order):
    # against oracles.chebyshev_reference, roots matched in order of their
    # imaginary parts, which are distinct. Measured worst (x86, OpenBLAS's
    # SkylakeX, Haswell, Sandybridge and Prescott kernels): 5.7e-15 on the
    # roots (F, n = 14) and 5.9e-14 relative on epsilon (n = 16, Haswell);
    # the bounds leave 2.6x and 3.4x
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cp = rn.extract_polynomials(rn.synthesize_design(spec).matrix)
    ref = chebyshev_reference(spec)
    for got, expected in ((np.array(cp.e_roots), ref.e_roots), (np.array(cp.f_roots), ref.f_roots)):
        assert np.abs(got[np.argsort(got.imag)] - expected[np.argsort(expected.imag)]).max() <= 1.5e-14
    assert cp.epsilon == pytest.approx(ref.epsilon, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("order", range(2, 21))
def test_polynomial_route_matches_kernel_on_random_matrices(order, random_lossless):
    # Detuned and fully coupled matrices, where |S21| = 1 holds at no
    # projected reflection zero; the ripple constant must not assume it.
    rng = np.random.default_rng(1000 + order)
    for _ in range(5):
        cm = random_lossless(rng, n=order)
        cp = rn.extract_polynomials(cm)
        for omega in rng.uniform(-3, 3, size=10):
            p11, p21 = rn.response_from_polynomials(cp, 1j * omega)
            s11, s21 = rn.s_parameters(cm, 1j * omega)
            assert abs(p11 - abs(s11)) < 1e-10
            assert abs(p21 - abs(s21)) < 1e-10


def test_evaluation_at_pole_raises(cp4):
    with pytest.raises(SingularFrequencyError):
        rn.response_from_polynomials(cp4, cp4.e_roots[0])


def test_order_one_rejected():
    cm = rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=1.0, qen=1.0)
    with pytest.raises(InvalidSpecError):
        rn.extract_polynomials(cm)
