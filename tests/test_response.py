import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resonet as rn
from oracles import chebyshev_reference, s_parameters_cramer
from resonet import response
from resonet.coupling import _eigenpairs
from resonet.errors import (
    InsufficientSpanError,
    InvalidSpecError,
    NoPassbandError,
    SingularFrequencyError,
)

EDGE_S11 = 0.09949943695193105  # equiripple reflection for 0.04321 dB ripple


@pytest.fixture(scope="module")
def cm4(xband4):
    return rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)


def critically_coupled_pair():
    return rn.CouplingMatrix(m=np.array([[0.0, 1.0], [1.0, 0.0]]), qe1=1.0, qen=1.0)


def test_full_transmission_at_resonance():
    s11, s21 = rn.s_parameters(critically_coupled_pair(), 0.0)
    assert abs(s11) < 1e-15
    assert s21 == pytest.approx(1j, abs=1e-15)


def test_uncoupled_resonators_reflect_everything():
    cm = rn.CouplingMatrix(m=np.zeros((2, 2)), qe1=1.0, qen=1.0)
    s11, s21 = rn.s_parameters(cm, 0.0)
    assert s11 == pytest.approx(-1.0, abs=1e-15)
    assert s21 == 0.0


def realized_ripple_s11(ripple_db):
    """Equiripple |S11| of the prototype chebyshev_g_values builds: its
    17.37 constant stands in for 40 / ln 10, so the realized ripple is
    ripple_db * (40 / ln 10) / 17.37."""
    realized_db = ripple_db * (40.0 / math.log(10.0)) / 17.37
    eps = math.sqrt(10.0 ** (realized_db / 10.0) - 1.0)
    return eps / math.sqrt(1.0 + eps * eps)


def test_band_center_and_edges(cm4, xband4):
    for omega in (0.0, 1.0, -1.0):
        s11, s21 = rn.s_parameters(cm4, 1j * omega)
        assert abs(s11) == pytest.approx(EDGE_S11, abs=5e-4)
        assert abs(s11) <= realized_ripple_s11(xband4.ripple_db) + 1e-12
        assert abs(s21) ** 2 == pytest.approx(1 - abs(s11) ** 2, abs=1e-12)


def test_asymptotic_total_reflection(cm4):
    s11, s21 = rn.s_parameters(cm4, 1e6j)
    assert abs(s11) == pytest.approx(1.0, abs=1e-9)
    assert abs(s21) < 1e-5


def test_energy_conservation_random(random_lossless):
    rng = np.random.default_rng(11)
    for _ in range(300):
        cm = random_lossless(rng)
        s11, s21 = rn.s_parameters(cm, 1j * rng.uniform(-5, 5))
        assert abs(abs(s11) ** 2 + abs(s21) ** 2 - 1.0) < 1e-10


def test_cramer_agrees_with_inverse(random_lossless):
    rng = np.random.default_rng(12)
    for _ in range(200):
        cm = random_lossless(rng, rng.integers(2, 21))
        s = 1j * rng.uniform(-5, 5)
        a11, a21 = rn.s_parameters(cm, s)
        b11, b21 = s_parameters_cramer(cm, s)
        assert abs(a11 - b11) <= 1e-9 * max(abs(a11), abs(b11), 1e-6)
        assert abs(a21 - b21) <= 1e-9 * max(abs(a21), abs(b21), 1e-6)


@pytest.mark.parametrize("order", [14, 16, 20])
def test_cramer_agrees_at_high_order(order):
    # Healthy Chebyshev matrices: well conditioned at s = 0.5j.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    a11, a21 = rn.s_parameters(cm, 0.5j)
    b11, b21 = s_parameters_cramer(cm, 0.5j)
    assert abs(a11 - b11) <= 1e-9 * max(abs(a11), abs(b11))
    assert abs(a21 - b21) <= 1e-9 * max(abs(a21), abs(b21))


def test_cramer_hand_case():
    # 2x2 critically coupled pair at resonance: det A = 2, S21 = j
    cm = critically_coupled_pair()
    a = rn.system_matrix(cm, 0.0)
    assert np.linalg.det(a) == pytest.approx(2.0, rel=1e-14)
    s11, s21 = s_parameters_cramer(cm, 0.0)
    assert abs(s11) < 1e-14
    assert s21 == pytest.approx(1j, abs=1e-14)


def test_reciprocity(cm4, random_lossless):
    rng = np.random.default_rng(13)
    for cm in [cm4] + [random_lossless(rng) for _ in range(20)]:
        sm = rn.s_matrix(cm, 1j * rng.uniform(-2, 2))
        assert abs(sm[0, 1] - sm[1, 0]) < 1e-12


def test_singular_frequency_raises(cm4):
    pole = np.linalg.eigvals(rn.pole_matrix(cm4))[0]
    with pytest.raises(SingularFrequencyError):
        rn.s_parameters(cm4, pole)
    with pytest.raises(SingularFrequencyError):
        s_parameters_cramer(cm4, pole)


def test_denormal_qe_raises_on_point_and_swept_routes():
    # A qe for which 2 / qe overflows, or qe1 qen underflows to 0 (so that
    # 2 / sqrt(qe1 qen) would), is refused when the matrix is built, naming
    # it: no point or swept route, and no reflection term -1 / qe1 + 2 / qe1
    # of extract_polynomials, ever sees an infinite port factor.
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = [(5e-324, 1.0, "qe1 = 5e-324"), (1.0, 1e-308, "qen = 1e-308"), (1e-310, 0.7, "qe1 = 1e-310")]
    for qe1, qen, named in cases + [(1e-200, 1e-200, r"qe1 \* qen underflows")]:
        with pytest.raises(InvalidSpecError, match=named):
            rn.CouplingMatrix(m=m, qe1=qe1, qen=qen)
    for qe in (1e-160, 1e-150):  # still valid: qe1 qen is 1e-320 or 1e-300
        assert np.isfinite(rn.s_matrix(rn.CouplingMatrix(m=m, qe1=qe, qen=qe), 0.5j)).all()


@pytest.mark.parametrize("points", [3, 1001])  # the LU and the residue sizes
def test_exactly_singular_grid_point_is_named(points, xband4):
    # an uncoupled middle resonator: A(0) has an exactly zero diagonal entry
    cm = rn.CouplingMatrix(m=np.zeros((3, 3)), qe1=1.0, qen=1.0)
    with pytest.raises(SingularFrequencyError, match=r"at s = 0j$"):
        rn.sweep(cm, xband4, 9e9, 11e9, points)


@pytest.mark.parametrize("points", [49, 1001])  # the residue sizes at n = 3
def test_singular_grid_point_on_a_tuned_diagonal_is_named(points, xband4):
    # all three resonators tuned to one grid frequency (a non-zero,
    # repeated diagonal), the middle one uncoupled: A is exactly singular there
    w = rn.normalized_frequency(np.linspace(9e9, 11e9, points), xband4)[points // 3]
    m = np.diag([w, w, w])
    m[0, 2] = m[2, 0] = 0.8
    cm = rn.CouplingMatrix(m=m, qe1=0.7, qen=1.3)
    with pytest.raises(SingularFrequencyError) as point:
        rn.s_matrix(cm, 1j * w)
    with pytest.raises(SingularFrequencyError) as swept:
        rn.sweep(cm, xband4, 9e9, 11e9, points)
    assert str(swept.value) == str(point.value)


def test_mapping_fixed_point_and_monotonicity(xband4):
    assert rn.normalized_frequency(xband4.f0_hz, xband4) == 0.0
    f = np.linspace(1e9, 20e9, 200)
    omega = rn.normalized_frequency(f, xband4)
    assert np.all(np.diff(omega) > 0)


def test_band_edges_map_to_unit_omega(xband4):
    f_lo, f_hi = rn.band_edge_frequencies(xband4)
    assert rn.normalized_frequency(f_lo, xband4) == pytest.approx(-1.0, abs=1e-12)
    assert rn.normalized_frequency(f_hi, xband4) == pytest.approx(1.0, abs=1e-12)
    assert f_hi - f_lo == pytest.approx(xband4.bandwidth_hz, rel=1e-12)


def test_sweep_shape_and_passivity(cm4, xband4):
    resp = rn.sweep(cm4, xband4, 9e9, 11e9, 501)
    assert len(resp) == 501
    assert resp.grid[0] == 9e9 and resp.grid[-1] == 11e9
    assert np.max(np.abs(resp.s11)) <= 1 + 1e-9
    assert np.max(np.abs(resp.s21)) <= 1 + 1e-9


def test_sweep_reflection_zero_locations(cm4, xband4):
    resp = rn.sweep(cm4, xband4, 9e9, 11e9, 1001)
    mag = np.abs(resp.s11)
    minima = [
        resp.grid[i]
        for i in range(1, 1000)
        if mag[i] < mag[i - 1] and mag[i] < mag[i + 1] and 20 * np.log10(mag[i]) < -40
    ]
    assert len(minima) == 4
    assert all(9.75e9 < f < 10.25e9 for f in minima)


@pytest.mark.parametrize(
    "f_start,f_stop,points",
    [
        (9e9, 11e9, 1),
        (9e9, 11e9, float("nan")),
        (0.0, 11e9, 101),
        (-1e9, 11e9, 101),
        (11e9, 9e9, 101),
        (9e9, float("inf"), 101),
    ],
)
def test_sweep_validation(cm4, xband4, f_start, f_stop, points):
    with pytest.raises(InvalidSpecError):
        rn.sweep(cm4, xband4, f_start, f_stop, points)


def test_sweep_two_port_consistency(cm4, xband4):
    # the benchmark calls sweep_two_port: sweep's response, its s12 and s22
    resp, s12, s22 = response.sweep_two_port(cm4, xband4, 9.5e9, 10.5e9, 101)
    full = rn.sweep(cm4, xband4, 9.5e9, 10.5e9, 101)
    assert s12 is resp.s12 and s22 is resp.s22
    for name in ("grid", "s11", "s21", "s12", "s22"):
        assert np.array_equal(getattr(resp, name), getattr(full, name))
    assert not (full.s12.flags.writeable or full.s12.base.flags.writeable)
    assert np.max(np.abs(full.s12 - full.s21)) < 1e-12
    assert np.max(np.abs(full.s22)) <= 1 + 1e-9
    # lossless two-port: each column of S has unit norm
    assert np.max(np.abs(np.abs(full.s22) ** 2 + np.abs(full.s12) ** 2 - 1)) < 1e-10


def point_s_matrices(cm, resp, spec):
    omega = rn.normalized_frequency(resp.grid, spec)
    return np.array([rn.s_matrix(cm, 1j * w) for w in omega])


def swept_s_matrices(resp):
    return np.stack([resp.s11, resp.s12, resp.s21, resp.s22], axis=-1).reshape(-1, 2, 2)


def test_sweep_is_s_matrix_on_the_grid(cm4, xband4):
    # at n = 4, grids of up to 48 points (not only up to 4 n = 16) take the
    # LU path, which is faster there: bit for bit the point route
    for points in (11, 16, 17, 48):
        resp = rn.sweep(cm4, xband4, 9.5e9, 10.5e9, points)
        assert np.array_equal(swept_s_matrices(resp), point_s_matrices(cm4, resp, xband4))
    # longer grids take the pole-residue path: equal to rounding
    for points in (49, 101):
        resp = rn.sweep(cm4, xband4, 9.5e9, 10.5e9, points)
        diff = swept_s_matrices(resp) - point_s_matrices(cm4, resp, xband4)
        assert np.abs(diff).max() <= 1e-13


def near_exceptional(m12=0.5 + 1e-9, order=2):
    """M = [[-2, j m12], [j m12, -1]] has a double, defective pole at -1.5
    for m12 = 0.5; near it the poles are ill-conditioned (max kappa 1.6e4 at
    0.5 + 1e-9), where pole residues lose accuracy and the sweep uses LU.
    At a higher order the pair is resonators 1 and n, and the n - 2
    resonators between them are uncoupled and detuned across the grid."""
    m = np.zeros((order, order))
    m[0, -1] = m[-1, 0] = m12
    m[range(1, order - 1), range(1, order - 1)] = np.linspace(-3.0, 3.0, order)[1:-1]
    return rn.CouplingMatrix(m=m, qe1=0.5, qen=1.0)


def port_stubs(detuning=0.0):
    """n = 6: ports 1 and 6 coupled by 1, and on each port resonator two
    stubs coupled by 0.7 and tuned to 0.3 and 0.3 + detuning. The stubs'
    difference modes never reach the ports; at detuning 0 they share the
    repeated pole 0.3j, and eig's vectors for it need not be orthogonal
    under v^T v (1.68 relative off its diagonal), nor, at 1e-8, for the
    nearly repeated pair."""
    m = np.zeros((6, 6))
    m[0, 5] = m[5, 0] = 1.0
    for port, stubs in ((0, (1, 2)), (5, (3, 4))):
        for stub, tuning in zip(stubs, (0.3, 0.3 + detuning)):
            m[port, stub] = m[stub, port] = 0.7
            m[stub, stub] = tuning
    return rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0)


# m12 = 0.5 + delta for delta = 0 and 1e-9 to 1e-1, and port_stubs' repeated
# and nearly repeated poles, on whichever route each takes
@pytest.mark.parametrize(
    "m12", [0.5, 0.5 + 1e-9, 0.5 + 1e-7, 0.5 + 1e-5, 0.5 + 1e-3, 0.5 + 1e-1, "stubs", "stubs-1e-8"]
)
def test_sweep_near_exceptional_point_matches_point_route(m12, monkeypatch, xband4):
    cm = near_exceptional(m12) if isinstance(m12, float) else port_stubs(1e-8 if m12 == "stubs-1e-8" else 0.0)
    resp = rn.sweep(cm, xband4, 9e9, 11e9, 1001)
    diff = swept_s_matrices(resp) - point_s_matrices(cm, resp, xband4)
    assert np.abs(diff).max() <= 1e-12
    # at 100k points against the kernel's LU route, which is s_matrix point
    # for point (checked at every 997th point)
    resp = rn.sweep(cm, xband4, 9e9, 11e9, 100_000)
    s = 1j * rn.normalized_frequency(resp.grid, xband4)
    residues = response._residue_ports(cm) is not None
    monkeypatch.setattr(response, "_residue_ports", lambda cm: None)
    lu = np.moveaxis(rn.s_matrix(cm, s), -1, 0)
    assert np.array_equal(lu[::997], [rn.s_matrix(cm, point) for point in s[::997]])
    assert np.abs(swept_s_matrices(resp) - lu).max() <= 1e-12
    assert not residues or resp.s12.tobytes() == resp.s21.tobytes()


@st.composite
def lossless_sweeps(draw):
    """A random lossless matrix of order 2 to 20 and a grid of more than
    max(4 n, 48) points (the pole-residue path) spanning prototype omega
    -3 to 3."""
    n = draw(st.integers(min_value=2, max_value=20))
    entries = st.floats(min_value=-3.0, max_value=3.0)
    upper = draw(st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    m = np.zeros((n, n))
    m[np.triu_indices(n)] = upper
    m = m + np.triu(m, 1).T
    qe1, qen = draw(st.tuples(*[st.floats(min_value=0.2, max_value=5.0)] * 2))
    points = draw(st.integers(min_value=max(4 * n, 48) + 1, max_value=4 * n + 200))
    return rn.CouplingMatrix(m=m, qe1=qe1, qen=qen), points


@settings(deadline=None)
@given(lossless_sweeps())
@example((rn.CouplingMatrix(m=np.zeros((3, 3)), qe1=1.0, qen=1.0), 49))  # a pole on the axis: LU
def test_sweep_agrees_with_lu_and_cramer(case):
    cm, points = case
    spec = rn.FilterSpec(order=cm.n, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    root = math.sqrt(1.0 + (3.0 * spec.fbw / 2.0) ** 2)  # omega = -+3, as in band_edge_frequencies
    f_lo, f_hi = spec.f0_hz * (root - 3.0 * spec.fbw / 2.0), spec.f0_hz * (root + 3.0 * spec.fbw / 2.0)
    omega = rn.normalized_frequency(np.linspace(f_lo, f_hi, points), spec)
    try:
        ref = np.array([rn.s_matrix(cm, 1j * w) for w in omega])
    except SingularFrequencyError:
        assume(False)
    resp = rn.sweep(cm, spec, f_lo, f_hi, points)
    got = swept_s_matrices(resp)
    if response._residue_ports(cm) is not None:  # the residue route, the grid being j omega
        assert resp.s12.tobytes() == resp.s21.tobytes()
    else:
        assert np.array_equal(got, ref)
    # relative to max |S_pq|, which is >= 1/sqrt(2) for a unitary S
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(got - ref).max(axis=(1, 2)) <= 1e-9 * scale)
    for i in (0, points // 2, points - 1):
        s11, s21 = s_parameters_cramer(cm, 1j * omega[i])
        assert max(abs(s11 - got[i, 0, 0]), abs(s21 - got[i, 1, 0])) <= 1e-9 * scale[i]
    assert np.abs(np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2 - 1.0).max() <= 1e-10


# |blocked - point-major| for the same residues: the BLAS kernel rounds a
# GEMM column by where it falls in the product, so the two layouts agree
# bit for bit on some kernels only (OpenBLAS SkylakeX), and within 5.3e-15
# on others (Haswell, Zen). Absolute, as |S| <= 1; a point computed from
# another point's frequency misses it by far more.
LAYOUT_TOL = 1e-14


def point_major_residue_sweep(cm, resp, spec):
    """S on resp's grid from the point-major residue product
    reciprocal(s[:, None] - lam) @ residues.T, of shape (points, 4), with
    the kernel's own poles and residues: this checks the layout, not them."""
    s = 1j * rn.normalized_frequency(resp.grid, spec)
    lam, residues = response._residue_ports(cm)
    x = np.reciprocal(s[:, None] - lam) @ residues.T
    c = 2.0 / math.sqrt(cm.qe1 * cm.qen)
    out = np.array([-2.0 / cm.qe1, c, c, -2.0 / cm.qen]) * x
    out[:, [0, 3]] += 1.0
    return out


@pytest.mark.parametrize("points", [1001, 100_000])
def test_sweep_is_the_point_major_residue_product(points, xband8, random_lossless):
    rng = np.random.default_rng(15)
    cases = [(rn.synthesize_design(xband8).matrix, xband8)]
    for n in (3, 9, 20):
        spec = rn.FilterSpec(order=n, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
        cases.append((rn.synthesize_design(spec).matrix, spec))
    cases += [(random_lossless(rng, n), xband8) for n in (2, 5, 16)]
    for cm, spec in cases:
        for count in (points, points + 2, points + 6):  # short GEMM tails too
            resp = rn.sweep(cm, spec, 9e9, 11e9, count)
            got = np.stack([resp.s11, resp.s12, resp.s21, resp.s22], axis=1)
            assert np.abs(got - point_major_residue_sweep(cm, resp, spec)).max() <= LAYOUT_TOL
            assert resp.s12.tobytes() == resp.s21.tobytes()


def test_sweep_is_the_point_major_residue_product_across_block_boundaries(xband8, random_lossless):
    # lengths one short of, at, one past and off a multiple of _BLOCK_POINTS,
    # where the last block is whole or short
    block = response._BLOCK_POINTS
    rng = np.random.default_rng(17)
    spec20 = rn.FilterSpec(order=20, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cases = [(rn.synthesize_design(xband8).matrix, xband8), (rn.synthesize_design(spec20).matrix, spec20)]
    cases.append((random_lossless(rng, 5), xband8))
    for cm, spec in cases:
        for count in (block - 1, block, block + 1, 2 * block, 2 * block + 3):
            resp = rn.sweep(cm, spec, 9e9, 11e9, count)
            got = np.stack([resp.s11, resp.s12, resp.s21, resp.s22], axis=1)
            assert np.abs(got - point_major_residue_sweep(cm, resp, spec)).max() <= LAYOUT_TOL
            assert resp.s12.tobytes() == resp.s21.tobytes()


@pytest.mark.parametrize("place", ["a later block", "the last block"])
def test_blocked_guard_decides_as_one_block_does(place, monkeypatch, xband4):
    # on the LU route, in blocks of _BLOCK_POINTS // 3 points at n = 3, the
    # singular grid point of near_singular_matrices, index points // 3 of
    # linspace(9e9, 11e9, points), lies past the first block; or it is the
    # exact last point of a grid ending there, in a short last block
    step = response._BLOCK_POINTS // 3
    if place == "a later block":
        points, f_stop = 3 * response._BLOCK_POINTS + 30, 11e9
        assert step <= points // 3
    else:
        points = 2 * response._BLOCK_POINTS + 3
        f_stop = np.linspace(9e9, 11e9, points)[points // 3]
        assert 0 < points % step
    monkeypatch.setattr(response, "_residue_ports", lambda cm: None)

    def outcome(cm):
        try:
            resp = rn.sweep(cm, xband4, 9e9, f_stop, points)
        except (SingularFrequencyError, InvalidSpecError) as err:
            return type(err).__name__, str(err)
        return "ok", np.stack([resp.s11, resp.s12, resp.s21, resp.s22])

    outcomes = []
    for cm in near_singular_matrices(xband4, points):
        got = outcome(cm)
        with monkeypatch.context() as one_block:
            one_block.setattr(response, "_BLOCK_POINTS", 3 * points)
            expected = outcome(cm)
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1]) if got[0] == "ok" else got[1] == expected[1]
        outcomes.append(got)
    assert {"ok", "SingularFrequencyError"} <= {kind for kind, _ in outcomes}
    # the tuned matrix is exactly singular at the chosen point, and the error names it
    w = rn.normalized_frequency(np.linspace(9e9, 11e9, points), xband4)[points // 3]
    assert outcomes[2] == ("SingularFrequencyError", f"filter matrix singular at s = {1j * w}")


@pytest.mark.parametrize("order", [4, 8, 16, 20, "near-exceptional", "near-exceptional-20"])
def test_sweep_memory_is_the_s_block_not_the_order(order, xband4):
    # a 100k-point sweep allocates its 64 B per point of S once, plus
    # scratch that does not grow with the grid: no (n, points) temporary
    # on the residue path, and no (points, n, n) one on the LU path, which
    # the near-exceptional matrices take; nor, at order 20, an LU block of
    # _BLOCK_POINTS n x n matrices
    if order == "near-exceptional":
        spec, cm = xband4, near_exceptional()
        assert response._residue_ports(cm) is None
    elif order == "near-exceptional-20":
        spec, cm = xband4, near_exceptional(order=20)
        assert response._residue_ports(cm) is None
    else:
        spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
        cm = rn.synthesize_design(spec).matrix
    points = 100_000
    tracemalloc.start()
    try:
        resp = rn.sweep(cm, spec, 9e9, 11e9, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(resp) == points
    assert peak <= 2 * (4 * points * 16)


@pytest.mark.parametrize("points", [11, 1001])  # the LU and the residue sizes
def test_sweep_response_rows_are_read_only_views_of_one_block(points, cm4, xband4):
    resp = rn.sweep(cm4, xband4, 9e9, 11e9, points)
    rows = (resp.s11, resp.s12, resp.s21, resp.s22)
    block = rows[0].base
    assert block.size == 4 * points
    for row in rows:
        assert row.base is block and not row.flags.writeable
    # on both paths the kernel's own block, one contiguous row per entry
    assert block.shape == (2, 2, points) and not block.flags.writeable
    assert all(row.flags.c_contiguous for row in rows)


@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["1-d", "2-d"])
def test_s_matrix_of_no_points_is_an_empty_block(shape, cm4):
    sm = rn.s_matrix(cm4, np.zeros(shape, dtype=complex))
    assert sm.shape == (2, 2) + shape and sm.dtype == complex


def test_lu_path_names_a_singular_point_in_a_later_block(monkeypatch, xband4):
    # the near-exceptional pair on resonators 1 and 3 keeps the grid on LU;
    # the uncoupled middle resonator, tuned to grid point points // 3 past
    # the first block, makes A exactly singular there
    points = 3 * response._BLOCK_POINTS + 30
    assert response._BLOCK_POINTS <= points // 3
    w = rn.normalized_frequency(np.linspace(9e9, 11e9, points), xband4)[points // 3]
    m = np.diag([0.0, w, 0.0])
    m[0, 2] = m[2, 0] = 0.5 + 1e-9
    cm = rn.CouplingMatrix(m=m, qe1=0.5, qen=1.0)
    assert response._residue_ports(cm) is None
    message = f"filter matrix singular at s = {1j * w}"
    with pytest.raises(SingularFrequencyError) as blocked:
        rn.sweep(cm, xband4, 9e9, 11e9, points)
    monkeypatch.setattr(response, "_BLOCK_POINTS", 3 * points)  # one LU block of points points
    with pytest.raises(SingularFrequencyError) as whole:
        rn.sweep(cm, xband4, 9e9, 11e9, points)
    assert str(blocked.value) == str(whole.value) == message


def sweep_outcome(cm, spec, points):
    """("ok", S rows) of a sweep, or the error's class name and message."""
    try:
        resp = rn.sweep(cm, spec, 9e9, 11e9, points)
    except (SingularFrequencyError, InvalidSpecError) as err:
        return type(err).__name__, str(err)
    return "ok", np.stack([resp.s11, resp.s12, resp.s21, resp.s22])


def near_singular_matrices(spec, points):
    """Matrices whose sweep sits at or near the guard's limit on the grid."""
    w = rn.normalized_frequency(np.linspace(9e9, 11e9, points), spec)[points // 3]
    uncoupled = np.zeros((3, 3))  # Re lam = 0: the middle pole on the axis at 0
    uncoupled[0, 2] = uncoupled[2, 0] = 0.8
    yield rn.CouplingMatrix(m=uncoupled, qe1=1.0, qen=1.0)
    yield rn.CouplingMatrix(m=uncoupled + np.diag([0.0, 0.37, 0.0]), qe1=1.0, qen=1.0)  # off the grid
    tuned = np.diag([w, w, w])  # a repeated diagonal, the middle resonator tuned to a grid point
    tuned[0, 2] = tuned[2, 0] = 0.8
    yield rn.CouplingMatrix(m=tuned, qe1=0.7, qen=1.3)
    # a weakly loaded first resonator tuned to a grid point and a detuned
    # middle one: max|A| * |x11| there is about 1e8 * detuning, so the guard
    # passes up to 9997 and fails at 1e4. _residue_ports refuses every one
    # (estimates 6.7e-6 to 1.4e-3, or inf), so each takes LU.
    for detuning in (1e2, 9995.5, 9997.0, 1e4, 1e6):
        m = np.array([[w, 1e-6, 0.0], [1e-6, detuning, 0.8], [0.0, 0.8, 0.0]])
        yield rn.CouplingMatrix(m=m, qe1=1e8, qen=1.3)


def residue_estimate(cm):
    """max_k n eps ||M||_F kappa_k / -Re lam_k, the estimate whose every
    term _residue_ports holds to _ESTIMATE_LIMIT."""
    lam, _, d = _eigenpairs(cm)
    return (cm.n * np.finfo(float).eps * np.linalg.norm(rn.pole_matrix(cm)) / np.abs(d) / -lam.real).max()


def test_bound_skips_the_guard_only_where_the_guard_passes(monkeypatch, xband4, random_lossless):
    # where _residue_ports admits the matrix, LU's guard passes at every
    # point and the residue S lies within 4 estimates of LU's (2.1 at most
    # measured); every other grid is LU's, outcome, error message and S bit
    # alike
    rng = np.random.default_rng(16)
    points = 1001
    cases = list(near_singular_matrices(xband4, points))
    cases += [random_lossless(rng, rng.integers(2, 21)) for _ in range(40)]
    admitted, outcomes = [], []
    for cm in cases:
        admitted.append(response._residue_ports(cm) is not None)
        got = sweep_outcome(cm, xband4, points)
        with monkeypatch.context() as patch:
            patch.setattr(response, "_residue_ports", lambda cm: None)
            lu = sweep_outcome(cm, xband4, points)
        if admitted[-1]:
            assert got[0] == lu[0] == "ok"
            assert np.abs(got[1] - lu[1]).max() <= 4 * residue_estimate(cm)
        else:
            assert got[0] == lu[0]
            assert np.array_equal(got[1], lu[1]) if got[0] == "ok" else got[1] == lu[1]
        outcomes.append(got[0])
    # both sides of the rule and of the guard occur
    assert True in admitted and False in admitted
    assert "SingularFrequencyError" in outcomes and outcomes.count("ok") > len(cases) // 2


def test_a_grid_the_bound_rejects_is_s_matrix_at_each_point(xband4):
    # a weakly loaded first resonator tuned to grid point 333 and a detuned
    # middle one: the guard passes at every point, but pole residues would put
    # S off LU, by 6.9e-8 at detuning 100 and past the passivity tolerance at
    # 9995.5 and 9997 (max |S| = 1 + 1.2e-8); _residue_ports refuses each
    points = 1001
    w = rn.normalized_frequency(np.linspace(9e9, 11e9, points), xband4)[333]
    for detuning in (1e2, 9995.5, 9997.0):
        m = np.array([[w, 1e-6, 0.0], [1e-6, detuning, 0.8], [0.0, 0.8, 0.0]])
        cm = rn.CouplingMatrix(m=m, qe1=1e8, qen=1.3)
        assert response._residue_ports(cm) is None
        resp = rn.sweep(cm, xband4, 9e9, 11e9, points)
        assert np.array_equal(swept_s_matrices(resp), point_s_matrices(cm, resp, xband4))


def test_bound_needs_open_left_half_plane_poles_and_a_right_half_plane_grid(monkeypatch, cm4):
    # rounding puts the computed pole of a resonator coupled by 1e-11 at
    # Re lam >= 0 for some tunings (+4.4e-16), where -Re lam bounds nothing
    on_axis = []
    for t in np.linspace(-3.0, 3.0, 61):
        m = np.array([[0.0, 1e-11, 0.0], [1e-11, t, 1e-11], [0.0, 1e-11, 0.0]])
        cm = rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0)
        on_axis.append((_eigenpairs(cm)[0].real >= 0).any())
        assert response._residue_ports(cm) is None
    assert any(on_axis)
    # the rule is one elementwise <=, which a pole at Re lam >= 0 or a NaN fails
    lam, v, d = _eigenpairs(cm4)
    assert response._residue_ports(cm4) is not None
    for re in (0.0, 6e-17, np.nan):
        moved = lam.copy()
        moved[1] = re + 1j * lam[1].imag
        with monkeypatch.context() as patch:
            patch.setattr(response, "_eigenpairs", lambda cm: (moved, v, d))
            assert response._residue_ports(cm4) is None
    # a grid with a point at Re s < 0, or a point that is not finite, takes
    # LU on an admitted matrix, and the guard names that point
    s = 1j * np.linspace(-3.0, 3.0, 1001)
    for point in (lam[0], complex(0.0, np.inf), complex(np.nan, 0.0)):
        grid = s.copy()
        grid[500] = point
        with pytest.raises(SingularFrequencyError) as err:
            rn.s_matrix(cm4, grid)
        assert str(err.value) == f"filter matrix singular at s = {grid[500]}"
    calls, lu = [], response._lu_scattering
    monkeypatch.setattr(response, "_lu_scattering", lambda *args: calls.append(args) or lu(*args))
    left = rn.s_matrix(cm4, s - 1e-300)
    assert calls and np.array_equal(left, np.moveaxis([rn.s_matrix(cm4, point) for point in s - 1e-300], 0, -1))


def test_overflowing_port_factor_runs_the_guard_even_when_bounded(xband4):
    # 2 / qe1 overflows although 1 / qe1 does not: the matrix is refused
    # before any route forms the port factor. At the smallest qe1 that
    # builds, the factor is finite, _residue_ports refuses the matrix and
    # the guard names the singular point.
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidSpecError, match="qe1 = 1e-308"):
        rn.sweep(rn.CouplingMatrix(m=m, qe1=1e-308, qen=1.0), xband4, 9e9, 11e9, 1001)
    with pytest.raises(SingularFrequencyError):
        rn.sweep(rn.CouplingMatrix(m=m, qe1=1.2e-308, qen=1.0), xband4, 9e9, 11e9, 1001)


@pytest.mark.parametrize("name", rn.bundled_design_names())
def test_bound_skips_the_guard_on_the_bundled_designs(name, monkeypatch):
    def lu(*args):
        raise AssertionError("the guarded LU route ran")

    spec = rn.bundled_filter_spec(name)
    cm = rn.synthesize_design(spec).matrix
    lo, hi = rn.band_edge_frequencies(spec)
    monkeypatch.setattr(response, "_lu_scattering", lu)
    resp = rn.sweep(cm, spec, lo - spec.bandwidth_hz, hi + spec.bandwidth_hz, 100_000)
    assert len(resp) == 100_000


@pytest.mark.parametrize("case", ["xband-8pole", "random-20"])
def test_residues_run_unguarded_far_off_the_band(case, monkeypatch, xband8, random_lossless):
    # the large-|s| half of _residue_ports' proof: past |s| = 2 ||M||_F each
    # |s - lam_k| > |s| / 2, so the guard passes out to |omega| = 1e9 too
    if case == "xband-8pole":
        cm = rn.synthesize_design(xband8).matrix
    else:
        cm = random_lossless(np.random.default_rng(31), 20)
    far = np.logspace(-3.0, 9.0, 2000)
    s = 1j * np.concatenate([-far[::-1], np.linspace(-3.0, 3.0, 1001), far])
    assert (np.abs(s) > 2 * np.linalg.norm(rn.pole_matrix(cm))).sum() > 1000

    def lu(*args):
        raise AssertionError("the guarded LU route ran")

    with monkeypatch.context() as patch:
        patch.setattr(response, "_lu_scattering", lu)
        got = rn.s_matrix(cm, s)
    monkeypatch.setattr(response, "_residue_ports", lambda cm: None)
    assert np.abs(got - rn.s_matrix(cm, s)).max() <= 4 * residue_estimate(cm)  # LU, guard passed


@pytest.mark.parametrize("order", range(2, 21))
def test_kernel_is_the_closed_form_chebyshev_response(order, monkeypatch):
    # |S_pq|^2 on both routes against oracles.chebyshev_reference, on 100k
    # points over omega -3 to 3. Measured worst (x86, OpenBLAS's SkylakeX,
    # Haswell, Sandybridge and Prescott kernels): 8.8e-15 on LU (n = 15) and
    # 4.8e-13 on residues (n = 18); the bounds leave 2.3x and 3x. Every such
    # design takes residues under _residue_ports' rule.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    omega = np.linspace(-3.0, 3.0, 100_000)
    t = chebyshev_reference(spec).s21_squared(omega)
    expected = np.array([[1.0 - t, t], [t, 1.0 - t]])

    def lu(*args):
        raise AssertionError("the guarded LU route ran")

    with monkeypatch.context() as patch:
        patch.setattr(response, "_lu_scattering", lu)
        residues = response._scattering(cm, 1j * omega)
    assert np.abs(np.abs(residues) ** 2 - expected).max() <= 1.5e-12
    monkeypatch.setattr(response, "_residue_ports", lambda cm: None)
    assert np.abs(np.abs(response._scattering(cm, 1j * omega)) ** 2 - expected).max() <= 2e-14


def test_response_validation_rejects_bad_grids():
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[2e9, 1e9], s11=[0, 0], s21=[0, 0])
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[1e9, 2e9], s11=[0.0], s21=[0.0, 0.0])
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[1e9], s11=[1.0 + 1e-8], s21=[0.0])
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[1e9, 2e9], s11=[0, 0], s21=[0, 0], s12=[0.0])
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[1e9], s11=[0.5], s21=[0.0], s12=[np.nan])
    with pytest.raises(InvalidSpecError):
        rn.FrequencyResponse(grid=[1e9], s11=[0.5], s21=[0.0], s12=[0.0], s22=[1.0 + 1e-8])


def test_response_copies_writable_inputs_only():
    s11 = np.array([0.5 + 0.0j])
    resp = rn.FrequencyResponse(grid=[1e9], s11=s11, s21=[0.0])
    s11[0] = 0.9
    assert resp.s11[0] == 0.5 and not resp.s11.flags.writeable
    again = rn.FrequencyResponse(grid=resp.grid, s11=resp.s11, s21=resp.s21)
    assert again.s11 is resp.s11


def test_analyze_ideal_four_pole(cm4, xband4):
    resp = rn.sweep(cm4, xband4, 9e9, 11e9, 2001)
    metrics = rn.analyze_response(resp, -20.0)
    assert metrics.reflection_zero_count == 4
    assert metrics.bandwidth_at_level == pytest.approx(0.5e9, rel=0.05)
    assert metrics.f_center == pytest.approx(10.003e9, rel=1e-3)
    assert metrics.max_inband_s11_db <= -20.0


def test_analyze_no_passband():
    grid = np.linspace(1e9, 2e9, 51)
    resp = rn.FrequencyResponse(grid=grid, s11=np.ones(51), s21=np.zeros(51))
    with pytest.raises(NoPassbandError):
        rn.analyze_response(resp, -20.0)


@pytest.mark.parametrize("f_start, f_stop", [(9.9e9, 10.1e9), (9.5e9, 10.1e9), (9.9e9, 10.5e9)])
def test_analyze_refuses_a_passband_the_grid_cuts(f_start, f_stop, cm4, xband4):
    # the 500 MHz passband runs past a grid edge: that edge is not a band edge
    resp = rn.sweep(cm4, xband4, f_start, f_stop, 401)
    with pytest.raises(InsufficientSpanError, match="edge of the sampled span"):
        rn.analyze_response(resp, -20.0)


def test_analyze_rejects_positive_level(cm4, xband4):
    resp = rn.sweep(cm4, xband4, 9e9, 11e9, 101)
    with pytest.raises(InvalidSpecError):
        rn.analyze_response(resp, 3.0)
