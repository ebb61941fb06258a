"""S-parameter evaluation and response metrics for coupled-resonator filters.

One kernel computes every S-parameter over an array of complex
frequencies, port-major: S_pq over the grid is the contiguous row
result[p, q] of its one (2, 2) + s.shape result. It fills that result in
one streamed pass over blocks of points and takes a block's port entries
of inv(A) by one of two routes. Long sweeps take the pole-residue form:
one eigen solve of the complex-symmetric pole matrix, whose inverse
eigenvector matrix is diag(1 / d) V^T, then per block a pole-major
reciprocal and one product with the residues, O(n) per point, S21 a copy
of S12. They take it only where _residue_ports admits the matrix and
every point is finite with Re s >= 0, which proves that the singularity
guard passes at every point, so no guard runs. Every other input, the
one-point s_parameters and s_matrix and the optimizer's targets too, is
_lu_scattering's: one LU solve per point under the guard, whose scale,
max|A_ij| at each point, is read off the A it solves. So a grid equals
per-point s_matrix bit for bit within one numpy/BLAS stack unless it
takes residues; there the last bits depend on the BLAS kernel's GEMM.
Either way a grid gives the same bytes on every call and holds the 64 B
per point of its result plus one block's scratch, about n * 64 KiB. The
tests check the kernel against a determinant/cofactor reference
(tests/oracles.py) under the same guard.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import is_whole
from .coupling import CouplingMatrix, _eigenpairs, pole_matrix, system_matrix
from .errors import InsufficientSpanError, InvalidSpecError, NoPassbandError, SingularFrequencyError
from .prototype import FilterSpec

# |S| may exceed unity only by numerical noise on a lossless model.
PASSIVITY_TOL = 1e-9

# Local minima of |S11| shallower than this are ripple artifacts of a
# coarse grid, not reflection zeros.
ZERO_FLOOR_DB = -40.0

_COND_LIMIT = 1e12
_MAG_FLOOR = 1e-300

# Where the port entries (1, 1), (1, n), (n, 1) and (n, n) of inv(A) sit
# among the 2 n entries of one point's inv(A) [e1, en], flattened.
_PORT_ENTRIES = np.array([0, 1, -2, -1])

# Inputs of more points than this per resonator, and of more than 48 points
# in all, may take the pole-residue form: one eigen solve, then O(n) per
# point, against O(n^3) per point for LU. Below it, where every one-point call
# sits, LU is faster and keeps its exact results; the optimizer's targets
# take LU at every order (_lu_scattering). Break-even measured at 30 to 60
# points for n = 2 to 20 on a 2-core x86 VM (OpenBLAS); the floor of 48
# keeps LU where 4 n points are too few to pay for the eigen solve (at n = 4
# and 16 points, LU takes 42 us and the residue form 73 us).
_RESIDUE_POINTS_PER_POLE = 4

# The residue form's error against LU grows as (0.4 to 2)e-15 * kappa^2 in
# the largest eigenvalue condition number kappa_k = 1 / |d_k|: on the tests'
# near_exceptional pair, kappa reads 16, 50, 158 and 1.6e3 and the error
# 2.8e-13, 2.4e-12, 2.2e-11 and 8.9e-10 at m12 = 0.5 + 1e-3, 1e-4, 1e-5 and
# 1e-7. And inv(V) = diag(1 / d) V^T only where V^T V is diagonal: off it,
# |v_i^T v_j| / sqrt(|d_i d_j|) reads up to 2e-13 on distinct poles and up
# to order 1 where eig mixes the vectors of a (nearly) repeated pole. Past
# either limit, or past _ESTIMATE_LIMIT (_residue_ports), the sweep uses LU:
# |S - S_LU| stayed within 2.1 times the estimate, which reads at most
# 1.7e-12 on Chebyshev designs up to order 20 and 8e-11 on some random ones.
_KAPPA_LIMIT = 40.0
_GRAM_TOL = 1e-10
_ESTIMATE_LIMIT = 1e-10


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """Sampled two-port response over a strictly increasing grid in Hz.

    s12 and s22 are None for CSV data and two-array callers. Entries must
    match the grid in length and be finite and passive. Writable inputs are
    copied; read-only ones, such as a sweep's kernel output, are kept.
    """

    grid: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray | None = None
    s22: np.ndarray | None = None

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidSpecError("grid must be a non-empty 1-d sequence")
        names = ["s11", "s21"] + [name for name in ("s12", "s22") if getattr(self, name) is not None]
        given = [np.asarray(getattr(self, name), dtype=complex) for name in names]
        if any(arr.shape != grid.shape for arr in given):
            raise InvalidSpecError(f"grid, {', '.join(names)} must have equal length")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InvalidSpecError("grid must be strictly increasing")
        data = [arr.copy() if arr.flags.writeable else arr for arr in given]
        worst = np.max([np.abs(arr).max() for arr in data])  # NaN or inf if any entry is not finite
        if not (np.all(np.isfinite(grid)) and np.isfinite(worst)):
            raise InvalidSpecError("response data must be finite")
        if worst > 1.0 + PASSIVITY_TOL:
            raise InvalidSpecError(f"non-passive data: max |S| = {worst}")
        for name, arr in (("grid", grid), *zip(names, data)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class ResponseMetrics:
    """Passband measurements taken at a given reflection level."""

    f_center: float
    bandwidth_at_level: float
    max_inband_s11_db: float
    reflection_zero_count: int

    def __post_init__(self):
        if self.bandwidth_at_level < 0:
            raise InvalidSpecError("bandwidth cannot be negative")


def _scattering(cm: CouplingMatrix, s):
    """The 2x2 block [[S11, S12], [S21, S22]] at every point of s, as the
    (2, 2) + s.shape result: S_pq is the contiguous row result[p, q].

    Grids of more than max(_RESIDUE_POINTS_PER_POLE n, 48) points, each
    finite with Re s >= 0, on a matrix _residue_ports admits, take the port
    entries of inv(A) from the pole residues, unguarded, in one
    (n, _BLOCK_POINTS) scratch array. Any other input takes _lu_scattering
    in blocks of _BLOCK_POINTS // n points, an A as large as the residue
    scratch, and equals per-point s_matrix bit for bit.
    """
    s = np.asarray(s, dtype=complex)
    points = s.ravel()
    out = np.empty((2, 2) + s.shape, dtype=complex)
    x = out.reshape(4, points.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        poles = _residue_ports(cm) if points.size > max(_RESIDUE_POINTS_PER_POLE * cm.n, 48) else None
        if poles is not None and np.isfinite(points).all() and points.real.min() >= 0:
            lam, residues = poles
            factors = _port_factors(cm.qe1, cm.qen)
            t = np.empty((cm.n, min(_BLOCK_POINTS, points.size)), dtype=complex)
            for lo in range(0, points.size, _BLOCK_POINTS):
                block = points[lo : lo + _BLOCK_POINTS]
                ports, scratch = x[:, lo : lo + block.size], t[:, : block.size]
                np.subtract(block, lam[:, None], out=scratch)
                np.reciprocal(scratch, out=scratch)
                np.matmul(residues, scratch, out=ports)
                ports[2] = ports[1]  # S21 is S12, bit for bit
                ports *= factors
                ports[::3] += 1.0
        else:
            step = max(1, _BLOCK_POINTS // cm.n)
            for lo in range(0, points.size, step):
                block = points[lo : lo + step]
                x[:, lo : lo + step] = _lu_scattering(system_matrix(cm, block), block, cm.qe1, cm.qen)[1].reshape(4, -1)
    return out


@functools.lru_cache(maxsize=64)
def _port_factors(qe1: float, qen: float) -> np.ndarray:
    """F in S = I + F x, x the port entries of inv(A), as a read-only (4, 1)
    column (row 2 p + q for entry (p, q)): -2 / qe on the diagonal,
    2 / sqrt(qe1 qen) off it, all finite, since CouplingMatrix refuses a qe
    that would overflow them. Complex, so that scaling x in place takes no
    cast; a real factor becomes the same complex number either way.
    Cached, since the optimizer's trials keep the qe of their start unless
    qe is free."""
    c = 2.0 / np.sqrt(qe1 * qen)
    factors = np.array([-2.0 / qe1, c, c, -2.0 / qen], dtype=complex)[:, None]
    factors.setflags(write=False)
    return factors


def _lu_scattering(a: np.ndarray, s: np.ndarray, qe1: float, qen: float) -> tuple[np.ndarray, np.ndarray]:
    """The LU route on a, the system matrices at the points of the 1-d s for
    loading qe1 and qen, under the guard: the (s.size, n, 2) solutions of
    _lu_columns, left as they are for cost's Jacobian, and S, formed in
    place on a port-major copy of their port entries (rows and columns
    first and last, entry (p, q) in row 2 p + q) and returned as (2, 2) +
    s.shape. The guard's scale is the largest entry of a, at each point.
    Callers silence the warnings."""
    full = _lu_columns(a)
    x = full.reshape(-1, 2 * a.shape[-1]).T.take(_PORT_ENTRIES, axis=0)
    x_abs = np.abs(x)
    x *= _port_factors(qe1, qen)
    x[::3] += 1.0
    _guard(s, np.abs(a).max(axis=(1, 2)), x_abs, x)
    return full, x.reshape((2, 2) + s.shape)


def _lu_columns(a: np.ndarray) -> np.ndarray:
    """inv(A) [e1, en] for each A of the (k, n, n) stack a: one LU solve
    per point against both port unit vectors. Where A is exactly singular
    the point's entries are NaN, which the guard reports."""
    try:
        return np.linalg.solve(a, _port_columns(a.shape[-1]))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full((1, a.shape[-1], 2), np.nan, dtype=complex)
        # the batched solve does not say where: solve point by point
        return np.concatenate([_lu_columns(point) for point in a[:, None]])


@functools.lru_cache(maxsize=32)
def _port_columns(n: int) -> np.ndarray:
    """The read-only right-hand side [e1, en] of order n, as (1, n, 2): as
    many axes as a stack of A, since numpy 1.x's solve reads a b of one
    axis fewer as vectors."""
    rhs = np.zeros((1, n, 2), dtype=complex)
    rhs[..., 0, 0] = rhs[..., -1, 1] = 1.0
    rhs.setflags(write=False)
    return rhs


# Points per block of the kernel's pass. The residue scratch s - lam of one
# block, n * 64 KiB, stays in a 2 MiB L2 up to n = 20; an LU block takes
# _BLOCK_POINTS // n points, so that its A is as large. On a 2-core x86 VM,
# 100k-point residue passes at n = 4 to 20 took 20-40% longer with blocks
# of 1024 and 2048, which pay the per-block calls more often, and were
# within noise from 4096 to 16384.
_BLOCK_POINTS = 4096


def _residue_ports(cm: CouplingMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The poles lam and the (4, n) port residues of cm, row 2 p + q
    holding r_pq, or None where the matrix may not take residues.

    inv(A(s)) = V diag(1 / (s - lam)) inv(V) with inv(V) = diag(1 / d) V^T
    (coupling._eigenpairs), so entry (p, q) is sum_k r_pqk / (s - lam_k),
    r_pqk = V[p, k] V[q, k] / d_k, and rows 1 and 2 are equal: O(n) work per
    point after one eigen solve (Cameron, Kudsia & Mansour, ch. 8).

    It admits the matrix where eig succeeds, V^T V is diagonal to _GRAM_TOL
    and every pole has kappa_k = 1 / |d_k| <= _KAPPA_LIMIT and an estimate
    n eps ||M||_F kappa_k <= T decay_k, for M the pole matrix, T the limit
    _ESTIMATE_LIMIT and decay_k = -Re lam_k (a pole at Re lam >= 0 or a NaN
    fails). The guard then passes at each finite s with Re s >= 0: there
    |s - lam_k| >= decay_k, as rounded too, and |r_pqk| <= kappa_k, so
    |x_pq| <= sum_k kappa_k / decay_k <= T / (eps ||M||_F); its scale is
    max|A_ij| <= |s| + ||M||_F. Where |s| <= 2 ||M||_F, scale |x| <= 3 T / eps,
    about 1.4e6; past it |s - lam_k| > |s| / 2, so |x| < 80 n / |s| and
    scale |x| < 120 n. Both lie far below _COND_LIMIT, so x and S are finite.
    """
    try:
        lam, v, d = _eigenpairs(cm)
    except np.linalg.LinAlgError:
        return None
    size = np.abs(d)
    gram = (np.abs(v.T @ v - np.diag(d)) <= _GRAM_TOL * np.sqrt(np.outer(size, size))).all()
    estimate = cm.n * np.finfo(float).eps * np.linalg.norm(pole_matrix(cm)) / size
    if not (gram and size.min() * _KAPPA_LIMIT >= 1.0 and (estimate <= _ESTIMATE_LIMIT * -lam.real).all()):
        return None
    ends = v[[0, -1]]
    return lam, (ends[[0, 0, 1]] * ends[[0, 1, 1]] / d)[[0, 1, 1, 2]]


def _guard(s: np.ndarray, scale: np.ndarray, x_abs: np.ndarray, values: np.ndarray) -> None:
    """The one singularity test, run by _lu_scattering, port-major.

    s is 1-d and scale holds max|A_ij| at each of its points; x_abs holds
    |entries of inv(A)| and values the S-parameters, both of shape
    (k, s.size), one row per port entry. max|A_ij| * max|x| is a lower
    bound on cond2(A); a point is singular where it passes _COND_LIMIT or
    where an S-parameter is not finite (A is exactly singular there). The
    error names the first such point. Callers silence the warnings.
    """
    ok = (scale * x_abs <= _COND_LIMIT) & np.isfinite(values)
    if not ok.all():
        raise SingularFrequencyError(f"filter matrix singular at s = {s[~ok.all(axis=0)][0]}")


def s_parameters(cm: CouplingMatrix, s: complex) -> tuple[complex, complex]:
    """Reflection and transmission at one complex prototype frequency.

    S11 = 1 - (2 / qe1) inv(A)[1,1] and
    S21 = 2 / sqrt(qe1 qen) * inv(A)[n,1],
    the one-point case of the port-solve kernel. The sign convention makes
    a fully uncoupled network reflect with S11 = -1.
    """
    sm = _scattering(cm, s)
    return sm[0, 0], sm[1, 0]


def s_matrix(cm: CouplingMatrix, s: complex) -> np.ndarray:
    """Full 2x2 scattering matrix [[S11, S12], [S21, S22]].

    The one-point case of the port-solve kernel (for an array s, the
    kernel's (2, 2) + s.shape result); S12 equals S21 to rounding because
    the filter matrix is complex-symmetric (reciprocity).
    """
    return _scattering(cm, s)


def normalized_frequency(f_hz, spec: FilterSpec):
    """Bandpass-to-prototype mapping (f/f0 - f0/f) / FBW.

    Strictly increasing for f > 0, zero at f0, and +-1 at the band edges.
    """
    f = np.asarray(f_hz, dtype=float)
    out = (f / spec.f0_hz - spec.f0_hz / f) / spec.fbw
    return float(out) if np.isscalar(f_hz) else out


def band_edge_frequencies(spec: FilterSpec) -> tuple[float, float]:
    """Frequencies that map exactly to prototype -1 and +1.

    Roots of the mapping quadratic: f = f0 (sqrt(1 + FBW^2/4) -+ FBW/2).
    Their difference is exactly the design bandwidth.
    """
    root = math.sqrt(1.0 + spec.fbw**2 / 4.0)
    return (
        spec.f0_hz * (root - spec.fbw / 2.0),
        spec.f0_hz * (root + spec.fbw / 2.0),
    )


def sweep(cm: CouplingMatrix, spec: FilterSpec, f_start_hz: float, f_stop_hz: float, points: int) -> FrequencyResponse:
    """Evaluate the full two-port S-matrix on a linear frequency grid.

    S11, S21, S12 and S22 all come from one kernel call at s = j omega,
    omega = normalized_frequency(f). Within one numpy/BLAS stack a grid
    gives the same bytes on every call. It equals s_matrix at each point
    exactly unless it has more than max(4 n, 48) points on a matrix that
    _residue_ports admits; then it takes pole residues, whose last bits
    depend on the BLAS kernel, with S21 a copy of S12. Against the closed
    form Chebyshev |S|^2 of orders 2 to 20 on 100k points over omega -3 to
    3, LU stays within 9e-15 and residues within 5e-13 (OpenBLAS, x86). It
    holds the 64 B per point of the S block it returns plus one block's
    scratch, about n * 64 KiB on either path: about 10 MB traced in all for
    100k points at n = 4 to 20 on residues and n = 2 to 20 on LU.
    """
    if not is_whole(points, least=2):
        raise InvalidSpecError(f"points must be an integer >= 2, got {points}")
    if not 0 < f_start_hz < f_stop_hz < math.inf:
        raise InvalidSpecError("need 0 < f_start < f_stop < inf")
    try:
        f = np.linspace(f_start_hz, f_stop_hz, int(points))
        sm = _scattering(cm, 1j * normalized_frequency(f, spec))
    except MemoryError as err:
        raise InvalidSpecError(f"points = {points} is too many to sweep in memory") from err
    sm.setflags(write=False)  # the response keeps its rows as views, not copies
    (s11, s12), (s21, s22) = sm
    return FrequencyResponse(grid=f, s11=s11, s21=s21, s12=s12, s22=s22)


def sweep_two_port(
    cm: CouplingMatrix, spec: FilterSpec, f_start_hz: float, f_stop_hz: float, points: int
) -> tuple[FrequencyResponse, np.ndarray, np.ndarray]:
    """sweep, returned as (response, response.s12, response.s22).

    Kept only for the benchmark under bench/, which calls it; no caller in
    src/. Not exported from the package."""
    resp = sweep(cm, spec, f_start_hz, f_stop_hz, points)
    return resp, resp.s12, resp.s22


def _interp_crossing(x0, y0, x1, y1, level):
    """The x at which the line through (x0, y0) and (x1, y1) reaches level; x1 if y1 == y0."""
    if y1 == y0:
        return x1
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def analyze_response(resp: FrequencyResponse, level_db: float) -> ResponseMetrics:
    """Measure the passband where |S11| stays at or below level_db.

    The band is the longest contiguous run of samples meeting the level;
    its edges are refined by interpolating the level crossings. A run that
    reaches the first or last sample raises InsufficientSpanError, since
    the grid, not the response, would set that edge. Reflection
    zeros are counted as strict local minima of |S11| inside the band that
    dip below ZERO_FLOOR_DB.
    """
    if not level_db < 0:
        raise InvalidSpecError(f"level_db must be negative, got {level_db}")
    s11_db = 20.0 * np.log10(np.maximum(np.abs(resp.s11), _MAG_FLOOR))
    below = s11_db <= level_db
    if not below.any():
        raise NoPassbandError(f"no samples with |S11| <= {level_db} dB")

    # the longest contiguous run of in-band samples, the first of equals
    flips = np.flatnonzero(np.diff(np.concatenate(([False], below, [False]))))
    k = int(np.argmax(flips[1::2] - flips[::2]))
    a, b = int(flips[2 * k]), int(flips[2 * k + 1]) - 1

    f = resp.grid
    if a == 0 or b == f.size - 1:
        raise InsufficientSpanError("the passband reaches the edge of the sampled span")
    f_lo = _interp_crossing(f[a - 1], s11_db[a - 1], f[a], s11_db[a], level_db)
    f_hi = _interp_crossing(f[b], s11_db[b], f[b + 1], s11_db[b + 1], level_db)

    band = s11_db[a : b + 1]
    zeros = int(np.count_nonzero((band < s11_db[a - 1 : b]) & (band < s11_db[a + 1 : b + 2]) & (band <= ZERO_FLOOR_DB)))

    return ResponseMetrics(
        f_center=0.5 * (f_lo + f_hi),
        bandwidth_at_level=f_hi - f_lo,
        max_inband_s11_db=float(band.max()),
        reflection_zero_count=zeros,
    )
