"""S-parameter evaluation and response metrics for coupled-resonator filters.

One kernel computes every S-parameter over an array of complex
frequencies, by one of two paths chosen from the input size, and returns
them port-major: S_pq over the grid is the contiguous row result[p, q].
Short inputs (the one-point s_parameters and s_matrix, the optimizer's
targets at any order) build A(s) and solve it once per point against both
port unit vectors; they keep that point-major work and return a transposed
view. Long sweeps take the pole-residue form: one eigen-decomposition of
the pole matrix, then one streamed pass over fixed blocks of points, each
a pole-major reciprocal and one product with the residues, O(n) per point,
written into the result and turned into S there. A sweep holds the 64 B
per point of its result plus one (n, block) scratch array, at any order.
Near an exceptional point, where that form loses accuracy, sweeps fall
back to LU. Both paths share one singularity guard. On the residue path
one bound per matrix, sum_k |r_k| / |Re lam_k|, often proves that no point
of the grid can fail it, and then the per-point guard is skipped. The
tests check the kernel against a determinant/cofactor reference
(tests/oracles.py) under the same guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import is_whole
from .coupling import CouplingMatrix, pole_matrix, system_matrix
from .errors import InvalidSpecError, NoPassbandError, SingularFrequencyError
from .prototype import FilterSpec

# |S| may exceed unity only by numerical noise on a lossless model.
PASSIVITY_TOL = 1e-9

# Local minima of |S11| shallower than this are ripple artifacts of a
# coarse grid, not reflection zeros.
ZERO_FLOOR_DB = -40.0

_COND_LIMIT = 1e12
_MAG_FLOOR = 1e-300

# Inputs of more points than this per resonator, and of more than 48 points
# in all, take the pole-residue form: one eigen solve, then O(n) per point,
# against O(n^3) per point for LU. Below it, where every one-point call
# sits, LU is faster and keeps its exact results; the optimizer's targets
# take LU at every order (_lu_scattering). Break-even measured at 30 to 60
# points for n = 2 to 20 on a 2-core x86 VM (OpenBLAS); the floor of 48
# keeps LU where 4 n points are too few to pay for the eigen solve (at n = 4
# and 16 points, LU takes 42 us and the residue form 73 us).
_RESIDUE_POINTS_PER_POLE = 4

# The residue form loses about 1e-16 * cond(V) against LU, and cond(V)
# grows without bound near an exceptional point of M (a double pole).
# Above this 1-norm estimate of cond(V) the sweep uses LU instead.
_EIGVEC_COND_LIMIT = 1e4


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
    spec: FilterSpec | None = None
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
    """The 2x2 block [[S11, S12], [S21, S22]] at every point of s.

    The result is port-major, of shape (2, 2) + s.shape: S_pq is
    result[p, q]. Grids of more than _RESIDUE_POINTS_PER_POLE points per
    resonator and more than 48 points in all take the port entries of
    inv(A) from the pole-residue form, in one streamed pass over blocks of
    points, and the result owns its memory, one contiguous row per entry;
    there the guard runs only where _no_point_can_fail cannot rule it out.
    Shorter inputs, and matrices whose eigenvectors are ill-conditioned,
    take one LU solve per point and build and guard the block on a
    transposed copy of the port rows of its solutions.
    """
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if s.size > max(_RESIDUE_POINTS_PER_POLE * cm.n, 48):
            sm = _residue_ports(cm, s)
            if sm is not None:
                return sm
        return _lu_scattering(cm, s)[1]


def _port_factors(cm: CouplingMatrix) -> np.ndarray:
    """F in S = I + F x, x the port entries of inv(A): -2 / qe on the
    diagonal, 2 / sqrt(qe1 qen) off it. Complex, so that scaling x in place
    takes no cast; a real factor becomes the same complex number either
    way. As numpy floats, a factor that overflows or divides by an
    underflowed qe1 qen is infinite, and the guard reports it. Callers
    silence the warnings."""
    c = 2.0 / np.sqrt(cm.qe1 * cm.qen)
    return np.array([[-2.0 / cm.qe1, c], [c, -2.0 / cm.qen]], dtype=complex)


def _s_block(cm: CouplingMatrix, s: np.ndarray, x: np.ndarray, factors: np.ndarray, constants) -> np.ndarray:
    """S in place of x, the port entries of inv(A) (rows and columns first
    and last), both (2, 2) + s.shape: x is scaled by _port_factors and the
    identity is added, so no second block is allocated; x is returned.
    The guard runs unless constants, _diagonal_constants(cm), is None; its
    cond2 test reads |x| before the scaling and its finiteness test reads S
    after."""
    x_abs = None if constants is None else np.abs(x)
    x *= factors.reshape(factors.shape + (1,) * s.ndim)
    x[0, 0] += 1.0
    x[1, 1] += 1.0
    if constants is not None:
        _guard(cm, s, x_abs, x, constants)
    return x


def _lu_scattering(cm: CouplingMatrix, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lu_columns' point-major s.shape + (n, 2) solutions, and S from
    _s_block on a (2, 2) + s.shape view of a copy of their port rows; the
    solutions are left as they are. Callers silence the warnings."""
    full = _lu_columns(cm, s)
    ports = full[..., [0, -1], :].transpose(-2, -1, *range(full.ndim - 2))
    return full, _s_block(cm, s, ports, _port_factors(cm), _diagonal_constants(cm))


def _lu_columns(cm: CouplingMatrix, s: np.ndarray) -> np.ndarray:
    """inv(A(s)) [e1, en]: one LU solve of A(s) per point against both
    port unit vectors. Where A is exactly singular the entries are NaN,
    which the guard reports."""
    a = system_matrix(cm, s)
    rhs = np.zeros((cm.n, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = 1.0
    try:
        return np.linalg.solve(a, np.broadcast_to(rhs, a.shape[:-1] + (2,)))
    except np.linalg.LinAlgError:
        if s.ndim == 0:
            return np.full((cm.n, 2), np.nan, dtype=complex)
        # the batched solve does not say where: solve point by point
        return np.array([_lu_columns(cm, point) for point in s.ravel()]).reshape(s.shape + (cm.n, 2))


# The residue product runs over blocks of points whose width is a multiple
# of this many points; only the last block is padded to it. OpenBLAS's
# complex GEMM (0.3.31, SkylakeX kernels) takes the last (width mod 4) rows
# of a product through a tail kernel that rounds differently; at these
# widths every real point takes the main kernel, whose sums equal the
# point-major product's bit for bit (pinned by a test).
_GEMM_ROWS = 8

# Points per block of the residue pass, a multiple of _GEMM_ROWS. The
# scratch s - lam of one block, n * 64 KiB, stays in a 2 MiB L2 up to
# n = 20. On a 2-core x86 VM, 100k-point passes at n = 4 to 20 took 20-40%
# longer with blocks of 1024 and 2048, which pay the per-block calls more
# often, and were within noise of each other from 4096 to 16384.
_BLOCK_POINTS = 4096


def _residue_ports(cm: CouplingMatrix, s: np.ndarray) -> np.ndarray | None:
    """S at every point of s from the poles and their residues, or None
    when the eigen solve fails or V is too ill-conditioned for the sum to
    keep the LU accuracy.

    With M = V diag(lam) inv(V), inv(A(s)) = V diag(1 / (s - lam)) inv(V),
    so entry (p, q) is sum_k r_pqk / (s - lam_k), r_pqk = V[p, k] inv(V)[k, q]:
    one eigen solve, then O(n) work per point and no n x n matrix per point
    (Cameron, Kudsia & Mansour, ch. 8). The work is pole-major and streamed
    over blocks of _BLOCK_POINTS points: per block, t = s - lam is formed
    in one (n, _BLOCK_POINTS) scratch array, reciprocated in place, and
    multiplied by the residues straight into the block's columns of the
    (4, P) result, one contiguous row per port entry; _s_block then turns
    those columns into S in place. Memory is the 64 B per point of S plus
    O(n _BLOCK_POINTS) of scratch, at any order. The result is returned as
    (2, 2) + s.shape.
    """
    try:
        lam, v = np.linalg.eig(pole_matrix(cm))
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(v).sum(axis=0).max() * np.abs(w).sum(axis=0).max() <= _EIGVEC_COND_LIMIT:
        return None
    residues = (v[[0, -1], None, :] * w[:, [0, -1]].T).reshape(4, cm.n)  # row 2 p + q holds r_pq
    points = s.ravel()
    factors = _port_factors(cm)
    moot = _no_point_can_fail(cm, points, lam, residues) and np.isfinite(factors).all()
    constants = None if moot else _diagonal_constants(cm)
    out = np.empty((2, 2) + s.shape, dtype=complex)
    x, ports = out.reshape(4, points.size), out.reshape(2, 2, points.size)
    t = np.empty((cm.n, min(_BLOCK_POINTS, -(-points.size // _GEMM_ROWS) * _GEMM_ROWS)), dtype=complex)
    for lo in range(0, points.size, _BLOCK_POINTS):
        block = points[lo : lo + _BLOCK_POINTS]
        hi = lo + block.size
        width = -(-block.size // _GEMM_ROWS) * _GEMM_ROWS
        scratch = t[:, :width]
        np.subtract(block, lam[:, None], out=scratch[:, : block.size])
        scratch[:, block.size :] = 1.0
        np.reciprocal(scratch, out=scratch)
        if width == block.size:
            np.matmul(residues, scratch, out=x[:, lo:hi])
        else:  # the padded last block
            x[:, lo:hi] = (residues @ scratch)[:, : block.size]
        _s_block(cm, block, ports[..., lo:hi], factors, constants)
    return out


def _no_point_can_fail(cm: CouplingMatrix, s: np.ndarray, lam: np.ndarray, residues: np.ndarray) -> bool:
    """True when one bound proves that the guard passes at every point of s.

    With every pole in the open left half plane and Re s >= 0, the real
    part of fl(s - lam_k) is fl(Re s - Re lam_k) >= -Re lam_k, rounding
    being monotone, so |fl(s - lam_k)| >= -Re lam_k and every port entry
    obeys |x_pq| <= sum_k |r_pqk| / (-Re lam_k). The guard's scale max|A_ij|
    is at most max|s| + max|d| over the diagonal constants d, or the
    largest coupling if that is larger. Their product, with 1e-9 of slack
    for the rounding of the sums, at or below _COND_LIMIT means no point
    passes the cond2 limit; it also bounds |x| and hence, for a finite
    2 / qe, keeps every S-parameter finite. False in every other case,
    including any NaN, which leaves the per-point guard to decide.
    """
    decay = -lam.real
    if not (decay.min() > 0 and s.real.min() >= 0):
        return False
    distinct, off = _diagonal_constants(cm)
    scale = max(np.abs(s).max() + np.abs(distinct).max(), off)
    reach = (np.abs(residues) / decay).sum(axis=1).max()
    return scale * reach * (1.0 + 1e-9) <= _COND_LIMIT


def _guard(cm: CouplingMatrix, s, x_abs, values, constants) -> None:
    """The one singularity test of every route, port-major.

    x_abs holds |entries of inv(A)| and values the S-parameters, both of
    shape (2, 2) + s.shape or (2, 1) at one point, and constants is
    _diagonal_constants(cm). max|A_ij| * max|x| is a lower bound on
    cond2(A); a point is singular where it passes _COND_LIMIT or where an
    S-parameter is not finite (2 / qe overflows for a denormal qe, or A is
    exactly singular). max|A_ij| is the larger of the largest coupling and
    the largest |s + d| over the distinct constants d on the diagonal of
    A - s I, so A is never formed. The error names the first such point.
    Callers silence the warnings.
    """
    ok = (_system_matrix_max_abs(cm, s, constants) * x_abs <= _COND_LIMIT) & np.isfinite(values)
    if not ok.all():
        bad = ~ok.all(axis=(0, 1))
        raise SingularFrequencyError(f"filter matrix singular at s = {s[bad][0]}")


def _diagonal_constants(cm: CouplingMatrix) -> tuple[np.ndarray, float]:
    """The distinct constants d on the diagonal of A - s I, and the largest
    |coupling| off it. A synchronously tuned filter has at most three d."""
    diag = -1j * cm.m.diagonal()
    diag[0] += 1.0 / cm.qe1
    diag[-1] += 1.0 / cm.qen
    # the entries after the first, in rows of n + 1, minus the last column:
    # a view of the off-diagonal entries
    off = np.abs(cm.m.ravel()[1:].reshape(cm.n - 1, cm.n + 1)[:, :-1]).max(initial=0.0)
    return np.array(list(set(diag.tolist()))), off


def _system_matrix_max_abs(cm: CouplingMatrix, s: np.ndarray, constants) -> np.ndarray:
    """max|A_ij| of A = system_matrix(cm, s) at every point of s, from
    constants, _diagonal_constants(cm).

    |s + d| is formed once per distinct diagonal constant d, along a
    leading axis, and reduced over it: a short trailing axis reduces slowly.
    """
    distinct, off = constants
    return np.maximum(np.abs(np.add.outer(distinct, s)).max(axis=0), off)


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


def sweep(
    cm: CouplingMatrix,
    spec: FilterSpec,
    f_start_hz: float,
    f_stop_hz: float,
    points: int,
) -> FrequencyResponse:
    """Evaluate the full two-port S-matrix on a linear frequency grid.

    Each grid frequency maps to the prototype domain through
    normalized_frequency and S11, S21, S12 and S22 all come from one
    kernel call at s = j omega. The output is deterministic for a given
    grid. A grid of at most max(4 n, 48) points equals the per-point route
    (s_matrix at each point) exactly. A longer grid takes the pole-residue
    path and agrees with it to rounding: within 1e-13 on Chebyshev designs
    up to order 16 (2.3e-13 at order 20), and within 4e-12 on 2000 random
    lossless matrices up to order 20. That path streams over blocks of
    points: it holds the 64 B per point of the S block it returns plus
    O(n * _BLOCK_POINTS) of scratch, at any order n (about 10 MB traced
    in all for 100k points at n = 4 to 20).
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
    return FrequencyResponse(grid=f, s11=s11, s21=s21, spec=spec, s12=s12, s22=s22)


def sweep_two_port(
    cm: CouplingMatrix,
    spec: FilterSpec,
    f_start_hz: float,
    f_stop_hz: float,
    points: int,
) -> tuple[FrequencyResponse, np.ndarray, np.ndarray]:
    """sweep, returned as (response, response.s12, response.s22).

    Kept only for the benchmark under bench/, which calls it; no caller in
    src/. Not exported from the package."""
    resp = sweep(cm, spec, f_start_hz, f_stop_hz, points)
    return resp, resp.s12, resp.s22


def _interp_crossing(x0, y0, x1, y1, level):
    if y1 == y0:
        return x1
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def analyze_response(
    resp: FrequencyResponse,
    level_db: float,
) -> ResponseMetrics:
    """Measure the passband where |S11| stays at or below level_db.

    The band is the longest contiguous run of samples meeting the level;
    its edges are refined by interpolating the level crossings. Reflection
    zeros are counted as strict local minima of |S11| inside the band that
    dip below ZERO_FLOOR_DB.
    """
    if not level_db < 0:
        raise InvalidSpecError(f"level_db must be negative, got {level_db}")
    s11_db = 20.0 * np.log10(np.maximum(np.abs(resp.s11), _MAG_FLOOR))
    below = s11_db <= level_db
    if not below.any():
        raise NoPassbandError(f"no samples with |S11| <= {level_db} dB")

    # longest contiguous run of in-band samples
    runs = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, below.size - 1))
    a, b = max(runs, key=lambda r: r[1] - r[0])

    f = resp.grid
    f_lo = f[a] if a == 0 else _interp_crossing(f[a - 1], s11_db[a - 1], f[a], s11_db[a], level_db)
    f_hi = f[b] if b == f.size - 1 else _interp_crossing(f[b], s11_db[b], f[b + 1], s11_db[b + 1], level_db)

    zeros = 0
    for i in range(max(a, 1), min(b, f.size - 2) + 1):
        if s11_db[i] < s11_db[i - 1] and s11_db[i] < s11_db[i + 1] and s11_db[i] <= ZERO_FLOOR_DB:
            zeros += 1

    return ResponseMetrics(
        f_center=0.5 * (f_lo + f_hi),
        bandwidth_at_level=f_hi - f_lo,
        max_inband_s11_db=float(s11_db[a : b + 1].max()),
        reflection_zero_count=zeros,
    )
