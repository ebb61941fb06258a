"""Coupling-matrix refinement against the equiripple targets.

The cost pins the reflection zeros to their target prototype frequencies
and the band edges to the equiripple reflection level; it is zero exactly
when the matrix reproduces the target response. The default refinement is
Levenberg-Marquardt least squares on the analytic Jacobian of the
reflection (Amari, IEEE T-MTT 48(9), 2000), built from the LU solve per
target point that gave the cost; each damped trial solves the
Marquardt-scaled normal equations once (Marquardt, J. SIAM 11(2), 1963).
cost evaluates a run's start, one _Evaluator per run every trial of every
method, by the same code: A at all target points (the zeros and both band
edges) written into one buffer, its batched LU solve, and the guard, which
reads its scale off that A. Cyclic coordinate descent, the bench practice
of tuning one dimension at a time, remains as the "sweep" method and as the
fallback where the least-squares step stalls. Both accept only iterates
that lower the cost.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._util import is_whole
from .coupling import CouplingMatrix, _fill, _refuse
from .errors import InvalidSpecError, NumericalError, SingularFrequencyError
from .prototype import FilterSpec, _realized_ripple_db
from .response import _lu_scattering

_PALINDROME_RTOL = 1e-12

# Least-squares steps after which a run still above tol is dropped. From
# +-5% starts, runs that reached tol took at most 27 steps (orders 4-16;
# ladder, diagonal, cross and qe keys); runs that missed it crept along a
# valley away from the solution for as long as they were let.
_GRADIENT_STEPS = 100

# First coordinate-descent step, relative to the parameter's magnitude.
_INITIAL_STEP = 0.05

ParamKey = tuple
# ("m", i, j) with 1-based resonator indices, ("qe1",) or ("qen",)


@dataclass(frozen=True)
class CostConfig:
    """Targets the cost function drives the response toward, and the points
    j w that cost solves at, formed once if every target w is finite. The
    band edges are the prototype's w = +-1 by definition."""

    zero_omegas: tuple[float, ...]
    edge_s11_mag: float

    def __post_init__(self):
        if not self.zero_omegas:
            raise InvalidSpecError("need at least one reflection-zero target")
        if not 0 <= self.edge_s11_mag < 1:
            raise InvalidSpecError("edge reflection target must lie in [0, 1)")
        omegas = np.array([*self.zero_omegas, 1.0, -1.0])
        # finiteness first: 1j * inf warns
        object.__setattr__(self, "_points", 1j * omegas if np.isfinite(omegas).all() else None)

    @classmethod
    def from_spec(cls, spec: FilterSpec) -> "CostConfig":
        """Equiripple targets: zeros at cos((2i-1) pi / 2n) and band-edge
        reflection eps / sqrt(1 + eps^2) from the ripple the prototype
        realizes, so a synthesized matrix costs zero to rounding."""
        n = spec.order
        zeros = tuple(math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1))
        eps = math.sqrt(10.0 ** (_realized_ripple_db(spec.ripple_db) / 10.0) - 1.0)
        return cls(zero_omegas=zeros, edge_s11_mag=eps / math.sqrt(1.0 + eps * eps))


class _Solved(float):
    """A cost that keeps its point p, qe1, qen and LU solve: x = inv(A) e1, S11."""


class _Evaluator:
    """The cost at p = [*m.ravel(), qe1, qen], A at the targets written into one
    buffer per run: refuses what cost and CouplingMatrix refuse, m symmetric
    by construction. Callers silence the warnings."""

    def __init__(self, n: int, config: CostConfig):
        if config._points is None:
            raise NumericalError(f"non-finite target frequency in {np.array(config.zero_omegas)}")
        self.config, self.points, self.a = config, config._points, np.empty((config._points.size, n, n), dtype=complex)

    def __call__(self, p: np.ndarray) -> _Solved:
        m, qe1, qen = p[:-2].reshape(self.a.shape[1:]), float(p[-2]), float(p[-1])
        _refuse(m, qe1, qen)
        full, sm = _lu_scattering(_fill(self.a, m, self.points, qe1, qen), self.points, qe1, qen)
        # Term by term and with the scalar abs: np.sum and np.abs round otherwise.
        total = 0.0
        *zeros, lower, upper = sm[0, 0].tolist()
        for value in zeros:
            total += abs(value) ** 2
        for value in (lower, upper):
            total += (abs(value) - self.config.edge_s11_mag) ** 2
        solved = _Solved(total)
        solved.p, solved.qe1, solved.qen, solved.x, solved.s11 = p.copy(), qe1, qen, full[:, :, 0], sm[0, 0]
        return solved


def cost(cm: CouplingMatrix, config: CostConfig) -> float:
    """Scalar mismatch between the matrix response and the targets.

    Sum of |S11|^2 at every target reflection zero plus the squared error
    of |S11| against the equiripple level at both band edges. Non-negative
    and zero only for an exact equiripple response; it keeps its LU solve.
    The one-shot use of the evaluator of optimize's trials, so bit for bit
    a trial's cost. Raises NumericalError for a non-finite zero_omegas entry.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _Evaluator(cm.n, config)(_vector(cm))


def _residuals(solved: _Solved, gather, config: CostConfig) -> tuple[np.ndarray, np.ndarray]:
    """The residual r = [Re S11(j w_z), Im S11(j w_z), |S11(+-j)| - level],
    whose sum of squares is the cost, and its Jacobian over the orbit
    values, from the LU solve that the cost `solved` keeps, at the free
    positions of _plan only; callers silence an entry's overflow to inf or NaN.

    A is complex-symmetric, so with x = inv(A) e1 the derivative of
    S11 = 1 - 2 x_1 / qe1 along one entry m_ij is -(2j / qe1) x_i x_j;
    qe1 and qen enter through their diagonal loading, qe1 also through
    the port term. An orbit's column sums its positions in p as one .sum per
    orbit does, so mirrored entries share one derivative and a symmetric step.
    """
    qe1, qen, x, s11 = solved.qe1, solved.qen, solved.x, solved.s11
    (rows, cols), qe, groups, order = gather
    z = s11.size - 2
    d = np.empty((s11.size, rows.size + len(qe)), dtype=complex)
    np.multiply((-2j / qe1) * x.take(rows, axis=1), x.take(cols, axis=1), out=d[:, : rows.size])
    if qe:
        dqe = [2.0 * x[:, 0] / qe1**2 * (1.0 - x[:, 0] / qe1), -2.0 / qe1 * x[:, -1] ** 2 / qen**2]
        d[:, rows.size :] = np.stack(dqe, axis=1)[:, qe]
    edges = s11[z:]
    mag = np.abs(edges)
    r = np.empty(2 * z + 2)
    r[:z], r[z : 2 * z] = s11[:z].real, s11[:z].imag
    np.subtract(mag, config.edge_s11_mag, out=r[2 * z :])
    jac = np.empty((r.size, d.shape[1]))
    jac[:z], jac[z : 2 * z] = d[:z].real, d[:z].imag
    # d|S11| = Re(conj(S11) dS11) / |S11|, taken as 0 where |S11| = 0
    np.divide((edges.conj()[:, None] * d[z:]).real, (mag + (mag == 0))[:, None], out=jac[2 * z :])
    sums = [jac.take(index, axis=1).reshape(r.size, -1, length).sum(axis=-1) for index, length in groups]
    return r, np.concatenate(sums, axis=1).take(order, axis=1)  # C order: the step's column sums follow it


def ladder_free_parameters(order: int, include_qe: bool = False) -> tuple[ParamKey, ...]:
    """The usual free set: every superdiagonal coupling, optionally both qe."""
    params: list[ParamKey] = [("m", i, i + 1) for i in range(1, order)]
    if include_qe:
        params += [("qe1",), ("qen",)]
    return tuple(params)


def _normalize_key(key, n: int, allow_cross: bool) -> ParamKey:
    if key in (("qe1",), ("qen",)):
        return key
    if len(key) == 3 and key[0] == "m" and all(is_whole(x, least=1) for x in key[1:]):
        i, j = sorted((int(key[1]), int(key[2])))
        if not 1 <= i <= j <= n:
            raise InvalidSpecError(f"matrix position {key} outside order {n}")
        if not allow_cross and j - i > 1:
            raise InvalidSpecError(f"cross coupling {key} requires allow_cross_couplings=True")
        return ("m", i, j)
    raise InvalidSpecError(f"unknown free parameter {key!r}")


@dataclass(frozen=True)
class OptimizationProblem:
    """A coupling matrix, the spec it should meet, and what may vary.

    Symmetric matrix positions always vary jointly; free parameters stay
    on the ladder superdiagonal, the diagonal, or the qe slots unless
    allow_cross_couplings widens the set.
    """

    initial: CouplingMatrix
    spec: FilterSpec
    free_parameters: tuple[ParamKey, ...]
    cost_config: CostConfig
    allow_cross_couplings: bool = False

    def __post_init__(self):
        if not self.free_parameters:
            raise InvalidSpecError("need at least one free parameter")
        seen: list[ParamKey] = []
        for key in self.free_parameters:
            norm = _normalize_key(tuple(key), self.initial.n, self.allow_cross_couplings)
            if norm not in seen:
                seen.append(norm)
        object.__setattr__(self, "free_parameters", tuple(seen))


@dataclass(frozen=True)
class OptimizationResult:
    final: CouplingMatrix
    final_cost: float
    iterations: int
    converged: bool


def _positions(key: ParamKey, n: int) -> list[int]:
    """Where a normalized key lives in p = [*m.ravel(), qe1, qen]: an m key
    at its own (i, j) entry first, then at the symmetric (j, i) one unless
    it is on the diagonal."""
    if key[0] == "m":
        i, j = key[1] - 1, key[2] - 1
        return [i * n + j] if i == j else [i * n + j, j * n + i]
    return [n * n if key == ("qe1",) else n * n + 1]


def _vector(cm: CouplingMatrix) -> np.ndarray:
    return np.concatenate([cm.m.ravel(), [cm.qe1, cm.qen]])


def _matrix(p: np.ndarray, n: int) -> CouplingMatrix:
    return CouplingMatrix(m=p[:-2].reshape(n, n), qe1=float(p[-2]), qen=float(p[-1]))


def perturbed(problem: OptimizationProblem, rng: np.random.Generator, fraction: float) -> OptimizationProblem:
    """The problem with every free parameter of its start scaled by its own
    factor 1 + U(-fraction, fraction).

    The factors are drawn one per free key, in the order of
    problem.free_parameters, each by one rng.uniform(-fraction, fraction)
    call; qe1 and qen, when free, draw their own. An m key's factor scales
    its entry and the symmetric twin alike. Every entry outside the free
    set, and the problem passed in, stays as it was.
    """
    if not 0 < fraction < math.inf:
        raise InvalidSpecError(f"perturb must be positive and finite, got {fraction}")
    n = problem.initial.n
    p = _vector(problem.initial)
    for key in problem.free_parameters:
        p[_positions(key, n)] *= 1.0 + rng.uniform(-fraction, fraction)
    return replace(problem, initial=_matrix(p, n))


_Plan = namedtuple("_Plan", "orbits heads flat owner gather")


def _plan(orbits: list[list[int]], n: int) -> _Plan:
    """One coordinate per orbit (positions in p), read-only: the orbits, their
    first positions, every position with its orbit, and _residuals' indices:
    free (i, j) and qe (0, 1) as in p, orbit places per length, and back."""
    free = sorted(q for orbit in orbits for q in orbit)
    column = {q: k for k, q in enumerate(free)}
    sizes = sorted({len(orbit) for orbit in orbits})
    members = [[k for k, orbit in enumerate(orbits) if len(orbit) == size] for size in sizes]
    groups = [np.array([column[q] for k in ks for q in orbits[k]]) for ks in members]
    grouped = sum(members, [])
    order = np.array(sorted(range(len(grouped)), key=grouped.__getitem__))  # np.argsort: +0.3 MB RSS of sort code
    rows, cols = np.array([divmod(q, n) for q in free if q < n * n], dtype=np.intp).reshape(-1, 2).T
    arrays = tuple(np.array(orbit) for orbit in orbits)
    heads, flat = np.array([orbit[0] for orbit in orbits]), np.concatenate(arrays)
    owner = np.repeat(np.arange(len(orbits)), [len(orbit) for orbit in orbits])
    for array in (*arrays, heads, flat, owner, rows, cols, *groups, order):
        array.setflags(write=False)
    gather = ((rows, cols), tuple(q - n * n for q in free if q >= n * n), tuple(zip(groups, sizes)), order)
    return _Plan(arrays, heads, flat, owner, gather)


@functools.lru_cache(maxsize=64)
def _plans(free_parameters: tuple[ParamKey, ...], n: int) -> tuple[_Plan, _Plan | None]:
    """Cached plans of a normalized free set: one coordinate per key, and for a
    palindromic start one per mirror orbit (m[i, j] with m[n-1-j, n-1-i], qe1
    with qen), or None unless the set is mirror-closed and an orbit joins keys."""

    def mirror(q: int) -> int:
        i, j = divmod(q, n)
        return 2 * n * n + 1 - q if i == n else (n - 1 - j) * n + n - 1 - i

    positions = [_positions(key, n) for key in free_parameters]
    free = {q for pos in positions for q in pos}
    orbits: list[list[int]] = []
    taken: set[int] = set()
    for pos in positions:
        if pos[0] not in taken:
            orbit = pos + [mirror(q) for q in pos if mirror(q) not in pos]
            taken.update(orbit)
            orbits.append(orbit)
    closed = all(mirror(q) in free for q in free) and len(orbits) < len(positions)
    return _plan(positions, n), _plan(orbits, n) if closed else None


def optimize(
    problem: OptimizationProblem,
    max_iter: int = 2000,
    tol: float = 1e-10,
    step_floor: float = 1e-9,
    method: str = "gradient",
    on_iteration: Callable[[int, float, float], None] | None = None,
) -> OptimizationResult:
    """Minimize the cost over the free parameters.

    The default "gradient" method is Levenberg-Marquardt least squares on
    the residual whose sum of squares is the cost, with the analytic
    Jacobian and Marquardt scaling: each damped step is one solve of the
    scaled normal equations, formed once per accepted point. A damped step
    is accepted only if it lowers the cost; each rejection raises the
    damping. One iteration is one accepted step, and max_step is the
    largest parameter change it made. Two cases hand over to the "sweep"
    method:

    - No damped step larger than the relative step floor lowers the cost,
      and the cost is above tol: the sweep goes on from that point with
      one coordinate per free key, and its sweeps count on against
      max_iter.
    - After _GRADIENT_STEPS (100) steps, fewer than max_iter, the cost
      is still above tol: the least-squares run is discarded, and the
      result is the "sweep" method's from the start. On mirror-symmetric
      starts with both qe free, least squares can creep along a valley
      away from the solution.

    "sweep" is cyclic coordinate descent: each sweep tries a positive then
    a negative step on every free coordinate, accepting only
    improvements; a sweep with no improvement halves every step. One
    iteration is one sweep, and max_step is the largest step size.

    Converged means the cost fell below tol or every step hit the
    relative step floor; exhausting max_iter returns converged=False
    rather than raising. Identical problems give bit-identical results.

    A palindromic problem (mirror-symmetric start and free set) moves each
    mirrored pair as one coordinate, so every iterate stays symmetric. A
    symmetric point can be stationary inside the symmetric subspace but
    not in the full space; if either method stalls there above tol,
    descent goes on per coordinate with fresh steps.

    "nelder-mead" delegates to the scipy simplex implementation as a
    fallback for awkward landscapes; it shares the cost and convergence
    thresholds but not the per-iteration monotonicity guarantee.

    on_iteration, when given, is called after each iteration with
    (iteration, cost, max_step); for the least-squares steps, once their
    run has ended and been kept.
    """
    if not is_whole(max_iter, least=1):
        raise InvalidSpecError(f"max_iter must be an integer >= 1, got {max_iter}")
    # the step floor is the only exit of a descent that no step improves
    if not 0 < step_floor < math.inf:
        raise InvalidSpecError(f"step_floor must be positive and finite, got {step_floor}")
    if math.isnan(tol):
        raise InvalidSpecError("tol must not be NaN")
    if method not in ("gradient", "sweep", "nelder-mead"):
        raise InvalidSpecError(f"unknown method {method!r}")

    n = problem.initial.n
    p = _vector(problem.initial)
    keyed, plan = _plans(problem.free_parameters, n)
    m = p[:-2].reshape(n, n)  # mirror orbits only from a palindromic start
    skewed = np.abs(m - m[::-1, ::-1].T).max() > _PALINDROME_RTOL * max(np.abs(m).max(), 1e-30)
    if plan is None or skewed or abs(p[-1] - p[-2]) > _PALINDROME_RTOL * max(p[-2], p[-1]):
        plan = keyed
    current = cost(problem.initial, problem.cost_config)
    evaluate = _Evaluator(n, problem.cost_config)
    caller = np.geterr()  # on_iteration runs in it, not in the run's
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if method == "nelder-mead":
            return _optimize_nelder_mead(p, n, plan, evaluate, current, max_iter, tol, step_floor)

        iterations = 0
        converged = current <= tol
        if method == "gradient" and not converged:
            q = p.copy()
            budget = min(max_iter, _GRADIENT_STEPS)
            reached, history = _levenberg_marquardt(q, plan, current, evaluate, budget, tol, step_floor)
            # A run still descending at the step budget has, on the measured
            # problems, left for a valley away from the solution: drop it.
            if not (len(history) == _GRADIENT_STEPS < max_iter and reached > tol):
                p, current, iterations, converged = q, reached, len(history), reached <= tol
                plan = keyed  # any sweep goes on per key
                if on_iteration is not None:
                    with np.errstate(**caller):
                        for i, (value, step) in enumerate(history, 1):
                            on_iteration(i, value, step)

        orbits, steps = plan.orbits, None
        while not converged and iterations < max_iter:
            steps = steps or [_INITIAL_STEP * abs(p[orbit[0]]) or 0.01 for orbit in orbits]  # first sweep, new orbits
            iterations += 1
            improved = False
            for oi, orbit in enumerate(orbits):
                old = p[orbit[0]]
                for sign in (1.0, -1.0):
                    p[orbit] = old + sign * steps[oi]
                    trial = evaluate(p)
                    if trial < current:
                        current = trial
                        improved = True
                        break
                    p[orbit] = old
            if on_iteration is not None:
                with np.errstate(**caller):
                    on_iteration(iterations, float(current), max(steps))
            if current <= tol:
                converged = True
                break
            if not improved:
                steps = [st / 2.0 for st in steps]
                if all(st < step_floor * max(1.0, abs(p[orbit[0]])) for st, orbit in zip(steps, orbits)):
                    if orbits is keyed.orbits:
                        converged = True
                        break
                    # The grouped descent stalled inside the mirror-symmetric
                    # subspace, which can be a saddle of the full space.
                    orbits, steps = keyed.orbits, None

    return OptimizationResult(
        final=_matrix(current.p, n),  # the point of the last accepted cost
        final_cost=float(current),
        iterations=iterations,
        converged=converged,
    )


def _levenberg_marquardt(p, plan, current, evaluate, max_steps, tol, step_floor):
    """Damped Gauss-Newton steps on plan's orbit values, in place on p, each
    from the Jacobian that its point's cost (start or accepted trial) keeps.
    With Js the Jacobian over its column norms D, the point's H = Js^T Js and
    g = Js^T r; a trial at damping mu solves (H + mu I) y = -g once and moves
    by y / D, the minimizer of |r + J delta|^2 + mu |D delta|^2.

    Returns the cost and the (cost, max_step) of every accepted step, once
    the cost is at most tol, max_steps steps were taken, no damped step
    larger than the step floor lowers the cost, or the Jacobian is not
    finite. Every position of an orbit takes the orbit's new value, so a
    palindromic p stays exactly symmetric.
    """
    damping = 1e-3
    history: list[tuple[float, float]] = []
    while current > tol and len(history) < max_steps:
        r, jac = _residuals(current, plan.gather, evaluate.config)
        if not np.isfinite(jac).all():
            return current, history
        # Marquardt scaling: damp each coordinate by its own curvature.
        scale = np.sqrt(np.add.reduce(jac * jac, axis=0))  # np.linalg.norm(jac, axis=0), bit for bit
        scale[scale == 0.0] = 1.0
        js = jac / scale
        normal, gradient, eye = js.T @ js, js.T @ r, np.eye(jac.shape[1])
        start = p[plan.heads]
        floor = step_floor * np.maximum(1.0, np.abs(start))
        while True:
            step = -np.linalg.solve(normal + damping * eye, gradient) / scale
            size = np.abs(step)
            if not (size >= floor).any():
                p[plan.flat] = start[plan.owner]
                return current, history
            p[plan.flat] = (start + step)[plan.owner]
            try:
                trial = evaluate(p)
            except (InvalidSpecError, SingularFrequencyError):
                # the step left the domain: a qe at or below zero, or a
                # singular filter matrix at a target frequency
                trial = math.inf
            if trial < current:
                break
            damping *= 10.0
        current = trial
        damping = max(damping / 10.0, 1e-12)
        history.append((float(current), float(size.max())))
    return current, history


def _optimize_nelder_mead(p, n, plan, evaluate, initial_cost, max_iter, tol, step_floor):
    from scipy.optimize import minimize

    def fun(x: np.ndarray) -> float:
        p[plan.flat] = x[plan.owner]
        return evaluate(p)

    x0 = p[plan.heads]
    res = minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iter * max(len(plan.orbits), 1) * 4,
            "fatol": tol,
            "xatol": step_floor * max(1.0, np.abs(x0).max()),
        },
    )
    final_cost = fun(res.x) if res.fun <= initial_cost else fun(x0)
    return OptimizationResult(
        final=_matrix(p, n),
        final_cost=float(final_cost),
        iterations=int(res.nit),
        converged=bool(final_cost <= tol or res.success),
    )
