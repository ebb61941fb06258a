"""Coupling-matrix refinement against the equiripple targets.

The cost pins the reflection zeros to their target prototype frequencies
and the band edges to the equiripple reflection level; it is zero exactly
when the matrix reproduces the target response. The default refinement is
Levenberg-Marquardt least squares on the analytic Jacobian of the
reflection, which the port solve of the cost already contains (Amari,
IEEE T-MTT 48(9), 2000). Cyclic coordinate descent, the bench practice of
tuning one dimension at a time, remains as the "sweep" method and as the
fallback where the least-squares step stalls. Both accept only iterates
that lower the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._util import is_whole
from .coupling import CouplingMatrix
from .errors import InvalidSpecError, NumericalError, SingularFrequencyError
from .prototype import FilterSpec, _realized_ripple_db
from .response import _lu_columns, _lu_ports, _s_block, _scattering

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
    """Targets the cost function drives the response toward."""

    zero_omegas: tuple[float, ...]
    edge_s11_mag: float
    edge_omega: float = 1.0

    def __post_init__(self):
        if not self.zero_omegas:
            raise InvalidSpecError("need at least one reflection-zero target")
        if not 0 <= self.edge_s11_mag < 1:
            raise InvalidSpecError("edge reflection target must lie in [0, 1)")

    @classmethod
    def from_spec(cls, spec: FilterSpec) -> "CostConfig":
        """Equiripple targets: zeros at cos((2i-1) pi / 2n) and band-edge
        reflection eps / sqrt(1 + eps^2) from the ripple the prototype
        realizes, so a synthesized matrix costs zero to rounding."""
        n = spec.order
        zeros = tuple(math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1))
        eps = math.sqrt(10.0 ** (_realized_ripple_db(spec.ripple_db) / 10.0) - 1.0)
        return cls(zero_omegas=zeros, edge_s11_mag=eps / math.sqrt(1.0 + eps * eps))


def cost(cm: CouplingMatrix, config: CostConfig) -> float:
    """Scalar mismatch between the matrix response and the targets.

    Sum of |S11|^2 at every target reflection zero plus the squared error
    of |S11| against the equiripple level at both band edges. Non-negative
    and zero only for an exact equiripple response.

    Raises NumericalError when a target frequency (a zero_omegas entry or
    edge_omega) is not finite, before any matrix is factored.
    """
    s11 = _scattering(cm, 1j * _target_omegas(config))[0, 0]
    # Term by term, in a fixed order: np.sum's pairwise order would change
    # the last bits.
    total = 0.0
    for value in s11[:-2]:
        total += abs(value) ** 2
    for value in s11[-2:]:
        total += (abs(value) - config.edge_s11_mag) ** 2
    return total


def _target_omegas(config: CostConfig) -> np.ndarray:
    omegas = np.array([*config.zero_omegas, config.edge_omega, -config.edge_omega])
    if not np.all(np.isfinite(omegas)):
        raise NumericalError(f"non-finite target frequency in {omegas[:-1]}")
    return omegas


def _residuals(p: np.ndarray, n: int, orbits, config: CostConfig) -> tuple[np.ndarray, np.ndarray]:
    """The residual r = [Re S11(j w_z), Im S11(j w_z), |S11(+-j)| - level],
    whose sum of squares is the cost, and its Jacobian over the orbit
    values, from one LU solve per point through the S block and guard of
    the kernel.

    A is complex-symmetric, so with x = inv(A) e1 the derivative of
    S11 = 1 - 2 x_1 / qe1 along one entry m_ij is -(2j / qe1) x_i x_j;
    qe1 and qen enter through their diagonal loading, qe1 also through
    the port term. An orbit's column sums its positions in p, so mirrored
    entries share one derivative and a symmetric step.
    """
    cm = _matrix(p, n)
    s = 1j * _target_omegas(config)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        full = _lu_columns(cm, s)
        s11 = _s_block(cm, s, _lu_ports(full))[0, 0]
    x = full[:, :, 0]
    d = np.empty((s11.size, p.size), dtype=complex)
    d[:, :-2] = ((-2j / cm.qe1) * x[:, :, None] * x[:, None, :]).reshape(s11.size, -1)
    d[:, -2] = 2.0 * x[:, 0] / cm.qe1**2 * (1.0 - x[:, 0] / cm.qe1)
    d[:, -1] = -2.0 / cm.qe1 * x[:, -1] ** 2 / cm.qen**2
    zeros, edges = s11[:-2], s11[-2:]
    mag = np.abs(edges)
    r = np.concatenate([zeros.real, zeros.imag, mag - config.edge_s11_mag])
    # d|S11| = Re(conj(S11) dS11) / |S11|, taken as 0 where |S11| = 0
    edge_rows = (edges.conj()[:, None] * d[-2:]).real / np.where(mag > 0, mag, 1.0)[:, None]
    jac = np.concatenate([d[:-2].real, d[:-2].imag, edge_rows])
    return r, np.stack([jac[:, orbit].sum(axis=1) for orbit in orbits], axis=1)


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


def _orbits(positions: list[list[int]], p: np.ndarray, n: int) -> list[np.ndarray]:
    # For a palindromic problem, mirrored parameters move as one coordinate
    # so symmetry survives every intermediate iterate, not just the limit.
    # The mirror maps m[i, j] to m[n-1-j, n-1-i] and qe1 to qen.
    flat = np.arange(n * n).reshape(n, n)
    mirror = np.concatenate([flat[::-1, ::-1].T.ravel(), [n * n + 1, n * n]])
    gap = np.abs(p - p[mirror])
    free = {q for pos in positions for q in pos}
    if (
        gap[:-2].max() > _PALINDROME_RTOL * max(np.abs(p[:-2]).max(), 1e-30)
        or gap[-1] > _PALINDROME_RTOL * p[-2:].max()
        or not free.issuperset(mirror[list(free)])
    ):
        return [np.array(pos) for pos in positions]
    orbits: list[np.ndarray] = []
    for pos in positions:
        if not any(pos[0] in orbit for orbit in orbits):
            orbits.append(np.array(pos + [q for q in mirror[pos] if q not in pos]))
    return orbits


def _checked_cost(p: np.ndarray, n: int, config: CostConfig) -> float:
    value = cost(_matrix(p, n), config)
    if math.isnan(value):
        raise NumericalError("cost evaluated to NaN")
    return value


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
    Jacobian and Marquardt scaling. A damped step is accepted only if it
    lowers the cost; each rejection raises the damping. One iteration is
    one accepted step, and max_step is the largest parameter change it
    made. Two cases hand over to the "sweep" method:

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
    positions = [_positions(key, n) for key in problem.free_parameters]
    orbits = _orbits(positions, p, n)
    current = _checked_cost(p, n, problem.cost_config)

    if method == "nelder-mead":
        return _optimize_nelder_mead(problem, p, orbits, current, max_iter, tol, step_floor)

    iterations = 0
    converged = current <= tol
    if method == "gradient" and not converged:
        q = p.copy()
        budget = min(max_iter, _GRADIENT_STEPS)
        reached, history = _levenberg_marquardt(q, n, orbits, current, problem.cost_config, budget, tol, step_floor)
        # A run still descending at the step budget has, on the measured
        # problems, left for a valley away from the solution: drop it.
        if not (len(history) == _GRADIENT_STEPS < max_iter and reached > tol):
            p, current, iterations, converged = q, reached, len(history), reached <= tol
            orbits = [np.array(pos) for pos in positions]
            if on_iteration is not None:
                for i, (value, step) in enumerate(history, 1):
                    on_iteration(i, value, step)

    steps = [_INITIAL_STEP * abs(p[orbit[0]]) or 0.01 for orbit in orbits]
    while not converged and iterations < max_iter:
        iterations += 1
        improved = False
        for oi, orbit in enumerate(orbits):
            old = p[orbit[0]]
            for sign in (1.0, -1.0):
                p[orbit] = old + sign * steps[oi]
                trial = _checked_cost(p, n, problem.cost_config)
                if trial < current:
                    current = trial
                    improved = True
                    break
                p[orbit] = old
        if on_iteration is not None:
            on_iteration(iterations, current, max(steps))
        if current <= tol:
            converged = True
            break
        if not improved:
            steps = [st / 2.0 for st in steps]
            if all(st < step_floor * max(1.0, abs(p[orbit[0]])) for st, orbit in zip(steps, orbits)):
                if len(orbits) == len(positions):
                    converged = True
                    break
                # The grouped descent stalled inside the mirror-symmetric
                # subspace, which can be a saddle of the full space.
                orbits = [np.array(pos) for pos in positions]
                steps = [_INITIAL_STEP * abs(p[orbit[0]]) or 0.01 for orbit in orbits]

    return OptimizationResult(
        final=_matrix(p, n),
        final_cost=current,
        iterations=iterations,
        converged=converged,
    )


def _levenberg_marquardt(p, n, orbits, current, config, max_steps, tol, step_floor):
    """Damped Gauss-Newton steps on the orbit values, in place on p.

    Returns the cost and the (cost, max_step) of every accepted step, once
    the cost is at most tol, max_steps steps were taken, or no damped step
    larger than the step floor lowers the cost. Every position of an orbit
    takes the orbit's new value, so a palindromic p stays exactly
    symmetric.
    """
    heads = [orbit[0] for orbit in orbits]
    damping = 1e-3
    history: list[tuple[float, float]] = []
    while current > tol and len(history) < max_steps:
        r, jac = _residuals(p, n, orbits, config)
        # Marquardt scaling: damp each coordinate by its own curvature.
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        u, sv, vt = np.linalg.svd(jac / scale, full_matrices=False)
        ur = u.T @ r
        start = p[heads]
        floor = step_floor * np.maximum(1.0, np.abs(start))
        while True:
            step = -(vt.T @ (sv * ur / (sv * sv + damping))) / scale
            if not np.any(np.abs(step) >= floor):
                for orbit, value in zip(orbits, start):
                    p[orbit] = value
                return current, history
            for orbit, value in zip(orbits, start + step):
                p[orbit] = value
            try:
                trial = _checked_cost(p, n, config)
            except (InvalidSpecError, SingularFrequencyError):
                # the step left the domain: a qe at or below zero, or a
                # singular filter matrix at a target frequency
                trial = math.inf
            if trial < current:
                break
            damping *= 10.0
        current = trial
        damping = max(damping / 10.0, 1e-12)
        history.append((current, float(np.abs(step).max())))
    return current, history


def _optimize_nelder_mead(problem, p, orbits, initial_cost, max_iter, tol, step_floor):
    from scipy.optimize import minimize

    def fun(x: Sequence[float]) -> float:
        for orbit, value in zip(orbits, x):
            p[orbit] = value
        return _checked_cost(p, problem.initial.n, problem.cost_config)

    x0 = np.array([p[orbit[0]] for orbit in orbits])
    res = minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iter * max(len(orbits), 1) * 4,
            "fatol": tol,
            "xatol": step_floor * max(1.0, np.abs(x0).max()),
        },
    )
    final_cost = fun(res.x) if res.fun <= initial_cost else fun(x0)
    return OptimizationResult(
        final=_matrix(p, problem.initial.n),
        final_cost=final_cost,
        iterations=int(res.nit),
        converged=bool(final_cost <= tol or res.success),
    )
