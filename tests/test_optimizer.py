import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import resonet as rn
from oracles import marquardt_step_svd, residuals_all_columns
from resonet import optimizer
from resonet.errors import InvalidSpecError, NumericalError, SingularFrequencyError
from resonet.optimizer import _Evaluator, _plans, _residuals, _vector

# The descent methods that share the monotone, deterministic contract.
DESCENT_METHODS = ("sweep", "gradient")


@pytest.fixture(scope="module")
def cm4(xband4):
    return rn.from_couplings(rn.spec_to_couplings(xband4), xband4.fbw)


@pytest.fixture(scope="module")
def config4(xband4):
    return rn.CostConfig.from_spec(xband4)


def perturbed_problem(cm, spec, config, seed, amount=0.10):
    problem = rn.OptimizationProblem(
        initial=cm, spec=spec, free_parameters=rn.ladder_free_parameters(cm.n), cost_config=config
    )
    return rn.perturbed(problem, np.random.default_rng(seed), amount)


def test_cost_nearly_zero_at_exact_solution(cm4, config4):
    assert 0.0 <= rn.cost(cm4, config4) <= 1e-6


@pytest.mark.parametrize("order", [4, 8, 16])
def test_cost_is_the_point_formula_bit_for_bit(order):
    # Reference: one s_parameters call per target, summed in the order cost
    # uses. Inputs: ladder starts, one with both qe perturbed, and one with
    # a diagonal offset, n distinct diagonal entries.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm0 = rn.synthesize_design(spec).matrix
    config = rn.CostConfig.from_spec(spec)
    starts = [perturbed_problem(cm0, spec, config, seed=seed, amount=0.05).initial for seed in range(5)]
    qe_problem = rn.OptimizationProblem(
        initial=cm0, spec=spec, free_parameters=rn.ladder_free_parameters(order, include_qe=True), cost_config=config
    )
    starts.append(rn.perturbed(qe_problem, np.random.default_rng(5), 0.05).initial)
    offset = np.diag(np.random.default_rng(6).uniform(-0.03, 0.03, order))
    starts.append(rn.CouplingMatrix(m=starts[0].m + offset, qe1=starts[0].qe1, qen=starts[0].qen))
    assert starts[-2].qe1 != cm0.qe1 and starts[-2].qen != cm0.qen
    assert len(set(starts[-1].m.diagonal())) == order > 3
    for cm in starts:
        expected = 0.0
        for z in config.zero_omegas:
            s11, _ = rn.s_parameters(cm, 1j * z)
            expected += abs(s11) ** 2
        for sign in (1.0, -1.0):
            s11, _ = rn.s_parameters(cm, 1j * sign)
            expected += (abs(s11) - config.edge_s11_mag) ** 2
        assert rn.cost(cm, config) == expected


@pytest.mark.parametrize("ripple_db", [0.04321, 0.5])
@pytest.mark.parametrize("order", [4, 8, 16])
def test_synthesized_matrix_costs_zero(order, ripple_db):
    # The edge target is the ripple the prototype realizes, not the one asked for.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=ripple_db)
    design = rn.synthesize_design(spec)
    assert rn.cost(design.matrix, rn.CostConfig.from_spec(spec)) < 1e-20


def test_optimize_from_exact_design_takes_no_step():
    spec = rn.FilterSpec(order=4, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.5)
    cm = rn.synthesize_design(spec).matrix
    problem = rn.OptimizationProblem(
        initial=cm,
        spec=spec,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=rn.CostConfig.from_spec(spec),
    )
    result = rn.optimize(problem)
    assert result.iterations == 0
    assert np.array_equal(result.final.m, cm.m)


def test_cost_detects_detuning(cm4, config4):
    m = np.array(cm4.m)
    m[0, 1] *= 1.10
    m[1, 0] = m[0, 1]
    detuned = rn.CouplingMatrix(m=m, qe1=cm4.qe1, qen=cm4.qen)
    assert rn.cost(detuned, config4) > 1e-3


def test_cost_names_a_singular_target_point():
    # The uncoupled middle resonator, tuned to the middle reflection zero,
    # makes A exactly singular at that target: the batched solve raises, and
    # the per-point solves and the guard name the point.
    spec = rn.FilterSpec(order=3, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    config = rn.CostConfig.from_spec(spec)
    w = config.zero_omegas[1]
    m = np.array([[0.0, 0.0, 0.9], [0.0, w, 0.0], [0.9, 0.0, 0.0]])
    cm = rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(rn.system_matrix(cm, config._points), np.eye(3)[:, [0, -1]])
    with pytest.raises(SingularFrequencyError) as err:
        rn.cost(cm, config)
    assert str(err.value) == "filter matrix singular at s = 6.123233995736766e-17j"
    m[1, 1] = w + 1e-6
    assert np.isfinite(rn.cost(rn.CouplingMatrix(m=m, qe1=1.0, qen=1.0), config))


def test_cost_nonnegative_random(config4, random_lossless):
    rng = np.random.default_rng(31)
    for _ in range(20):
        assert rn.cost(random_lossless(rng, n=4), config4) >= 0.0


def test_self_recovery_four_pole(cm4, xband4, config4):
    problem = perturbed_problem(cm4, xband4, config4, seed=42)
    for method in DESCENT_METHODS:
        costs = []
        result = rn.optimize(problem, method=method, on_iteration=lambda i, c, s: costs.append(c))
        assert result.converged
        assert result.final_cost < 1e-8
        for i in range(3):
            assert result.final.m[i, i + 1] == pytest.approx(cm4.m[i, i + 1], abs=1e-3)
        # monotone descent over accepted iterations
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert result.final_cost <= rn.cost(problem.initial, config4)


def test_start_at_optimum_is_a_fixed_point(cm4, xband4, config4):
    problem = rn.OptimizationProblem(
        initial=cm4,
        spec=xband4,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=config4,
    )
    result = rn.optimize(problem, tol=1e-9)
    assert result.converged
    assert result.iterations <= 2
    assert np.array_equal(result.final.m, cm4.m)


def test_determinism_bit_for_bit(cm4, xband4, config4):
    problem = perturbed_problem(cm4, xband4, config4, seed=7)
    r1 = rn.optimize(problem)
    r2 = rn.optimize(problem)
    assert np.array_equal(r1.final.m, r2.final.m)
    assert r1.final_cost == r2.final_cost
    assert r1.iterations == r2.iterations


@pytest.mark.parametrize("method", DESCENT_METHODS)
def test_each_descent_method_is_deterministic(cm4, xband4, config4, method):
    problem = perturbed_problem(cm4, xband4, config4, seed=7)
    r1 = rn.optimize(problem, method=method)
    r2 = rn.optimize(problem, method=method)
    assert np.array_equal(r1.final.m, r2.final.m)
    assert r1.final_cost == r2.final_cost
    assert r1.iterations == r2.iterations


def test_palindromic_start_stays_palindromic(cm4, xband4, config4):
    # palindromic perturbation: end couplings moved together
    m = np.array(cm4.m)
    m[0, 1] = m[1, 0] = m[0, 1] * 1.05
    m[2, 3] = m[3, 2] = m[0, 1]
    m[1, 2] = m[2, 1] = m[1, 2] * 0.95
    start = rn.CouplingMatrix(m=m, qe1=cm4.qe1, qen=cm4.qen)
    problem = rn.OptimizationProblem(
        initial=start,
        spec=xband4,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=config4,
    )
    for method in DESCENT_METHODS:
        result = rn.optimize(problem, method=method)
        assert result.converged
        flipped = result.final.m[::-1, ::-1].T
        assert np.max(np.abs(result.final.m - flipped)) < 1e-9
        assert result.final.m[0, 1] == pytest.approx(cm4.m[0, 1], abs=1e-3)


def test_max_iter_exhaustion_is_not_an_error(cm4, xband4, config4):
    problem = perturbed_problem(cm4, xband4, config4, seed=3)
    for method in DESCENT_METHODS:
        result = rn.optimize(problem, max_iter=2, method=method)
        assert not result.converged
        assert result.iterations == 2
        assert result.final_cost <= rn.cost(problem.initial, config4)


def test_max_iter_validation(cm4, xband4, config4):
    problem = perturbed_problem(cm4, xband4, config4, seed=3)
    with pytest.raises(InvalidSpecError):
        rn.optimize(problem, max_iter=0)
    # without a positive step floor a descent that no step improves never
    # ends, and a NaN tol would report convergence
    nan, inf = float("nan"), float("inf")
    for bad in ({"step_floor": 0.0}, {"step_floor": -1e-9}, {"step_floor": nan}, {"step_floor": inf}, {"tol": nan}):
        with pytest.raises(InvalidSpecError):
            rn.optimize(problem, **bad)


def test_nan_cost_raises(cm4, xband4):
    bad_config = dataclasses.replace(
        rn.CostConfig.from_spec(xband4), zero_omegas=(float("nan"),)
    )
    problem = rn.OptimizationProblem(
        initial=cm4,
        spec=xband4,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=bad_config,
    )
    with pytest.raises(NumericalError):
        rn.optimize(problem)


@pytest.mark.parametrize("method", ["sweep", "nelder-mead", "gradient"])
def test_non_finite_edge_target_raises(cm4, xband4, method):
    # the band edges are +-1 by definition: only a zero target can be inf
    config = rn.CostConfig.from_spec(xband4)
    bad_config = dataclasses.replace(config, zero_omegas=(*config.zero_omegas[:-1], float("inf")))
    problem = rn.OptimizationProblem(
        initial=cm4,
        spec=xband4,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=bad_config,
    )
    with pytest.raises(NumericalError):
        rn.optimize(problem, method=method)


def test_cross_coupling_requires_flag(cm4, xband4, config4):
    with pytest.raises(InvalidSpecError):
        rn.OptimizationProblem(
            initial=cm4,
            spec=xband4,
            free_parameters=(("m", 1, 3),),
            cost_config=config4,
        )
    problem = rn.OptimizationProblem(
        initial=cm4,
        spec=xband4,
        free_parameters=(("m", 1, 3),),
        cost_config=config4,
        allow_cross_couplings=True,
    )
    assert problem.free_parameters == (("m", 1, 3),)


def test_symmetric_positions_normalized(cm4, xband4, config4):
    problem = rn.OptimizationProblem(
        initial=cm4,
        spec=xband4,
        free_parameters=(("m", 2, 1), ("m", 1, 2)),
        cost_config=config4,
    )
    assert problem.free_parameters == (("m", 1, 2),)


def test_perturbed_draws_one_factor_per_free_key(cm4, xband4, config4):
    m = np.array(cm4.m)
    m[0, 0] = 0.1  # a diagonal offset, so scaling it shows
    cm = rn.CouplingMatrix(m=m, qe1=cm4.qe1, qen=cm4.qen)
    free = (("m", 3, 2), ("qe1",), ("m", 1, 1), ("qen",))
    problem = rn.OptimizationProblem(initial=cm, spec=xband4, free_parameters=free, cost_config=config4)
    start = rn.perturbed(problem, np.random.default_rng(11), 0.05).initial
    f23, f1, f11, fn = 1.0 + np.random.default_rng(11).uniform(-0.05, 0.05, size=4)
    expected = np.array(m)
    expected[1, 2] = expected[2, 1] = m[1, 2] * f23
    expected[0, 0] = m[0, 0] * f11
    assert np.array_equal(start.m, expected)
    assert (start.qe1, start.qen) == (cm.qe1 * f1, cm.qen * fn)
    assert problem.initial is cm and np.array_equal(cm.m, m)
    assert (cm.qe1, cm.qen) == (cm4.qe1, cm4.qen)


@pytest.mark.parametrize("fraction", [0.0, -0.05, float("nan"), float("inf")])
def test_perturbed_fraction_must_be_positive_and_finite(cm4, xband4, config4, fraction):
    problem = perturbed_problem(cm4, xband4, config4, seed=1)
    with pytest.raises(InvalidSpecError, match="perturb must be positive and finite"):
        rn.perturbed(problem, np.random.default_rng(1), fraction)


def test_nelder_mead_fallback(cm4, xband4, config4):
    problem = perturbed_problem(cm4, xband4, config4, seed=5, amount=0.05)
    result = rn.optimize(problem, method="nelder-mead", max_iter=2000)
    assert result.final_cost <= rn.cost(problem.initial, config4)
    for i in range(3):
        assert result.final.m[i, i + 1] == pytest.approx(cm4.m[i, i + 1], abs=5e-3)


def test_eight_pole_recovery(xband8):
    cm8 = rn.from_couplings(rn.spec_to_couplings(xband8), xband8.fbw)
    config = rn.CostConfig.from_spec(xband8)
    problem = perturbed_problem(cm8, xband8, config, seed=77, amount=0.05)
    for method in DESCENT_METHODS:
        result = rn.optimize(problem, method=method)
        assert result.converged
        for i in range(7):
            assert result.final.m[i, i + 1] == pytest.approx(cm8.m[i, i + 1], abs=2e-3)


def scaled_start(spec, factors, qe_factor=1.0):
    """The synthesized matrix with each superdiagonal coupling scaled in turn."""
    cm = rn.synthesize_design(spec).matrix
    m = np.array(cm.m)
    for i, factor in enumerate(factors):
        m[i, i + 1] = m[i + 1, i] = m[i, i + 1] * factor
    return cm, rn.CouplingMatrix(m=m, qe1=cm.qe1 * qe_factor, qen=cm.qen * qe_factor)


@pytest.mark.parametrize(
    "order, factors",
    [
        (6, (0.998, 1.038, 1.045, 1.038, 0.998)),
        (8, (1.002, 0.968, 1.038, 1.038, 1.038, 0.968, 1.002)),
    ],
)
def test_mirror_symmetric_start_does_not_stall(order, factors):
    # From these starts the mirror-grouped descent alone, sweep or gradient,
    # stops at cost ~0.025, a point stationary inside the symmetric subspace
    # only.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm, start = scaled_start(spec, factors)
    problem = rn.OptimizationProblem(
        initial=start,
        spec=spec,
        free_parameters=rn.ladder_free_parameters(order),
        cost_config=rn.CostConfig.from_spec(spec),
    )
    for method in DESCENT_METHODS:
        result = rn.optimize(problem, method=method)
        assert result.converged
        assert result.final_cost <= 1e-10
        for i in range(order - 1):
            assert result.final.m[i, i + 1] == pytest.approx(cm.m[i, i + 1], abs=1e-3)


def test_qe_pair_moves_as_one_orbit(yband4):
    config = rn.CostConfig.from_spec(yband4)
    free = rn.ladder_free_parameters(4, include_qe=True)
    _, start = scaled_start(yband4, (1.04, 0.97, 1.04), qe_factor=1.03)
    problem = rn.OptimizationProblem(
        initial=start, spec=yband4, free_parameters=free, cost_config=config
    )
    # One part in 1e9 off the mirror: every key moves on its own.
    _, skewed = scaled_start(yband4, (1.04, 0.97, 1.04 * (1 + 1e-9)), qe_factor=1.03)
    for method in DESCENT_METHODS:
        final = rn.optimize(problem, max_iter=40, method=method).final
        assert final.qe1 == final.qen
        assert final.m[0, 1] == final.m[2, 3]

        final = rn.optimize(dataclasses.replace(problem, initial=skewed), max_iter=40, method=method).final
        assert final.qe1 != final.qen
        assert final.m[0, 1] != final.m[2, 3]


def test_gradient_run_that_creeps_away_gives_the_sweep_result(yband4):
    # From this mirror-symmetric start with both qe free, least squares
    # creeps toward couplings 40x too large; the run is dropped and the
    # sweep from the same start decides the result.
    cm, start = scaled_start(yband4, (1.0491211213153973, 1.0428937281434858, 1.0491211213153973),
                             qe_factor=1.027651485181897)
    problem = rn.OptimizationProblem(
        initial=start,
        spec=yband4,
        free_parameters=rn.ladder_free_parameters(4, include_qe=True),
        cost_config=rn.CostConfig.from_spec(yband4),
    )
    gradient = rn.optimize(problem)
    sweep = rn.optimize(problem, method="sweep")
    assert gradient.final_cost == sweep.final_cost <= 1e-10
    assert gradient.iterations == sweep.iterations
    assert np.array_equal(gradient.final.m, sweep.final.m)
    assert np.abs(gradient.final.m - cm.m).max() < 1e-3


def test_gradient_step_past_a_positive_qe_is_rejected(cm4, xband4, config4):
    # From qe at 30% of its value the undamped step drives qe below zero; the
    # trial counts as rejected and the damping rises.
    start = rn.CouplingMatrix(m=cm4.m * 0.7, qe1=cm4.qe1 * 0.3, qen=cm4.qen * 0.33)
    problem = rn.OptimizationProblem(
        initial=start,
        spec=xband4,
        free_parameters=rn.ladder_free_parameters(4, include_qe=True),
        cost_config=config4,
    )
    result = rn.optimize(problem, method="gradient")
    assert result.converged
    assert result.final_cost <= 1e-10


def plan_for(keys, order, palindromic):
    """The plan optimize takes for the free set keys from a start that is
    palindromic or not."""
    keyed, grouped = _plans(tuple(dict.fromkeys(keys)), order)
    return grouped if palindromic and grouped is not None else keyed


def evaluated(p, order, config):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _Evaluator(order, config)(p)


def jacobian_cases(order, rng):
    """(p, plan) over ladder, diagonal, qe1/qen and cross keys: once at a
    palindromic point, where mirrored keys form orbits, once off it."""
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    keys = [*rn.ladder_free_parameters(order, include_qe=True)]
    keys += [("m", i, i) for i in range(1, order + 1)]
    if order > 2:
        keys += [("m", 1, order), ("m", 1, 3), ("m", order - 2, order)]
    m = np.array(cm.m)
    for _, i, j in (k for k in keys if k[0] == "m"):
        value = m[i - 1, j - 1] * rng.uniform(0.95, 1.05) if j == i + 1 else rng.uniform(-0.1, 0.1)
        m[i - 1, j - 1] = m[j - 1, i - 1] = value
    palindromic = (m + m[::-1, ::-1].T) / 2.0
    for start, qe in ((palindromic, (cm.qe1, cm.qe1)), (m, (cm.qe1 * 1.02, cm.qen * 0.98))):
        p = _vector(rn.CouplingMatrix(m=start, qe1=qe[0], qen=qe[1]))
        yield p, plan_for(keys, order, start is palindromic), rn.CostConfig.from_spec(spec)


@pytest.mark.parametrize("order", [4, 6, 8, 12])
def test_residuals_are_the_all_column_construction_bit_for_bit(order):
    # The Jacobian formed at the free positions only, summed per orbit
    # length, against tests/oracles.py's n^2 + 2 columns and one .sum per
    # orbit. Mirror-symmetric starts with both qe free give four-position
    # orbits, where a sum in another order (np.add.reduceat) changes bits.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    config = rn.CostConfig.from_spec(spec)
    ladder = rn.ladder_free_parameters(order)
    free_sets = {
        "ladder": ladder,
        "mirror-symmetric ladder and both qe": ladder + (("qe1",), ("qen",)),
        "diagonal": tuple(("m", i, i) for i in range(1, order + 1)),
        "one cross coupling": ladder + (("m", 1, order),),
    }
    rng = np.random.default_rng(order)
    for _ in range(4):
        for name, keys in free_sets.items():
            m = np.array(cm.m)
            for i in range(order - 1):
                m[i, i + 1] = m[i + 1, i] = m[i, i + 1] * rng.uniform(0.95, 1.05)
            m[np.diag_indices(order)] = rng.uniform(-0.03, 0.03, order)
            qe = cm.qe1 * rng.uniform(0.95, 1.05, 2)
            if name.startswith("mirror"):
                m, qe = (m + m[::-1, ::-1].T) / 2.0, (qe[0], qe[0])
            p = _vector(rn.CouplingMatrix(m=m, qe1=qe[0], qen=qe[1]))
            plan = plan_for(keys, order, name.startswith("mirror"))
            if name.startswith("mirror"):
                assert max(len(orbit) for orbit in plan.orbits) == 4
            solved = evaluated(p, order, config)
            r, jac = _residuals(solved, plan.gather, config)
            r0, jac0 = residuals_all_columns(solved, plan.orbits, config)
            assert r.tobytes() == r0.tobytes()
            assert jac.shape == jac0.shape and jac.tobytes() == jac0.tobytes()
            # the layout too: the least-squares step's column norms sum in it
            assert jac.strides == jac0.strides


@pytest.mark.parametrize("order", range(2, 21))
def test_jacobian_matches_central_differences(order):
    rng = np.random.default_rng(order)
    orbit_counts = []
    for p, plan, config in jacobian_cases(order, rng):
        orbit_counts.append(len(plan.orbits))
        residuals = lambda q: _residuals(evaluated(q, order, config), plan.gather, config)
        r, jac = residuals(p)
        assert jac.shape == (r.size, len(plan.orbits))
        for k, orbit in enumerate(plan.orbits):
            h = 1e-6 * max(1.0, abs(p[orbit[0]]))
            plus, minus = p.copy(), p.copy()
            plus[orbit] += h
            minus[orbit] -= h
            column = (residuals(plus)[0] - residuals(minus)[0]) / (2 * h)
            assert np.abs(jac[:, k] - column).max() <= 1e-6 * max(1.0, np.abs(column).max())
    # mirrored keys share an orbit at the palindromic point only
    assert orbit_counts[0] < orbit_counts[1]


def test_least_squares_solves_no_point_twice(cm4, xband4, config4, monkeypatch):
    # Each Jacobian is built from the LU solve its point's cost came from,
    # and every solve is a call of an evaluator: cost's for the start, then
    # the run's one evaluator for every trial. From this start least squares
    # reaches tol by itself (3 steps), so no sweep runs.
    seen, evaluators, solves = [], [], []
    lu_scattering, call = rn.optimizer._lu_scattering, _Evaluator.__call__

    def spy(a, s, qe1, qen):
        solves.append(a.tobytes())
        return lu_scattering(a, s, qe1, qen)

    def evaluator_spy(self, p):
        seen.append(p.tobytes())
        evaluators.append(self)
        return call(self, p)

    monkeypatch.setattr("resonet.optimizer._lu_scattering", spy)
    monkeypatch.setattr(_Evaluator, "__call__", evaluator_spy)
    problem = perturbed_problem(cm4, xband4, config4, seed=7, amount=0.05)
    result = rn.optimize(problem, method="gradient")
    assert result.converged and result.final_cost <= 1e-10
    assert len(seen) > result.iterations > 0
    assert len(set(seen)) == len(seen) == len(set(solves)) == len(solves)
    assert len(set(map(id, evaluators))) == 2 and evaluators.count(evaluators[-1]) == len(seen) - 1
    assert type(result.final_cost) is float


def optimizer_jacobians():
    """(r, jac) as least squares takes them from +-5% starts of orders 3-16,
    the ladder keys without and with both qe."""
    for order in range(3, 17):
        spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
        cm, config = rn.synthesize_design(spec).matrix, rn.CostConfig.from_spec(spec)
        for include_qe in (False, True):
            keys = rn.ladder_free_parameters(order, include_qe=include_qe)
            problem = rn.OptimizationProblem(initial=cm, spec=spec, free_parameters=keys, cost_config=config)
            p = _vector(rn.perturbed(problem, np.random.default_rng(order), 0.05).initial)
            yield _residuals(evaluated(p, order, config), plan_for(keys, order, False).gather, config)


def tried_step(monkeypatch, r, jac, damping):
    """The step _levenberg_marquardt tries at damping 1e-3 * 10^k when every
    point has the residual r and Jacobian jac, with the damping it used: from
    1e-3, each accepted trial lowers it tenfold (to 1e-12 at least) and each
    rejected one raises it tenfold."""
    tens = round(math.log10(damping / 1e-3))
    verdicts = [True] * -tens + [False] * tens
    used = 1e-3
    for accepted in verdicts:
        used = max(used / 10.0, 1e-12) if accepted else used * 10.0
    monkeypatch.setattr(optimizer, "_residuals", lambda solved, gather, config: (r, jac))
    coordinates = np.arange(jac.shape[1])
    plan = optimizer._Plan([], coordinates, coordinates, coordinates, None)
    base, steps = np.zeros(jac.shape[1]), []

    def evaluate(p):
        steps.append(p - base)
        if len(steps) > len(verdicts):
            return 0.0  # at tol: the run ends
        if verdicts[len(steps) - 1]:
            base[:] = p
            return 1.0 - len(steps) / 100.0
        return math.inf

    evaluate.config = None
    optimizer._levenberg_marquardt(base.copy(), plan, 1.0, evaluate, 100, 0.0, 1e-300)
    assert len(steps) == len(verdicts) + 1
    return steps[-1], used


def damped_model(r, jac, damping, step):
    """|r + J step|^2 + damping |D step|^2, D the column norms of J (1 for a
    zero column): what a Levenberg-Marquardt step minimizes."""
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    return np.sum((r + jac @ step) ** 2) + damping * np.sum((scale * step) ** 2)


LM_DAMPINGS = (1e-12, 1e-3, 1.0, 1e3)


@pytest.mark.parametrize("damping", LM_DAMPINGS)
def test_least_squares_step_is_the_svd_step(damping, monkeypatch):
    # The normal equations square cond(Js), so agreement to 1e-9 needs a
    # well-conditioned Js; every Jacobian here has cond(Js) <= 1e4.
    for r, jac in optimizer_jacobians():
        assert np.linalg.cond(jac / np.linalg.norm(jac, axis=0)) <= 1e4
        step, used = tried_step(monkeypatch, r, jac, damping)
        expected = marquardt_step_svd(r, jac, used)
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("damping", LM_DAMPINGS)
@pytest.mark.parametrize("degenerate", ["zero column", "equal columns"])
def test_least_squares_step_on_a_rank_deficient_jacobian(degenerate, damping, monkeypatch):
    # H + damping I stays solvable down to damping 1e-12. A zero column takes
    # no step; along the null direction of equal columns the steps may part,
    # but the damped model they minimize has the same value.
    for r, jac in optimizer_jacobians():
        jac = jac.copy()
        jac[:, 1] = 0.0 if degenerate == "zero column" else jac[:, 0]
        step, used = tried_step(monkeypatch, r, jac, damping)
        assert np.isfinite(step).all()
        assert degenerate != "zero column" or step[1] == 0.0
        expected = damped_model(r, jac, used, marquardt_step_svd(r, jac, used))
        assert damped_model(r, jac, used, step) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("preset, include_qe", [("xband-8pole", False), ("yband-4pole", True)])
def test_least_squares_solves_one_small_system_per_trial_and_no_svd(preset, include_qe, monkeypatch):
    # Every trial step is one real solve of the damped normal equations, and
    # the step that falls below the floor, if any, is one more.
    spec = rn.bundled_filter_spec(preset)
    keys = rn.ladder_free_parameters(spec.order, include_qe=include_qe)
    problem = rn.OptimizationProblem(initial=rn.synthesize_design(spec).matrix, spec=spec, free_parameters=keys,
                                     cost_config=rn.CostConfig.from_spec(spec))
    problem = rn.perturbed(problem, np.random.default_rng(1), 0.05)
    calls = {"svd": 0, "solve": 0, "evaluate": 0}
    svd, solve, call = np.linalg.svd, np.linalg.solve, _Evaluator.__call__

    def svd_spy(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def solve_spy(a, b):
        calls["solve"] += np.ndim(a) == 2 and np.isrealobj(a)
        return solve(a, b)

    def evaluator_spy(self, p):
        calls["evaluate"] += 1
        return call(self, p)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    monkeypatch.setattr(_Evaluator, "__call__", evaluator_spy)
    result = rn.optimize(problem, method="gradient")
    assert result.final_cost <= 1e-10 and 0 < result.iterations < 10  # least squares alone, no sweep
    assert calls["svd"] == 0
    assert 0 < calls["solve"] <= calls["evaluate"] + 1


@pytest.mark.parametrize("order", range(4, 21))
def test_gradient_converges_to_the_synthesized_matrix(order):
    # tol and step floor far below the defaults, so that convergence, not the
    # stopping threshold, decides how close the result gets.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    config = rn.CostConfig.from_spec(spec)
    for seed in range(2):
        problem = perturbed_problem(cm, spec, config, seed=100 * order + seed, amount=0.05)
        result = rn.optimize(problem, method="gradient", tol=1e-24, step_floor=1e-15)
        assert result.converged
        assert result.final_cost == rn.cost(result.final, config)
        assert np.abs(result.final.m - cm.m).max() <= 1e-9


def outcome(evaluate):
    """The cost bytes, or the class and message of the error, of evaluate()."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.float64(evaluate()).tobytes()
    except (InvalidSpecError, SingularFrequencyError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("order", [3, 4, 8, 16])
def test_evaluator_is_cost_of_the_matrix_bit_for_bit(order):
    # One evaluator, as one optimize run keeps it, on random points and on
    # points its trials must refuse: each gives what cost gives on the
    # CouplingMatrix of the point, or the error that building it or cost
    # raises. Its buffer keeps the last point's A, refused or not.
    spec = rn.FilterSpec(order=order, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)
    cm = rn.synthesize_design(spec).matrix
    config = rn.CostConfig.from_spec(spec)
    evaluate = _Evaluator(order, config)
    rng = np.random.default_rng(order)
    points = []
    for qe_free in (False, True, False, True):
        m = cm.m * rng.uniform(0.95, 1.05, (order, order))
        m[np.diag_indices(order)] = rng.uniform(-0.03, 0.03, order)
        qe = np.array([cm.qe1, cm.qen]) * (rng.uniform(0.95, 1.05, 2) if qe_free else 1.0)
        points.append(np.concatenate([((m + m.T) / 2.0).ravel(), qe]))
    w = config.zero_omegas[1]
    refused = [(0.0, cm.qen), (-1.0, cm.qen), (cm.qe1, -0.5), (cm.qe1, np.nan), (1e-310, cm.qen), (1e-200, 1e-200)]
    for qe1, qen in refused:
        p = points[0].copy()
        p[-2:] = qe1, qen
        points.append(p)
    for bad in (np.nan, np.inf):
        p = points[1].copy()
        p[order - 1] = p[order * (order - 1)] = bad  # m[0, n-1] and its twin
        points.append(p)
    # resonator 2 uncoupled and tuned to a target zero: A is singular there
    m = np.zeros((order, order))
    m[0, -1] = m[-1, 0] = 0.9
    m[1, 1] = w
    points.append(np.concatenate([m.ravel(), [1.0, 1.0]]))
    kinds = []
    for p in points + points[:2]:
        expected = outcome(lambda: rn.cost(rn.CouplingMatrix(m=p[:-2].reshape(order, order), qe1=p[-2], qen=p[-1]), config))
        assert outcome(lambda: evaluate(p)) == expected
        kinds.append(expected[0] if isinstance(expected, tuple) else float)
    assert kinds.count(float) == 6 and kinds.count(SingularFrequencyError) == 1


def count_matrices(monkeypatch):
    """A list that gets one entry per CouplingMatrix built from here on."""
    built, post_init = [], rn.CouplingMatrix.__post_init__

    def spy(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(rn.CouplingMatrix, "__post_init__", spy)
    return built


@pytest.mark.parametrize("method", ["gradient", "sweep", "nelder-mead"])
def test_one_run_builds_one_matrix_and_reuses_the_cached_plan(cm4, xband4, config4, method, monkeypatch):
    problem = perturbed_problem(cm4, xband4, config4, seed=7, amount=0.05)
    built = count_matrices(monkeypatch)
    first = rn.optimize(problem, method=method, max_iter=50)
    assert built == [first.final]
    hits = _plans.cache_info().hits
    second = rn.optimize(problem, method=method, max_iter=50)
    assert _plans.cache_info().hits == hits + 1
    assert built == [first.final, second.final]
    for plan in _plans(problem.free_parameters, 4):
        if plan is None:
            continue
        (rows, cols), _, groups, order = plan.gather
        for array in (*plan.orbits, plan.heads, plan.flat, plan.owner, rows, cols, order, *(g for g, _ in groups)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def test_threads_on_one_free_set_give_the_serial_results(cm4, xband4, config4):
    # Four threads on two cores, on one cached plan; a short switch interval
    # interleaves them between numpy calls.
    base = rn.OptimizationProblem(initial=cm4, spec=xband4, free_parameters=rn.ladder_free_parameters(4),
                                  cost_config=config4)
    problems = [rn.perturbed(base, np.random.default_rng(seed), 0.05) for seed in range(4)]
    serial = [rn.optimize(problem, method=method) for problem in problems for method in DESCENT_METHODS]
    results = [None] * len(serial)

    def work(k):
        for j, method in enumerate(DESCENT_METHODS):
            results[2 * k + j] = rn.optimize(problems[k], method=method)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(problems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert got.final_cost == want.final_cost and got.iterations == want.iterations
        assert got.final.m.tobytes() == want.final.m.tobytes() and (got.final.qe1, got.final.qen) == (want.final.qe1, want.final.qen)


def test_sweep_ends_converged_at_the_step_floor_above_tol(cm4, xband4, config4):
    # One free coupling cannot undo the detuning of another: every step
    # halves below the floor and the sweep stops converged, above tol.
    m = np.array(cm4.m)
    m[1, 2] = m[2, 1] = m[1, 2] * 1.05
    start = rn.CouplingMatrix(m=m, qe1=cm4.qe1, qen=cm4.qen)
    problem = rn.OptimizationProblem(initial=start, spec=xband4, free_parameters=(("m", 1, 2),), cost_config=config4)
    steps = []
    result = rn.optimize(problem, method="sweep", on_iteration=lambda i, c, s: steps.append(s))
    assert result.converged and result.final_cost > 1e-6
    assert result.iterations == len(steps) < 2000
    assert steps[-1] / 2.0 < 1e-9 * max(1.0, abs(result.final.m[0, 1])) <= steps[-1]
    assert result.final_cost < rn.cost(start, config4)
