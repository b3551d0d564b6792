"""The imex march's implicit half by resolvent blocks, against its GMRES march."""

import dataclasses

import numpy as np
import pytest

import parastrip as ps
import parastrip.solver
from parastrip.errors import ConfigurationError, InstabilityError

from conftest import make_heat_operator

TEMPORAL = ps.TemporalDomain(np.pi / 4, 1.0, 2.0)
IMEX = ps.SolverConfig(dt=0.01, integrator="imex")


def implicit(res):
    (window,) = res.diagnostics["windows"]
    return window["implicit"]


def time_dependent(problem):
    """The same problem with its operator declared time-dependent: the GMRES march."""
    return dataclasses.replace(problem, op=dataclasses.replace(problem.op, autonomous=False))


def against_gmres(problem, solve, rtol=1e-11):
    """Solve ``problem`` by the blocks and its time-dependent copy by GMRES; compare every row."""
    fast, slow = solve(problem), solve(time_dependent(problem))
    assert (implicit(fast), implicit(slow)) == ("blocks", "gmres")
    (window,) = fast.diagnostics["windows"]
    assert window["gmres_iterations"] == [0] * (window["steps"] + 1)
    assert sum(slow.diagnostics["windows"][0]["gmres_iterations"]) > 0
    np.testing.assert_array_equal(fast.times, slow.times)
    scale = max(np.max(np.abs(f.values)) for f in slow.fields)
    for a, b in zip(fast.fields, slow.fields):
        assert np.max(np.abs(a.values - b.values)) <= rtol * scale
    return fast, slow


def variable_1d(extra=None):
    terms = {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0]), ((0,), (0,)): 0.2}
    terms.update(extra or {})
    return ps.DivergenceOperator.from_terms(1, 1, 1, terms, ps.StripSpec(1.0), TEMPORAL, autonomous=True)


def problem_1d(op=None, n=32, **kw):
    grid = ps.make_grid(1, np.pi, n)
    init = lambda pts: np.exp(np.cos(pts[0]) + 0.5j * np.sin(2 * pts[0]))
    return ps.CauchyProblem(grid, op if op is not None else variable_1d(), init, **kw)


def real_solve(shift=None, horizon=0.1, config=IMEX):
    return lambda problem: ps.solve_real(problem, 0.0, horizon, config, shift=shift)


def test_variable_1d_coefficients():
    against_gmres(problem_1d(variable_1d({((1,), (0,)): lambda z, t: 0.3 * np.sin(z[0])})), real_solve())


@pytest.mark.parametrize("axis", [0, 1])
def test_2d_coefficient_varying_along_one_axis(axis):
    op = ps.DivergenceOperator.from_terms(
        1, 1, 2, {((1, 0), (1, 0)): lambda z, t: 1.0 + 0.3 * np.cos(z[axis]),
                  ((0, 1), (0, 1)): lambda z, t: 0.7 + 0.2 * np.sin(z[axis]),
                  ((1, 0), (0, 1)): 0.1, ((0, 0), (0, 0)): 0.2},
        ps.StripSpec(1.0), TEMPORAL, autonomous=True)
    grid = ps.make_grid(2, np.pi, 16)
    problem = ps.CauchyProblem(grid, op, lambda pts: np.exp(np.cos(pts[0]) + 1j * np.sin(pts[1])))
    fast, _ = against_gmres(problem, real_solve(shift=[0.1j, -0.1j]))
    # one 16 x 16 block per Fourier mode of the other axis
    plan = ps.OperatorPlan(op, grid)
    resolvent = parastrip.solver._Resolvent(plan, 0.0)
    assert plan.var_axes == (axis - 2,) and (resolvent.count, resolvent.size) == (16, 16)


def test_constant_coefficients_give_one_scalar_block_per_mode():
    problem = problem_1d(make_heat_operator(strip_width=1.0), n=64)
    against_gmres(problem, real_solve())
    resolvent = parastrip.solver._Resolvent(ps.OperatorPlan(problem.op, problem.grid), 0.0)
    assert (resolvent.count, resolvent.size) == (64, 1)


def test_two_component_system():
    def diffusion(z, t):
        one = np.ones_like(z[0])
        return np.stack([np.stack([1.0 + 0.2 * np.cos(z[0]), 0.1 * one]),
                         np.stack([0.05 * np.sin(z[0]), 0.8 * one])])

    op = ps.DivergenceOperator.from_terms(1, 2, 1, {((1,), (1,)): diffusion}, ps.StripSpec(1.0),
                                          TEMPORAL, autonomous=True)
    grid = ps.make_grid(1, np.pi, 16)
    init = lambda pts: np.stack([np.exp(np.cos(pts[0])), np.exp(1j * np.sin(pts[0]))])
    against_gmres(ps.CauchyProblem(grid, op, init), real_solve())


def test_complex_shift():
    against_gmres(problem_1d(), real_solve(shift=[0.2j]))


def test_complex_ray():
    fast, _ = against_gmres(problem_1d(), lambda p: ps.solve_complex_ray(p, 1.0 + 0.3j, 0.1, IMEX))
    assert fast.times[-1] == pytest.approx(0.1 + 0.03j)


def test_reaction_and_source_enter_as_the_explicit_term():
    def reaction(z, t, X):
        return -0.5 * X[0] + 0.2 * X[0] * X[1] + t * np.cos(z[0]) * X[0] ** 2

    def source(t, grid_, shift):
        pts = grid_.meshgrid() + np.asarray(shift).reshape(1, 1)
        return (np.sin(pts[0]) * np.exp(-t))[np.newaxis]

    spec = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=reaction)
    fast, slow = against_gmres(problem_1d(reaction=spec, source=source), real_solve(shift=[0.1j]))
    # the forcing moves the answer: the comparison is not one of two unforced marches
    unforced = real_solve(shift=[0.1j])(problem_1d())
    assert np.max(np.abs(fast.final.values - unforced.final.values)) > 1e-3


@pytest.mark.parametrize("sabotage", ["cap", "residual", "singular"])
def test_falls_back_to_gmres_when_the_blocks_are_refused(sabotage, monkeypatch):
    if sabotage == "cap":
        # the 32 x 32 block of this 1-D problem takes 16 KiB
        monkeypatch.setattr(parastrip.solver, "_BLOCK_BYTES_CAP", 16 * 2 ** 10 - 1)
    elif sabotage == "residual":
        inverse = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverse(a) * (1.0 + 1e-9))
    else:
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
    problem = problem_1d()
    res = real_solve()(problem)
    assert implicit(res) == "gmres"
    (window,) = res.diagnostics["windows"]
    record = window["resolvent"]
    assert record["refused"] == sabotage
    if sabotage == "cap":
        assert (record["value"], record["limit"]) == (16 * 2 ** 10, 16 * 2 ** 10 - 1)
    elif sabotage == "residual":
        assert record["value"] > record["limit"] == IMEX.gmres_tol
    # in 1-D the autonomous GMRES march rounds as the time-dependent one does
    want = real_solve()(time_dependent(problem))
    assert want.diagnostics["windows"][0]["resolvent"] == {"refused": "time_dependent"}
    for a, b in zip(res.fields, want.fields):
        np.testing.assert_array_equal(a.values, b.values)


def heston_resolvent():
    """The benchmark's 64^2 Heston chart at its nominal inputs: plan, resolvent and build record."""
    from parastrip.xva import _pricing_problem

    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 64)
    payoff = ps.hermite_payoff_fit(ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=1e-3), 6.0)
    plan = ps.OperatorPlan(_pricing_problem(params, payoff, grid).op, grid)
    return plan, *parastrip.solver._Resolvent.build(plan, 0.0, 0.5 / 400, IMEX.gmres_tol)


def test_the_heston_chart_keeps_43_blocks_of_43_coupled_rows():
    # the x-modes beyond the 2/3 mask meet the constant part only; inside it the v-modes couple
    _, resolvent, record = heston_resolvent()
    assert resolvent.coupled.shape == (43, 43, 64) and resolvent.diagonal.shape == (64, 64)
    assert (record["coupled_blocks"], record["coupled_rows"]) == (43, 43)
    assert record["bytes"] < 2 * 2 ** 20 and record["residual"] <= IMEX.gmres_tol
    assert record["build_s"] > 0.0


def test_a_compact_step_equals_the_dense_inverse_step():
    plan, resolvent, _ = heston_resolvent()
    dense = np.linalg.inv(resolvent.matrix(plan, 0.0, 0.5 / 400))
    rng = np.random.default_rng(0)
    w = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    want = np.matmul(dense, (2.0 * w)[..., np.newaxis])[..., 0] - w
    np.testing.assert_array_equal(resolvent.apply(2.0 * w) - w, want)


def test_blocks_with_uneven_coupled_rows():
    # the constant zero-order entry 0.1 couples all 16 rows of component 0 in every block; the
    # constant diffusion of component 1 sits on the diagonal exactly, so its rows couple nothing
    def diffusion(z, t):
        one, zero = np.ones_like(z[0]), np.zeros_like(z[0])
        return np.stack([np.stack([1.0 + 0.3 * np.cos(z[0]), zero]), np.stack([zero, one])])

    op = ps.DivergenceOperator.from_terms(
        1, 2, 2, {((1, 0), (1, 0)): diffusion, ((0, 1), (0, 1)): 1.0,
                  ((0, 0), (0, 0)): np.array([[0.2, 0.1], [0.0, 0.3]])},
        ps.StripSpec(1.0), TEMPORAL, autonomous=True)
    grid = ps.make_grid(2, np.pi, 16)
    plan = ps.OperatorPlan(op, grid)
    resolvent = parastrip.solver._Resolvent(plan, 0.0)
    matrix = resolvent.matrix(plan, 0.0, 0.005)
    off = matrix.copy()
    off[:, np.arange(32), np.arange(32)] = 0.0
    assert set(np.count_nonzero(np.any(off != 0.0, axis=2), axis=1)) == {16}
    init = lambda pts: np.stack([np.exp(np.cos(pts[0])), np.exp(1j * np.sin(pts[1]))])
    fast, _ = against_gmres(ps.CauchyProblem(grid, op, init), real_solve())
    record = fast.diagnostics["windows"][0]["resolvent"]
    assert (record["coupled_blocks"], record["coupled_rows"]) == (16, 16)


def columns_of_p_hat(plan, resolvent, t, c):
    """B = I + c P^ with the columns of P^ from ``apply_hat`` on unit vectors along the var axes
    that are one along the fixed axes: the blocks as they were once built, kept as an oracle."""
    b = resolvent.size
    units = np.zeros((b, resolvent.count, b), dtype=np.complex128)
    units[np.arange(b), :, np.arange(b)] = 1.0
    applied = plan.apply_hat(resolvent.from_blocks(units), (t,) * b)
    blocks = c * np.moveaxis(resolvent.to_blocks(applied), 0, -1)
    blocks[:, np.arange(b), np.arange(b)] += 1.0
    return blocks


def two_component_2d():
    """A 2-component system whose coefficients vary along both axes, off the diagonal too."""
    def diffusion(z, t):
        return np.stack([np.stack([1.0 + 0.2 * np.cos(z[0]) * np.cos(z[1]), 0.1 * np.sin(z[1])]),
                         np.stack([0.05 * np.sin(z[0]), 0.8 + 0.1 * np.cos(z[1])])])

    def drift(z, t):
        zero = np.zeros_like(z[0])
        return np.stack([np.stack([0.1j * np.cos(z[1]), zero]), np.stack([zero, 0.2 + zero])])

    return ps.DivergenceOperator.from_terms(
        1, 2, 2, {((1, 0), (1, 0)): diffusion, ((0, 1), (0, 1)): diffusion, ((1, 0), (0, 1)): 0.1,
                  ((0, 0), (1, 0)): drift, ((0, 0), (0, 0)): np.array([[0.2, 0.1], [0.0, 0.3]])},
        ps.StripSpec(1.0), TEMPORAL, autonomous=True)


@pytest.mark.parametrize("case", ["variable_heat_1d", "heston_chart", "system_2d", "shifted", "constant"])
def test_the_assembled_blocks_equal_p_hat_on_unit_vectors(case, monkeypatch):
    c = 0.005
    if case == "heston_chart":
        plan, c = heston_resolvent()[0], 0.5 / 400
    elif case == "system_2d":
        plan = ps.OperatorPlan(two_component_2d(), ps.make_grid(2, np.pi, 8))
    elif case == "constant":
        plan = ps.OperatorPlan(make_heat_operator(dim=2, strip_width=1.0), ps.make_grid(2, np.pi, 16))
    else:
        plan = ps.OperatorPlan(variable_1d(), ps.make_grid(1, np.pi, 32), [0.2j] if case == "shifted" else None)
    resolvent = parastrip.solver._Resolvent(plan, 0.0)
    if case == "system_2d":         # one 128 x 128 block: both axes and both components couple
        assert plan.var_axes == (-2, -1) and (resolvent.count, resolvent.size) == (1, 128)
    want = columns_of_p_hat(plan, resolvent, 0.0, c)
    calls = []
    inner = ps.OperatorPlan.apply_hat
    monkeypatch.setattr(ps.OperatorPlan, "apply_hat", lambda *a, **kw: calls.append(1) or inner(*a, **kw))
    got = resolvent.matrix(plan, 0.0, c)
    assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the build assembles the blocks from the coefficients: P^ is never applied
    built, record = parastrip.solver._Resolvent.build(plan, 0.0, c, IMEX.gmres_tol)
    assert built is not None and calls == []
    assert 0.0 < record["invert_s"] <= record["build_s"]


@pytest.mark.parametrize("integrator", ["imex", "picard_voc"])
def test_each_window_records_its_wall_time(integrator):
    config = ps.SolverConfig(dt=0.01, integrator=integrator, window=0.04)
    diag = real_solve(config=config)(problem_1d()).diagnostics
    walls = diag["window_wall_s"]
    assert len(walls) == len(diag["windows"]) == (1 if integrator == "imex" else 3)
    assert all(wall > 0.0 for wall in walls)
    # a path past its split keeps both segments' wall times, in order
    path = ps.solve_along_path(problem_1d(), 0.1, 0.02, 0.05, config).diagnostics
    windows = [w for segment in path["segments"] for w in segment]
    assert len(path["window_wall_s"]) == len(windows) >= 2
    assert all(wall > 0.0 for wall in path["window_wall_s"])


def test_the_cap_admits_blocks_that_fit_it(monkeypatch):
    monkeypatch.setattr(parastrip.solver, "_BLOCK_BYTES_CAP", 16 * 2 ** 10)
    assert implicit(real_solve()(problem_1d())) == "blocks"


@pytest.mark.parametrize("half, applies", [("blocks", 0), ("gmres", 101), ("time_dependent", 111)])
def test_one_march_transforms_once_in_and_once_out_per_solve(half, applies, monkeypatch):
    # 10 unforced steps: one FFT of the start, one inverse FFT of the last node, no explicit
    # part; P is applied as often as each step needs, never under the blocks, which are
    # assembled from the coefficients
    counts = {}

    def count(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: counts.update({name: counts.get(name, 0) + 1})
                            or inner(*a, **kw))

    for name in ("_fftn", "_ifftn", "_explicit_part"):
        count(parastrip.solver, name)
    count(ps.OperatorPlan, "apply_hat")
    problem = problem_1d()
    if half == "gmres":
        monkeypatch.setattr(parastrip.solver, "_BLOCK_BYTES_CAP", 0)
    elif half == "time_dependent":
        problem = time_dependent(problem)
    res = real_solve()(problem)
    (window,) = res.diagnostics["windows"]
    assert window["implicit"] == ("blocks" if half == "blocks" else "gmres") and window["steps"] == 10
    want = {"_fftn": 1, "_ifftn": 1, "apply_hat": applies}
    assert counts == {name: calls for name, calls in want.items() if calls}   # none uncalled
    # the final row is the march's one transform; reading the rows transforms the nine
    # between it and the start
    res.final
    assert counts["_ifftn"] == 1
    assert len(res.fields) == 11 and counts["_ifftn"] == 10
    # the corrector of node 0 starts from the predictor, which already solves the unforced step
    assert window["gmres_iterations"] == ([0] * 11 if half == "blocks" else [8, 0] + [8] * 9)


def test_a_non_finite_iterate_raises_instability():
    def source(t, grid_, shift):
        return np.full((1,) + grid_.shape, np.inf if t.real > 0.025 else 0.0)

    problem = problem_1d(source=source)
    with np.errstate(invalid="ignore"), \
            pytest.raises(InstabilityError, match=r"non-finite iterate at t=\(0\.04"):
        real_solve()(problem)


def test_a_node_outside_the_operators_temporal_domain_raises():
    # the problem's own domain reaches further than the operator's coefficients do: refused
    # when the problem is built, naming both domains
    op = dataclasses.replace(variable_1d(), temporal=ps.TemporalDomain(np.pi / 4, 0.05, 0.05))
    with pytest.raises(ConfigurationError, match=r"horizon 2\.0\) is wider than .*horizon 0\.05\)"):
        problem_1d(op, temporal=TEMPORAL)


def test_reading_time_derivatives_stacks_consecutive_blocks(monkeypatch):
    calls = []
    inner = parastrip.solver._group_rhs
    monkeypatch.setattr(parastrip.solver, "_group_rhs",
                        lambda problem, plans, stack, *a, **kw: calls.append(stack.shape[1])
                        or inner(problem, plans, stack, *a, **kw))
    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 64)
    payoff = ps.hermite_payoff_fit(ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=1e-3), 6.0)
    res = ps.price_riskfree(params, payoff, grid, 1.0)
    assert len(res.blocks) == 401 and calls == []
    derivatives = res.derivative_blocks
    # 64 KiB rows, four per 256 KiB run
    assert calls == [4] * 100 + [1]
    for block, ts, got in zip(res.blocks, res.times, derivatives):
        np.testing.assert_array_equal(got, res.rhs(block[np.newaxis], [[ts]])[0])
