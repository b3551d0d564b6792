import dataclasses
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parastrip as ps
import parastrip.solver
from parastrip.errors import ConfigurationError, DomainError, InstabilityError

from conftest import make_heat_operator, gaussian_datum
from oracles import heat_kernel_gaussian, mode_decay


def mode_problem(k=1.0, n=64, reaction=None, source=None):
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, n)
    init = lambda pts: np.exp(1j * k * pts[0])
    return ps.CauchyProblem(grid, op, init, reaction=reaction, source=source), grid


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        ps.SolverConfig(dt=0.0)
    with pytest.raises(ConfigurationError, match="unknown integrator"):
        ps.SolverConfig(integrator="rk4")
    with pytest.raises(ConfigurationError):
        ps.SolverConfig(snapshot_stride=0)


@pytest.mark.parametrize("field, value", [
    ("gmres_tol", -1.0), ("gmres_tol", np.nan), ("gmres_tol", 0.0), ("gmres_tol", np.inf),
    ("picard_tol", 0.0), ("picard_tol", np.nan), ("max_window_halvings", -1), ("p", 0.5), ("p", 1.0),
    ("window", -1.0), ("window", 0.0), ("window", np.inf), ("dt", np.inf), ("dt", np.nan),
])
def test_solver_config_rejects_each_bad_field_by_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ps.SolverConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("picard_max_iter", 1.5), ("snapshot_stride", 2.5),
                                          ("max_window_halvings", 0.5), ("snapshot_stride", 2.0),
                                          ("picard_max_iter", True), ("max_window_halvings", "2")])
def test_solver_config_rejects_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ConfigurationError, match=rf"^{field} must be an integer >= [01], got "):
        ps.SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integer_counts():
    counts = dict(picard_max_iter=np.int64(3), snapshot_stride=np.int32(2), max_window_halvings=np.uint8(0))
    config = ps.SolverConfig(**counts)
    assert [getattr(config, name) for name in counts] == [3, 2, 0]


def test_solver_config_accepts_a_tiny_gmres_tolerance_and_no_window():
    assert ps.SolverConfig(gmres_tol=1e-300, window=None, max_window_halvings=0).gmres_tol == 1e-300


def test_problem_validation():
    op = make_heat_operator()
    grid2 = ps.make_grid(2, 5.0, 16)
    with pytest.raises(ConfigurationError, match="dimensions differ"):
        ps.CauchyProblem(grid2, op, gaussian_datum())
    bad_reaction = ps.ReactionSpec(order_half=2, components=1, dim=1, eval=lambda z, t, X: X[0])
    with pytest.raises(ConfigurationError, match="must agree"):
        ps.CauchyProblem(ps.make_grid(1, 5.0, 16), op, gaussian_datum(), reaction=bad_reaction)


@pytest.mark.parametrize("length", [5e-324, 1e-13, 1e-12])
def test_an_integration_too_short_to_march_is_refused(length):
    # it used to march no window at all and fail reading the final row, with an IndexError
    problem = ps.CauchyProblem(ps.make_grid(1, 5.0, 16), make_heat_operator(), gaussian_datum())
    with pytest.raises(ConfigurationError, match="integration length"):
        ps.solve_real(problem, 0.0, length, ps.SolverConfig(dt=0.01))


def test_voc_is_exact_for_frozen_linear_mode():
    problem, grid = mode_problem(k=3.0)
    res = ps.solve_real(problem, 0.0, 0.1, ps.SolverConfig(dt=1e-2))
    want = mode_decay(3.0, 0.1) * np.exp(3j * grid.axis_nodes())
    np.testing.assert_allclose(res.final.values[0], want, atol=1e-12)
    # the frozen propagator reproduces the semigroup in one sweep
    assert all(sw <= 2 for sw in res.diagnostics["picard_iterations"])


def test_imex_converges_at_second_order():
    errs = []
    for dt in (4e-3, 2e-3):
        problem, grid = mode_problem(k=2.0)
        cfg = ps.SolverConfig(dt=dt, integrator="imex")
        res = ps.solve_real(problem, 0.0, 0.1, cfg)
        want = mode_decay(2.0, 0.1) * np.exp(2j * grid.axis_nodes())
        errs.append(np.max(np.abs(res.final.values[0] - want)))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_heat_gaussian_matches_kernel(heat_problem):
    res = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=1e-3))
    x = heat_problem.grid.axis_nodes()
    np.testing.assert_allclose(
        res.final.values[0], heat_kernel_gaussian(x, 0.1), atol=1e-9
    )


def test_complex_ray_matches_kernel(heat_problem):
    mu = 1.0 + 0.3j
    res = ps.solve_complex_ray(heat_problem, mu, 0.3, ps.SolverConfig(dt=1e-3))
    x = heat_problem.grid.axis_nodes()
    np.testing.assert_allclose(
        res.final.values[0], heat_kernel_gaussian(x, mu * 0.3), atol=1e-8
    )
    assert res.times[-1] == pytest.approx(mu * 0.3, abs=1e-12)


def test_ray_rotation_outside_disc_rejected(heat_problem):
    with pytest.raises(DomainError, match="admissible disc"):
        ps.solve_complex_ray(heat_problem, 1.0 + 0.8j, 0.1, ps.SolverConfig(dt=1e-2))


@pytest.mark.parametrize("integrator", ["picard_voc", "imex"])
def test_a_ray_outside_the_disc_is_refused_before_any_march(heat_problem, integrator, monkeypatch):
    # the disc is a rule of the ray API, checked once before the solve, not in every window
    for name in ("_picard_window", "_march_imex"):
        monkeypatch.setattr(parastrip.solver, name, lambda *a, name=name: pytest.fail(f"{name} was called"))
    config = ps.SolverConfig(dt=1e-2, integrator=integrator)
    with pytest.raises(DomainError, match=r"^ray rotation mu=\(1\+0\.8j\) leaves the admissible disc of radius"):
        ps.solve_complex_ray(heat_problem, 1.0 + 0.8j, 0.1, config)


def test_path_reaches_complex_target(heat_problem):
    res = ps.solve_along_path(heat_problem, 0.5, 0.1, 0.2, ps.SolverConfig(dt=1e-3))
    assert res.times[-1] == pytest.approx(0.5 + 0.1j, abs=1e-12)
    x = heat_problem.grid.axis_nodes()
    np.testing.assert_allclose(
        res.final.values[0], heat_kernel_gaussian(x, 0.5 + 0.1j), atol=1e-8
    )
    assert len(res.diagnostics["segments"]) == 2


def test_a_path_split_at_its_target_is_one_ray(heat_problem):
    config = ps.SolverConfig(dt=1e-3)
    res = ps.solve_along_path(heat_problem, 0.2, 0.05, 0.2, config)
    ray = ps.solve_complex_ray(heat_problem, 1.0 + 0.25j, 0.2, config)
    np.testing.assert_array_equal(res.times, ray.times)
    np.testing.assert_array_equal(res.final.values, ray.final.values)
    assert res.diagnostics["segments"] == [ray.diagnostics["windows"]]


def test_path_rejects_targets_outside_sector(heat_problem):
    # angle pi/4: reach tan(angle) t_prime = 0.2 < 0.3
    with pytest.raises(DomainError, match="temporal domain"):
        ps.solve_along_path(heat_problem, 0.5, 0.3, 0.2, ps.SolverConfig(dt=1e-2))
    with pytest.raises(ConfigurationError, match="sigma >="):
        ps.solve_along_path(heat_problem, 0.1, 0.05, 0.2, ps.SolverConfig(dt=1e-2))


def test_source_term_duhamel():
    # u' = -k^2 u + e^{ikx}, u(0) = 0  =>  u(t) = (1 - e^{-k^2 t}) / k^2 e^{ikx}
    k = 2.0

    def source(t, grid, shift):
        x = grid.meshgrid().astype(np.complex128) + np.asarray(shift).reshape(1, 1)
        return np.exp(1j * k * x[0])[np.newaxis]

    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    problem = ps.CauchyProblem(grid, op, lambda pts: np.zeros_like(pts[0]), source=source)
    res = ps.solve_real(problem, 0.0, 0.2, ps.SolverConfig(dt=1e-3))
    want = (1.0 - np.exp(-k * k * 0.2)) / (k * k) * np.exp(1j * k * grid.axis_nodes())
    np.testing.assert_allclose(res.final.values[0], want, atol=1e-9)


def test_linear_reaction_shifts_decay_rate():
    # u' = -k^2 u + c u on one mode decays at rate k^2 - c
    c, k = 0.5, 1.0
    reaction = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: c * X[0])
    problem, grid = mode_problem(k=k, reaction=reaction)
    res = ps.solve_real(problem, 0.0, 0.2, ps.SolverConfig(dt=1e-3))
    want = np.exp((c - k * k) * 0.2) * np.exp(1j * k * grid.axis_nodes())
    np.testing.assert_allclose(res.final.values[0], want, atol=1e-8)


def test_a_problem_built_by_replace_solves_on_its_new_operators_time_domain():
    grid = ps.make_grid(1, np.pi, 16)
    problem = ps.CauchyProblem(grid, make_heat_operator(), gaussian_datum())
    assert "temporal" not in inspect.signature(ps.CauchyProblem).parameters
    assert problem.temporal is problem.op.temporal
    config = ps.SolverConfig(dt=0.05)
    with pytest.raises(DomainError, match=r"horizon 2\.0\)"):
        ps.solve_real(problem, 0.0, 3.0, config)
    wider = dataclasses.replace(problem, op=make_heat_operator(horizon=4.0))
    assert wider.temporal is wider.op.temporal
    assert ps.solve_real(wider, 0.0, 3.0, config).times[-1] == pytest.approx(3.0)
    narrower = dataclasses.replace(problem, op=make_heat_operator(horizon=1.5))
    assert narrower.temporal.horizon == 1.5
    with pytest.raises(DomainError, match=r"horizon 1\.5\)"):
        ps.solve_real(narrower, 0.0, 1.75, config)


def test_voc_rejects_systems():
    op = ps.DivergenceOperator.from_terms(
        order_half=1,
        components=2,
        dim=1,
        term_map={((1,), (1,)): 1.0},
        strip=ps.StripSpec(np.inf),
        temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    grid = ps.make_grid(1, np.pi, 32)
    init = lambda pts: np.stack([np.exp(1j * pts[0]), np.exp(-1j * pts[0])])
    problem = ps.CauchyProblem(grid, op, init)
    with pytest.raises(ConfigurationError, match="imex"):
        ps.solve_real(problem, 0.0, 0.05, ps.SolverConfig(dt=1e-2))
    res = ps.solve_real(problem, 0.0, 0.05, ps.SolverConfig(dt=1e-3, integrator="imex"))
    assert res.final.components == 2


def test_complex_shift_uses_analytic_continuation(heat_problem):
    shift = np.array([0.2j])
    res = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=1e-3), shift=shift)
    x = heat_problem.grid.axis_nodes() + 0.2j
    np.testing.assert_allclose(
        res.final.values[0], heat_kernel_gaussian(x, 0.1), atol=1e-8
    )


def test_snapshot_stride_thins_trajectory(heat_problem):
    cfg = ps.SolverConfig(dt=1e-2, snapshot_stride=5)
    res = ps.solve_real(heat_problem, 0.0, 0.1, cfg)
    assert len(res) == 3                       # start, step 5, final step 10
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.1)
    dense = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=1e-2))
    assert len(dense) == 11
    np.testing.assert_allclose(res.final.values, dense.final.values, atol=1e-12)
    # the snapshots pin no memory beyond their own values: no window stack stays alive
    kept = [f.values for f in res.fields + res.time_derivatives]
    owners = {}
    for v in kept:
        owner = v if v.base is None else v.base
        owners[id(owner)] = owner
    assert sum(o.nbytes for o in owners.values()) == sum(v.nbytes for v in kept)


def test_time_derivatives_report_rhs(heat_problem):
    res = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=1e-2))
    rhs = ps.apply_operator(heat_problem.op, res.final, 0.1)
    np.testing.assert_allclose(
        res.time_derivatives[-1].values, -rhs.values, atol=1e-10
    )


def test_imex_time_derivatives_are_fresh_rhs_on_variable_2d_problem():
    calls = []

    def diffusion(z, t):
        calls.append(t)
        return (1.0 + 0.5 * t) * (1.0 + 0.3 * np.cos(z[0]) * np.cos(z[1]))

    op = ps.DivergenceOperator.from_terms(
        1, 1, 2, {((1, 0), (1, 0)): diffusion, ((0, 1), (0, 1)): 0.5},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    grid = ps.make_grid(2, np.pi, 16)

    def source(t, grid_, shift):
        pts = grid_.meshgrid() + np.asarray(shift).reshape(2, 1, 1)
        return (np.sin(pts[0]) * np.exp(-t))[np.newaxis]

    init = lambda pts: np.exp(np.cos(pts[0]) + 1j * np.sin(pts[1]))
    problem = ps.CauchyProblem(grid, op, init, source=source)
    shift = np.array([0.1j, -0.2j])
    res = ps.solve_real(problem, 0.0, 0.05, ps.SolverConfig(dt=0.01, integrator="imex"), shift=shift)
    assert len(res) == 6
    # the march evaluates the coefficient once per distinct time node
    assert calls == list(res.times)
    calls.clear()
    for t, w, du in zip(res.times, res.fields, res.time_derivatives):
        explicit = np.zeros((1,) + grid.shape, dtype=np.complex128)
        explicit += source(t, grid, shift)
        want = -ps.apply_operator(op, w, t, shift).values + explicit
        np.testing.assert_array_equal(du.values, want)
    # reading the derivatives evaluates it once per stored row but the last, whose
    # coefficients the march's final solve left in the plan; then the fresh checks above
    assert calls == list(res.times[:-1]) + list(res.times)


def test_maxreg_passes_the_callers_config_through(rng, monkeypatch):
    seen = []

    def spy(problem, t0, horizon, config=None, shift=None):
        seen.append(config)
        return solve_real(problem, t0, horizon, config, shift)

    solve_real = parastrip.solver.solve_real
    monkeypatch.setattr(parastrip.solver, "solve_real", spy)
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    ens = ps.default_maxreg_ensemble(grid, 1, 3, rng, support=0.05)
    cfg = ps.SolverConfig(dt=1.0 / 64, max_window_halvings=2, check_reaction_domain=False, p=3.0,
                          gmres_tol=1e-9, snapshot_stride=4)
    ps.estimate_max_reg_constant(op, grid, 0.25, 4.0, ens, cfg)
    assert len(seen) == 3
    for run_cfg in seen:
        assert (run_cfg.max_window_halvings, run_cfg.check_reaction_domain, run_cfg.p) == (2, False, 3.0)
        assert run_cfg.gmres_tol == 1e-9
        assert (run_cfg.dt, run_cfg.snapshot_stride) == (1.0 / 64, 1)


def test_step_constants_formulas():
    c = ps.StepConstants(p=2.0, max_reg=1.0, coercivity_lower=1.0, operator_bound=1.0)
    delta, t1 = ps.step_size_from_estimates(c)
    assert delta == pytest.approx(0.25, abs=1e-15)
    assert t1 == pytest.approx(2.0 ** -0.5, abs=1e-15)
    # stronger coercivity allows a larger rotation fraction
    c2 = ps.StepConstants(p=2.0, max_reg=1.0, coercivity_lower=1.0, operator_bound=2.0)
    assert ps.contraction_step_fraction(c2) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ConfigurationError):
        ps.StepConstants(p=2.0, max_reg=-1.0, coercivity_lower=1.0, operator_bound=1.0)
    with pytest.raises(ConfigurationError):
        ps.StepConstants(p=2.0, max_reg=1.0, coercivity_lower=2.0, operator_bound=1.0)


def test_horizon_shrinks_with_larger_constants():
    base = ps.StepConstants(p=4.0, max_reg=1.0, coercivity_lower=1.0, operator_bound=1.0)
    worse = ps.StepConstants(
        p=4.0, max_reg=1.0, coercivity_lower=1.0, operator_bound=1.0, perturbation_lipschitz=2.0
    )
    assert ps.analyticity_time_horizon(worse) < ps.analyticity_time_horizon(base)
    with pytest.raises(ConfigurationError):
        ps.analyticity_time_horizon(base, delta=1.5)


def test_maxreg_ensemble_shapes(rng):
    grid = ps.make_grid(1, np.pi, 64)
    ens = ps.default_maxreg_ensemble(grid, 1, 6, rng, support=0.1)
    assert len(ens) == 6
    kinds = [(s.source is None, float(np.max(np.abs(s.initial.values))) > 0.0) for s in ens]
    assert (True, True) in kinds               # pure initial data
    assert (False, False) in kinds             # pure forcing
    assert (False, True) in kinds              # both
    with pytest.raises(ConfigurationError):
        ps.default_maxreg_ensemble(grid, 1, 2, rng, support=0.1)


def test_maxreg_estimator_guards(rng):
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    ens = ps.default_maxreg_ensemble(grid, 1, 3, rng, support=0.1)
    with pytest.raises(ConfigurationError, match="does not land"):
        ps.estimate_max_reg_constant(op, grid, [0.3, 1.0], 4.0, ens, ps.SolverConfig(dt=1.0 / 64))
    long_forcing = [ps.MaxRegSample(initial=ens[0].initial, source=lambda t: ens[0].initial.values, support=0.9)]
    with pytest.raises(ConfigurationError, match="support must fit"):
        ps.estimate_max_reg_constant(op, grid, [0.5, 1.0], 4.0, long_forcing, ps.SolverConfig(dt=1.0 / 64))


def test_maxreg_evaluates_each_forcing_twice_per_node(rng):
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    calls = []

    def counted(f):
        return lambda t: calls.append(t) or f(t)

    ens = [s if s.source is None else dataclasses.replace(s, source=counted(s.source))
           for s in ps.default_maxreg_ensemble(grid, 1, 3, rng, support=0.125)]
    got = ps.estimate_max_reg_constant(op, grid, 0.25, 4.0, ens, ps.SolverConfig(dt=1.0 / 64))
    # two forced samples, 17 nodes each: the march, then g at the nodes for the ratio
    assert len(calls) == 2 * 2 * 17
    # the value of the estimator that also evaluated g for the time derivatives, bit for bit, since
    # the norms raise |v|^4 as (re^2 + im^2)^2 (5.022790438256732 with np.abs(v) ** 4)
    assert got == 5.022790438256727


def test_maxreg_single_horizon_returns_float(rng):
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    ens = ps.default_maxreg_ensemble(grid, 1, 3, rng, support=0.05)
    got = ps.estimate_max_reg_constant(op, grid, 0.25, 4.0, ens, ps.SolverConfig(dt=1.0 / 128))
    assert isinstance(got, float) and got > 0.0


def test_picard_window_evaluates_coefficients_once_per_node():
    calls = []

    def diffusion(z, t):
        calls.append(t)
        return (1.0 + t) * (1.0 + 0.5 * np.cos(z[0]))

    op = ps.DivergenceOperator.from_terms(
        1, 1, 1, {((1,), (1,)): diffusion, ((0,), (0,)): 0.5},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    problem = ps.CauchyProblem(ps.make_grid(1, np.pi, 32), op, lambda pts: np.exp(np.cos(pts[0])))
    res = ps.solve_real(problem, 0.0, 0.08, ps.SolverConfig(dt=0.01, window=0.04))
    sweeps = res.diagnostics["picard_iterations"]
    assert len(sweeps) == 2 and min(sweeps) >= 2
    # nodes 0.00 .. 0.08; the shared window boundary 0.04 is evaluated once
    assert len(calls) == 9
    assert calls == list(res.times)


@settings(max_examples=20, deadline=None)
@given(
    diffusivity=st.floats(min_value=0.2, max_value=2.0),
    y=st.floats(min_value=-0.9, max_value=0.9),
    radius=st.floats(min_value=0.0, max_value=0.99),
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_picard_takes_one_sweep_per_window_on_constant_linear_heat(diffusivity, y, radius, phase):
    # the frozen generator is the generator, so the first sweep reproduces the semigroup
    angle = np.pi / 4
    op = make_heat_operator(diffusivity=diffusivity, strip_width=1.0, angle=angle)
    problem = ps.CauchyProblem(ps.make_grid(1, 10.0, 64), op, ps.HermiteData(np.array([1.0]), 1))
    mu = 1.0 + radius * np.sin(angle) * np.exp(1j * phase)
    res = ps.solve_complex_ray(problem, mu, 0.1, ps.SolverConfig(dt=0.01, window=0.03), shift=[1j * y])
    assert res.diagnostics["picard_iterations"] == [1, 1, 1, 1]


def _forcing_problem(dim):
    # a reaction that reads every jet slot, the points and the node time, plus a source
    def reaction(z, t, X):
        return np.exp(0.3j * z[-1]) * X[0] * X[-1] + t * X[0] ** 2 - 0.5 * X[1]

    def source(t, grid_, shift):
        pts = grid_.meshgrid() + np.asarray(shift).reshape((dim,) + (1,) * dim)
        return (np.cos(pts[0]) * np.exp(-t))[np.newaxis]

    grid = ps.make_grid(dim, np.pi, 16)
    op = make_heat_operator(dim=dim, strip_width=1.0)
    spec = ps.ReactionSpec(order_half=1, components=1, dim=dim, eval=reaction)
    init = lambda pts: np.exp(np.cos(sum(pts)))
    return ps.CauchyProblem(grid, op, init, reaction=spec, source=source), grid


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_forcing_equals_a_per_node_nemytskii_loop(dim, rng):
    from parastrip.solver import _add_forcing, _fftn, _jet_fields

    problem, grid = _forcing_problem(dim)
    shift = np.full(dim, 0.2j)
    plan = ps.OperatorPlan(problem.op, grid, shift)
    B = 5
    stack = rng.standard_normal((B, 1) + grid.shape) + 1j * rng.standard_normal((B, 1) + grid.shape)
    ts = 0.1 + 0.02j * np.arange(B)
    base = rng.standard_normal((B, 1) + grid.shape).astype(np.complex128)
    hat = _fftn(stack, grid)
    got = _add_forcing(problem, plan, hat, ts, ps.SolverConfig(), base.copy())

    jets = _jet_fields(hat, problem.reaction.jet_indices, grid)
    want = base.copy()
    direct = base.copy()
    for b, t in enumerate(ts):
        node_jets = [ps.ComplexField(grid, j[b]) for j in jets]
        want[b] += ps.nemytskii(problem.reaction, node_jets, shift, t, grid).values
        direct[b] += problem.reaction.eval(plan.points, t, np.stack([j[b] for j in jets]))
    for b, t in enumerate(ts):
        want[b] += problem.source(t, grid, shift)
        direct[b] += problem.source(t, grid, shift)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, direct)


@pytest.mark.parametrize("config", [ps.SolverConfig(dt=0.01, window=0.04, snapshot_stride=3),
                                    ps.SolverConfig(dt=0.01, integrator="imex")],
                         ids=["picard_voc", "imex"])
def test_solve_real_stores_the_rows_its_hook_holds_and_the_last(config):
    from parastrip.analyticity import _at_times

    # forced: the imex march hands its due rows to the hook in runs as it makes them
    problem, _ = _forcing_problem(1)
    full = ps.solve_real(problem, 0.0, 0.1, config)
    held, calls, seen = full.times[:-1:3], set(), []

    def keep(index, times, block):
        calls.add((index, block.flags.writeable))
        seen.extend(times)
        return _at_times(times, held)

    thin = ps.solve_real(problem, 0.0, 0.1, config, keep=keep)
    assert calls == {(0, False)}                   # member 0, read-only blocks
    np.testing.assert_array_equal(seen, full.times)
    picks = list(range(0, len(full.times) - 1, 3)) + [len(full.times) - 1]
    assert len(picks) < len(full.times)
    np.testing.assert_array_equal(thin.times, full.times[picks])
    for a, j in zip(thin.fields, picks):
        np.testing.assert_array_equal(a.values, full.fields[j].values)
    assert thin.diagnostics["picard_iterations"] == full.diagnostics["picard_iterations"]


@pytest.mark.parametrize("integrator", ["picard_voc", "imex"])
@pytest.mark.parametrize("answer, got", [(lambda n: np.ones(n - 1, bool), r"shape \(\d+,\)"),
                                         (lambda n: True, "True"), (lambda n: None, "None")],
                         ids=["short", "scalar", "none"])
def test_a_hook_that_returns_no_mask_of_its_rows_raises_a_configuration_error(heat_problem, integrator,
                                                                              answer, got):
    config = ps.SolverConfig(dt=0.01, integrator=integrator)
    offered = []

    def keep(index, times, block):
        offered.append(len(times))
        return answer(len(times))

    pattern = rf"row hook keep must return one boolean per row of (\d+), got {got}$"
    with pytest.raises(ConfigurationError, match=pattern) as info:
        ps.solve_real(heat_problem, 0.0, 0.05, config, keep=keep)
    assert info.match(rf"of {offered[-1]}, ")
    with pytest.raises(ConfigurationError, match=pattern):
        ps.solve_shift_family(heat_problem, [-0.1, 0.0, 0.1], 0.0, 0.05, config, keep=keep)


@pytest.mark.parametrize("config", [ps.SolverConfig(dt=0.01, window=0.04, snapshot_stride=3),
                                    ps.SolverConfig(dt=0.01, integrator="imex")],
                         ids=["picard_voc", "imex"])
def test_every_stored_time_derivative_is_a_fresh_rhs_of_its_row(config):
    from parastrip.solver import _fftn, _jet_fields

    problem, grid = _forcing_problem(1)
    op = ps.DivergenceOperator.from_terms(
        1, 1, 1, {((1,), (1,)): lambda z, t: (1.0 + 0.5 * t) * (1.0 + 0.3 * np.cos(z[0]))},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    problem = ps.CauchyProblem(grid, op, problem.initial, reaction=problem.reaction, source=problem.source)
    shift = np.array([0.1j])
    res = ps.solve_real(problem, 0.0, 0.1, config, shift=shift)
    if config.integrator == "picard_voc":
        assert len(res.diagnostics["windows"]) == 3 and len(res) == 5
    spec = problem.reaction
    # -P u + F + g of the stored row itself, the start row included
    for t, w, du in zip(res.times, res.fields, res.time_derivatives):
        want = -ps.apply_operator(op, w, t, shift).values
        hat = _fftn(w.values[np.newaxis], grid)
        jets = [ps.ComplexField(grid, j[0]) for j in _jet_fields(hat, spec.jet_indices, grid)]
        want += ps.nemytskii(spec, jets, shift, t, grid).values
        want += problem.source(t, grid, shift)
        np.testing.assert_array_equal(du.values, want)


def _count_stack_transforms(monkeypatch):
    """One entry per solver._fftn and _ifftn call, by name: whether the call transforms the value
    _add_forcing returned last (F + g)."""
    calls, forcing = {"_fftn": [], "_ifftn": []}, []
    for name in calls:
        inner = getattr(parastrip.solver, name)

        def spy(values, *a, inner=inner, name=name, **kw):
            calls[name].append(bool(forcing) and np.shares_memory(values, forcing[-1]))
            return inner(values, *a, **kw)

        monkeypatch.setattr(parastrip.solver, name, spy)
    add = parastrip.solver._add_forcing
    monkeypatch.setattr(parastrip.solver, "_add_forcing",
                        lambda *a, **kw: forcing.append(add(*a, **kw)) or forcing[-1])
    return calls


def test_a_picard_window_transforms_its_coefficients_once_in_and_each_iterate_once_out(monkeypatch):
    calls = _count_stack_transforms(monkeypatch)
    problem, _ = mode_problem()
    res = ps.solve_real(problem, 0.0, 0.04, ps.SolverConfig(dt=0.01, window=0.04))
    # the start's coefficients, then the free flight's inverse transform: an unforced constant
    # window is its own free flight and skips the sweep
    assert res.diagnostics["picard_iterations"] == [1]
    assert (len(calls["_fftn"]), len(calls["_ifftn"])) == (1, 1)


def test_a_sweeping_picard_window_transforms_each_iterate_once_out(monkeypatch):
    calls = _count_stack_transforms(monkeypatch)
    res = ps.solve_real(_variable_heat_on_eight_points(), 0.0, 0.04, ps.SolverConfig(dt=0.01, window=0.04))
    (sweeps,) = res.diagnostics["picard_iterations"]
    assert sweeps >= 2
    # the start's coefficients, then the free flight's inverse transform and one per sweep
    assert (len(calls["_fftn"]), len(calls["_ifftn"])) == (1, 1 + sweeps)


def _constant_operator(terms, horizon=2.0):
    return ps.DivergenceOperator.from_terms(1, 1, 1, terms, ps.StripSpec(1.0),
                                            ps.TemporalDomain(np.pi / 4, 1.0, horizon))


def _count_applies(monkeypatch):
    applies = []
    inner = ps.OperatorPlan.apply_hat
    monkeypatch.setattr(ps.OperatorPlan, "apply_hat", lambda *a, **kw: applies.append(1) or inner(*a, **kw))
    return applies


def test_an_unforced_constant_window_returns_its_free_flight_bit_for_bit(monkeypatch):
    from parastrip.grid import _fftn, _ifftn, derivative_multiplier

    terms = {((1,), (1,)): 0.7, ((0,), (1,)): -0.2j, ((0,), (0,)): 0.3}
    grid = ps.make_grid(1, 10.0, 64)
    problem = ps.CauchyProblem(grid, _constant_operator(terms), gaussian_datum())
    applies = _count_applies(monkeypatch)
    # one window of 8 steps of 2^-7, binary fractions both
    res = ps.solve_real(problem, 0.0, 2.0 ** -4, ps.SolverConfig(dt=2.0 ** -7, window=2.0 ** -4))
    assert res.diagnostics["picard_iterations"] == [1] and applies == []
    # the frozen symbol takes each constant coefficient as it is, not as a mean of its samples
    symbol = np.zeros(grid.shape, dtype=np.complex128)
    for (alpha, beta), c in terms.items():
        symbol += c * derivative_multiplier(grid, alpha) * derivative_multiplier(grid, beta)
    mu, dt = 1.0 + 0.0j, 2.0 ** -7
    propagator = np.exp(-mu * dt * symbol)
    flight = [_fftn(res.fields[0].values[np.newaxis], grid)[0]]
    for _ in range(8):
        flight.append(propagator * flight[-1])
    want = _ifftn(np.stack(flight), grid)
    assert len(res.fields) == 9
    for j in range(1, 9):
        np.testing.assert_array_equal(res.fields[j].values, want[j])


def test_a_free_flight_that_overflows_raises_through_the_exit(monkeypatch):
    # u' = 800 u from data of size 1e300: four steps of dt = 0.01 grow it by e^32 and overflow
    grid = ps.make_grid(1, np.pi, 16)
    op = _constant_operator({((1,), (1,)): 1.0, ((0,), (0,)): -800.0})
    problem = ps.CauchyProblem(grid, op, ps.ComplexField(grid, np.full((1, 16), 1e300 + 0j)))
    applies = _count_applies(monkeypatch)
    with pytest.raises(InstabilityError, match=r"non-finite iterate in window \(0\.0, 0\.04\) at sweep 1"), \
            np.errstate(over="ignore", invalid="ignore"):
        ps.solve_real(problem, 0.0, 0.04, ps.SolverConfig(dt=0.01, window=0.04))
    assert applies == []


def test_a_constant_diffusivity_that_changes_in_time_keeps_its_part_of_the_bracket():
    # a(t) = 1 + t is constant in x but not in t: each window freezes a(t_0), and the sweep must
    # integrate (a(t_0) - a(t_j)) k^2 w^ to reach exp(-k^2 (t + t^2 / 2))
    op = _constant_operator({((1,), (1,)): lambda z, t: 1.0 + t})
    assert not op.autonomous
    problem, grid = mode_problem(k=3.0)
    problem = dataclasses.replace(problem, op=op)
    res = ps.solve_real(problem, 0.0, 0.1, ps.SolverConfig(dt=0.01, window=0.04))
    want = np.exp(-9.0 * (0.1 + 0.1 ** 2 / 2)) * np.exp(3j * grid.axis_nodes())
    # second order in dt: 5.1e-5 off here; windows frozen at a(t_0) alone would be 6.3e-3 off
    np.testing.assert_allclose(res.final.values[0], want, rtol=0.0, atol=1e-4)
    assert len(res.diagnostics["picard_iterations"]) == 3
    assert min(res.diagnostics["picard_iterations"]) >= 2


def test_a_forced_picard_sweep_transforms_only_its_forcing_forward(monkeypatch):
    calls = _count_stack_transforms(monkeypatch)
    problem, _ = _forcing_problem(1)
    res = ps.solve_real(problem, 0.0, 0.04, ps.SolverConfig(dt=0.01, window=0.04))
    (sweeps,) = res.diagnostics["picard_iterations"]
    assert sweeps >= 2
    # after the start, one forward transform per sweep, of F + g
    assert calls["_fftn"] == [False] + [True] * sweeps


def test_a_source_only_window_judges_its_first_iterate_again_as_its_second_sweep(monkeypatch):
    # no reaction and a constant operator: h = FFT(g) reads no iterate, so a second sweep would give
    # back the first one's iterate with delta = 0.  The window judges that iterate again instead and
    # keeps the rows and sweep counts of a twin whose all-zero reaction takes every sweep
    from parastrip.errors import ConvergenceError

    problem, _ = _forcing_problem(1)
    source_only = dataclasses.replace(problem, reaction=None)
    zero = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: 0.0 * X[0])
    twin = dataclasses.replace(problem, reaction=zero)
    config = ps.SolverConfig(dt=0.01, window=0.04)
    brackets = []
    inner = parastrip.solver._bracket
    monkeypatch.setattr(parastrip.solver, "_bracket", lambda *a: brackets.append(1) or inner(*a))
    got = ps.solve_real(source_only, 0.0, 0.08, config)
    assert len(brackets) == 2
    brackets.clear()
    want = ps.solve_real(twin, 0.0, 0.08, config)
    assert len(brackets) == 4
    assert got.diagnostics["picard_iterations"] == want.diagnostics["picard_iterations"] == [2, 2]
    assert got.diagnostics["windows"] == want.diagnostics["windows"]
    assert all(w["contraction_ratio"] is None for w in got.diagnostics["windows"])
    np.testing.assert_array_equal(got.times, want.times)
    for a, b in zip(got.fields, want.fields):
        np.testing.assert_array_equal(a.values, b.values)
    # the first sweep is still judged on its own: a budget of one sweep fails there
    with pytest.raises(ConvergenceError, match="more than 1 sweeps"):
        ps.solve_real(source_only, 0.0, 0.08, dataclasses.replace(config, picard_max_iter=1))


@pytest.mark.parametrize("dim", [1, 2])
def test_an_imex_step_takes_the_value_jet_from_a_transformed_node(monkeypatch, dim):
    # 10 steps at stride 3 transform the due nodes 3, 6, 9 and 10.  The explicit parts of nodes
    # 0 to 9 and node 1's corrector take every jet from the coefficients, but beta = 0 at nodes
    # 3, 6 and 9 from their values: three inverse transforms fewer, with the bits of the three
    problem, _ = _forcing_problem(dim)
    config = ps.SolverConfig(dt=0.01, integrator="imex", snapshot_stride=3)
    calls = []
    ifftn = parastrip.solver._ifftn
    monkeypatch.setattr(parastrip.solver, "_ifftn", lambda *a, **kw: calls.append(1) or ifftn(*a, **kw))
    got = ps.solve_real(problem, 0.0, 0.1, config)
    assert len(calls) == 4 + 11 * problem.reaction.n_slots - 3
    jets = parastrip.solver._jet_fields
    monkeypatch.setattr(parastrip.solver, "_jet_fields",
                        lambda hat, indices, grid, values=None: jets(hat, indices, grid))
    calls.clear()
    want = ps.solve_real(problem, 0.0, 0.1, config)
    assert len(calls) == 4 + 11 * problem.reaction.n_slots
    np.testing.assert_array_equal(got.times, want.times)
    for a, b in zip(got.fields, want.fields):
        np.testing.assert_array_equal(a.values, b.values)


def test_reaction_runs_once_per_sweep():
    problem, grid = _forcing_problem(1)
    calls = []
    inner = problem.reaction.eval

    def spy(z, t, X):
        calls.append((z.shape, np.shape(t), X.shape))
        return inner(z, t, X)

    problem.reaction.eval = spy
    res = ps.solve_real(problem, 0.0, 0.08, ps.SolverConfig(dt=0.01, window=0.04))
    sweeps = res.diagnostics["picard_iterations"]
    assert len(sweeps) == 2 and min(sweeps) >= 2
    assert len(calls) == sum(sweeps)
    # one window of 5 nodes per call: points, node times and jets share the batch axis
    assert set(calls) == {((1, 5) + grid.shape, (5, 1), (2, 1, 5) + grid.shape)}


def test_source_runs_once_per_window_node():
    problem, grid = _forcing_problem(1)
    calls = []
    inner = problem.source

    def spy(t, grid_, shift):
        calls.append(complex(t))
        return inner(t, grid_, shift)

    problem.source = spy
    res = ps.solve_real(problem, 0.0, 0.08, ps.SolverConfig(dt=0.01, window=0.04))
    assert min(res.diagnostics["picard_iterations"]) >= 2
    # however many sweeps, one call per distinct node: node 4, which the two
    # windows share, reuses the first window's row
    assert calls == list(res.times)
    assert len(set(calls)) == len(calls) == 9


def test_batched_forcing_names_the_node_and_point_of_the_first_offender():
    from parastrip.solver import _add_forcing, _fftn

    grid = ps.make_grid(1, 2.0, 16)
    plan = ps.OperatorPlan(make_heat_operator(), grid)
    ts = np.array([0.0, 0.25, 0.5, 0.75])
    stack = np.full((4, 1) + grid.shape, 0.1 + 0j)
    stack[2, 0, 5] = stack[3, 0, 1] = 2.0        # rows b = 2 and 3 leave the domain; 2 comes first
    spec = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: X[0],
                           domain_check=lambda X: np.abs(X[0]) < 1.0)
    problem = ps.CauchyProblem(grid, plan.op, lambda pts: np.zeros_like(pts[0]), reaction=spec)
    point = float(grid.axis_nodes()[5])
    hat = _fftn(stack, grid)
    with pytest.raises(DomainError, match=rf"grid point \({point},\) \(t=0.5\)"):
        _add_forcing(problem, plan, hat, ts, ps.SolverConfig(), np.zeros_like(stack))
    # the check can be switched off; then non-finite jets and values are instabilities
    _add_forcing(problem, plan, hat, ts, ps.SolverConfig(check_reaction_domain=False), np.zeros_like(stack))
    nan_stack = np.full_like(stack, 0.1)
    nan_stack[1, 0, 3] = np.nan
    with pytest.raises(InstabilityError, match=r"non-finite jet value .*\(t=0.25\)"):
        _add_forcing(problem, plan, _fftn(nan_stack, grid), ts, ps.SolverConfig(), np.zeros_like(stack))
    spec.eval = lambda z, t, X: np.where(np.abs(X[0]) > 1.0, np.inf, X[0])
    offender = rf"non-finite reaction value at grid point \({point},\) \(t=0.5\)"
    with pytest.raises(InstabilityError, match=offender):
        _add_forcing(problem, plan, hat, ts, ps.SolverConfig(check_reaction_domain=False),
                     np.zeros_like(stack))


def test_maxreg_fits_the_block_count_to_the_grid(rng):
    op = make_heat_operator()
    ens = ps.default_maxreg_ensemble(ps.make_grid(1, 10.0, 128), 1, 3, rng, support=0.25)
    # L = 10, n = 128 hosts 3 dyadic blocks (Nyquist 20.1), not the NormParams default of 4
    got = ps.estimate_max_reg_constant(op, ps.make_grid(1, 10.0, 128), 0.25, 4.0, ens,
                                       ps.SolverConfig(dt=1.0 / 64))
    assert got > 0.0
    coarse = ps.make_grid(1, 10.0, 64)
    ens = ps.default_maxreg_ensemble(coarse, 1, 3, rng, support=0.25)
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.estimate_max_reg_constant(op, coarse, 0.25, 4.0, ens, ps.SolverConfig(dt=1.0 / 64))


@pytest.mark.parametrize("case, match", [("grid", "grid.points_per_axis, grid.half_length"),
                                         ("horizons", "does not land"), ("support", "support must fit")])
def test_maxreg_refuses_before_any_solve(rng, monkeypatch, case, match):
    # a coarse grid, a horizon off the time grid or a forcing support past the smallest horizon
    grid = ps.make_grid(1, 10.0, 64 if case == "grid" else 128)
    ens = ps.default_maxreg_ensemble(grid, 1, 3, rng, support=0.4 if case == "support" else 0.25)
    horizons = [0.3, 1.0] if case == "horizons" else [0.25, 0.5]
    solves = []
    monkeypatch.setattr(parastrip.solver, "solve_real", lambda *a, **k: solves.append(a))
    with pytest.raises(ConfigurationError, match=match):
        ps.estimate_max_reg_constant(make_heat_operator(), grid, horizons, 4.0, ens, ps.SolverConfig(dt=1.0 / 64))
    assert solves == []


def _non_normal_system(n=24, seed=3):
    rng = np.random.default_rng(seed)
    A = np.diag(2.0 + rng.uniform(0.0, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n))
    A += np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b, rng


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_gmres_solves_a_non_normal_complex_system(preconditioned, start):
    from parastrip.solver import _gmres

    A, b, rng = _non_normal_system()
    assert not np.allclose(A @ A.conj().T, A.conj().T @ A)
    precond = 1.0 / np.diag(A) if preconditioned else None
    x0 = np.zeros_like(b) if start == "zero" else rng.standard_normal(b.size) + 0j
    x, iterations, converged = _gmres(lambda v: A @ v, b, x0, 1e-12, precond, restart=10)
    assert converged and 0 < iterations
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-9)
    np.testing.assert_array_equal(x0, np.zeros_like(b) if start == "zero" else x0)


def test_gmres_returns_zero_for_a_zero_right_hand_side():
    from parastrip.solver import _gmres

    A, b, rng = _non_normal_system()
    calls = []
    x, iterations, converged = _gmres(lambda v: calls.append(v) or A @ v, np.zeros_like(b),
                                      rng.standard_normal(b.size) + 0j, 1e-12)
    np.testing.assert_array_equal(x, 0.0)
    assert (iterations, converged, calls) == (0, True, [])


def _variable_heat_on_eight_points():
    op = ps.DivergenceOperator.from_terms(
        1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0])},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0), autonomous=True,
    )
    grid = ps.make_grid(1, np.pi, 8)
    return ps.CauchyProblem(grid, op, lambda pts: np.exp(np.cos(pts[0])))


def test_imex_raises_when_gmres_cannot_converge():
    # a tolerance far below rounding cannot be met in 200 restarts
    problem = _variable_heat_on_eight_points()
    cfg = ps.SolverConfig(dt=0.01, integrator="imex", gmres_tol=1e-300, max_window_halvings=0)
    with pytest.raises(ps.ConvergenceError, match="implicit solve failed to converge at t="):
        ps.solve_real(problem, 0.0, 0.02, cfg)
    res = ps.solve_real(problem, 0.0, 0.02, ps.SolverConfig(dt=0.01, integrator="imex"))
    assert [len(w["gmres_iterations"]) for w in res.diagnostics["windows"]] == [3]


def test_imex_gmres_failure_is_not_retried_on_halved_windows(monkeypatch):
    # window halving is picard_voc's remedy: a failed imex march ends the solve at dt, not below it
    march, spans = parastrip.solver._march_imex, []

    def counted(problem, member, s_total, config):
        spans.append(s_total)
        return march(problem, member, s_total, config)

    monkeypatch.setattr(parastrip.solver, "_march_imex", counted)
    cfg = ps.SolverConfig(dt=0.01, integrator="imex", gmres_tol=1e-300)
    with pytest.raises(ps.ConvergenceError, match=r"at t=\(0\.02"):
        ps.solve_real(_variable_heat_on_eight_points(), 0.0, 0.5, cfg)
    assert spans == [0.5]


def _picard_failure():
    """A variable_heat problem whose picard_voc fixed point needs more than 25 sweeps at dt = 0.01."""
    grid = ps.make_grid(1, 3.0, 64)
    op = ps.DivergenceOperator.from_terms(
        1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.25 * np.cos(np.pi * z[0] / 3.0)},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0), autonomous=True,
    )
    return ps.CauchyProblem(grid, op, lambda pts: np.exp(-pts[0] ** 2 / 2))


def test_picard_failure_is_raised_where_it_is_judged():
    problem = _picard_failure()
    with pytest.raises(ps.ConvergenceError) as info:
        ps.solve_real(problem, 0.0, 0.05, ps.SolverConfig(dt=0.01))
    # the window was halved three times, to (0.0, 0.00625), shorter than one step
    assert str(info.value) == (
        "window fixed point needed more than 25 sweeps over (0.0, 0.00625) after 3 window halvings "
        "at solver.dt = 0.01; try a smaller dt or integrator 'imex'")
    tb = info.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code is parastrip.solver._Lane.check.__code__
    # the error pins every frame up to the solve; those of the window and the march hold no locals,
    # so no window stack stays alive through the error
    pinned, frame = {}, tb.tb_frame
    while frame is not None:
        pinned.setdefault(frame.f_code.co_name, dict(frame.f_locals))
        frame = frame.f_back
    assert pinned["_picard_window"] == pinned["_march"] == {}
    assert pinned["_solve"] == {}


@pytest.mark.parametrize("entry", ["solve_real", "solve_shift_family", "cr_residual_time"])
def test_a_dropped_solver_error_keeps_nothing_alive(entry):
    from parastrip.analyticity import cr_residual_time

    problem, config = _picard_failure(), ps.SolverConfig(dt=0.01)
    solve = {"solve_real": lambda: ps.solve_real(problem, 0.0, 0.05, config),
             "solve_shift_family": lambda: ps.solve_shift_family(problem, [-0.1, 0.0, 0.1], 0.0, 0.05, config),
             "cr_residual_time": lambda: cr_residual_time(problem, 1.0, 0.01, 0.05, config)}[entry]

    def fail():
        """A weak reference to the error the solve raises, which is then dropped."""
        try:
            solve()
        except ps.ConvergenceError as exc:
            return weakref.ref(exc)
        raise AssertionError("the solve did not fail")

    def array_bytes():
        arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        return sum(trace.size for trace in tracemalloc.take_snapshot().filter_traces([arrays]).traces)

    fail()                       # the grid fills its caches
    gc.collect()
    gc.disable()                 # no collector: only a reference cycle could keep anything alive
    tracemalloc.start()
    try:
        before = array_bytes()
        error = fail()
        assert error() is None
        assert array_bytes() == before
    finally:
        tracemalloc.stop()
        gc.enable()


def test_gmres_residual_is_minimal_over_each_krylov_space():
    from parastrip.solver import _gmres

    A, b, _ = _non_normal_system(n=12)
    krylov = [b]
    for k in range(1, 9):
        # one cycle of k iterations from zero: x minimizes ||b - A x|| over span{b, ..., A^(k-1) b}
        x, iterations, _ = _gmres(lambda v: A @ v, b, np.zeros_like(b), 1e-30, restart=k, maxiter=1)
        basis, _ = np.linalg.qr(np.stack(krylov, axis=1))
        y = np.linalg.lstsq(A @ basis, b, rcond=None)[0]
        assert iterations == k
        assert np.linalg.norm(b - A @ x) == pytest.approx(np.linalg.norm(b - A @ basis @ y), rel=1e-8)
        krylov.append(A @ krylov[-1])


@pytest.mark.parametrize("restart", [3, 10, 30])
def test_gmres_iterates_as_the_scipy_reference_does(restart):
    linalg = pytest.importorskip("scipy.sparse.linalg")
    from parastrip.solver import _gmres

    for seed in range(3):
        A, b, rng = _non_normal_system(seed=seed)
        x0 = rng.standard_normal(b.size) + 0j
        for precond in (None, 1.0 / np.diag(A)):
            count = []
            want, info = linalg.gmres(A, b, x0=x0.copy(), rtol=1e-12, atol=0.0, restart=restart,
                                      M=None if precond is None else np.diag(precond), maxiter=200,
                                      callback=count.append, callback_type="pr_norm")
            x, iterations, converged = _gmres(lambda v: A @ v, b, x0, 1e-12, precond, restart=restart)
            assert (iterations, converged) == (len(count), info == 0)
            np.testing.assert_allclose(x, want, rtol=1e-9)
