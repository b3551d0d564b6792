import dataclasses

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


def test_path_reaches_complex_target(heat_problem):
    res = ps.solve_along_path(heat_problem, 0.5, 0.1, 0.2, ps.SolverConfig(dt=1e-3))
    assert res.times[-1] == pytest.approx(0.5 + 0.1j, abs=1e-12)
    x = heat_problem.grid.axis_nodes()
    np.testing.assert_allclose(
        res.final.values[0], heat_kernel_gaussian(x, 0.5 + 0.1j), atol=1e-8
    )
    assert len(res.diagnostics["segments"]) == 2


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


@pytest.mark.parametrize("angle, t_prime, horizon, inside", [
    (np.pi / 4, 1.0, 2.0, True),                # the operator's own domain
    (np.pi / 8, 0.5, 1.5, True),
    (np.arctan(0.5), 2.0, 2.0, True),           # a later split under a narrower angle
    (np.arctan(0.9), 1.1, 2.0, True),
    (np.arctan(0.6), 2.0, 2.0, False),          # reaches tau = 1.2 at sigma = 2
    (np.pi / 3, 1.0, 2.0, False),
    (np.pi / 4, 1.5, 2.0, False),
    (np.pi / 4, 0.5, 2.5, False),
])
def test_a_problem_temporal_domain_may_only_narrow_the_operators(angle, t_prime, horizon, inside):
    grid = ps.make_grid(1, np.pi, 16)
    temporal = ps.TemporalDomain(angle, t_prime, horizon)
    build = lambda: ps.CauchyProblem(grid, make_heat_operator(), gaussian_datum(), temporal=temporal)
    if inside:
        assert build().temporal is temporal
    else:
        with pytest.raises(ConfigurationError, match=rf"horizon {horizon}\) is wider than the operator's "
                                                     r"\(angle 0\.785\d*, t' 1\.0, horizon 2\.0\)"):
            build()


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
    # the value of the estimator that also evaluated g for the time derivatives, bit for bit
    assert got == 5.022790438256732


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
    from parastrip.solver import _add_forcing, _jet_fields

    problem, grid = _forcing_problem(dim)
    shift = np.full(dim, 0.2j)
    plan = ps.OperatorPlan(problem.op, grid, shift)
    B = 5
    stack = rng.standard_normal((B, 1) + grid.shape) + 1j * rng.standard_normal((B, 1) + grid.shape)
    ts = 0.1 + 0.02j * np.arange(B)
    base = rng.standard_normal((B, 1) + grid.shape).astype(np.complex128)
    got = _add_forcing(problem, plan, stack, ts, ps.SolverConfig(), base.copy())

    jets = _jet_fields(stack, problem.reaction.jet_indices, grid)
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
def test_every_stored_time_derivative_is_a_fresh_rhs_of_its_row(config):
    from parastrip.solver import _jet_fields

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
        jets = [ps.ComplexField(grid, j[0]) for j in _jet_fields(w.values[np.newaxis], spec.jet_indices, grid)]
        want += ps.nemytskii(spec, jets, shift, t, grid).values
        want += problem.source(t, grid, shift)
        np.testing.assert_array_equal(du.values, want)


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
    from parastrip.solver import _add_forcing

    grid = ps.make_grid(1, 2.0, 16)
    plan = ps.OperatorPlan(make_heat_operator(), grid)
    ts = np.array([0.0, 0.25, 0.5, 0.75])
    stack = np.full((4, 1) + grid.shape, 0.1 + 0j)
    stack[2, 0, 5] = stack[3, 0, 1] = 2.0        # rows b = 2 and 3 leave the domain; 2 comes first
    spec = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: X[0],
                           domain_check=lambda X: np.abs(X[0]) < 1.0)
    problem = ps.CauchyProblem(grid, plan.op, lambda pts: np.zeros_like(pts[0]), reaction=spec)
    point = float(grid.axis_nodes()[5])
    with pytest.raises(DomainError, match=rf"grid point \({point},\) \(t=0.5\)"):
        _add_forcing(problem, plan, stack, ts, ps.SolverConfig(), np.zeros_like(stack))
    # the check can be switched off; then non-finite jets and values are instabilities
    _add_forcing(problem, plan, stack, ts, ps.SolverConfig(check_reaction_domain=False), np.zeros_like(stack))
    nan_stack = np.full_like(stack, 0.1)
    nan_stack[1, 0, 3] = np.nan
    with pytest.raises(InstabilityError, match=r"non-finite jet value .*\(t=0.25\)"):
        _add_forcing(problem, plan, nan_stack, ts, ps.SolverConfig(), np.zeros_like(stack))
    spec.eval = lambda z, t, X: np.where(np.abs(X[0]) > 1.0, np.inf, X[0])
    offender = rf"non-finite reaction value at grid point \({point},\) \(t=0.5\)"
    with pytest.raises(InstabilityError, match=offender):
        _add_forcing(problem, plan, stack, ts, ps.SolverConfig(check_reaction_domain=False),
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


def test_imex_raises_when_gmres_cannot_converge():
    # a tolerance far below rounding cannot be met in 200 restarts
    op = ps.DivergenceOperator.from_terms(
        1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0])},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0), autonomous=True,
    )
    grid = ps.make_grid(1, np.pi, 8)
    problem = ps.CauchyProblem(grid, op, lambda pts: np.exp(np.cos(pts[0])))
    cfg = ps.SolverConfig(dt=0.01, integrator="imex", gmres_tol=1e-300, max_window_halvings=0)
    with pytest.raises(ps.ConvergenceError, match="implicit solve failed to converge at t="):
        ps.solve_real(problem, 0.0, 0.02, cfg)
    res = ps.solve_real(problem, 0.0, 0.02, ps.SolverConfig(dt=0.01, integrator="imex"))
    assert [len(w["gmres_iterations"]) for w in res.diagnostics["windows"]] == [3]


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
