import dataclasses
import math

import numpy as np
import pytest

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError
from parastrip.xva import _pricing_problem


def call_payoff(eps=0.05, strike=1.0):
    return ps.PayoffSpec(kind="smoothed_call", strike=strike, epsilon=eps)


def market(**kw):
    base = dict(sigma=0.2, epsilon=0.05)
    base.update(kw)
    return ps.XvaParams(**base)


def test_xva_params_validation():
    with pytest.raises(ConfigurationError, match="volatility"):
        ps.XvaParams(sigma=0.0)
    with pytest.raises(ConfigurationError, match="epsilon"):
        ps.XvaParams(sigma=0.2, epsilon=1.5)
    with pytest.raises(ConfigurationError, match="lambda_B"):
        ps.XvaParams(sigma=0.2, lambda_B=-0.1)
    with pytest.raises(ConfigurationError, match="recovery"):
        ps.XvaParams(sigma=0.2, R_C=1.2)
    with pytest.raises(ConfigurationError, match="theta_mtm"):
        ps.XvaParams(sigma=0.2, theta_mtm=2.0)
    with pytest.raises(ConfigurationError, match="heston block"):
        ps.XvaParams(sigma=0.2, heston={"kappa": 1.0})
    with pytest.raises(ConfigurationError, match="variance band"):
        ps.XvaParams(
            sigma=0.2,
            heston=dict(kappa=1.0, theta=0.04, sigma_v=0.2, rho=0.0, v_min=0.1, v_max=0.05),
        )


def test_payoff_spec_strip_defaults():
    p = call_payoff(eps=0.05, strike=1.0)
    assert p.admissible_half_width == pytest.approx(math.atan(0.05))
    with pytest.raises(ConfigurationError, match="branch-cut"):
        ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=0.05, admissible_half_width=0.3)
    with pytest.raises(ConfigurationError, match="kind"):
        ps.PayoffSpec(kind="digital", strike=1.0, epsilon=0.05)
    with pytest.raises(ConfigurationError, match="HermiteData"):
        ps.PayoffSpec(kind="hermite_expansion")
    entire = ps.PayoffSpec(kind="hermite_expansion", hermite=ps.HermiteData(np.array([1.0 + 0j]), 1))
    assert entire.admissible_half_width == math.inf


def test_a_payoff_expansion_is_refused_unless_one_dimensional():
    data = ps.HermiteData(np.array([[1.0, 0.5], [0.0, 0.2]], dtype=complex), 2)
    with pytest.raises(ConfigurationError, match="one dimensional in log price"):
        ps.PayoffSpec(kind="hermite_expansion", hermite=data)


@pytest.mark.parametrize("dim, heston", [
    (1, dict(kappa=1.0, theta=0.04, sigma_v=0.2, rho=0.3, v_min=0.02, v_max=0.06)), (2, None)])
def test_the_heston_block_picks_the_generator_and_so_the_grid(dim, heston):
    # with a block the price marches on the 2-D variance chart, without one on the 1-D log-price axis
    with pytest.raises(ConfigurationError, match=f"heston block on a {dim}-D grid"):
        ps.price_riskfree(market(heston=heston), call_payoff(), ps.make_grid(dim, 6.0, 16), 0.05)


def test_terminal_data_call_put_parity():
    eps, strike, L = 0.01, 1.0, 6.0
    call = ps.terminal_data(call_payoff(eps=eps), L)
    put = ps.terminal_data(ps.PayoffSpec(kind="smoothed_put", strike=strike, epsilon=eps), L)
    x = np.linspace(-1.5, 1.5, 31)
    cv = np.asarray(call(x[np.newaxis]))
    pv = np.asarray(put(x[np.newaxis]))
    taper = np.exp(-((1.5 * x / L) ** 8))
    np.testing.assert_allclose(cv - pv, (np.exp(x) - strike) * taper, atol=1e-12)
    # far in the money / out of the money the smoothing is O(eps)
    assert cv[-1] == pytest.approx((np.exp(1.5) - 1.0) * taper[-1], abs=2 * eps)
    assert abs(cv[0]) < eps


def test_terminal_data_respects_declared_strip():
    call = ps.terminal_data(call_payoff(eps=0.05), 6.0)
    inside = call((np.linspace(-1, 1, 9) + 0.04j)[np.newaxis])
    assert np.all(np.isfinite(inside))
    # past arctan(eps/K) the point X = -ln(cos y) + iy maps exp(X) - K
    # exactly onto the branch cut i tan(y)
    y = math.atan(0.06)
    with pytest.raises(DomainError):
        call(np.array([[-math.log(math.cos(y)) + 1j * y]]))


def test_hermite_payoff_fit_is_entire_and_accurate():
    payoff = call_payoff(eps=1e-3, strike=1.0)
    fit = ps.hermite_payoff_fit(payoff, 6.0)
    assert fit.kind == "hermite_expansion"
    assert fit.admissible_half_width == math.inf
    target = ps.terminal_data(payoff, 6.0)
    x = np.linspace(-3.0, 3.0, 601)
    got = ps.eval_hermite(fit.hermite, x[np.newaxis])
    err = np.abs(got - np.asarray(target(x[np.newaxis])))
    assert np.max(err) < 0.05
    assert np.max(err[np.abs(x) > 0.5]) < 0.03
    far = ps.eval_hermite(fit.hermite, np.array([[0.5 + 2.0j]]))
    assert np.all(np.isfinite(far))
    assert ps.hermite_payoff_fit(fit, 6.0) is fit


def test_bs_generator_symbol_on_modes():
    params = market(q_S=0.01, gamma_S=0.03)
    op = ps.bs_log_generator(params)
    grid = ps.make_grid(1, np.pi, 64)
    k = 2.0
    f = ps.ComplexField(grid, np.exp(1j * k * grid.axis_nodes())[np.newaxis])
    out = ps.apply_operator(op, f, 0.0)
    drift = params.q_S - params.gamma_S + 0.5 * params.sigma ** 2
    want = (0.5 * params.sigma ** 2 * k * k - 1j * drift * k) * f.values
    np.testing.assert_allclose(out.values, want, atol=1e-12)


def test_heston_chart_generator_smoke():
    params = market(heston=dict(kappa=1.0, theta=0.04, sigma_v=0.2, rho=0.3, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 16)
    op, chart = ps.heston_chart_generator(params, grid)
    assert op.dim == 2 and op.components == 1
    f = ps.ComplexField.zeros(grid, 1)
    f.values[0, 0, 0] = 1.0
    out = ps.apply_operator(op, f, 0.0)
    assert np.all(np.isfinite(out.values))
    with pytest.raises(ConfigurationError, match="heston block"):
        ps.heston_generator(market())


def test_zero_adjustments_reproduce_riskfree_price():
    params = market()
    grid = ps.make_grid(1, 6.0, 64)
    cfg = ps.SolverConfig(dt=5e-3)
    out = ps.compute_xva_surfaces(params, call_payoff(), grid, 0.25, cfg)
    np.testing.assert_array_equal(out["nonlinear"].final.values, out["riskfree"].final.values)
    np.testing.assert_allclose(
        out["linear"].final.values, out["riskfree"].final.values, atol=1e-12
    )
    np.testing.assert_array_equal(out["xva"], 0.0)


def test_funding_spread_pushes_value_down():
    params = market(s_F=0.02)
    grid = ps.make_grid(1, 6.0, 64)
    cfg = ps.SolverConfig(dt=5e-3)
    out = ps.compute_xva_surfaces(params, call_payoff(), grid, 0.5, cfg)
    xva = np.real(out["xva"][0])
    assert xva[grid.points_per_axis // 2] < -2e-4   # funding cost at the money
    # no benefit beyond the O(eps) smoothing leak where the taper dips below zero
    assert np.max(xva) < 2e-4


def test_price_xva_linear_requires_matching_grid():
    params = market(lambda_C=0.1, R_C=0.4)
    g1 = ps.make_grid(1, 6.0, 64)
    g2 = ps.make_grid(1, 6.0, 128)
    cfg = ps.SolverConfig(dt=1e-2)
    ref = ps.price_riskfree(params, call_payoff(), g1, 0.1, cfg)
    with pytest.raises(ConfigurationError, match="different grid"):
        ps.price_xva_linear(params, call_payoff(), ref, g2, 0.1, cfg)


def adjusted_market(**kw):
    return market(lambda_B=0.02, lambda_C=0.05, R_B=0.4, R_C=0.4, s_F=0.01, **kw)


def test_adjusted_prices_store_the_rows_their_hook_holds():
    from parastrip.analyticity import _at_times

    params, grid, cfg = adjusted_market(theta_mtm=0.5), ps.make_grid(1, 6.0, 64), ps.SolverConfig(dt=5e-3)
    full = ps.compute_xva_surfaces(params, call_payoff(), grid, 0.25, cfg)
    # V stores every row: the linear price's source and the blended mark read it at every node
    riskfree = full["riskfree"]
    n = len(riskfree.times)
    strided = list(range(0, n, 10))
    assert n == 51 and strided[-1] == n - 1
    held = riskfree.times[strided]

    def keep(index, times, block):
        return _at_times(times, held)

    thin = {
        "nonlinear": ps.price_xva_nonlinear(params, call_payoff(), grid, 0.25, cfg,
                                            reference=riskfree, keep=keep),
        "linear": ps.price_xva_linear(params, call_payoff(), riskfree, grid, 0.25, cfg, keep=keep),
    }
    for name, res in thin.items():
        np.testing.assert_array_equal(res.times, held)
        for k, j in enumerate(strided):
            np.testing.assert_array_equal(res.fields[k].values, full[name].fields[j].values)


def test_a_thinned_reference_is_refused_naming_the_missing_time():
    from parastrip.analyticity import _at_times

    params, grid, cfg = adjusted_market(), ps.make_grid(1, 6.0, 64), ps.SolverConfig(dt=1e-2)
    full = ps.price_riskfree(params, call_payoff(), grid, 0.1, cfg)
    missing = float(full.times[4].real)
    thin = ps.solve_real(_pricing_problem(params, call_payoff(), grid), 0.0, 0.1, cfg,
                         keep=lambda index, times, block: ~_at_times(times, [missing]))
    assert len(thin.times) == len(full.times) - 1
    with pytest.raises(ConfigurationError, match=f"no stored price surface at t = {missing!r}"):
        ps.price_xva_linear(params, call_payoff(), thin, grid, 0.1, cfg)


def test_a_blended_mark_prices_the_default_free_surface_once(monkeypatch):
    import parastrip.xva as xva

    params = adjusted_market(theta_mtm=0.5)
    grid, cfg = ps.make_grid(1, 6.0, 64), ps.SolverConfig(dt=0.1 / 40)
    # alone, the semilinear price prices its own reference first
    want = ps.price_xva_nonlinear(params, call_payoff(), grid, 0.1, cfg)
    solve, riskfree = xva.solve_real, []

    def counted(problem, *args, **kw):
        riskfree.append(problem.reaction is None and problem.source is None)
        return solve(problem, *args, **kw)

    monkeypatch.setattr(xva, "solve_real", counted)
    got = ps.compute_xva_surfaces(params, call_payoff(), grid, 0.1, cfg)
    assert riskfree == [True, False, False]
    np.testing.assert_array_equal(got["nonlinear"].times, want.times)
    for a, b in zip(got["nonlinear"].fields, want.fields):
        np.testing.assert_array_equal(a.values, b.values)


def test_evaluate_at_trig_interpolation():
    grid = ps.make_grid(1, np.pi, 32)
    k = 3.0
    f = ps.ComplexField(grid, np.exp(1j * k * grid.axis_nodes())[np.newaxis])
    for x in (0.123, -1.7, 2.9):
        got = ps.evaluate_at(f, np.array([x]))
        assert got[0] == pytest.approx(np.exp(1j * k * x), abs=1e-11)
    with pytest.raises(ConfigurationError, match="coordinates"):
        ps.evaluate_at(f, np.array([0.1, 0.2]))


def test_verify_price_analyticity_report():
    params = market(s_F=0.02, epsilon=0.05)
    payoff = call_payoff(eps=0.05)
    cfg = ps.SolverConfig(dt=2e-3)
    report = ps.verify_price_analyticity(
        params, payoff, np.linspace(-0.02, 0.02, 3), [0.1, 0.2], cfg
    )
    assert set(report["cr_space"]) == {0.1, 0.2}
    assert all(v < 1e-2 for v in report["cr_space"].values())
    assert report["path_spread"] < 1e-6
    assert np.isfinite(report["strip_sup"]) and report["strip_sup"] > 0.0
    # the hook's strip sup and the held rows' residuals are those of a family that keeps every row
    from parastrip.xva import _adjustment_reaction, _pricing_config

    grid = ps.make_grid(1, 6.0, 256)
    problem = _pricing_problem(params, payoff, grid, reaction=_adjustment_reaction(params, 1))
    config = _pricing_config(grid, 0.2, cfg)
    family = ps.solve_shift_family(problem, [(y,) for y in np.linspace(-0.02, 0.02, 3)], 0.0, 0.2, config)
    assert len(family.times) == 101
    strip_params = ps.NormParams(p=config.p, m=problem.op.order_half)
    assert report["strip_sup"] == ps.strip_sup_over_time(family, strip_params)
    assert report["cr_space"] == {tau: ps.cr_residual_space(family, tau) for tau in (0.1, 0.2)}
    with pytest.raises(DomainError, match="branch cut"):
        ps.verify_price_analyticity(params, payoff, [-0.06, 0.0, 0.06], [0.1], cfg)


def test_verify_price_analyticity_fits_the_strip_norm_to_the_grid(monkeypatch):
    import parastrip.analyticity as analyticity

    params = market(s_F=0.02, epsilon=0.05)
    cfg = ps.SolverConfig(dt=2e-3)
    # L = 6, n = 64: Nyquist 16.8 hosts 3 dyadic blocks, not the NormParams default of 4
    report = ps.verify_price_analyticity(params, call_payoff(), np.linspace(-0.02, 0.02, 3), [0.1], cfg,
                                         grid=ps.make_grid(1, 6.0, 64))
    assert np.isfinite(report["strip_sup"]) and report["strip_sup"] > 0.0
    # n = 32 hosts 2, below the floor: rejected before any solve, naming both grid keys; the family
    # marches through _solve and the paths through solve_along_path
    solves = []
    for name in ("_solve", "solve_along_path"):
        monkeypatch.setattr(analyticity, name, lambda *a, **k: solves.append(a))
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.verify_price_analyticity(params, call_payoff(), np.linspace(-0.02, 0.02, 3), [0.1], cfg,
                                    grid=ps.make_grid(1, 6.0, 32))
    assert solves == []


def test_verify_price_analyticity_family_holds_only_the_rows_at_tau_grid(monkeypatch):
    import parastrip.analyticity as analyticity

    families, solve = [], analyticity.solve_shift_family

    def spy(*args, **kw):
        families.append(solve(*args, **kw))
        return families[-1]

    monkeypatch.setattr(analyticity, "solve_shift_family", spy)
    params = market(s_F=0.02, epsilon=0.05)
    ps.verify_price_analyticity(params, call_payoff(), np.linspace(-0.02, 0.02, 3), [0.04, 0.1],
                                ps.SolverConfig(dt=2e-3), grid=ps.make_grid(1, 6.0, 64))
    (family,) = families
    # of 51 rows each member stores the two at tau_grid, the last of which is its last row
    for member in family.results.values():
        assert np.allclose(member.times, [0.04, 0.1], rtol=0.0, atol=1e-12)
        assert [len(block) for block in member.blocks] == [1, 1]


@pytest.mark.parametrize("shifts, t_primes, match", [
    (np.linspace(-0.02, 0.02, 3), [0.04, 0.04], "two distinct segment splits"),
    ([0.0], None, "three shifts"),
])
def test_verify_price_analyticity_refuses_checks_that_check_nothing_before_solving(monkeypatch, shifts,
                                                                                   t_primes, match):
    import parastrip.analyticity as analyticity

    solves = []
    monkeypatch.setattr(analyticity, "solve_shift_family", lambda *args, **kw: solves.append(args))
    with pytest.raises(ConfigurationError, match=match):
        ps.verify_price_analyticity(market(s_F=0.02, epsilon=0.05), call_payoff(), shifts, [0.1],
                                    ps.SolverConfig(dt=2e-3), grid=ps.make_grid(1, 6.0, 64), t_prime_list=t_primes)
    assert solves == []


def test_adjustment_reaction_takes_one_guard_and_one_turn_per_mark(monkeypatch):
    import parastrip.reaction as reaction
    from parastrip.xva import _adjustment_reaction

    params = market(epsilon=0.01, lambda_B=0.02, lambda_C=0.05, R_B=0.4, R_C=0.4, s_F=0.01)
    spec = _adjustment_reaction(params, 1)
    X = np.stack([np.linspace(-2.0, 2.0, 33), np.linspace(1.0, -1.0, 33)]).astype(np.complex128)[:, None]
    calls = []
    for name in ("_turn", "_guard_branch"):
        fn = getattr(reaction, name)
        monkeypatch.setattr(reaction, name, lambda eps, z, fn=fn, name=name: calls.append(name) or fn(eps, z))
    got = spec.eval(None, 0.0, X)
    assert sorted(calls) == ["_guard_branch", "_turn"]
    cost_minus, cost_plus = 0.6 * 0.02, 0.6 * 0.05 + 0.01
    want = -cost_minus * ps.f_minus(0.01, X[0]) - cost_plus * ps.f_plus(0.01, X[0])
    np.testing.assert_array_equal(got, want)


def test_blended_mark_solve_equals_a_per_node_reference(monkeypatch):
    import parastrip.solver as solver

    # theta_mtm < 1 blends the stored default-free surface into the mark, one node time each
    params = market(lambda_B=0.05, lambda_C=0.1, R_B=0.4, R_C=0.4, s_F=0.01, theta_mtm=0.5)
    grid = ps.make_grid(1, 6.0, 64)
    cfg = ps.SolverConfig(dt=0.1 / 40)
    got = ps.price_xva_nonlinear(params, call_payoff(), grid, 0.1, cfg)

    def per_node(problem, plan, hat, ts, config, vals, sources=None, values=None):
        spec = problem.reaction
        if spec is None:                     # the default-free reference solve
            return vals
        jets = solver._jet_fields(hat, spec.jet_indices, problem.grid)
        for b, t in enumerate(ts):
            vals[b] += spec.eval(plan.points, t, np.stack([jet[b] for jet in jets]))
        return vals

    monkeypatch.setattr(solver, "_add_forcing", per_node)
    want = ps.price_xva_nonlinear(params, call_payoff(), grid, 0.1, cfg)
    assert got.diagnostics["picard_iterations"] == want.diagnostics["picard_iterations"]
    assert max(got.diagnostics["picard_iterations"]) >= 2
    np.testing.assert_array_equal(got.times, want.times)
    for a, b in zip(got.fields + got.time_derivatives, want.fields + want.time_derivatives):
        np.testing.assert_array_equal(a.values, b.values)


def test_heston_chart_generators_are_autonomous():
    params = market(heston=dict(kappa=1.0, theta=0.04, sigma_v=0.2, rho=0.3, v_min=0.02, v_max=0.06))
    op, _ = ps.heston_chart_generator(params, ps.make_grid(2, 6.0, 16))
    assert op.autonomous and ps.heston_generator(params).autonomous
    from parastrip.xva import _with_zero_order

    discounted = _with_zero_order(op, 0.05)
    assert discounted.autonomous and list(discounted.terms)[-1] == ((0, 0), (0, 0))


def test_both_heston_generators_keep_the_bits_of_their_written_out_terms():
    heston = dict(kappa=1.3, theta=0.04, sigma_v=0.3, rho=-0.6, v_min=0.02, v_max=0.07)
    params = market(q_S=0.03, gamma_S=0.01, heston=heston)
    kappa, theta, sigma_v, rho, drift = 1.3, 0.04, 0.3, -0.6, params.q_S - params.gamma_S
    z = np.array([[0.1, -2.0 + 0.3j, 1.5, 0.0, -0.7j], [0.01, 0.045 + 0.2j, 0.09, -1.0 - 0.5j, 2.5]])
    length = 6.0
    rate = (0.07 - 0.02) / (2.0 * length)
    w = np.asarray(z[1], dtype=np.complex128)
    chart_v = 0.5 * (0.02 + 0.07) + rate * length / math.pi * np.sin(math.pi * w / length)
    chart_c = np.cos(math.pi * w / length)
    v = np.clip(np.real(z[1]), 0.02, 0.07)
    literal = {
        ((1, 0), (1, 0)): 0.5 * v,
        ((1, 0), (0, 1)): 0.5 * rho * sigma_v * v,
        ((0, 1), (1, 0)): 0.5 * rho * sigma_v * v,
        ((0, 1), (0, 1)): 0.5 * sigma_v ** 2 * v,
        ((0, 0), (1, 0)): -1j * (drift - 0.5 * v - 0.5 * rho * sigma_v),
        ((0, 0), (0, 1)): -1j * (kappa * (theta - v) - 0.5 * sigma_v ** 2),
    }
    chart = {
        ((1, 0), (1, 0)): 0.5 * chart_v,
        ((1, 0), (0, 1)): 0.5 * rho * sigma_v * chart_v / rate,
        ((0, 1), (1, 0)): 0.5 * rho * sigma_v * chart_v / rate,
        ((0, 1), (0, 1)): 0.5 * sigma_v ** 2 * chart_v / rate ** 2,
        ((0, 0), (1, 0)): -1j * (drift - 0.5 * chart_v - 0.5 * rho * sigma_v * chart_c),
        ((0, 0), (0, 1)): -1j * (kappa * (theta - chart_v) - 0.5 * sigma_v ** 2 * chart_c) / rate,
    }
    chart_op, _ = ps.heston_chart_generator(params, ps.make_grid(2, length, 16))
    for op, want in ((ps.heston_generator(params), literal), (chart_op, chart)):
        assert list(op.terms) == list(want)
        for (alpha, beta), value in want.items():
            got = op.coefficient_matrix(alpha, beta, z, 0.0)
            assert got.shape == (1, 1, 5)
            assert got[0, 0].tobytes() == np.asarray(value, dtype=np.complex128).tobytes(), (op, alpha, beta)


@pytest.mark.parametrize("as_callable", [False, True])
def test_discount_adds_its_rate_to_a_zero_order_term_in_its_place(as_callable):
    from parastrip.xva import _with_zero_order

    zero = ((0,), (0,))
    entry = (lambda z, t: 0.1 + 0.05 * np.cos(np.asarray(z)[0])) if as_callable else 0.1 - 0.02j
    terms = {((1,), (1,)): 0.5, zero: entry, ((0,), (1,)): -0.3j}
    temporal = ps.TemporalDomain(np.pi / 4, 1.0, 2.0)
    op = ps.DivergenceOperator.from_terms(1, 1, 1, terms, ps.StripSpec(1.0), temporal)
    discounted = _with_zero_order(op, 0.05)
    assert list(discounted.terms) == list(terms) and discounted.autonomous == op.autonomous
    assert op.terms[zero] is entry                      # the operator's own table is untouched
    summed = dict(terms)
    summed[zero] = (lambda z, t: entry(z, t) + 0.05) if as_callable else entry + 0.05
    by_hand = ps.DivergenceOperator.from_terms(1, 1, 1, summed, ps.StripSpec(1.0), temporal)
    grid = ps.make_grid(1, 3.0, 32)
    x = grid.axis_nodes()
    f = ps.ComplexField(grid, (np.exp(-x ** 2) * (1.0 + 0.5j * x))[np.newaxis])
    np.testing.assert_array_equal(ps.apply_operator(discounted, f, 0.3).values,
                                  ps.apply_operator(by_hand, f, 0.3).values)


def test_heston_price_from_resolvent_blocks_matches_the_1200_iteration_gmres_march():
    # the benchmark's heston_chart_2d study at its nominal inputs
    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 64)
    payoff = ps.hermite_payoff_fit(call_payoff(eps=1e-3), 6.0)
    res = ps.price_riskfree(params, payoff, grid, 1.0)
    (window,) = res.diagnostics["windows"]
    assert window["implicit"] == "blocks" and window["steps"] == 400
    assert len(window["gmres_iterations"]) == 401 and sum(window["gmres_iterations"]) == 0
    price = ps.evaluate_at(res.final, [0.0, 0.04])[0].real
    assert price == pytest.approx(0.0799051466780, abs=1e-10)
    # the same chart declared time-dependent keeps the GMRES march and its iteration count
    problem = _pricing_problem(params, payoff, grid)
    problem = dataclasses.replace(problem, op=dataclasses.replace(problem.op, autonomous=False))
    res = ps.solve_real(problem, 0.0, 1.0, ps.SolverConfig(dt=1.0 / 400, integrator="imex"))
    (window,) = res.diagnostics["windows"]
    assert window["implicit"] == "gmres" and len(window["gmres_iterations"]) == 401
    assert sum(window["gmres_iterations"]) == 1200
    price = ps.evaluate_at(res.final, [0.0, 0.04])[0].real
    assert price == pytest.approx(0.0799051466780, abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1 + 1j])
def test_evaluate_at_rejects_a_non_finite_point(bad):
    grid = ps.make_grid(2, np.pi, 16)
    f = ps.ComplexField(grid, np.ones((1,) + grid.shape))
    with pytest.raises(ConfigurationError, match="coordinate 1"):
        ps.evaluate_at(f, [0.5, bad])
    with pytest.raises(ConfigurationError, match="coordinate 0"):
        ps.evaluate_at(f, [bad, 0.5])
