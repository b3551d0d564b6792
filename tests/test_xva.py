import math

import numpy as np
import pytest

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError


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
        params, payoff, np.linspace(-0.02, 0.02, 3), [0.1, 0.2], cfg, jobs=3
    )
    assert set(report["cr_space"]) == {0.1, 0.2}
    assert all(v < 1e-2 for v in report["cr_space"].values())
    assert report["path_spread"] < 1e-6
    assert np.isfinite(report["strip_sup"]) and report["strip_sup"] > 0.0
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
    # n = 32 hosts 2, below the floor: rejected before any solve, naming both grid keys
    solves = []
    monkeypatch.setattr(analyticity, "solve_real", lambda *a, **k: solves.append(a))
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.verify_price_analyticity(params, call_payoff(), np.linspace(-0.02, 0.02, 3), [0.1], cfg,
                                    grid=ps.make_grid(1, 6.0, 32))
    assert solves == []


def test_adjustment_reaction_takes_one_guard_and_one_log_per_mark(monkeypatch):
    import parastrip.reaction as reaction
    from parastrip.xva import _adjustment_reaction

    params = market(epsilon=0.01, lambda_B=0.02, lambda_C=0.05, R_B=0.4, R_C=0.4, s_F=0.01)
    spec = _adjustment_reaction(params, 1)
    X = np.stack([np.linspace(-2.0, 2.0, 33), np.linspace(1.0, -1.0, 33)]).astype(np.complex128)[:, None]
    calls = []
    for name in ("_log_factor", "_guard_branch"):
        fn = getattr(reaction, name)
        monkeypatch.setattr(reaction, name, lambda eps, z, fn=fn, name=name: calls.append(name) or fn(eps, z))
    got = spec.eval(None, 0.0, X)
    assert sorted(calls) == ["_guard_branch", "_log_factor"]
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

    def per_node(problem, plan, stack, ts, config, vals, sources=None):
        spec = problem.reaction
        if spec is None:                     # the default-free reference solve
            return vals
        jets = solver._jet_fields(stack, spec.jet_indices, problem.grid)
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
    assert discounted.autonomous and discounted.terms[-1] == ((0, 0), (0, 0))


def test_heston_price_takes_1200_gmres_iterations():
    # the benchmark's heston_chart_2d study at its nominal inputs
    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 64)
    payoff = ps.hermite_payoff_fit(call_payoff(eps=1e-3), 6.0)
    res = ps.price_riskfree(params, payoff, grid, 1.0)
    (window,) = res.diagnostics["windows"]
    assert window["steps"] == 400 and len(window["gmres_iterations"]) == 401
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
