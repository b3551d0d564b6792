"""End-to-end acceptance checks pinning the library's quantitative guarantees.

Each test exercises one user-facing claim end to end on fixed configurations
with frozen tolerances; oracles live in oracles.py and are independent of the
code under test.  Runtime caps use wall-clock time on the whole test body.
"""

import math
import time

import numpy as np
import pytest

import parastrip as ps

from conftest import make_heat_operator, gaussian_datum
from oracles import (
    call_price_lognormal,
    heat_kernel_gaussian,
    maxreg_mode_numerator,
    smoother_tail_gap,
)

SEED = 20260815


def big_heat_problem():
    op = make_heat_operator(strip_width=2.0)
    grid = ps.make_grid(1, 10.0, 256)
    return ps.CauchyProblem(grid, op, gaussian_datum())


def test_heat_benchmark_both_integrators_under_ten_seconds():
    start = time.monotonic()
    problem = big_heat_problem()
    x = problem.grid.axis_nodes()
    exact = heat_kernel_gaussian(x, 0.5)

    voc = ps.solve_real(problem, 0.0, 0.5, ps.SolverConfig(dt=1e-3))
    voc_err = np.max(np.abs(voc.final.values[0] - exact))
    assert voc_err < 1e-6

    imex_errs = {}
    for dt in (2e-3, 1e-3):
        res = ps.solve_real(problem, 0.0, 0.5, ps.SolverConfig(dt=dt, integrator="imex"))
        imex_errs[dt] = np.max(np.abs(res.final.values[0] - exact))
    assert imex_errs[1e-3] < 1e-6
    order = math.log2(imex_errs[2e-3] / imex_errs[1e-3])
    assert order >= 1.9
    assert time.monotonic() - start < 10.0


def test_shift_family_cauchy_riemann_within_a_minute():
    start = time.monotonic()
    problem = big_heat_problem()
    cfg = ps.SolverConfig(dt=1e-3, snapshot_stride=50)

    family = ps.solve_shift_family(problem, np.linspace(-0.25, 0.25, 9), 0.0, 0.5, cfg)
    r1 = ps.cr_residual_space(family, 0.5, stride=1)
    r2 = ps.cr_residual_space(family, 0.5, stride=2)
    assert math.log2(r2 / r1) >= 1.9           # second-order stencil convergence

    # residual floor: a tight three-member family sits at the solver floor
    floor_family = ps.solve_shift_family(
        problem, np.linspace(-5e-4, 5e-4, 3), 0.0, 0.5, cfg
    )
    assert ps.cr_residual_space(floor_family, 0.5) <= 1e-6

    # every member matches the analytically continued kernel
    x = problem.grid.axis_nodes()
    for y in family.y_values:
        member = family.member(y)
        want = heat_kernel_gaussian(x + 1j * y[0], 0.5)
        assert np.max(np.abs(member.final.values[0] - want)) < 1e-6
    assert time.monotonic() - start < 60.0


def test_complex_time_rays_paths_and_weighted_integrals():
    problem = big_heat_problem()
    x = problem.grid.axis_nodes()
    cfg = ps.SolverConfig(dt=1e-3)

    root_half = 0.3 / math.sqrt(2.0)
    for mu in (1.3, 0.7, 1 + 0.3j, 1 - 0.3j, 1 + root_half * (1 + 1j)):
        res = ps.solve_complex_ray(problem, mu, 0.3, cfg)
        want = heat_kernel_gaussian(x, complex(mu) * 0.3)
        assert np.max(np.abs(res.final.values[0] - want)) < 1e-6

    # two-segment paths agree among themselves and with the kernel
    spread = ps.path_independence_check(problem, 0.5, 0.1, [0.2, 0.3], cfg)
    assert spread < 1e-6
    res = ps.solve_along_path(problem, 0.5, 0.1, 0.2, cfg)
    assert res.times[-1] == pytest.approx(0.5 + 0.1j, abs=1e-12)
    assert np.max(np.abs(res.final.values[0] - heat_kernel_gaussian(x, 0.5 + 0.1j))) < 1e-6

    # weighted space-time integrals: finite, monotone in the real endpoint,
    # stable under time-step halving
    totals = {}
    for dt in (2e-3, 1e-3):
        vals = []
        for sigma in (0.3, 0.5, 0.7):
            path = ps.solve_along_path(problem, sigma, 0.1, 0.2, ps.SolverConfig(dt=dt))
            out = ps.hardy_integral(path, 4.0, 1.0, 1)
            assert all(np.isfinite(v) for v in out.values())
            vals.append(out["total"])
        assert vals[0] < vals[1] < vals[2]
        totals[dt] = vals
    for coarse, fine in zip(totals[2e-3], totals[1e-3]):
        assert abs(coarse - fine) / fine < 0.05


def test_lattice_shift_consistency_constant_and_variable_coefficients():
    grid = ps.make_grid(1, 10.0, 256)
    cfg = ps.SolverConfig(dt=1e-3)
    h = grid.spacing
    y_grid = np.linspace(-0.1, 0.1, 3)

    const_problem = big_heat_problem()
    fam = ps.solve_shift_family(const_problem, y_grid, 0.0, 0.2, cfg)
    gap = ps.shift_consistency_check(
        fam, const_problem, np.array([8 * h]), np.array([0.1]), [0.1, 0.2]
    )
    assert gap < 1e-10

    var_op = ps.DivergenceOperator.from_terms(
        1, 1, 1,
        {((1,), (1,)): lambda z, t: 1.0 + 0.3 * np.cos(np.pi * z[0] / 10.0)},
        ps.StripSpec(2.0),
        ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    var_problem = ps.CauchyProblem(grid, var_op, gaussian_datum())
    fam_v = ps.solve_shift_family(var_problem, y_grid, 0.0, 0.2, cfg)
    gap_v = ps.shift_consistency_check(
        fam_v, var_problem, np.array([8 * h]), np.array([0.1]), [0.1, 0.2]
    )
    assert gap_v < 10.0 * cfg.picard_tol


def test_smoother_identities_tails_and_interior_analyticity():
    eps = 1.0
    rng = np.random.default_rng(SEED)
    cloud = rng.uniform(-50.0, 50.0, 1000) + 1j * rng.uniform(-0.2, 0.2, 1000)

    assert ps.smoother_identity_check(eps, cloud) <= 1e-13
    reflect = np.max(np.abs(np.asarray(ps.f_minus(eps, cloud)) + np.asarray(ps.f_plus(eps, -cloud))))
    assert reflect <= 1e-13

    v = 1e6
    third = smoother_tail_gap(eps)             # eps / pi
    assert abs((ps.f_plus(eps, v) - v) - (-third)) < 2e-6
    assert abs(ps.f_plus(eps, -v) - (-third)) < 2e-6
    assert abs(ps.f_minus(eps, v) - third) < 2e-6
    assert abs((ps.f_minus(eps, -v) + v) - third) < 2e-6

    # interior Wirtinger residual of the positive-part smoother
    h = 1e-4
    for z in (0.4 + 0.05j, -1.3 + 0.1j, 2.5 - 0.08j, 0.01 + 0.0j):
        d_re = (ps.f_plus(eps, z + h) - ps.f_plus(eps, z - h)) / (2 * h)
        d_im = (ps.f_plus(eps, z + 1j * h) - ps.f_plus(eps, z - 1j * h)) / (2 * h)
        assert abs(0.5 * (d_re + 1j * d_im)) < 1e-8


def test_contraction_step_and_horizon_formula_values():
    unit = ps.StepConstants(p=2.0, max_reg=1.0, coercivity_lower=1.0, operator_bound=1.0)
    delta, t1 = ps.step_size_from_estimates(unit)
    assert abs(delta - 0.25) <= 1e-12
    assert abs(t1 - 0.7071067811865476) <= 1e-12

    horizons = []
    for m_t in (0.5, 1.0, 2.0, 4.0, 8.0):
        c = ps.StepConstants(p=2.0, max_reg=m_t, coercivity_lower=1.0, operator_bound=1.0)
        horizons.append(ps.analyticity_time_horizon(c))
    assert all(a > b for a, b in zip(horizons, horizons[1:]))


def test_max_reg_estimator_oracle_and_monotonicity():
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 128)

    # one Fourier mode: numerator and denominator are known in closed form
    mode = ps.ComplexField(grid, np.exp(1j * grid.axis_nodes())[np.newaxis])
    T, p = 0.25, 4.0
    got = ps.estimate_max_reg_constant(
        op, grid, T, p, [ps.MaxRegSample(initial=mode)], ps.SolverConfig(dt=T / 2048)
    )
    num = maxreg_mode_numerator(1.0, p, T, ps.lp_norm(mode, p))
    den = ps.besov_norm(mode, ps.NormParams(p=p, m=1)) ** p
    assert abs(got - num / den) / (num / den) <= 1e-6

    ensemble = ps.default_maxreg_ensemble(grid, 1, 50, np.random.default_rng(SEED), support=0.25)
    curve = ps.estimate_max_reg_constant(
        op, grid, [0.25, 0.5, 1.0], p, ensemble, ps.SolverConfig(dt=1.0 / 256)
    )
    assert curve[0.25] <= curve[0.5] <= curve[1.0]
    assert curve[0.25] > 0.0


def test_ellipticity_constants_and_garding_fit():
    op = make_heat_operator()
    grid = ps.make_grid(1, np.pi, 64)
    fields = ps.random_band_limited_fields(grid, 1, 8, np.random.default_rng(SEED))
    fit = ps.verify_garding(op, fields)
    assert abs(fit.c1 - 1.0) <= 1e-8
    assert abs(fit.c2) <= 1e-8
    assert fit.slack >= -1e-9

    z0 = [np.zeros(1, dtype=complex)]
    for theta in (0.0, 0.3, -0.3, 0.6, -0.6):
        samples = ps.ellipticity_samples(op, z0, [0.0], np.random.default_rng(SEED), thetas=[theta])
        c_hat = ps.estimate_ellipticity_constant(op, samples)
        assert abs(c_hat - math.cos(theta)) <= 1e-10

    # stochastic-variance generator: coercive on the band, degenerating with
    # the variance floor
    def floor_constant(v_min):
        params = ps.XvaParams(
            sigma=0.2,
            heston=dict(kappa=1.0, theta=0.04, sigma_v=0.5, rho=0.3, v_min=v_min, v_max=0.5),
        )
        hop = ps.heston_generator(params)
        pts = [np.array([0.0, v_min], dtype=complex)]
        samples = ps.ellipticity_samples(hop, pts, [0.0], np.random.default_rng(SEED), thetas=[0.0])
        return ps.estimate_ellipticity_constant(hop, samples)

    c_04 = floor_constant(0.04)
    c_01 = floor_constant(0.01)
    c_0025 = floor_constant(0.0025)
    assert c_04 > 0.0
    assert c_0025 < c_01 < c_04
    assert c_0025 < 0.25 * c_04                # the constant drains with the floor


def test_counterparty_pricing_under_five_minutes():
    start = time.monotonic()
    grid = ps.make_grid(1, 6.0, 256)
    payoff = ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=1e-3)

    # no intensities, no spread: all three surfaces coincide
    plain = ps.XvaParams(sigma=0.2, epsilon=1e-3)
    out = ps.compute_xva_surfaces(plain, payoff, grid, 1.0)
    assert np.max(np.abs(out["xva"])) <= 1e-9
    assert np.max(np.abs(out["linear"].final.values - out["riskfree"].final.values)) <= 1e-9

    # at-the-money value against the lognormal closed form
    atm = ps.evaluate_at(out["riskfree"].final, np.array([0.0]))[0].real
    drift = plain.q_S - plain.gamma_S + 0.5 * plain.sigma ** 2
    reference = call_price_lognormal(0.0, 1.0, plain.sigma, 1.0, drift)
    assert abs(atm - reference) / reference < 0.01

    # the own-mark/reference-mark gap is quadratic in the intensities
    def mark_gap(scale):
        params = ps.XvaParams(
            sigma=0.2, epsilon=1e-3,
            lambda_B=0.02 * scale, lambda_C=0.05 * scale, R_B=0.4, R_C=0.4,
        )
        surfaces = ps.compute_xva_surfaces(params, payoff, grid, 1.0)
        return float(np.max(np.abs(surfaces["nonlinear"].final.values - surfaces["linear"].final.values)))

    ratio = mark_gap(1.0) / mark_gap(0.5)
    assert 3.0 <= ratio <= 5.0

    # frozen-variance stochastic model agrees with its one-dimensional limit
    theta = 0.04
    entire = ps.hermite_payoff_fit(payoff, 6.0)
    heston = ps.XvaParams(
        sigma=0.2, epsilon=1e-3,
        heston=dict(kappa=1.0, theta=theta, sigma_v=0.01, rho=0.0, v_min=0.02, v_max=0.06),
    )
    grid2 = ps.make_grid(2, 6.0, 64)
    price2 = ps.evaluate_at(
        ps.price_riskfree(heston, entire, grid2, 1.0).final, np.array([0.0, theta])
    )[0]
    limit_op = ps.DivergenceOperator.from_terms(
        1, 1, 1,
        {((1,), (1,)): 0.5 * theta, ((0,), (1,)): -1j * (-0.5 * theta)},
        ps.StripSpec(np.inf),
        ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    limit_problem = ps.CauchyProblem(
        grid, limit_op, ps.terminal_data(entire, grid.half_length), strip=ps.StripSpec(np.inf)
    )
    price1 = ps.evaluate_at(
        ps.solve_real(limit_problem, 0.0, 1.0, ps.SolverConfig(dt=1.0 / 500)).final,
        np.array([0.0]),
    )[0]
    assert abs(price2 - price1) / abs(price1) < 0.02
    assert time.monotonic() - start < 300.0


def test_negative_controls_detect_broken_analyticity():
    problem = big_heat_problem()
    grid = problem.grid
    cfg = ps.SolverConfig(dt=1e-3)

    # a conjugate-quadratic reaction is not holomorphic: two paths to the
    # same complex time disagree at leading order
    conj_quad = ps.ReactionSpec(
        order_half=1, components=1, dim=1, eval=lambda z, t, X: X[0] * np.conj(X[0])
    )
    big_datum = ps.HermiteData(np.array([2.0 + 0j]), 1)
    broken_problem = ps.CauchyProblem(grid, problem.op, big_datum, reaction=conj_quad)
    spread = ps.path_independence_check(broken_problem, 0.5, 0.1, [0.1, 0.4], cfg)
    assert spread > 1e-2
    holo_quad = ps.ReactionSpec(
        order_half=1, components=1, dim=1, eval=lambda z, t, X: X[0] * X[0]
    )
    control = ps.CauchyProblem(grid, problem.op, big_datum, reaction=holo_quad)
    assert ps.path_independence_check(control, 0.5, 0.1, [0.1, 0.4], cfg) < 1e-4

    # members sampled at x + i|y| pass the family validators but are not
    # jointly holomorphic; the stencil sees an O(1) residual
    ys = np.linspace(-0.1, 0.1, 5)
    results = {}
    for y in ys:
        key = (round(float(y), 12),)
        results[key] = ps.solve_real(problem, 0.0, 0.2, cfg, shift=np.array([1j * abs(y)]))
    fake = ps.ShiftFamily(
        y_values=sorted(results), results=results, strip=problem.data_strip
    )
    assert ps.cr_residual_space(fake, 0.2) > 0.1
    honest = ps.solve_shift_family(problem, ys, 0.0, 0.2, cfg)
    assert ps.cr_residual_space(honest, 0.2) < 1e-2
