import dataclasses

import numpy as np
import pytest

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError

from conftest import make_heat_operator, gaussian_datum
from oracles import heat_kernel_gaussian

FAST = ps.SolverConfig(dt=5e-3)


def small_family(problem, n_shifts=5, half=0.2, horizon=0.05):
    y_grid = np.linspace(-half, half, n_shifts)
    return ps.solve_shift_family(problem, y_grid, 0.0, horizon, FAST)


def test_family_construction_and_member_lookup(heat_problem):
    fam = small_family(heat_problem)
    assert fam.dim == 1
    assert len(fam.y_values) == 5
    member = fam.member([0.1])
    x = heat_problem.grid.axis_nodes() + 0.1j
    np.testing.assert_allclose(member.final.values[0], heat_kernel_gaussian(x, 0.05), atol=1e-7)
    with pytest.raises(ConfigurationError, match="no family member"):
        fam.member([0.37])


@pytest.mark.parametrize("y_grid", [[0.0, 0.1, 0.2], [-0.1, 0.1], [-0.2, 0.0, 0.1]])
def test_family_rejects_asymmetric_grid(heat_problem, monkeypatch, y_grid):
    # refused before any member is solved
    from parastrip import analyticity

    calls = []
    monkeypatch.setattr(analyticity, "_solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigurationError, match="symmetric about zero and contain zero"):
        ps.solve_shift_family(heat_problem, y_grid, 0.0, 0.02, FAST)
    assert calls == []


def test_family_rejects_shift_outside_strip():
    op = make_heat_operator(strip_width=0.15)
    grid = ps.make_grid(1, 10.0, 64)
    problem = ps.CauchyProblem(grid, op, gaussian_datum())
    with pytest.raises(DomainError, match="strip"):
        ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, FAST)


def test_cr_residual_space_of_a_coupled_imex_system():
    # the rows of a 2-component imex result are not C-contiguous
    op = ps.DivergenceOperator.from_terms(
        1, 2, 1, {((1,), (1,)): np.array([[1.0, 0.3], [0.1, 0.5]])},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    grid = ps.make_grid(1, 10.0, 64)
    problem = ps.CauchyProblem(grid, op, lambda pts: np.stack([np.exp(-pts[0] ** 2 / 2)] * 2))
    cfg = ps.SolverConfig(dt=0.01, integrator="imex")
    family = ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 5), 0.0, 0.05, cfg)
    assert np.isfinite(ps.cr_residual_space(family, 0.05))


def test_cr_residual_space_vanishes_for_analytic_solution(heat_problem):
    fam = small_family(heat_problem, n_shifts=5, half=0.2)
    resid = ps.cr_residual_space(fam, 0.05)
    assert resid < 1e-2
    with pytest.raises(ConfigurationError, match="stride"):
        ps.cr_residual_space(fam, 0.05, stride=0)
    with pytest.raises(ConfigurationError, match="at least three"):
        ps.cr_residual_space(fam, 0.05, stride=3)


def test_the_study_refuses_strides_that_leave_no_three_shifts_before_any_solve(heat_problem, monkeypatch):
    from parastrip import analyticity

    monkeypatch.setattr(analyticity, "solve_shift_family", lambda *a, **kw: pytest.fail("solved"))
    with pytest.raises(ConfigurationError, match=r"no stride in \[4, 3\] leaves three of the 5 shifts"):
        analyticity._study(heat_problem, FAST, np.linspace(-0.2, 0.2, 5), [0.05], 0.05, strides=[4, 3])
    # a single usable stride is enough, and the others are skipped
    assert analyticity._usable_strides(5, [4, 2, 1]) == [2, 1]


def test_cr_residual_space_flags_non_family(heat_problem):
    # swap one member for an unrelated field: the stencil sees a jump
    fam = small_family(heat_problem, n_shifts=5, half=0.2)
    key = (0.1,)
    fake = fam.results[key]
    fam.results[key] = dataclasses.replace(fake, stored=[np.conj(block) for block in fake.blocks])
    assert ps.cr_residual_space(fam, 0.05) > 0.05


def test_shift_consistency_requires_lattice_vector(heat_problem):
    fam = small_family(heat_problem, n_shifts=3, half=0.1, horizon=0.02)
    h = heat_problem.grid.spacing
    gap = ps.shift_consistency_check(fam, heat_problem, np.array([4 * h]), np.array([0.1]), [0.02])
    assert gap < 1e-9
    with pytest.raises(ConfigurationError, match="lattice"):
        ps.shift_consistency_check(fam, heat_problem, np.array([0.3 * h]), np.array([0.1]), [0.02])


def test_cr_residual_time_small_on_disc(heat_problem):
    resid = ps.cr_residual_time(heat_problem, 1.0, 0.05, 0.2, FAST)
    assert resid < 1e-3
    with pytest.raises(DomainError, match="disc"):
        ps.cr_residual_time(heat_problem, 1.0, 0.8, 0.2, FAST)


def test_path_independence_spread(heat_problem):
    spread = ps.path_independence_check(heat_problem, 0.5, 0.1, [0.2, 0.3], ps.SolverConfig(dt=1e-3))
    assert spread < 1e-9
    with pytest.raises(ConfigurationError, match="at least two"):
        ps.path_independence_check(heat_problem, 0.5, 0.1, [0.2], FAST)


def test_path_independence_refuses_equal_splits_before_solving(heat_problem, monkeypatch):
    import parastrip.analyticity as analyticity

    solves = []
    monkeypatch.setattr(analyticity, "solve_along_path", lambda *args, **kw: solves.append(args))
    with pytest.raises(ConfigurationError, match="two distinct segment splits"):
        ps.path_independence_check(heat_problem, 0.5, 0.1, [0.2, 0.2], FAST)
    assert solves == []


def test_hardy_integral_parts(heat_problem):
    res = ps.solve_along_path(heat_problem, 0.4, 0.1, 0.2, ps.SolverConfig(dt=2e-3))
    out = ps.hardy_integral(res, 4.0, 0.5, 1)
    assert set(out) == {"du_dt", "derivatives", "total", "companion"}
    assert out["du_dt"] > 0.0 and out["derivatives"] > 0.0
    assert out["total"] == pytest.approx(out["du_dt"] + out["derivatives"], rel=1e-12)
    assert np.isfinite(out["companion"]) and out["companion"] > 0.0
    # doubling the derivative weight doubles only the derivative part
    out2 = ps.hardy_integral(res, 4.0, 1.0, 1)
    assert out2["derivatives"] == pytest.approx(2.0 * out["derivatives"], rel=1e-12)
    assert out2["du_dt"] == pytest.approx(out["du_dt"], rel=1e-12)


def test_hardy_integral_grows_with_horizon(heat_problem):
    short = ps.solve_real(heat_problem, 0.0, 0.1, FAST)
    long = ps.solve_real(heat_problem, 0.0, 0.2, FAST)
    a = ps.hardy_integral(short, 4.0, 0.5, 1)
    b = ps.hardy_integral(long, 4.0, 0.5, 1)
    assert b["total"] >= a["total"]


def test_hardy_integral_fits_its_blocks_to_the_grid():
    # L = 6, n = 64: Nyquist 16.8 hosts 3 dyadic blocks, not the NormParams default of 4
    grid = ps.make_grid(1, 6.0, 64)
    problem = ps.CauchyProblem(grid, make_heat_operator(), gaussian_datum())
    res = ps.solve_real(problem, 0.0, 0.05, FAST)
    out = ps.hardy_integral(res, 4.0, 0.5, 1)
    three = ps.NormParams(p=4.0, m=1)
    assert out["companion"] == ps.besov_norm(res.final, three) ** 4.0 + out["derivatives"]
    coarse = ps.make_grid(1, 6.0, 32)
    res = ps.solve_real(ps.CauchyProblem(coarse, make_heat_operator(), gaussian_datum()), 0.0, 0.05, FAST)
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.hardy_integral(res, 4.0, 0.5, 1)


def test_hardy_integral_refuses_a_coarse_grid_before_any_derivative(monkeypatch):
    from parastrip import analyticity

    coarse = ps.make_grid(1, 6.0, 32)      # Nyquist 8.4 hosts 2 dyadic blocks, below the floor of 3
    res = ps.solve_real(ps.CauchyProblem(coarse, make_heat_operator(), gaussian_datum()), 0.0, 0.05, FAST)
    calls = []
    for name in ("_fftn", "_lp_norms"):
        monkeypatch.setattr(analyticity, name, lambda *a, name=name, **k: calls.append(name))
    monkeypatch.setattr(ps.SolveResult, "derivative_blocks", property(lambda self: calls.append("du/dt") or ()))
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.hardy_integral(res, 4.0, 0.5, 1)
    assert calls == []


def test_strip_sup_over_time_dominates_members(heat_problem):
    fam = small_family(heat_problem, n_shifts=3, half=0.1, horizon=0.02)
    params = ps.NormParams(p=4.0, m=1)
    sup = ps.strip_sup_over_time(fam, params)
    for y in fam.y_values:
        member = fam.member(y)
        for f in member.fields:
            assert sup >= ps.besov_norm(f, params) - 1e-12


def test_family_errors_print_plain_numbers():
    op = make_heat_operator(strip_width=0.15)
    problem = ps.CauchyProblem(ps.make_grid(1, 10.0, 64), op, gaussian_datum())
    with pytest.raises(DomainError, match=r"shift y=\(-0\.2,\) leaves the strip") as info:
        ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, FAST)
    assert "np.float64" not in str(info.value)
