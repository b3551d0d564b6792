import numpy as np
import pytest

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError

from conftest import make_heat_operator, gaussian_datum
from oracles import heat_kernel_gaussian

FAST = ps.SolverConfig(dt=5e-3)


def small_family(problem, n_shifts=5, half=0.2, horizon=0.05, jobs=None):
    y_grid = np.linspace(-half, half, n_shifts)
    return ps.solve_shift_family(problem, y_grid, 0.0, horizon, FAST, jobs=jobs)


def test_family_construction_and_member_lookup(heat_problem):
    fam = small_family(heat_problem)
    assert fam.dim == 1
    assert len(fam.y_values) == 5
    member = fam.member([0.1])
    x = heat_problem.grid.axis_nodes() + 0.1j
    np.testing.assert_allclose(member.final.values[0], heat_kernel_gaussian(x, 0.05), atol=1e-7)
    with pytest.raises(ConfigurationError, match="no family member"):
        fam.member([0.37])


def test_family_rejects_asymmetric_grid(heat_problem):
    with pytest.raises(ConfigurationError, match="symmetric"):
        ps.solve_shift_family(heat_problem, [0.0, 0.1, 0.2], 0.0, 0.02, FAST)


def test_family_rejects_shift_outside_strip():
    op = make_heat_operator(strip_width=0.15)
    grid = ps.make_grid(1, 10.0, 64)
    problem = ps.CauchyProblem(grid, op, gaussian_datum())
    with pytest.raises(DomainError, match="strip"):
        ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, FAST)


def test_family_parallel_matches_serial(heat_problem):
    serial = small_family(heat_problem, n_shifts=3, horizon=0.02)
    threaded = small_family(heat_problem, n_shifts=3, horizon=0.02, jobs=3)
    for y in serial.y_values:
        np.testing.assert_array_equal(
            serial.member(y).final.values, threaded.member(y).final.values
        )


def test_cr_residual_space_vanishes_for_analytic_solution(heat_problem):
    fam = small_family(heat_problem, n_shifts=5, half=0.2)
    resid = ps.cr_residual_space(fam, 0.05)
    assert resid < 1e-2
    with pytest.raises(ConfigurationError, match="stride"):
        ps.cr_residual_space(fam, 0.05, stride=0)
    with pytest.raises(ConfigurationError, match="at least three"):
        ps.cr_residual_space(fam, 0.05, stride=3)


def test_cr_residual_space_flags_non_family(heat_problem):
    # swap one member for an unrelated field: the stencil sees a jump
    fam = small_family(heat_problem, n_shifts=5, half=0.2)
    key = (0.1,)
    fake = fam.results[key]
    for j in range(len(fake.fields)):
        fake.fields[j] = ps.ComplexField(fake.fields[j].grid, np.conj(fake.fields[j].values))
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
    assert out == ps.hardy_integral(res, 4.0, 0.5, 1, dyadic_blocks=3)
    coarse = ps.make_grid(1, 6.0, 32)
    res = ps.solve_real(ps.CauchyProblem(coarse, make_heat_operator(), gaussian_datum()), 0.0, 0.05, FAST)
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.hardy_integral(res, 4.0, 0.5, 1)


def test_strip_sup_over_time_dominates_members(heat_problem):
    fam = small_family(heat_problem, n_shifts=3, half=0.1, horizon=0.02)
    params = ps.NormParams(p=4.0, m=1)
    sup = ps.strip_sup_over_time(fam, params)
    for y in fam.y_values:
        member = fam.member(y)
        for f in member.fields:
            assert sup >= ps.besov_norm(f, params) - 1e-12
