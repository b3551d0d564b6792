"""Lockstep solves: shift-family members and ray-stencil points on one batch axis.

Every member of a lockstep solve must carry the bits, sweep counts and
halvings of its own one-member solve, and fail as a serial run in member
order would.
"""

import dataclasses

import numpy as np
import pytest

import parastrip as ps
import parastrip.solver as solver
from parastrip.errors import ConfigurationError, DomainError, InstabilityError, ParastripError
from parastrip.grid import ComplexField
from parastrip.operators import multi_indices
from parastrip.solver import _solve

from conftest import gaussian_datum, make_heat_operator


def assert_same_solve(got, want):
    np.testing.assert_array_equal(got.times, want.times)
    assert len(got) == len(want)
    for a, b in zip(got.fields + got.time_derivatives, want.fields + want.time_derivatives):
        np.testing.assert_array_equal(a.values, b.values)
    for key in ("windows", "picard_iterations", "window_halvings", "mu", "integrator", "dt"):
        assert got.diagnostics[key] == want.diagnostics[key], key
    np.testing.assert_array_equal(got.diagnostics["shift"], want.diagnostics["shift"])


def semilinear_problem():
    # |u0(x + iy)| grows as y falls, so members need different sweep counts
    grid = ps.make_grid(1, 8.0, 64)
    op = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): 1.0}, ps.StripSpec(2.0),
                                          ps.TemporalDomain(np.pi / 4, 1.0, 1.0))
    spec = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: X[0] ** 2)
    datum = lambda pts: 2.0 * np.exp(-pts[0] ** 2 + 0.5j * pts[0])
    return ps.CauchyProblem(grid, op, datum, reaction=spec)


SEMILINEAR_YS = np.linspace(-0.4, 0.4, 9)


def family_against_serial(problem, y_grid, horizon, config):
    fam = ps.solve_shift_family(problem, y_grid, 0.0, horizon, config)
    for y in fam.y_values:
        assert_same_solve(fam.member(y), ps.solve_real(problem, 0.0, horizon, config, shift=1j * np.asarray(y)))
    return fam


def test_a_nine_member_family_equals_one_member_solves(heat_problem):
    family_against_serial(heat_problem, np.linspace(-0.25, 0.25, 9), 0.1, ps.SolverConfig(dt=1e-3))


def test_a_nine_member_2d_family_equals_one_member_solves():
    grid = ps.make_grid(2, 6.0, 16)
    problem = ps.CauchyProblem(grid, make_heat_operator(dim=2, strip_width=1.0),
                               lambda pts: np.exp(-0.5 * (pts[0] ** 2 + pts[1] ** 2)))
    line = np.linspace(-0.3, 0.3, 9)
    y_grid = np.column_stack([line, np.zeros_like(line)])
    family_against_serial(problem, y_grid, 0.05, ps.SolverConfig(dt=2e-3, snapshot_stride=3))


def test_semilinear_members_sweep_their_own_counts():
    fam = family_against_serial(semilinear_problem(), SEMILINEAR_YS, 0.16, ps.SolverConfig(dt=0.01, window=0.08))
    counts = {tuple(fam.member(y).diagnostics["picard_iterations"]) for y in fam.y_values}
    assert len(counts) >= 2
    ratios = {fam.member(y).diagnostics["windows"][0]["contraction_ratio"] for y in fam.y_values}
    assert len(ratios) >= 2


def test_a_group_judges_the_members_left_after_one_converges():
    # four members converge at sweep 9; the fifth sweeps on alone, on a stack one member long
    fam = family_against_serial(semilinear_problem(), np.linspace(-0.4, 0.4, 5), 0.16,
                                ps.SolverConfig(dt=0.01, window=0.08))
    assert [fam.member(y).diagnostics["picard_iterations"][0] for y in fam.y_values] == [10, 9, 9, 9, 9]


def test_a_family_calls_the_reaction_once_per_sweep_of_its_slowest_member():
    problem = semilinear_problem()
    calls = []
    inner = problem.reaction.eval
    problem.reaction.eval = lambda z, t, X: calls.append(z.shape) or inner(z, t, X)
    fam = ps.solve_shift_family(problem, SEMILINEAR_YS, 0.0, 0.12, ps.SolverConfig(dt=0.01, window=0.04))
    sweeps = np.array([fam.member(y).diagnostics["picard_iterations"] for y in fam.y_values])
    # no right-hand side is evaluated at a converged iterate
    assert len(calls) == sweeps.max(axis=0).sum() == 24


def test_one_member_halves_its_window_and_the_others_do_not():
    config = ps.SolverConfig(dt=0.01, window=0.08, picard_max_iter=9)
    fam = family_against_serial(semilinear_problem(), SEMILINEAR_YS, 0.16, config)
    halvings = [fam.member(y).diagnostics["window_halvings"] for y in fam.y_values]
    assert halvings == [1] + [0] * 8
    assert [w["steps"] for w in fam.member(fam.y_values[0]).diagnostics["windows"]] == [4] * 4


def test_a_nine_point_ray_stencil_equals_one_ray_solves(heat_problem):
    config = ps.SolverConfig(dt=2e-3)
    rays = [1.0 + 0.3 * np.sin(np.pi / 4) * np.exp(2j * np.pi * k / 9) for k in range(9)]
    got = _solve(heat_problem, 0.1, [(mu, [0.1j], None) for mu in rays], config)
    for mu, res in zip(rays, got):
        assert_same_solve(res, ps.solve_complex_ray(heat_problem, mu, 0.1, config, shift=[0.1j]))


def test_cr_residual_time_solves_the_shared_centre_once(heat_problem, monkeypatch):
    import parastrip.analyticity as analyticity

    config = ps.SolverConfig(dt=2e-3)
    widths = [0.05, 0.025]
    calls = []

    def spy(problem, s_total, members, config, **kwargs):
        calls.append((len(members), kwargs))
        return _solve(problem, s_total, members, config, **kwargs)

    monkeypatch.setattr(analyticity, "_solve", spy)
    got = ps.cr_residual_time(heat_problem, 1.0, widths, 0.1, config)
    assert calls == [(9, {"keep": analyticity._hold_none})]
    grid = heat_problem.grid

    def end(mu):
        return ps.solve_complex_ray(heat_problem, mu, 0.1, config).final

    scale = ps.lp_norm(end(1.0), 2.0)
    for d, residual in zip(widths, got):
        d_re = (end(1.0 + d).values - end(1.0 - d).values) / (2.0 * d)
        d_im = (end(1.0 + 1j * d).values - end(1.0 - 1j * d).values) / (2.0 * d)
        assert residual == ps.lp_norm(ComplexField(grid, 0.5 * (d_re + 1j * d_im)), 2.0) / scale
    single = ps.cr_residual_time(heat_problem, 1.0, widths[1], 0.1, config)
    assert isinstance(single, float) and single == got[1]
    with pytest.raises(ConfigurationError, match="positive"):
        ps.cr_residual_time(heat_problem, 1.0, [0.05, 0.0], 0.1, config)


def family_through_a_hook(problem, y_grid, horizon, config, hold):
    """A family whose row hook records every row it is offered and holds the rows at the times
    ``hold``, checked against the same family solved without a hook; returns the hooked family."""
    from parastrip.analyticity import _at_times

    offered = {}

    def keep(index, times, block):
        assert not block.flags.writeable
        offered.setdefault(index, []).append((list(times), block.copy()))
        return _at_times(times, hold)

    got = ps.solve_shift_family(problem, y_grid, 0.0, horizon, config, keep=keep)
    want = ps.solve_shift_family(problem, y_grid, 0.0, horizon, config)
    assert sorted(offered) == list(range(len(want.y_values)))
    for index, y in enumerate(want.y_values):
        full, held = want.member(y), got.member(y)
        # each row once, in time order, with the bits a read of the unhooked member gives
        times = [t for ts, _ in offered[index] for t in ts]
        np.testing.assert_array_equal(times, full.times)
        rows = np.concatenate([block for _, block in offered[index]])
        np.testing.assert_array_equal(rows, np.stack([f.values for f in full.fields]))
        # the held rows and the last row, and nothing else
        mask = _at_times(full.times, hold)
        mask[-1] = True
        assert 1 < mask.sum() < len(mask)
        np.testing.assert_array_equal(held.times, full.times[mask])
        np.testing.assert_array_equal(np.stack([f.values for f in held.fields]), rows[mask])
        np.testing.assert_array_equal(held.final.values, full.final.values)
        untimed = [[dict(w, resolvent=None) for w in r.diagnostics["windows"]] for r in (held, full)]
        assert untimed[0] == untimed[1]
        for key in ("picard_iterations", "window_halvings"):
            assert held.diagnostics[key] == full.diagnostics[key], key
    return got


def test_a_hook_sees_every_row_of_a_member_that_halves_its_window():
    config = ps.SolverConfig(dt=0.01, window=0.08, picard_max_iter=9)
    fam = family_through_a_hook(semilinear_problem(), SEMILINEAR_YS, 0.16, config, [0.04, 0.1])
    assert [fam.member(y).diagnostics["window_halvings"] for y in fam.y_values] == [1] + [0] * 8


def test_a_hook_sees_the_strided_rows_of_a_2d_family():
    grid = ps.make_grid(2, 6.0, 16)
    problem = ps.CauchyProblem(grid, make_heat_operator(dim=2, strip_width=1.0),
                               lambda pts: np.exp(-0.5 * (pts[0] ** 2 + pts[1] ** 2)))
    line = np.linspace(-0.3, 0.3, 5)
    # windows of 8 nodes under stride 3: evenly spaced rows in each window, and a last row off the stride
    config = ps.SolverConfig(dt=2e-3, window=0.016, snapshot_stride=3)
    fam = family_through_a_hook(problem, np.column_stack([line, np.zeros_like(line)]), 0.05, config,
                                [0.0, 0.024])
    assert len(fam.times) == 3


def test_a_hook_sees_the_rows_a_read_replays_of_an_unforced_imex_march(heat_problem):
    config = ps.SolverConfig(dt=5e-3, integrator="imex")
    unhooked = ps.solve_shift_family(heat_problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.05, config)
    assert unhooked.member([0.0]).diagnostics["windows"][0]["implicit"] == "blocks"
    assert sum(len(b.nodes) for b in unhooked.member([0.0]).stored if isinstance(b, solver._Pending)) == 9
    fam = family_through_a_hook(heat_problem, np.linspace(-0.2, 0.2, 3), 0.05, config, [0.02])
    # a hooked march transforms its rows for the hook as it makes them: nothing is left to replay
    assert not any(isinstance(b, solver._Pending) for y in fam.y_values for b in fam.member(y).stored)


def test_a_failing_member_is_the_one_a_serial_run_meets_first(heat_problem):
    # y = 0.2 fails at t = 0.15, y = -0.1 only at t = 0.3: a serial run in
    # ascending y reaches y = -0.1 first, so that is the member named, and
    # the members after it are abandoned once it fails
    calls = []

    def source(t, grid, shift):
        y, s = float(np.imag(shift[0])), float(np.real(t))
        calls.append((y, s))
        if (y > 0.15 and s >= 0.15) or (-0.15 < y < -0.05 and s >= 0.3):
            raise DomainError(f"source undefined at t={complex(t)}")
        return np.zeros((1,) + grid.shape)

    problem = dataclasses.replace(heat_problem, source=source)
    config = ps.SolverConfig(dt=0.01, window=0.04)
    with pytest.raises(DomainError) as serial:
        ps.solve_real(problem, 0.0, 0.4, config, shift=[-0.1j])
    calls.clear()
    with pytest.raises(ParastripError) as info:
        ps.solve_shift_family(problem, [-0.2, -0.1, 0.0, 0.1, 0.2], 0.0, 0.4, config)
    assert str(info.value) == f"shift family member y=(-0.1,) failed: {serial.value}"
    assert info.value.__cause__ is not None
    reached = {y: max(s for yc, s in calls if yc == y) for y in (-0.2, 0.0, 0.1, 0.2)}
    assert reached[-0.2] == pytest.approx(0.4)
    assert reached[0.0] == reached[0.1] == pytest.approx(0.32) and reached[0.2] == pytest.approx(0.15)


def test_a_failing_member_keeps_its_error_type(heat_problem):
    # a member's typed error surfaces with its own type; anything else is wrapped as the base one
    def refusing(sign, kind, message):
        """A source that raises kind(message) for the member whose shift has sign * y > 0.05."""
        def source(t, grid, shift):
            if sign * np.imag(shift[0]) > 0.05:
                raise kind(message)
            return np.zeros((1,) + grid.shape)
        return source

    y_grid, config = [-0.1, 0.0, 0.1], ps.SolverConfig(dt=0.01)
    problem = dataclasses.replace(heat_problem, source=refusing(1, ConfigurationError, "source refuses this shift"))
    with pytest.raises(ConfigurationError, match=r"member y=\(0\.1,\) failed: source refuses") as info:
        ps.solve_shift_family(problem, y_grid, 0.0, 0.02, config)
    assert isinstance(info.value.__cause__, ConfigurationError)
    problem = dataclasses.replace(heat_problem, source=refusing(-1, ZeroDivisionError, "untyped"))
    with pytest.raises(ParastripError, match=r"member y=\(-0\.1,\) failed: untyped") as info:
        ps.solve_shift_family(problem, y_grid, 0.0, 0.02, config)
    assert type(info.value) is ParastripError and isinstance(info.value.__cause__, ZeroDivisionError)
    # a setting every member shares is reported by the first one, with its type
    with pytest.raises(ConfigurationError, match=r"member y=\(-0\.1,\) failed: integration length"):
        ps.solve_shift_family(heat_problem, y_grid, 0.0, 1e-13, config)


def test_a_failing_shared_stage_is_redone_member_by_member():
    # the reaction refuses the members with y > 0.25 after t = 0.05, naming
    # the largest shift it sees; it sees every member in one call, so the
    # group redoes the window one by one and y = 0.3 is named, as serially
    problem = semilinear_problem()
    inner = problem.reaction.eval

    def refusing(z, t, X):
        if np.any(z.imag > 0.25) and np.any(np.real(t) > 0.05):
            raise DomainError(f"refused at shift {float(np.max(z.imag)):.2f}")
        return inner(z, t, X)

    problem.reaction.eval = refusing
    config = ps.SolverConfig(dt=0.01, window=0.04)
    with pytest.raises(DomainError, match="0.30") as serial:
        ps.solve_real(problem, 0.0, 0.12, config, shift=[0.3j])
    with pytest.raises(ParastripError) as info:
        ps.solve_shift_family(problem, SEMILINEAR_YS, 0.0, 0.12, config)
    assert str(info.value) == f"shift family member y=(0.30000000000000004,) failed: {serial.value}"
    # the members the reaction accepts finish with their serial bits
    ok = _solve(problem, 0.12, [(1.0, [y * 1j], None) for y in SEMILINEAR_YS], config)
    assert len(ok) == 8 and isinstance(ok[-1], DomainError)
    for y, res in zip(SEMILINEAR_YS, ok[:-1]):
        assert_same_solve(res, ps.solve_real(problem, 0.0, 0.12, config, shift=[y * 1j]))


def test_the_members_that_pass_a_redone_window_march_together_again(monkeypatch):
    # the reaction refuses y > 0.25 after t = 0.05, in the second window: each member redoes
    # that window alone, and the seven it accepts march the third window as one group again
    problem = semilinear_problem()
    inner = problem.reaction.eval

    def refusing(z, t, X):
        if np.any(z.imag > 0.25) and np.any(np.real(t) > 0.05):
            raise DomainError(f"refused at shift {float(np.max(z.imag)):.2f}")
        return inner(z, t, X)

    problem.reaction.eval = refusing
    window, sizes = solver._picard_window, []
    monkeypatch.setattr(solver, "_picard_window",
                        lambda problem, members, *a: sizes.append(len(members)) or window(problem, members, *a))
    config = ps.SolverConfig(dt=0.01, window=0.04)
    got = _solve(problem, 0.12, [(1.0, [y * 1j], None) for y in SEMILINEAR_YS], config)
    assert sizes == [9, 9] + [1] * 9 + [7]
    assert len(got) == 8 and str(got[-1]) == "refused at shift 0.30"
    for y, res in zip(SEMILINEAR_YS, got[:-1]):
        assert_same_solve(res, ps.solve_real(problem, 0.0, 0.12, config, shift=[y * 1j]))


def test_an_imex_family_marches_each_member_once_over_its_whole_span(heat_problem, monkeypatch):
    march, calls = solver._march_imex, []

    def counted(problem, member, s_total, config):
        calls.append((member.index, s_total))
        return march(problem, member, s_total, config)

    monkeypatch.setattr(solver, "_march", lambda *a: pytest.fail("an imex solve marches no Picard window"))
    monkeypatch.setattr(solver, "_march_imex", counted)
    config = ps.SolverConfig(dt=0.01, window=0.02, integrator="imex")
    fam = ps.solve_shift_family(heat_problem, [-0.1, 0.0, 0.1], 0.0, 0.05, config)
    assert calls == [(0, 0.05), (1, 0.05), (2, 0.05)]
    assert all(len(fam.member(y).diagnostics["windows"]) == 1 for y in fam.y_values)


def test_a_non_finite_right_hand_side_block_raises_an_instability(heat_problem):
    # the source turns to nan at the last node only: every iterate stays
    # finite, and only the right-hand side evaluated there when read shows it
    def source(t, grid, shift):
        return np.full((1,) + grid.shape, np.nan if np.real(t) > 0.095 else 0.0)

    problem = dataclasses.replace(heat_problem, source=source)
    res = ps.solve_real(problem, 0.0, 0.1, ps.SolverConfig(dt=0.01, integrator="imex"))
    with pytest.raises(InstabilityError, match=r"non-finite right-hand side at t=\(0\.1"):
        res.time_derivatives


def test_trajectory_rows_are_wrapped_on_demand_without_a_second_check(heat_problem, monkeypatch):
    res = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=0.01, window=0.03))
    assert [len(b) for b in res.blocks] == [1, 3, 3, 3, 1]
    checks = []
    inner = ComplexField.__post_init__
    monkeypatch.setattr(ComplexField, "__post_init__", lambda self: checks.append(1) or inner(self))
    rows = list(res.fields)
    assert len(rows) == len(res) == len(res.time_derivatives) == 11
    np.testing.assert_array_equal(res.fields[-1].values, res.final.values)
    np.testing.assert_array_equal(res.fields[4].values, res.blocks[2][0])
    assert [f.values.base is res.blocks[1] for f in res.fields[1:4]] == [True] * 3
    assert not checks
    with pytest.raises(IndexError):
        res.fields[11]
    with pytest.raises(TypeError):
        res.fields[4] = ComplexField(heat_problem.grid, np.zeros(heat_problem.grid.shape))


@pytest.mark.parametrize("integrator", ["picard_voc", "imex"])
def test_stored_rows_and_their_derivatives_are_read_only(heat_problem, integrator):
    # a row written after time_derivatives was read would keep the derivative of the old row;
    # under imex the rows between the start and the final row are replayed when first read
    res = ps.solve_real(heat_problem, 0.0, 0.1, ps.SolverConfig(dt=0.01, window=0.03, integrator=integrator))
    res.time_derivatives
    assert not any(block.flags.writeable for block in res.blocks + res.derivative_blocks)
    with pytest.raises(ValueError):
        res.blocks[2][0] = 0
    with pytest.raises(ValueError):
        res.final.values[0] = 0
    with pytest.raises(ValueError):
        res.derivative_blocks[2][0] = 0
    with pytest.raises(TypeError):
        res.blocks[2] = np.zeros_like(res.blocks[2])
    with pytest.raises(TypeError):
        res.derivative_blocks[2] = np.zeros_like(res.derivative_blocks[2])


def hardy_reference(res, p, c0, m):
    """hardy_integral by its definition, one field at a time."""
    grid = res.fields[0].grid
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(res.times)))])
    du = np.array([ps.lp_norm(d, p) ** p for d in res.time_derivatives])
    part_du = float(np.trapezoid(du, x=arc))
    part = 0.0
    for alpha in multi_indices(grid.dim, 2 * m):
        vals = np.array([ps.lp_norm(ps.spectral_derivative(f, alpha), p) ** p for f in res.fields])
        part += float(np.trapezoid(vals, x=arc))
    part *= c0
    params = ps.NormParams(p=p, m=m)
    return {"du_dt": part_du, "derivatives": part, "total": part_du + part,
            "companion": ps.besov_norm(res.final, params) ** p + part}


def test_hardy_integral_equals_its_per_field_definition(heat_problem):
    path = ps.solve_along_path(heat_problem, 0.3, 0.05, 0.2, ps.SolverConfig(dt=2e-3, snapshot_stride=3))
    assert hardy_reference(path, 4.0, 0.5, 1) == ps.hardy_integral(path, 4.0, 0.5, 1)
    grid = ps.make_grid(2, 6.0, 64)
    problem = ps.CauchyProblem(grid, make_heat_operator(dim=2), lambda pts: np.exp(-(pts[0] ** 2 + pts[1] ** 2)))
    res = ps.solve_real(problem, 0.0, 0.05, ps.SolverConfig(dt=5e-3, integrator="imex"))
    assert hardy_reference(res, 6.0, 1.0, 1) == ps.hardy_integral(res, 6.0, 1.0, 1)


def count_phi_weights(monkeypatch):
    calls = []
    inner = solver._phi_weights
    monkeypatch.setattr(solver, "_phi_weights", lambda a: calls.append(1) or inner(a))
    return calls


def test_window_constants_are_computed_once_per_dt_for_an_autonomous_operator(heat_problem, monkeypatch):
    calls = count_phi_weights(monkeypatch)
    # binary fractions: every window has the same dt to the last bit
    res = ps.solve_real(heat_problem, 0.0, 0.5, ps.SolverConfig(dt=1 / 64, window=4 / 64))
    assert len(res.diagnostics["windows"]) == 8 and len(calls) == 1
    # dt = 1e-3: windows whose dt differs in the last bit each compute their own
    calls.clear()
    res = ps.solve_real(heat_problem, 0.0, 0.5, ps.SolverConfig(dt=1e-3))
    dts = {(w["s_end"] - w["s_start"]) / w["steps"] for w in res.diagnostics["windows"]}
    assert len(calls) == len(dts) < len(res.diagnostics["windows"])


def test_window_constants_follow_each_window_start_for_a_time_dependent_operator(monkeypatch):
    op = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.0 * t},
                                          ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    problem = ps.CauchyProblem(ps.make_grid(1, 8.0, 32), op, gaussian_datum())
    calls = count_phi_weights(monkeypatch)
    res = ps.solve_real(problem, 0.0, 0.5, ps.SolverConfig(dt=1 / 64, window=4 / 64))
    assert len(calls) == len(res.diagnostics["windows"]) == 8


def test_a_constant_family_evaluates_its_phi_weights_once_per_window_dt(heat_problem, monkeypatch):
    # the nine members share mu, dt and the frozen symbol of the constant diffusivity, so one
    # _phi_weights call serves them all; each keeps the bits of its serial solve
    calls = count_phi_weights(monkeypatch)
    config = ps.SolverConfig(dt=1e-3)
    fam = ps.solve_shift_family(heat_problem, np.linspace(-0.25, 0.25, 9), 0.0, 0.1, config)
    windows = fam.member(0.0).diagnostics["windows"]
    assert len(calls) == len({(w["s_end"] - w["s_start"]) / w["steps"] for w in windows}) == 2
    for y in fam.y_values:
        assert_same_solve(fam.member(y), ps.solve_real(heat_problem, 0.0, 0.1, config, shift=1j * np.asarray(y)))


def test_a_family_whose_frozen_symbols_differ_evaluates_the_weights_per_member(monkeypatch):
    # the mean of the shifted diffusivity 1 + (x + iy) / 20, and so P^_0, differs from member to
    # member (a periodic one's mean would not depend on y but for rounding)
    op = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.05 * z[0]},
                                          ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
                                          autonomous=True)
    problem = ps.CauchyProblem(ps.make_grid(1, 8.0, 32), op, gaussian_datum())
    calls = count_phi_weights(monkeypatch)
    # binary fractions: every window has the same dt to the last bit
    config = ps.SolverConfig(dt=1 / 64, window=4 / 64)
    fam = ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 5), 0.0, 0.25, config)
    assert len(fam.member(0.0).diagnostics["windows"]) == 4 and len(calls) == 5
    for y in fam.y_values:
        assert_same_solve(fam.member(y), ps.solve_real(problem, 0.0, 0.25, config, shift=1j * np.asarray(y)))


def test_imex_reuses_p_w_for_its_gmres_start_under_an_autonomous_operator(monkeypatch):
    op = ps.DivergenceOperator.from_terms(
        1, 1, 2, {((1, 0), (1, 0)): lambda z, t: 1.0 + 0.3 * np.cos(z[0]) * np.cos(z[1]),
                  ((0, 1), (0, 1)): 0.5, ((0, 0), (0, 0)): 0.2},
        ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0), autonomous=True,
    )
    # the coefficient varies along both axes: on 32^2 its one dense resolvent block
    # (16 MiB) exceeds the cap, so the autonomous march keeps GMRES
    grid = ps.make_grid(2, np.pi, 32)
    init = lambda pts: np.exp(np.cos(pts[0]) + 1j * np.sin(pts[1]))
    config = ps.SolverConfig(dt=0.01, integrator="imex")
    applies = []
    inner = ps.OperatorPlan.apply_hat
    monkeypatch.setattr(ps.OperatorPlan, "apply_hat", lambda self, hat, ts: applies.append(1) or inner(self, hat, ts))
    runs = {}
    for autonomous in (True, False):
        applies.clear()
        problem = ps.CauchyProblem(grid, dataclasses.replace(op, autonomous=autonomous), init)
        runs[autonomous] = (ps.solve_real(problem, 0.0, 0.05, config, shift=[0.1j, 0.0]), len(applies))
    (fast, fast_applies), (full, full_applies) = runs[True], runs[False]
    assert fast.diagnostics["windows"][0]["implicit"] == "gmres"
    assert full_applies - fast_applies == 5                   # one P application per step
    assert fast.diagnostics["windows"][0]["gmres_iterations"] == full.diagnostics["windows"][0]["gmres_iterations"]
    np.testing.assert_array_equal(fast.times, full.times)
    for a, b in zip(fast.fields + fast.time_derivatives, full.fields + full.time_derivatives):
        np.testing.assert_array_equal(a.values, b.values)


def test_a_lockstep_window_drops_the_operator_part_of_the_lanes_that_keep_none(heat_problem, monkeypatch):
    # a diffusivity 1 + Im(t)/2 is constant along the real rays of a time stencil, which keep no
    # operator part, and changes along the complex ones, which keep all of it: one window holds both
    import parastrip.analyticity as analyticity

    op = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.imag(t)},
                                          ps.StripSpec(2.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    problem = dataclasses.replace(heat_problem, op=op)
    config = ps.SolverConfig(dt=0.01, window=0.04)
    outcomes = []

    def spy(*args, **kwargs):
        outcomes.extend(_solve(*args, **kwargs))
        return outcomes

    monkeypatch.setattr(analyticity, "_solve", spy)
    ps.cr_residual_time(problem, 1.0, 0.05, 0.04, config)
    rays = [1.05, 0.95, 1.0 + 0.05j, 1.0 - 0.05j, 1.0]
    assert len(outcomes) == len(rays)
    for mu, got in zip(rays, outcomes):
        want = ps.solve_complex_ray(problem, mu, 0.04, config)
        np.testing.assert_array_equal(got.final.values, want.final.values)
        assert got.diagnostics["picard_iterations"] == want.diagnostics["picard_iterations"]
    sweeps = [got.diagnostics["picard_iterations"] for got in outcomes]
    assert sweeps[0] == sweeps[1] == sweeps[4] == [1] and min(sweeps[2] + sweeps[3]) > 1


@pytest.mark.parametrize("integrator", ["picard_voc", "imex"])
@pytest.mark.parametrize("start, named", [(False, "0.1"), (True, "0.0")], ids=["later_row", "start_row"])
def test_an_error_a_row_hook_raises_belongs_to_its_member(heat_problem, integrator, start, named):
    # member 2 (y = 0.1) refuses a later row, or member 1 (y = 0.0) its start row: a serial run
    # in ascending y meets that member's error first, so the family names it
    who = 1 if start else 2

    def keep(index, times, block):
        if index == who and (times[0] == 0.0) == start:
            raise ValueError(f"hook refuses member {index}")
        return np.ones(len(times), bool)

    config = ps.SolverConfig(dt=0.01, integrator=integrator)
    with pytest.raises(ParastripError, match=rf"member y=\({named},\) failed: hook refuses member {who}$") as info:
        ps.solve_shift_family(heat_problem, [-0.1, 0.0, 0.1], 0.0, 0.05, config, keep=keep)
    assert isinstance(info.value.__cause__, ValueError)
