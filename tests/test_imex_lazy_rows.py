"""Unforced blocks marches keep their rows unread until they are read.

Under the blocks step a row is a placeholder that the first read re-marches;
under GMRES every row is transformed as it is marched.  The oracle is the
same problem with a zero source: it takes the forced march, which transforms
every node as it goes, with the same arithmetic, so every row and every time
derivative must agree bit for bit.
"""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import parastrip as ps
import parastrip.solver
from parastrip.errors import InstabilityError
from parastrip.solver import _Pending, _Resolvent

from conftest import gaussian_datum, heston_chart, make_heat_operator
from test_imex_blocks import IMEX, implicit, problem_1d, real_solve, time_dependent


def zero_source(problem):
    return dataclasses.replace(problem, source=lambda t, grid, shift: 0.0)


def lazy_rows(res):
    """The rows ``res`` keeps unread."""
    return sum(len(block.nodes) for block in res.stored if isinstance(block, _Pending))


def assert_same_rows(lazy, eager, pending):
    """``lazy`` kept ``pending`` rows unread; read, they equal ``eager``'s every row."""
    assert lazy_rows(lazy) == pending and lazy_rows(eager) == 0
    np.testing.assert_array_equal(lazy.times, eager.times)
    assert len(lazy.fields) == len(eager.fields)
    assert lazy_rows(lazy) == 0
    for a, b in zip(lazy.fields, eager.fields):
        np.testing.assert_array_equal(a.values, b.values)
    for a, b in zip(lazy.time_derivatives, eager.time_derivatives):
        np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(lazy.final.values, eager.final.values)
    assert untimed(lazy.diagnostics) == untimed(eager.diagnostics)


def untimed(diagnostics):
    """The diagnostics without wall times: the solve's counts, records and settings."""
    def windows(ws):
        return [{**w, "resolvent": {k: v for k, v in w["resolvent"].items() if not k.endswith("_s")}}
                for w in ws]

    out = {k: v for k, v in diagnostics.items() if k != "window_wall_s"}
    out["shift"] = np.asarray(out["shift"]).tolist()
    out["windows"] = windows(out["windows"]) if "windows" in out else None
    out["segments"] = [windows(ws) for ws in out.get("segments", [])]
    return out


def twins(problem, solve):
    return solve(problem), solve(zero_source(problem))


def test_variable_heat_1d():
    lazy, eager = twins(problem_1d(), real_solve())
    assert lazy.diagnostics["windows"][0]["implicit"] == "blocks"
    assert_same_rows(lazy, eager, 9)


def test_the_gmres_step(monkeypatch):
    monkeypatch.setattr(parastrip.solver, "_BLOCK_BYTES_CAP", 0)
    lazy, eager = twins(problem_1d(), real_solve())
    (window,) = lazy.diagnostics["windows"]
    assert window["implicit"] == "gmres" and window["resolvent"]["refused"] == "cap"
    # GMRES transforms every node as it marches it
    assert_same_rows(lazy, eager, 0)


def test_a_time_dependent_operator():
    lazy, eager = twins(time_dependent(problem_1d()), real_solve())
    assert lazy.diagnostics["windows"][0]["resolvent"] == {"refused": "time_dependent"}
    assert_same_rows(lazy, eager, 0)


def test_the_snapshot_stride_keeps_its_rows_as_coefficients():
    config = dataclasses.replace(IMEX, snapshot_stride=3)
    lazy, eager = twins(problem_1d(), real_solve(config=config))
    # the start, nodes 3, 6 and 9, and the final node 10
    assert len(lazy.times) == 5
    assert_same_rows(lazy, eager, 3)


def test_a_two_segment_path():
    solve = lambda p: ps.solve_along_path(p, 0.1, 0.02, 0.05, IMEX)
    lazy, eager = twins(problem_1d(), solve)
    assert len(lazy.diagnostics["segments"]) == 2 and len(lazy.times) == 11
    # each segment's last node is transformed: the path's row 5 and its final row
    assert_same_rows(lazy, eager, 8)


def test_a_hook_that_holds_nothing_stores_the_transformed_last_node():
    def solve(problem):
        (res,) = parastrip.solver._solve(problem, 0.1, [(1.0, None, None)], IMEX,
                                         keep=lambda index, times, block: np.zeros(len(block), bool))
        return res

    lazy, eager = twins(problem_1d(), solve)
    assert len(lazy.stored) == 1
    assert_same_rows(lazy, eager, 0)


def test_the_heston_chart():
    from parastrip.xva import _pricing_config, _pricing_problem

    params, payoff, grid = heston_chart()
    lazy = ps.price_riskfree(params, payoff, grid, 1.0)
    eager = ps.solve_real(zero_source(_pricing_problem(params, payoff, grid)), 0.0, 1.0,
                          _pricing_config(grid, 1.0, None))
    assert lazy.diagnostics["windows"][0]["implicit"] == "blocks"
    # the price reads the final row alone, and nothing else is transformed for it
    price = ps.evaluate_at(lazy.final, [0.0, 0.04])[0]
    assert lazy_rows(lazy) == 399 and price == ps.evaluate_at(eager.final, [0.0, 0.04])[0]
    assert_same_rows(lazy, eager, 399)


def test_a_non_finite_coefficient_iterate_raises_in_the_march(monkeypatch):
    inner = parastrip.solver._blocks_step

    def sabotaged(resolvent):
        step = inner(resolvent)

        def broken(j, w_hat, f_hat, guess):
            new, count = step(j, w_hat, f_hat, guess)
            if j == 3:
                new = np.full_like(new, np.nan)
            return new, count

        return broken

    monkeypatch.setattr(parastrip.solver, "_blocks_step", sabotaged)
    transforms = []
    ifftn = parastrip.solver._ifftn
    monkeypatch.setattr(parastrip.solver, "_ifftn", lambda *a, **kw: transforms.append(1) or ifftn(*a, **kw))
    with pytest.raises(InstabilityError, match=r"non-finite iterate at t=\(0\.04"):
        real_solve()(problem_1d())
    assert transforms == []          # found on the coefficients, before any transform


def test_a_gmres_node_whose_transform_is_not_finite_raises_in_the_march(monkeypatch):
    inner = parastrip.solver._gmres_step

    def sabotaged(*args):
        step = inner(*args)

        def overflowing(j, w_hat, f_hat, guess):
            new, count = step(j, w_hat, f_hat, guess)
            # finite coefficients whose inverse transform overflows
            return (np.full_like(new, 1.5e308) if j == 3 else new), count

        return overflowing

    monkeypatch.setattr(parastrip.solver, "_gmres_step", sabotaged)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InstabilityError, match=r"non-finite iterate at t=\(0\.04"):
        real_solve()(time_dependent(problem_1d()))


def test_a_replayed_row_that_is_not_finite_raises_when_read():
    res = real_solve()(problem_1d())
    assert implicit(res) == "blocks" and lazy_rows(res) == 9
    replay = res.stored[1].replay
    # a finite start whose first replayed step overflows: node 1 is the first bad row
    replay.start = np.full_like(replay.start, 1.5e308)
    final = res.final.values.copy()          # the final row is read without replaying
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InstabilityError, match=rf"non-finite value at t=\({res.times[1].real}"):
        res.fields
    # nothing was replaced: a later read replays again from the start
    assert lazy_rows(res) == 9
    np.testing.assert_array_equal(res.final.values, final)


def test_a_read_replays_the_march_once(monkeypatch):
    calls = []
    inner = _Resolvent.apply
    monkeypatch.setattr(_Resolvent, "apply", lambda self, rhs: calls.append(1) or inner(self, rhs))
    res = real_solve()(problem_1d())
    (window,) = res.diagnostics["windows"]
    n = window["steps"]
    assert window["implicit"] == "blocks" and n == 10
    # node 0's predictor and corrector, then one step per node
    assert len(calls) == n + 1
    resolvent = weakref.ref(res.stored[1].replay.resolvent)
    res.final
    assert len(calls) == n + 1
    # the first read re-marches nodes 1 to n - 1 once; the last was stored as values
    assert len(res.fields) == n + 1 and len(calls) == 2 * n
    res.blocks, res.time_derivatives
    assert len(calls) == 2 * n and lazy_rows(res) == 0
    assert resolvent() is None          # every row read: the result holds no resolvent


def test_a_price_that_reads_the_final_row_keeps_no_rows():
    params, payoff, grid = heston_chart()
    tracemalloc.start()
    try:
        res = ps.price_riskfree(params, payoff, grid, 1.0)
        price = ps.evaluate_at(res.final, [0.0, 0.04])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(price) and lazy_rows(res) == 399
    # 399 coefficient rows of 64 KiB would be 26 MB alone
    assert peak <= 12e6


def _heat_1d(**kw):
    """1-D heat on 256 points: rows of 4 KiB."""
    grid = ps.make_grid(1, 10.0, 256)
    return ps.CauchyProblem(grid, make_heat_operator(strip_width=2.0), gaussian_datum(), **kw)


def _traced_peak(run):
    run()                                   # caches and imports outside the measurement
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_forced_march_that_stores_its_final_row_holds_one_row():
    # only the last node is due under this stride, so the march keeps no other row
    source = lambda t, grid, shift: 0.1 * np.exp(-np.real(t)) * np.ones((1,) + grid.shape)
    config = ps.SolverConfig(dt=2e-4, integrator="imex", snapshot_stride=10 ** 9)
    res, peak = _traced_peak(lambda: ps.solve_real(_heat_1d(source=source), 0.0, 0.1, config))
    assert len(res.times) == 2 and res.diagnostics["windows"][0]["steps"] == 500
    # all 501 rows of 4 KiB would be 2 MB
    assert peak <= 0.5e6, peak


def test_a_hooked_imex_family_hands_over_its_rows_in_runs():
    from parastrip.analyticity import _NormTable

    config = ps.SolverConfig(dt=2e-4, integrator="imex")
    problem = _heat_1d()

    def run():
        table = _NormTable(problem.grid, config.p, 1, hold=[0.05, 0.1])
        return ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 9), 0.0, 0.1, config, keep=table.add), table

    (fam, table), peak = _traced_peak(run)
    assert len(table.rows()) == 501 and np.allclose(fam.times, [0.05, 0.1], rtol=0.0, atol=1e-12)
    assert lazy_rows(fam.member([0.0])) == 0
    # one march's 500 due rows alone are 2 MB
    assert peak <= 2.5e6, peak


def test_a_hooked_unforced_family_marches_each_member_once(monkeypatch):
    from parastrip.analyticity import _at_times

    calls = []
    inner = _Resolvent.apply
    monkeypatch.setattr(_Resolvent, "apply", lambda self, rhs: calls.append(1) or inner(self, rhs))
    ys = np.linspace(-0.2, 0.2, 9)
    fam = ps.solve_shift_family(_heat_1d(), ys, 0.0, 0.1, ps.SolverConfig(dt=2e-3, integrator="imex"),
                                keep=lambda index, times, block: _at_times(times, [0.05]))
    windows = [fam.member(y).diagnostics["windows"] for y in fam.y_values]
    assert all(w["implicit"] == "blocks" and w["steps"] == 50 for (w,) in windows)
    # node 0's predictor and corrector, then one step per node, for the five members y <= 0 that
    # are solved (the others reflect them): the hook's rows replay nothing
    assert len(calls) == 5 * 51
    assert all(len(fam.member(y).fields) == 2 and lazy_rows(fam.member(y)) == 0 for y in fam.y_values)
    assert len(calls) == 5 * 51


def test_a_hooked_forced_march_holds_a_run_of_rows_not_every_row():
    from parastrip.analyticity import _at_times

    params, payoff, _ = heston_chart()
    params = dataclasses.replace(params, lambda_B=0.02, lambda_C=0.05, R_B=0.4, R_C=0.4, s_F=0.01)
    grid = ps.make_grid(2, 6.0, 32)

    def run(trace):
        riskfree = ps.price_riskfree(params, payoff, grid, 0.25)
        held = riskfree.times[::40]
        keep = lambda index, times, block: _at_times(times, held)
        if trace:
            tracemalloc.start()
        try:
            res = ps.price_xva_linear(params, payoff, riskfree, grid, 0.25, keep=keep)
            return res, held, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(False)                              # caches and imports outside the measurement
    res, held, peak = run(True)
    (window,) = res.diagnostics["windows"]
    assert window["implicit"] == "blocks" and window["steps"] == 400 and len(held) == 11
    np.testing.assert_array_equal(res.times, held)
    # the reference's 401 rows of 16 KiB, read by the source, are 6.4 MB; the price's own
    # 400 due rows would be 6.6 MB more
    assert peak <= 9e6, peak
