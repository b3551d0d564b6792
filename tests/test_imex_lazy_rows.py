"""Unforced imex marches keep their rows as Fourier coefficients until they are read.

The oracle is the same problem with a zero source: it takes the forced march,
which transforms every node as it goes, with the same arithmetic, so every
row and every time derivative must agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

import parastrip as ps
import parastrip.solver
from parastrip.errors import InstabilityError
from parastrip.solver import _Coefficients

from test_imex_blocks import IMEX, problem_1d, real_solve, time_dependent


def zero_source(problem):
    return dataclasses.replace(problem, source=lambda t, grid, shift: 0.0)


def lazy_rows(res):
    return sum(isinstance(block, _Coefficients) for block in res.stored)


def assert_same_rows(lazy, eager, pending):
    """``lazy`` kept ``pending`` rows as coefficients; read, they equal ``eager``'s every row."""
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
    assert_same_rows(lazy, eager, 9)


def test_a_time_dependent_operator():
    lazy, eager = twins(time_dependent(problem_1d()), real_solve())
    assert lazy.diagnostics["windows"][0]["resolvent"] == {"refused": "time_dependent"}
    assert_same_rows(lazy, eager, 9)


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


def test_final_only_stores_the_transformed_last_node():
    def solve(problem):
        (res,) = parastrip.solver._solve(problem, 0.1, [(1.0, None, None)], IMEX, final_only=True)
        return res

    lazy, eager = twins(problem_1d(), solve)
    assert len(lazy.stored) == 1
    assert_same_rows(lazy, eager, 0)


def test_the_heston_chart():
    from parastrip.xva import _pricing_config, _pricing_problem

    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    grid = ps.make_grid(2, 6.0, 64)
    payoff = ps.hermite_payoff_fit(ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=1e-3), 6.0)
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


def test_a_row_whose_transform_is_not_finite_raises_when_read():
    res = real_solve()(problem_1d())
    b = next(b for b, block in enumerate(res.stored) if isinstance(block, _Coefficients))
    # finite coefficients whose inverse transform overflows
    hat = np.full_like(res.stored[b].hat, 1.5e308)
    res.stored[b] = res.stored[b]._replace(hat=hat)
    assert np.all(np.isfinite(hat))
    final = res.final.values.copy()          # the final row is read without transforming row b
    assert isinstance(res.stored[b], _Coefficients)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InstabilityError, match=rf"non-finite value at t=\({res.times[b].real}"):
        res.fields
    np.testing.assert_array_equal(res.final.values, final)
