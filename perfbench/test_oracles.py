"""Checks of the benchmark itself: each oracle rejects a result perturbed past
its tolerance, seeds move data values only, and the tracer restores what it
wraps.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def test_closed_forms_match_quadrature_and_textbook_values():
    # L2 norm of the continued heat kernel against a direct quadrature
    width, t, y = 1.05, 0.3, -0.25
    x = np.linspace(-30.0, 30.0, 200001)
    s = width * width + 2.0 * t
    u = width / np.sqrt(s) * np.exp(-((x + 1j * y) ** 2) / (2.0 * s))
    quad = math.sqrt(np.sum(np.abs(u) ** 2) * (x[1] - x[0]))
    assert oracles.heat_l2_norm(t, y, width, 1.0) == pytest.approx(quad, rel=1e-10)
    # at-the-money Black-Scholes call, sigma 0.2, one year, zero rate
    assert oracles.lognormal_call(0.0, 1.0, 0.2, 1.0, -0.02) == pytest.approx(0.0796557, abs=1e-7)


def _analyticity_outputs(width=1.0, y=-0.25):
    return {
        "manifest": {"job_status": [{"name": "shift_family", "status": "ok"}]},
        "report.csv": [
            {"name": "cr_space_order", "value": "2.0", "status": "pass"},
            {"name": "path_spread", "value": "1e-12", "status": "pass"},
        ],
        "norms.csv": [{"t": str(t), "l2": repr(oracles.heat_l2_norm(t, y, width, 1.0))}
                      for t in (0.0, 0.25, 0.5)],
    }


def _perturb(outputs, table, key, value, row=-1):
    rows = [dict(r) for r in outputs[table]]
    rows[row][key] = value
    return dict(outputs, **{table: rows})


def test_analyticity_check_rejects_each_perturbation():
    good = _analyticity_outputs()
    assert oracles.check_analyticity(0, good, 1.0, 1.0, -0.25) == []
    want = float(good["norms.csv"][-1]["l2"])
    bad = [
        (1, good),
        (0, dict(good, manifest={"job_status": [{"name": "cr_time", "status": "failed"}]})),
        (0, _perturb(good, "report.csv", "status", "fail", row=0)),
        # the thresholds are re-checked even where the report says pass
        (0, _perturb(good, "report.csv", "value", "1.85", row=0)),
        (0, _perturb(good, "report.csv", "value", "2e-6", row=1)),
        (0, _perturb(good, "norms.csv", "l2", repr(want * (1.0 + 2e-6)))),
        (0, dict(good, **{"norms.csv": None})),
    ]
    for code, outputs in bad:
        assert oracles.check_analyticity(code, outputs, 1.0, 1.0, -0.25)


def _xva_outputs(strike=1.0, scale=1.0, adjustment=-1e-3):
    value = oracles.lognormal_call(0.0, strike, 0.2, 1.0, 0.02) * scale
    return {
        "manifest": {"job_status": [{"name": "xva_price", "status": "ok"}]},
        "report.csv": [{"name": "xva_at_atm", "value": repr(adjustment), "status": "pass"}],
        "xva.csv": [
            {"X": "0.0", "tau": "0.5", "V": "0.05"},
            {"X": "-0.046875", "tau": "1.0", "V": "0.06"},
            {"X": "0.0", "tau": "1.0", "V": repr(value)},
        ],
    }


def test_xva_check_rejects_each_perturbation():
    assert oracles.check_xva(0, _xva_outputs(), 1.0, 0.2, 1.0) == []
    assert oracles.check_xva(0, _xva_outputs(strike=1.04), 1.04, 0.2, 1.0) == []
    for outputs in (_xva_outputs(scale=1.011), _xva_outputs(scale=0.989),
                    _xva_outputs(adjustment=1e-4), _xva_outputs(adjustment=-0.2)):
        assert oracles.check_xva(0, outputs, 1.0, 0.2, 1.0)
    assert oracles.check_xva(1, _xva_outputs(), 1.0, 0.2, 1.0)


def test_heston_check_rejects_prices_past_two_percent():
    want = oracles.lognormal_call(0.0, 1.0, 0.2, 1.0, -0.02)
    assert oracles.check_heston(want * 1.019, 1.0, 0.04, 1.0) == []
    assert oracles.check_heston(want * 1.021, 1.0, 0.04, 1.0)
    assert oracles.check_heston(want * 0.979, 1.0, 0.04, 1.0)


def test_seeds_change_data_values_only():
    assert workloads.heston_inputs(0)["theta"] == 0.04
    assert workloads.xva_config(0)["xva"]["payoff"]["strike"] == 1.0
    for seed in range(1, 30):
        a, b = workloads.analyticity_config(seed), workloads.analyticity_config(0)
        assert 0.9 <= a["problem"]["initial"]["width"] <= 1.1
        a["problem"]["initial"]["width"] = b["problem"]["initial"]["width"]
        assert a == b
        x = workloads.xva_config(seed)["xva"]
        assert 0.95 <= x["payoff"]["strike"] <= 1.05
        assert 0.016 <= x["params"]["lambda_B"] <= 0.024
        assert 0.04 <= x["params"]["lambda_C"] <= 0.06
        assert 0.035 <= workloads.heston_inputs(seed)["theta"] <= 0.045
    assert workloads.inputs("xva_semilinear_1d", 7) == workloads.xva_config(7)


def test_tracer_counts_a_small_solve_and_restores_the_library():
    sys.path.insert(0, str(SRC))
    import parastrip as ps
    import parastrip.solver
    import tracer

    apply_before = parastrip.solver.apply_operator
    fftn_before = np.fft.fftn
    trace = tracer.Tracer()
    trace.install()
    try:
        assert parastrip.solver.apply_operator is not apply_before
        op = ps.DivergenceOperator.from_terms(
            1, 1, 1, {((1,), (1,)): 1.0}, ps.StripSpec(1.0), ps.TemporalDomain(0.5, 1.0, 2.0))
        grid = ps.make_grid(1, 10.0, 32)
        problem = ps.CauchyProblem(grid, op, lambda z: np.exp(-z[0] ** 2 / 2.0))
        ps.solve_real(problem, 0.0, 0.1, ps.SolverConfig(dt=0.01))
    finally:
        trace.uninstall()
    assert parastrip.solver.apply_operator is apply_before
    assert np.fft.fftn is fftn_before
    layers = trace.layer_metrics(0)
    assert layers["solver.solves"] == 1
    assert layers["solver.time_nodes"] == 10
    assert layers["solver.field_updates"] == 10 * 32
    assert layers["operators.apply_calls"] > 0 and layers["grid.fft_calls"] > 0
    assert layers["operators.apply_self_s"] <= layers["operators.apply_s"]
    assert layers["reaction.nemytskii_calls"] == 0
