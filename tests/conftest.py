import sys
from pathlib import Path

import numpy as np
import pytest

import parastrip as ps

sys.path.insert(0, str(Path(__file__).parent))


def make_heat_operator(dim=1, diffusivity=1.0, strip_width=np.inf,
                       angle=np.pi / 4, t_prime=1.0, horizon=2.0):
    terms = {}
    for ax in range(dim):
        e = tuple(1 if i == ax else 0 for i in range(dim))
        terms[(e, e)] = diffusivity
    return ps.DivergenceOperator.from_terms(
        1, 1, dim, terms, ps.StripSpec(strip_width),
        ps.TemporalDomain(angle=angle, t_prime=t_prime, horizon=horizon),
    )


def gaussian_datum(width=1.0, amplitude=1.0):
    def datum(pts):
        x = np.asarray(pts, dtype=np.complex128)[0]
        return amplitude * np.exp(-(x * x) / (2.0 * width * width))

    return datum


def heston_chart():
    """The benchmark's 64^2 Heston chart at its nominal inputs: params, payoff and grid."""
    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.01,
                                                              rho=0.0, v_min=0.02, v_max=0.06))
    payoff = ps.hermite_payoff_fit(ps.PayoffSpec(kind="smoothed_call", strike=1.0, epsilon=1e-3), 6.0)
    return params, payoff, ps.make_grid(2, 6.0, 64)


@pytest.fixture
def heat_problem():
    """1-D heat benchmark: Gaussian data on [-10, 10), n = 256."""
    grid = ps.make_grid(1, 10.0, 256)
    op = make_heat_operator(strip_width=2.0)
    return ps.CauchyProblem(grid=grid, op=op, initial=gaussian_datum())


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
