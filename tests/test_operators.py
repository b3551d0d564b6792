import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError

from conftest import make_heat_operator


def test_multi_indices_order_and_content():
    assert ps.multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert ps.multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]
    idx = ps.multi_indices(2, 2)
    assert len(idx) == 6
    assert [sum(a) for a in idx] == sorted(sum(a) for a in idx)


def test_temporal_domain_geometry():
    dom = ps.TemporalDomain(angle=np.pi / 4, t_prime=1.0, horizon=2.0)
    assert dom.mu_disc_radius == pytest.approx(np.sin(np.pi / 4))
    assert dom.contains(0.5 + 0.4j)
    assert not dom.contains(0.5 + 0.6j)        # beyond the ray reach
    assert dom.contains(1.5 + 0.9j)            # reach capped at t_prime
    assert not dom.contains(2.5)
    assert not dom.contains(-0.1)
    with pytest.raises(ConfigurationError):
        ps.TemporalDomain(angle=2.0, t_prime=1.0, horizon=2.0)
    with pytest.raises(ConfigurationError):
        ps.TemporalDomain(angle=0.5, t_prime=3.0, horizon=2.0)


def test_operator_rejects_terms_above_order():
    with pytest.raises(ConfigurationError, match="exceeds operator order"):
        ps.DivergenceOperator.from_terms(
            order_half=1,
            components=1,
            dim=1,
            term_map={((2,), (1,)): 1.0},
            strip=ps.StripSpec(1.0),
            temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
        )


def test_heat_operator_is_squared_wavenumber_multiplier():
    op = make_heat_operator()
    g = ps.make_grid(1, np.pi, 64)
    x = g.axis_nodes()
    for k in (1.0, 4.0, -7.0):
        f = ps.ComplexField(g, np.exp(1j * k * x)[np.newaxis])
        out = ps.apply_operator(op, f, 0.0)
        np.testing.assert_allclose(out.values, k ** 2 * f.values, atol=1e-10)


def test_variable_coefficient_mode_coupling():
    # P u = D(c D u) with c(x) = 1 + 0.5 cos x couples mode k to k +- 1:
    # D u = k u, c k u picks up 0.25 k at the neighbours, outer D multiplies
    # each mode by its own wavenumber
    g = ps.make_grid(1, np.pi, 64)
    op = ps.DivergenceOperator.from_terms(
        order_half=1,
        components=1,
        dim=1,
        term_map={((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0])},
        strip=ps.StripSpec(1.0),
        temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    x = g.axis_nodes()
    k = 3.0
    out = ps.apply_operator(op, ps.ComplexField(g, np.exp(1j * k * x)[np.newaxis]), 0.0)
    want = (
        k * k * np.exp(1j * k * x)
        + 0.25 * k * (k + 1) * np.exp(1j * (k + 1) * x)
        + 0.25 * k * (k - 1) * np.exp(1j * (k - 1) * x)
    )
    np.testing.assert_allclose(out.values[0], want, atol=1e-10)


def test_time_dependent_coefficient():
    op = ps.DivergenceOperator.from_terms(
        order_half=1,
        components=1,
        dim=1,
        term_map={((1,), (1,)): lambda z, t: 1.0 + t},
        strip=ps.StripSpec(1.0),
        temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    g = ps.make_grid(1, np.pi, 32)
    f = ps.ComplexField(g, np.exp(2j * g.axis_nodes())[np.newaxis])
    out0 = ps.apply_operator(op, f, 0.0)
    out1 = ps.apply_operator(op, f, 1.0)
    np.testing.assert_allclose(out1.values, 2.0 * out0.values, atol=1e-11)


def periodic_variable_operator(calls=None):
    """D(c D u) + D(b u) + a u on [-pi, pi) with 2 pi-periodic, time-dependent coefficients."""

    def counted(f):
        def coeff(z, t):
            if calls is not None:
                calls.append(t)
            return f(z, t)
        return coeff

    return ps.DivergenceOperator.from_terms(
        order_half=1,
        components=1,
        dim=1,
        term_map={
            ((1,), (1,)): counted(lambda z, t: (1.0 + t) * (1.0 + 0.5 * np.cos(z[0]))),
            ((1,), (0,)): counted(lambda z, t: 0.3j * np.sin(2.0 * z[0])),
            ((0,), (0,)): counted(lambda z, t: 1.0 + t),
        },
        strip=ps.StripSpec(1.0),
        temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )


def band_limited(grid, seed):
    return ps.random_band_limited_fields(grid, 1, 1, np.random.default_rng(seed))[0]


def test_plan_memo_is_bit_identical_to_fresh_applications():
    calls = []
    op = periodic_variable_operator(calls)
    g = ps.make_grid(1, np.pi, 32)
    f = band_limited(g, 3)
    plan = ps.OperatorPlan(op, g, [0.1 + 0.2j])
    for t in (0.0, 0.5, 0.0):
        got = plan.apply(f, t).values
        np.testing.assert_array_equal(got, ps.apply_operator(op, f, t, [0.1 + 0.2j]).values)
    # the plan evaluated each term once per time change, the fresh calls once per call
    assert len(calls) == 2 * 3 * 3
    before = len(calls)
    plan.apply(f, 0.0)
    assert len(calls) == before


def test_plan_and_apply_operator_checks():
    op = periodic_variable_operator()
    g = ps.make_grid(1, np.pi, 32)
    two = ps.ComplexField.zeros(g, 2)
    # apply_operator keeps its order: components, then strip, then time
    with pytest.raises(ConfigurationError, match="components"):
        ps.apply_operator(op, two, 5.0, [2.0j])
    with pytest.raises(DomainError, match="strip"):
        ps.apply_operator(op, band_limited(g, 1), 5.0, [2.0j])
    with pytest.raises(DomainError, match="temporal domain"):
        ps.apply_operator(op, band_limited(g, 1), 5.0)
    with pytest.raises(DomainError, match="strip"):
        ps.OperatorPlan(op, g, [2.0j])
    with pytest.raises(ConfigurationError, match="dimension"):
        ps.OperatorPlan(op, ps.make_grid(2, np.pi, 16))
    plan = ps.OperatorPlan(op, g)
    with pytest.raises(ConfigurationError, match="plan"):
        plan.apply(band_limited(ps.make_grid(1, np.pi, 64), 1), 0.0)
    with pytest.raises(DomainError, match="temporal domain"):
        plan.apply(band_limited(g, 1), 5.0)


@settings(max_examples=30, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_apply_operator_is_linear(a, b, seed, t):
    op = periodic_variable_operator()
    g = ps.make_grid(1, np.pi, 32)
    f, h = band_limited(g, seed), band_limited(g, seed + 1)
    lhs = ps.apply_operator(op, ps.ComplexField(g, a * f.values + b * h.values), t).values
    rhs = a * ps.apply_operator(op, f, t).values + b * ps.apply_operator(op, h, t).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1.0 + abs(a) + abs(b)))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=-32, max_value=32), seed=st.integers(min_value=0, max_value=2 ** 16))
def test_lattice_roll_commutes_with_real_shift(k, seed):
    # P(x + k h) applied to u(x + k h) is (P u)(x + k h) for 2L-periodic coefficients
    op = periodic_variable_operator()
    g = ps.make_grid(1, np.pi, 32)
    f = band_limited(g, seed)
    rolled = ps.ComplexField(g, np.roll(f.values, -k, axis=1))
    lhs = ps.apply_operator(op, rolled, 0.25, [k * g.spacing]).values
    rhs = np.roll(ps.apply_operator(op, f, 0.25).values, -k, axis=1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_leading_symbol_shapes_and_values():
    op = make_heat_operator()
    z = np.zeros(1, dtype=complex)
    sym = ps.leading_symbol(op, z, 0.0, np.array([3.0]))
    assert sym.shape == (1, 1)
    assert sym[0, 0] == pytest.approx(9.0)
    sys_op = ps.DivergenceOperator.from_terms(
        order_half=1,
        components=2,
        dim=1,
        term_map={((1,), (1,)): 2.0},
        strip=ps.StripSpec(1.0),
        temporal=ps.TemporalDomain(np.pi / 4, 1.0, 2.0),
    )
    sym2 = ps.leading_symbol(sys_op, z, 0.0, np.array([2.0]))
    np.testing.assert_allclose(sym2, 8.0 * np.eye(2), atol=1e-14)


def test_ellipticity_constant_tracks_rotation(rng):
    op = make_heat_operator()
    z_points = [np.zeros(1, dtype=complex)]
    for theta, want in ((0.0, 1.0), (0.4, np.cos(0.4)), (-0.7, np.cos(0.7))):
        samples = ps.ellipticity_samples(op, z_points, [0.0], rng, thetas=[theta])
        c_hat = ps.estimate_ellipticity_constant(op, samples)
        assert c_hat == pytest.approx(want, abs=1e-10)


def test_garding_fit_recovers_laplacian_constants(rng):
    op = make_heat_operator()
    g = ps.make_grid(1, np.pi, 64)
    fields = ps.random_band_limited_fields(g, 1, 6, rng)
    fit = ps.verify_garding(op, fields)
    assert fit.c1 == pytest.approx(1.0, abs=1e-8)
    assert abs(fit.c2) < 1e-8
    assert fit.slack >= -1e-9
    assert fit.n_samples == 6


def test_random_band_limited_fields_are_seeded_and_band_limited():
    g = ps.make_grid(1, np.pi, 64)
    a = ps.random_band_limited_fields(g, 1, 3, np.random.default_rng(7))
    b = ps.random_band_limited_fields(g, 1, 3, np.random.default_rng(7))
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)
    hat = np.fft.fft(a[0].values[0])
    k = np.abs(np.fft.fftfreq(64, d=1.0 / 64))
    assert np.max(np.abs(hat[k > 16])) < 1e-12
