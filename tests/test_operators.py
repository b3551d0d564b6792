import dataclasses

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
    # the pairs alone, as the removed terms=/coeff= signature took them
    with pytest.raises(ConfigurationError, match="terms must be a dict"):
        ps.DivergenceOperator(1, 1, 1, (((1,), (1,)),), ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))


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


def test_coefficient_matrix_shapes_every_kind_of_entry():
    grid = ps.make_grid(2, 3.0, 8)
    pts = grid.meshgrid().astype(complex) + 0.1j
    e, z = [(1, 0), (0, 1)], (0, 0)
    matrix = np.array([[1.0, 2.0 - 1j], [0.5j, 4.0]])
    field = np.stack([np.cos(pts[0]), pts[1], np.sin(pts[1]), 1.0 + pts[0] * pts[1]]).reshape((2, 2) + grid.shape)
    op = ps.DivergenceOperator.from_terms(1, 2, 2, {
        (e[0], e[0]): 1.5 + 0.5j,                                  # a scalar
        (e[1], e[1]): lambda z, t: np.cos(z[0]) + t * z[1],        # point-shaped
        (e[0], e[1]): matrix,                                      # (M, M)
        (z, z): lambda z, t: field,                                # (M, M, *points)
        (z, e[0]): lambda z, t: np.ones(3),                        # none of those
    }, ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    eye = np.eye(2).reshape((2, 2, 1, 1))
    want = {(e[0], e[0]): eye * (1.5 + 0.5j), (e[1], e[1]): eye * (np.cos(pts[0]) + 0.25 * pts[1]),
            (e[0], e[1]): matrix.reshape(2, 2, 1, 1), (z, z): field}
    for (alpha, beta), expected in want.items():
        got = op.coefficient_matrix(alpha, beta, pts, 0.25)
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, np.broadcast_to(expected, (2, 2) + grid.shape))
    got = op.coefficient_matrix(e[0], e[1], pts, 0.25)
    got[0, 0] = 0.0                                                # a copy: the table keeps its entry
    assert matrix[0, 0] == 1.0
    assert op.coefficient_matrix(e[0], e[1], pts[:, 0, 0], 0.0).shape == (2, 2)
    with pytest.raises(ConfigurationError, match=r"unusable shape \(3,\)"):
        op.coefficient_matrix(z, e[0], pts, 0.0)


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


def reference_apply(op, grid, values, t, shift):
    """The one-field algorithm: P at one time on an (M, *grid) array, terms in op.terms order."""
    axes = tuple(range(1, 1 + grid.dim))
    pts = grid.meshgrid() + np.asarray(shift, dtype=complex).reshape((grid.dim,) + (1,) * grid.dim)
    hat = np.fft.fftn(values, axes=axes)
    out_hat = np.zeros_like(hat)
    for alpha, beta in op.terms:
        c = op.coefficient_matrix(alpha, beta, pts, t)
        c0 = c.reshape(c.shape[:2] + (-1,))[..., 0]
        inner_hat = hat * ps.derivative_multiplier(grid, beta)
        if np.all(c == c0.reshape(c0.shape + (1,) * grid.dim)):
            term_hat = np.einsum("ij,j...->i...", c0, inner_hat)
        else:
            inner = np.fft.ifftn(inner_hat, axes=axes)
            prod = np.einsum("ij...,j...->i...", c, inner)
            term_hat = np.fft.fftn(prod, axes=axes) * grid.dealias_mask()
        out_hat += term_hat * ps.derivative_multiplier(grid, alpha)
    return np.fft.ifftn(out_hat, axes=axes)


def stack_case(kind, dim):
    """(operator, grid, shift) with constant, variable or time-dependent coefficients."""
    e = [tuple(1 if i == ax else 0 for i in range(dim)) for ax in range(dim)]
    zero = (0,) * dim
    if kind == "constant":
        terms = {(e[0], e[0]): 1.5, (e[-1], zero): 0.2j, (zero, zero): 0.7}
    elif kind == "variable":
        terms = {(e[0], e[0]): lambda z, t: 1.0 + 0.5 * np.cos(z[0]),
                 (e[-1], e[-1]): lambda z, t: 1.0 + 0.25 * np.sin(z[-1]),
                 (zero, zero): 0.3}
    else:
        # 1 + t scales the leading term; t sin(z) is spatially constant only at t = 0
        terms = {(e[0], e[0]): lambda z, t: (1.0 + t) * (1.0 + 0.5 * np.cos(z[0])),
                 (e[-1], e[-1]): lambda z, t: 1.0 + t,
                 (e[-1], zero): lambda z, t: t * np.sin(z[-1])}
    op = ps.DivergenceOperator.from_terms(1, 1, dim, terms, ps.StripSpec(1.0),
                                          ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    shift = [0.1 + 0.2j] if dim == 1 else [0.1 + 0.2j, -0.1j]
    return op, ps.make_grid(dim, np.pi, 32 if dim == 1 else 16), shift


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "variable", "time_dependent"])
def test_stack_apply_matches_per_row_apply_bit_for_bit(kind, dim):
    op, g, shift = stack_case(kind, dim)
    ts = [0.0, 0.25, 0.5 + 0.1j, 0.25, 1.0]
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((len(ts), 1) + g.shape) + 1j * rng.standard_normal((len(ts), 1) + g.shape)
    got = ps.OperatorPlan(op, g, shift).apply_stack(stack, ts)
    for b, t in enumerate(ts):
        row = ps.OperatorPlan(op, g, shift).apply(ps.ComplexField(g, stack[b]), t).values
        np.testing.assert_array_equal(got[b], row)
        np.testing.assert_array_equal(got[b], reference_apply(op, g, stack[b], t, shift))


def test_stack_apply_on_a_system_matches_the_reference():
    g = ps.make_grid(1, np.pi, 32)
    coupling = lambda z, t: np.stack([np.stack([1.0 + 0.5 * np.cos(z[0]), 0.1 + t + 0 * z[0]]),
                                      np.stack([0.2j + 0 * z[0], 2.0 + 0 * z[0]])])
    op = ps.DivergenceOperator.from_terms(1, 2, 1, {((1,), (1,)): coupling, ((0,), (0,)): 0.5},
                                          ps.StripSpec(1.0), ps.TemporalDomain(np.pi / 4, 1.0, 2.0))
    ts = [0.0, 0.5]
    stack = np.random.default_rng(2).standard_normal((2, 2) + g.shape) + 0j
    got = ps.OperatorPlan(op, g).apply_stack(stack, ts)
    for b, t in enumerate(ts):
        np.testing.assert_array_equal(got[b], reference_apply(op, g, stack[b], t, [0.0]))


def test_plan_memo_keeps_the_latest_node_set():
    calls = []
    op = periodic_variable_operator(calls)
    g = ps.make_grid(1, np.pi, 32)
    plan = ps.OperatorPlan(op, g)
    stack = np.stack([band_limited(g, s).values for s in range(3)])
    plan.apply_stack(stack, [0.0, 0.1, 0.2])
    assert len(calls) == 3 * 3
    plan.apply_stack(stack, [0.0, 0.1, 0.2])
    assert len(calls) == 3 * 3
    # a new node set evaluates only the times the previous one lacked
    plan.apply_stack(stack, [0.2, 0.3, 0.4])
    assert len(calls) == 3 * 5
    with pytest.raises(ConfigurationError, match="components"):
        plan.apply_stack(np.zeros((1, 2) + g.shape, dtype=complex), [0.0])


def test_autonomous_is_inferred_from_constants_or_stated():
    temporal = ps.TemporalDomain(np.pi / 4, 1.0, 2.0)
    const = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): 1.0}, ps.StripSpec(1.0), temporal)
    assert const.autonomous
    ripple = {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0])}
    assert not ps.DivergenceOperator.from_terms(1, 1, 1, ripple, ps.StripSpec(1.0), temporal).autonomous
    assert ps.DivergenceOperator.from_terms(1, 1, 1, ripple, ps.StripSpec(1.0), temporal,
                                           autonomous=True).autonomous
    assert not periodic_variable_operator().autonomous
    # stated on the operator itself, e.g. by dataclasses.replace, it is kept as stated
    assert not dataclasses.replace(const, autonomous=False).autonomous


def test_autonomous_plan_evaluates_each_coefficient_once():
    calls = []

    def counted(f):
        def coeff(z, t):
            calls.append(t)
            return f(z, t)
        return coeff

    terms = {((1,), (1,)): lambda z, t: 1.0 + 0.5 * np.cos(z[0]),
             ((1,), (0,)): lambda z, t: 0.3j * np.sin(2.0 * z[0]),
             ((0,), (0,)): lambda z, t: 0.7 + 0 * z[0]}
    temporal = ps.TemporalDomain(np.pi / 4, 1.0, 2.0)
    auto = ps.DivergenceOperator.from_terms(1, 1, 1, {k: counted(f) for k, f in terms.items()},
                                            ps.StripSpec(1.0), temporal, autonomous=True)
    per_node = ps.DivergenceOperator.from_terms(1, 1, 1, terms, ps.StripSpec(1.0), temporal)
    g = ps.make_grid(1, np.pi, 32)
    plan, fresh = ps.OperatorPlan(auto, g, [0.2j]), ps.OperatorPlan(per_node, g, [0.2j])
    stack = np.stack([band_limited(g, s).values for s in range(3)])
    for ts in ([0.0, 0.1, 0.2], [0.2, 0.5 + 0.1j, 1.0], [0.3]):
        got = plan.apply_stack(stack[:len(ts)], ts)
        np.testing.assert_array_equal(got, fresh.apply_stack(stack[:len(ts)], ts))
    assert len(calls) == len(terms)
    # every node of a new node set is still checked, before anything is evaluated
    with pytest.raises(DomainError, match="temporal domain"):
        plan.apply_stack(stack[:2], [0.4, 5.0])
    with pytest.raises(DomainError, match="temporal domain"):
        plan.apply(band_limited(g, 1), 0.1 + 0.5j)
    assert len(calls) == len(terms)


def test_spectral_core_matches_the_physical_apply_on_the_chart():
    from parastrip import grid as grid_module, operators

    params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=dict(kappa=1.0, theta=0.04, sigma_v=0.2,
                                                              rho=0.3, v_min=0.02, v_max=0.06))
    g = ps.make_grid(2, 6.0, 16)
    op, _ = ps.heston_chart_generator(params, g)
    plan = ps.OperatorPlan(op, g, [0.1j, -0.05j])
    rng = np.random.default_rng(5)
    hat = rng.standard_normal((3, 1) + g.shape) + 1j * rng.standard_normal((3, 1) + g.shape)
    ts = [0.0, 0.25, 0.5]
    core = plan.apply_hat(hat, ts)
    round_trip = np.fft.fftn(plan.apply_stack(np.fft.ifftn(hat, axes=(2, 3)), ts), axes=(2, 3))
    assert np.max(np.abs(core - round_trip)) <= 1e-13 * np.max(np.abs(core))
    # six variable terms over two betas and three alphas: 2 inverse and 3 forward FFTs
    counts = {"fft": 0, "ifft": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_fftn", counting("fft", grid_module._fftn))
        mp.setattr(operators, "_ifftn", counting("ifft", grid_module._ifftn))
        plan.apply_hat(hat, ts)
    assert counts == {"fft": 3, "ifft": 2}


def test_spectral_core_of_constant_coefficients_is_the_symbol():
    op, g, shift = stack_case("constant", 2)
    rng = np.random.default_rng(9)
    hat = rng.standard_normal((2, 1) + g.shape) + 1j * rng.standard_normal((2, 1) + g.shape)
    want = np.zeros_like(hat)
    for alpha, beta in op.terms:
        c = op.terms[(alpha, beta)]
        want += c * (hat * ps.derivative_multiplier(g, beta)) * ps.derivative_multiplier(g, alpha)
    np.testing.assert_array_equal(ps.OperatorPlan(op, g, shift).apply_hat(hat, [0.0, 0.5]), want)


def axis_case(axes):
    """An autonomous 2-D operator whose variable coefficients vary along ``axes`` only.

    Each alpha has one variable term, so with full transforms the plan
    rounds as the term-by-term ``reference_apply`` does.
    """
    e, zero = [(1, 0), (0, 1)], (0, 0)

    def ripple(z):
        return sum(np.cos(z[a] + 0.3 * a) for a in axes) + 0 * z[0]

    terms = {(e[0], e[0]): lambda z, t: 1.0 + 0.5 * ripple(z),
             (e[1], e[1]): lambda z, t: 1.0 + 0.25 * ripple(z),
             (e[0], e[1]): 0.1,
             (zero, e[1]): lambda z, t: 0.3j * ripple(z),
             (zero, zero): 0.7}
    op = ps.DivergenceOperator.from_terms(1, 1, 2, terms, ps.StripSpec(1.0),
                                          ps.TemporalDomain(np.pi / 4, 1.0, 2.0), autonomous=True)
    return op, ps.make_grid(2, np.pi, 16), [0.1 + 0.2j, -0.1j]


@pytest.mark.parametrize("axes", [(0,), (1,)])
def test_autonomous_plan_transforms_variable_products_along_the_varying_axis_only(axes):
    from parastrip import grid as grid_module, operators

    op, g, shift = axis_case(axes)
    ts = [0.0, 0.25, 0.5 + 0.1j]
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((len(ts), 1) + g.shape) + 1j * rng.standard_normal((len(ts), 1) + g.shape)
    plan = ps.OperatorPlan(op, g, shift)
    hat = np.fft.fftn(stack, axes=(2, 3))
    core = plan.apply_hat(hat, ts)
    assert plan.var_axes == tuple(a - 2 for a in axes)
    for b, t in enumerate(ts):
        want = np.fft.fftn(reference_apply(op, g, stack[b], t, shift), axes=(1, 2))
        assert np.max(np.abs(core[b] - want)) <= 1e-13 * np.max(np.abs(want))
    got = plan.apply_stack(stack, ts)
    for b, t in enumerate(ts):
        np.testing.assert_array_equal(got[b], ps.OperatorPlan(op, g, shift).apply(ps.ComplexField(g, stack[b]), t).values)
    seen = []

    def recording(fn):
        def wrapped(values, grid, axes=None):
            seen.append(axes)
            return fn(values, grid, axes)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_fftn", recording(grid_module._fftn))
        mp.setattr(operators, "_ifftn", recording(grid_module._ifftn))
        plan.apply_hat(hat, ts)
    # two distinct betas and three distinct alphas among the variable terms
    assert seen == [tuple(a - 2 for a in axes)] * 5


@pytest.mark.parametrize("axes", [(0, 1), (1, 0)])
def test_autonomous_plan_varying_along_every_axis_keeps_full_transforms(axes):
    op, g, shift = axis_case(axes)
    ts = [0.0, 0.25]
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((len(ts), 1) + g.shape) + 1j * rng.standard_normal((len(ts), 1) + g.shape)
    plan = ps.OperatorPlan(op, g, shift)
    got = plan.apply_stack(stack, ts)
    assert plan.var_axes == (-2, -1)
    for b, t in enumerate(ts):
        np.testing.assert_array_equal(got[b], reference_apply(op, g, stack[b], t, shift))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["variable", "time_dependent"])
def test_non_autonomous_plans_transform_every_axis(kind, dim):
    op, g, shift = stack_case(kind, dim)
    plan = ps.OperatorPlan(op, g, shift)
    plan.apply_stack(np.ones((2, 1) + g.shape, dtype=complex), [0.0, 0.5])
    assert plan.var_axes == tuple(range(-dim, 0))


@pytest.mark.parametrize("shape", [(1, 1, 32), (1, 1, 64, 1)])
def test_a_stack_on_the_wrong_grid_is_a_configuration_error(shape):
    g = ps.make_grid(1, np.pi, 64)
    plan = ps.OperatorPlan(periodic_variable_operator(), g)
    for apply in (plan.apply_hat, plan.apply_stack):
        with pytest.raises(ConfigurationError, match=r"\(64,\)") as err:
            apply(np.ones(shape, dtype=complex), [0.0])
        assert str(shape) in str(err.value)
