import numpy as np
import pytest
from hypothesis import given, strategies as st

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError
from parastrip.reaction import _guard_branch, in_branch_domain

from oracles import smoother_real_line


def test_smoothers_restrict_to_arctan_profile_on_reals():
    eps = 0.01
    v = np.linspace(-3.0, 3.0, 41)
    want_plus = v * (0.5 + np.arctan(v / eps) / np.pi)
    got = np.real(ps.f_plus(eps, v))
    np.testing.assert_allclose(got, want_plus, atol=1e-14)
    np.testing.assert_allclose(np.imag(ps.f_plus(eps, v)), 0.0, atol=1e-16)
    # f_minus restricts to the signed negative part
    np.testing.assert_allclose(np.real(ps.f_minus(eps, v)), v - want_plus, atol=1e-14)


def test_smoothers_approximate_positive_negative_parts():
    eps = 0.01
    assert ps.f_plus(eps, 5.0).real == pytest.approx(5.0, abs=eps)
    assert abs(ps.f_plus(eps, -5.0)) < eps
    assert ps.f_minus(eps, -5.0).real == pytest.approx(-5.0, abs=eps)
    assert abs(ps.f_minus(eps, 5.0)) < eps


@given(
    re=st.floats(min_value=-50.0, max_value=50.0),
    im=st.floats(min_value=-0.2, max_value=0.2),
)
def test_smoother_identity_and_reflection(re, im):
    z = complex(re, im)
    if abs(z - 0.25j) < 1e-6 or abs(z + 0.25j) < 1e-6:
        z += 0.01
    eps = 0.25
    total = ps.f_plus(eps, z) + ps.f_minus(eps, z)
    assert abs(total - z) <= 1e-13 * max(1.0, abs(z))
    assert abs(ps.f_minus(eps, z) + ps.f_plus(eps, -z)) <= 1e-13 * max(1.0, abs(z))


def test_smoother_identity_check_helper(rng):
    samples = rng.uniform(-10, 10, 500) + 1j * rng.uniform(-0.4, 0.4, 500)
    assert ps.smoother_identity_check(0.5, samples) < 1e-13


def test_smoother_branch_cut_guard():
    with pytest.raises(DomainError, match="branch cut"):
        ps.f_plus(0.5, 0.7j)
    with pytest.raises(DomainError):
        ps.f_minus(0.5, -1.2j)
    mask = in_branch_domain(1.0, np.array([1.0 + 0j, 2.0j]))
    np.testing.assert_array_equal(mask, [True, False])


def test_smoother_derivatives(rng):
    eps = 0.1
    cloud = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-0.5 * eps, 0.5 * eps, 200)
    z = np.concatenate([[0.3 + 0.02j, -1.7 + 0.0j, 4.0 - 0.05j], cloud])
    h = 1e-6
    # holomorphic: centred differences along the real and the imaginary axis agree
    real_step, imag_step = ((np.asarray(ps.f_plus(eps, z + step)) - np.asarray(ps.f_plus(eps, z - step))) / (2 * step)
                            for step in (h, 1j * h))
    np.testing.assert_allclose(real_step, imag_step, atol=1e-8)


def test_reaction_spec_jet_layout():
    spec = ps.ReactionSpec(order_half=1, components=2, dim=2, eval=lambda z, t, X: X[0])
    assert spec.jet_indices == [(0, 0), (0, 1), (1, 0)]
    assert spec.n_slots == 3


def test_nemytskii_linear_reaction():
    g = ps.make_grid(1, np.pi, 32)
    spec = ps.ReactionSpec(order_half=1, components=1, dim=1, eval=lambda z, t, X: 2.0 * X[0])
    u = ps.ComplexField(g, np.exp(1j * g.axis_nodes())[np.newaxis])
    du = ps.spectral_derivative(u, (1,))
    out = ps.nemytskii(spec, [u, du], np.zeros(1), 0.0, g)
    np.testing.assert_allclose(out.values, 2.0 * u.values, atol=1e-14)
    with pytest.raises(ConfigurationError, match="jet fields"):
        ps.nemytskii(spec, [u], np.zeros(1), 0.0, g)


def test_nemytskii_domain_check_names_offender():
    g = ps.make_grid(1, 2.0, 16)
    spec = ps.ReactionSpec(
        order_half=0,
        components=1,
        dim=1,
        eval=lambda z, t, X: X[0],
        domain_check=lambda X: np.abs(X) < 0.5,
    )
    u = ps.ComplexField(g, np.linspace(0.0, 1.0, 16)[np.newaxis])
    with pytest.raises(DomainError, match="left the reaction's holomorphy domain"):
        ps.nemytskii(spec, [u], np.zeros(1), 0.0, g)


def test_jet_lipschitz_estimate_linear_case(rng):
    # d(3 u)/du = 3 everywhere, so the sampled sup is exactly 3
    spec = ps.ReactionSpec(order_half=0, components=1, dim=1, eval=lambda z, t, X: 3.0 * X[0])
    box = [((-1.0, 1.0), (-0.5, 0.5))]
    got = ps.jet_lipschitz_estimate(spec, box, [np.zeros(1)], [0.0], rng, n_samples=40)
    assert got == pytest.approx(3.0, rel=1e-6)


def test_jet_lipschitz_estimate_takes_a_complex_step_on_a_real_reaction_at_real_jets():
    # real jets of a reaction real on them: the imaginary step has no cancellation, so the
    # estimate meets the analytic jacobian's to rounding, which a central difference cannot
    def eval_(z, t, X):
        return X[0] ** 3 - 2.0 * X[0] * X[1]

    def jac(z, t, X):
        out = np.zeros((1, 2, 1) + X.shape[2:], dtype=np.complex128)
        out[0, 0, 0] = 3.0 * X[0, 0] ** 2 - 2.0 * X[1, 0]
        out[0, 1, 0] = -2.0 * X[0, 0]
        return out

    box = [((-1.0, 1.5), (0.0, 0.0)), ((-2.0, 1.0), (0.0, 0.0))]
    numeric = ps.jet_lipschitz_estimate(ps.ReactionSpec(order_half=1, components=1, dim=1, eval=eval_),
                                        box, [np.zeros(1)], [0.0], np.random.default_rng(5), n_samples=50)
    # the closed-form jacobian's sup over the same seeded samples, drawn as the estimate draws them
    rng, analytic = np.random.default_rng(5), 0.0
    for _ in range(50):
        X = np.zeros((2, 1, 1), dtype=np.complex128)
        for slot, ((re_lo, re_hi), (im_lo, im_hi)) in enumerate(box):
            X[slot] = rng.uniform(re_lo, re_hi, size=(1, 1)) + 1j * rng.uniform(im_lo, im_hi, size=(1, 1))
        rng.integers(1), rng.integers(1)                        # the sampled point and time
        analytic = max(analytic, float(np.max(np.abs(jac(None, 0.0, X)))))
    assert numeric == pytest.approx(analytic, rel=1e-14, abs=0.0)


def test_smoothed_parts_share_one_turn_and_match_the_smoothers(monkeypatch):
    import parastrip.reaction as reaction

    z = np.array([0.3 + 0.02j, -1.7 + 0.0j, 4.0 - 0.05j, 0.0])
    calls = []
    turn = reaction._turn
    monkeypatch.setattr(reaction, "_turn", lambda eps, w: calls.append(1) or turn(eps, w))
    minus, plus = reaction._smoothed_parts(0.1, z)
    assert len(calls) == 1
    np.testing.assert_array_equal(minus, ps.f_minus(0.1, z))
    np.testing.assert_array_equal(plus, ps.f_plus(0.1, z))
    with pytest.raises(DomainError, match="branch cut"):
        reaction._smoothed_parts(0.1, np.array([1.0, 0.5j]))


def test_nemytskii_is_the_stack_core_with_one_node():
    g = ps.make_grid(2, np.pi, 8)
    seen = []

    def reaction(z, t, X):
        seen.append((z.shape, np.shape(t), X.shape))
        return z[0] * X[0] + t * X[2]

    spec = ps.ReactionSpec(order_half=1, components=1, dim=2, eval=reaction)
    u = ps.ComplexField(g, np.exp(np.cos(g.meshgrid()[0]) + 1j * g.meshgrid()[1]))
    jets = [u, ps.spectral_derivative(u, (0, 1)), ps.spectral_derivative(u, (1, 0))]
    out = ps.nemytskii(spec, jets, [0.1j, 0.0], 0.5, g)
    assert seen == [((2, 1) + g.shape, (1, 1, 1), (3, 1, 1) + g.shape)]
    want = (g.meshgrid()[0] + 0.1j) * u.values + 0.5 * jets[2].values
    np.testing.assert_array_equal(out.values, want)
    spec.eval = lambda z, t, X: X[0, 0, 0, :2]
    with pytest.raises(ConfigurationError, match="returned shape"):
        ps.nemytskii(spec, jets, None, 0.5, g)


def _log_form(eps, z):
    """(f_minus, f_plus) written with the log of the quotient, as the smoothers are defined."""
    w = z / eps
    turn = (1j / (2.0 * np.pi)) * np.log((1.0 - 1j * w) / (1.0 + 1j * w))
    return z * (0.5 - turn), z * (0.5 + turn)


@pytest.mark.parametrize("eps", [1e-3, 0.25])
def test_smoothers_are_exactly_real_and_match_the_arctan_oracle_on_the_real_line(eps, rng):
    w = np.concatenate([np.linspace(-5e5, 5e5, 2001), rng.uniform(-5e5, 5e5, 2000),
                        np.geomspace(1e-8, 5e5, 1000), -np.geomspace(1e-8, 5e5, 1000), [0.0]])
    v = w * eps
    want = np.array([smoother_real_line(x, eps) for x in v]).T
    for got, oracle, large in zip((ps.f_minus(eps, v), ps.f_plus(eps, v)), want, (v <= 0.0, v >= 0.0)):
        assert np.all(got.imag == 0.0)
        gap = np.abs(got.real - oracle)
        # one part cancels to ~|v|/|w| in its tail, so ulps there count at the scale of
        # f_minus + f_plus = v; the other part is at least |v|/2 and counts its own ulps
        assert np.all(gap <= 4.0 * np.spacing(np.abs(v)))
        assert np.all(gap[large] <= 4.0 * np.spacing(np.abs(oracle[large])))


def test_smoothers_match_the_log_form_off_the_real_line(rng):
    eps = 0.05
    cloud = rng.uniform(-5.0, 5.0, 4000) + 1j * rng.uniform(-3.0 * eps, 3.0 * eps, 4000)
    # beside the cuts on both sides, and on the imaginary axis between the branch points
    edges = np.array([s * 1e-6 + 1j * y for s in (1.0, -1.0) for y in eps * np.array([-40.0, -2.0, 2.0, 40.0])])
    z = np.concatenate([cloud, edges, 1j * eps * np.linspace(-0.99, 0.99, 21)])
    for got, want in zip((ps.f_minus(eps, z), ps.f_plus(eps, z)), _log_form(eps, z)):
        # both forms take one part as the difference 1/2 - turn, which cancels in its tail, so
        # there the relative scale is |z|, that of f_minus + f_plus = z
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), np.abs(z)))


@pytest.mark.parametrize("eps", [1e-3, 0.5])
def test_the_branch_guard_still_refuses_the_cuts_and_their_ends(eps):
    along = 1j * eps * np.array([1.0, 1.5, 10.0, 1e6])
    near = 0.9e-9 * eps * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    for z in [*along, *-along, *(1j * eps + near), *(-1j * eps + near)]:
        with pytest.raises(DomainError, match="branch cut"):
            _guard_branch(eps, np.asarray(z))
        with pytest.raises(DomainError, match="branch cut"):
            ps.f_plus(eps, z)
    # just past the guard, and beside the cut, the smoothers are finite
    for z in (1j * eps + 2e-9 * eps, -1j * eps - 2e-9 * eps, 1e-12 + 2j * eps):
        assert np.isfinite(ps.f_plus(eps, z)) and np.isfinite(ps.f_minus(eps, z))
