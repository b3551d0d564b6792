import numpy as np
import pytest
from hypothesis import given, strategies as st

import parastrip as ps
from parastrip.errors import ConfigurationError, DomainError

from oracles import heat_kernel_gaussian


def test_make_grid_validates_inputs():
    with pytest.raises(ConfigurationError, match="dim"):
        ps.make_grid(3, 1.0, 64)
    with pytest.raises(ConfigurationError, match="half_length"):
        ps.make_grid(1, -2.0, 64)
    with pytest.raises(ConfigurationError, match="power of two"):
        ps.make_grid(1, 1.0, 100)
    with pytest.raises(ConfigurationError, match="power of two"):
        ps.make_grid(1, 1.0, 4)


def test_grid_geometry():
    g = ps.make_grid(2, 5.0, 32)
    assert g.shape == (32, 32)
    assert g.spacing == pytest.approx(10.0 / 32)
    nodes = g.axis_nodes()
    assert nodes[0] == -5.0
    assert nodes[-1] == pytest.approx(5.0 - g.spacing)
    assert g.nyquist == pytest.approx(np.pi / g.spacing)
    mesh = g.meshgrid()
    assert mesh.shape == (2, 32, 32)
    assert mesh[0, 3, 7] == nodes[3]
    assert mesh[1, 3, 7] == nodes[7]


def test_spectral_derivative_is_real_multiplier_on_modes():
    # the derivative convention is i^{-|alpha|} d^alpha, so a lattice mode
    # exp(i k x) just picks up the real factor k^alpha
    g = ps.make_grid(1, np.pi, 64)
    x = g.axis_nodes()
    k = 3.0
    f = ps.ComplexField(g, np.exp(1j * k * x)[np.newaxis])
    d1 = ps.spectral_derivative(f, (1,))
    np.testing.assert_allclose(d1.values, k * f.values, atol=1e-12)
    d2 = ps.spectral_derivative(f, (2,))
    np.testing.assert_allclose(d2.values, k ** 2 * f.values, atol=1e-11)


def test_spectral_derivative_2d_mixed():
    g = ps.make_grid(2, np.pi, 32)
    mesh = g.meshgrid()
    f = ps.ComplexField(g, np.exp(1j * (2 * mesh[0] - 5 * mesh[1]))[np.newaxis])
    d = ps.spectral_derivative(f, (1, 1))
    np.testing.assert_allclose(d.values, 2.0 * (-5.0) * f.values, atol=1e-10)


@given(
    a=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    k1=st.integers(min_value=-10, max_value=10),
    k2=st.integers(min_value=-10, max_value=10),
)
def test_spectral_derivative_linear(a, b, k1, k2):
    g = ps.make_grid(1, np.pi, 64)
    x = g.axis_nodes()
    f1 = np.exp(1j * k1 * x)[np.newaxis]
    f2 = np.exp(1j * k2 * x)[np.newaxis]
    lhs = ps.spectral_derivative(ps.ComplexField(g, a * f1 + b * f2), (1,)).values
    rhs = (
        a * ps.spectral_derivative(ps.ComplexField(g, f1), (1,)).values
        + b * ps.spectral_derivative(ps.ComplexField(g, f2), (1,)).values
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_derivative_multiplier_matches_wavenumbers():
    g = ps.make_grid(1, 2.0, 16)
    mult = ps.derivative_multiplier(g, (1,))
    np.testing.assert_allclose(mult, g.wavenumbers()[0], atol=1e-14)
    assert np.max(np.abs(np.imag(mult))) == 0.0


def test_grid_geometry_is_cached_read_only():
    g = ps.make_grid(2, 3.0, 16)
    cached = [g.meshgrid(), g.dealias_mask(), ps.derivative_multiplier(g, (1, 2))] + list(g.wavenumbers())
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert g.meshgrid() is cached[0]
    assert ps.derivative_multiplier(g, [1, 2]) is cached[2]
    # equal grids compare equal whatever their caches hold
    assert g == ps.make_grid(2, 3.0, 16)


def test_hermite_eval_basis_and_continuation():
    data = ps.HermiteData(np.array([1.0 + 0j]), 1, "hermite")
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(
        ps.eval_hermite(data, x[np.newaxis]), np.exp(-x * x / 2.0), atol=1e-14
    )
    data1 = ps.HermiteData(np.array([0.0, 1.0 + 0j]), 1, "hermite")
    z = x + 0.3j
    np.testing.assert_allclose(
        ps.eval_hermite(data1, z[np.newaxis]), 2.0 * z * np.exp(-z * z / 2.0), atol=1e-12
    )


def test_sample_on_shifted_grid_matches_direct_evaluation():
    g = ps.make_grid(1, 4.0, 64)
    shift = np.array([0.5 + 0.25j])
    f = ps.sample_on_shifted_grid(lambda pts: np.exp(-pts[0] ** 2), g, shift)
    x = g.axis_nodes() + shift[0]
    np.testing.assert_allclose(f.values[0], np.exp(-x ** 2), atol=1e-14)


def test_sample_rejects_shift_outside_strip():
    g = ps.make_grid(1, 4.0, 64)
    strip = ps.StripSpec(0.2)
    with pytest.raises(DomainError):
        ps.sample_on_shifted_grid(lambda pts: pts[0], g, np.array([0.5j]), strip=strip)


def test_strip_spec_contains():
    strip = ps.StripSpec(0.5)
    assert strip.contains(np.array([0.1 + 0.49j]))
    assert not strip.contains(np.array([0.0 + 0.5j]))
    assert ps.StripSpec(np.inf).contains(np.array([1e6j]))


def test_complex_field_shape_validation():
    g = ps.make_grid(1, 1.0, 8)
    with pytest.raises(ConfigurationError):
        ps.ComplexField(g, np.zeros((3, 7)))   # wrong spatial extent
    with pytest.raises(ConfigurationError):
        ps.ComplexField(g, np.full(8, np.nan))
    f = ps.ComplexField.zeros(g, 2)
    assert f.values.shape == (2, 8)
    c = f.copy()
    c.values[0, 0] = 1.0
    assert f.values[0, 0] == 0.0


def test_complex_field_takes_rows_whose_last_axis_is_strided():
    # a row of a 2-component imex result: strides (16, 32)
    g = ps.make_grid(1, 1.0, 8)
    rows = np.ones((8, 2), dtype=np.complex128).T
    assert rows.strides == (16, 32)
    assert ps.ComplexField(g, rows).values.shape == (2, 8)
    rows[1, 3] = np.inf
    with pytest.raises(ConfigurationError, match="finite"):
        ps.ComplexField(g, rows)


def test_gaussian_oracle_consistency():
    # the frozen oracle itself satisfies the heat equation semigroup property
    x = np.linspace(-3, 3, 7)
    one = heat_kernel_gaussian(x, 0.3)
    two = heat_kernel_gaussian(x, 0.1 + 0.2)
    np.testing.assert_allclose(one, two, atol=1e-15)
    direct = heat_kernel_gaussian(x + 0.2j, 0.25 + 0.1j)
    assert np.all(np.isfinite(direct))


@pytest.mark.parametrize("dim", [1, 2])
def test_fft_helpers_equal_numpy_with_default_sizes(dim):
    from parastrip.grid import _fftn, _ifftn

    g = ps.make_grid(dim, 2.0, 16)
    rng = np.random.default_rng(dim)
    axes = tuple(range(-dim, 0))
    for shape in ((2,) + g.shape, (3, 4, 2) + g.shape):   # a field, a (K, n+1, M, *grid) stack
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        np.testing.assert_array_equal(_fftn(x, g), np.fft.fftn(x, axes=axes))
        np.testing.assert_array_equal(_ifftn(x, g), np.fft.ifftn(x, axes=axes))
        for sub in ((-1,), (-dim,)):
            np.testing.assert_array_equal(_fftn(x, g, sub), np.fft.fftn(x, axes=sub))
            np.testing.assert_array_equal(_ifftn(x, g, sub), np.fft.ifftn(x, axes=sub))
