import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import parastrip as ps
from parastrip.errors import ConfigurationError
from parastrip.norms import _besov_norms, _fit_blocks, _lp_norms, _lp_windows


def mode(grid, k, amplitude=1.0):
    x = grid.axis_nodes()
    return ps.ComplexField(grid, amplitude * np.exp(1j * k * x)[np.newaxis])


@pytest.fixture
def pi_grid():
    return ps.make_grid(1, np.pi, 256)


def test_norm_params_defaults_and_validation():
    params = ps.NormParams(p=4.0, m=1)
    assert params.s == pytest.approx(1.5)          # 2 m (1 - 1/p)
    with pytest.raises(ConfigurationError):
        ps.NormParams(p=1.0)
    with pytest.raises(ConfigurationError):
        ps.NormParams(p=4.0, m=0)


def test_the_besov_smoothness_is_derived_from_p_and_m():
    # s has one owner, (p, m): it is no field, so replacing p or m carries a new s
    assert "s" not in {f.name for f in dataclasses.fields(ps.NormParams)}
    assert ps.NormParams(p=4.0, m=1).s == 1.5
    for p, m in ((2.5, 1), (3.0, 2), (7.3, 3), (np.pi + 2.0, 1)):
        params = ps.NormParams(p=p, m=m)
        assert params.s == 2.0 * m * (1.0 - 1.0 / p)
        assert dataclasses.replace(params, p=p + 1.0).s == 2.0 * m * (1.0 - 1.0 / (p + 1.0))
        assert dataclasses.replace(params, m=m + 1).s == 2.0 * (m + 1) * (1.0 - 1.0 / p)
    with pytest.raises(AttributeError):
        params.s = 1.0


def test_standing_condition_depends_on_dimension():
    params = ps.NormParams(p=4.0, m=1)
    params.require_standing_condition(1)           # 4 > 2 + 1/1
    with pytest.raises(ConfigurationError, match="standing condition"):
        params.require_standing_condition(2)       # 4 > 2 + 2/1 fails


def test_lp_norm_constant_field():
    g = ps.make_grid(1, 5.0, 64)
    f = ps.ComplexField(g, np.full((1, 64), 2.0 + 0j))
    # (|2|^4 * box volume)^(1/4) = (16 * 10)^(1/4)
    assert ps.lp_norm(f, 4.0) == pytest.approx(160.0 ** 0.25, rel=1e-13)
    assert ps.lp_norm(f, 2.0) == pytest.approx(np.sqrt(40.0), rel=1e-13)


def test_lp_norm_sums_components():
    g = ps.make_grid(1, 1.0, 16)
    v = np.ones((2, 16), dtype=complex)
    f = ps.ComplexField(g, v)
    # two unit components double the p-th power mass
    assert ps.lp_norm(f, 2.0) == pytest.approx(np.sqrt(2.0) * 2.0 ** 0.5, rel=1e-13)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_the_stacked_lp_norms_are_each_rows_lp_norm_bit_for_bit(dim, p):
    grid = ps.make_grid(dim, 3.0, 16)
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((41, 2) + grid.shape) + 1j * rng.standard_normal((41, 2) + grid.shape)
    assert _lp_norms(stack, grid, p) == [ps.lp_norm(ps.ComplexField(grid, row), p) for row in stack]


def test_littlewood_paley_reconstruction(pi_grid):
    f = mode(pi_grid, 3, amplitude=1.5)
    pieces = ps.littlewood_paley_blocks(f)
    assert len(pieces) == 5
    total = sum(p.values for p in pieces)
    np.testing.assert_allclose(total, f.values, atol=1e-12)


def test_littlewood_paley_nyquist_guard():
    g = ps.make_grid(1, 10.0, 64)                  # Nyquist ~ 10.05
    f = ps.ComplexField(g, np.ones((1, 64), dtype=complex))
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length: .* Nyquist"):
        ps.littlewood_paley_blocks(f)


def test_besov_norm_dyadic_scaling(pi_grid):
    # modes 1, 2, 4 land exactly in S_0, block 1, block 2; each block
    # adds a factor 2^s to the norm of the same-amplitude mode
    params = ps.NormParams(p=4.0, m=1)
    base = (2.0 * np.pi) ** 0.25
    n1 = ps.besov_norm(mode(pi_grid, 1), params)
    n2 = ps.besov_norm(mode(pi_grid, 2), params)
    n4 = ps.besov_norm(mode(pi_grid, 4), params)
    assert n1 == pytest.approx(base, rel=1e-10)
    assert n2 / n1 == pytest.approx(2.0 ** params.s, rel=1e-10)
    assert n4 / n2 == pytest.approx(2.0 ** params.s, rel=1e-10)


@given(amp=st.floats(min_value=0.01, max_value=100.0))
def test_besov_norm_homogeneous(amp):
    g = ps.make_grid(1, np.pi, 64)
    x = g.axis_nodes()
    f = ps.ComplexField(g, (np.exp(1j * x) + 0.5 * np.exp(3j * x))[np.newaxis])
    scaled = ps.ComplexField(g, amp * f.values)
    params = ps.NormParams(p=4.0, m=1)
    assert ps.besov_norm(scaled, params) == pytest.approx(
        amp * ps.besov_norm(f, params), rel=1e-10
    )


def reference_besov(field, params):
    """besov_norm block by block, one field at a time."""
    pieces = ps.littlewood_paley_blocks(field)
    total = ps.lp_norm(pieces[0], params.p) ** params.p
    for j, piece in enumerate(pieces[1:], start=1):
        total += 2.0 ** (j * params.s * params.p) * ps.lp_norm(piece, params.p) ** params.p
    return float(total ** (1.0 / params.p))


@pytest.mark.parametrize("dim,n,components", [(1, 64, 1), (1, 64, 2), (2, 32, 1)])
def test_batched_besov_matches_besov_norm_bit_for_bit(dim, n, components):
    grid = ps.make_grid(dim, np.pi, n)
    params = ps.NormParams(p=4.0, m=1)
    rng = np.random.default_rng(dim + n + components)
    shape = (7, components) + grid.shape
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _besov_norms(stack, grid, params)
    for b, v in enumerate(stack):
        field = ps.ComplexField(grid, v)
        assert got[b] == ps.besov_norm(field, params) == reference_besov(field, params)
    windows = _lp_windows(grid)
    assert windows is _lp_windows(grid)
    with pytest.raises(ValueError):
        windows[0, 0] = 0.0


def test_batched_besov_matches_besov_norm_bit_for_bit_on_a_gaussian_family():
    # the analyticity study's shape: a family of 32 shifted Gaussians on n = 256, L = 10, in one call
    grid = ps.make_grid(1, 10.0, 256)
    params = ps.NormParams(p=4.0, m=1)
    ys = np.linspace(-0.25, 0.25, 32)
    stack = np.exp(-0.5 * (grid.axis_nodes() + 1j * ys[:, np.newaxis]) ** 2)[:, np.newaxis]
    assert stack.shape == (32, 1, 256)
    got = _besov_norms(stack, grid, params)
    for b, v in enumerate(stack):
        field = ps.ComplexField(grid, v)
        assert got[b] == ps.besov_norm(field, params) == reference_besov(field, params)


@pytest.mark.parametrize("dim, n, L", [(1, 256, 10.0), (1, 256, 6.0), (1, 64, np.pi), (2, 128, 10.0), (2, 32, 3.0)])
def test_the_windows_sum_to_one_on_every_mode(dim, n, L):
    # the last window is the remainder above 2^(J-1), so no mode up to the Nyquist weighs zero
    grid = ps.make_grid(dim, L, n)
    windows = _lp_windows(grid)
    np.testing.assert_allclose(windows.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim, k", [(1, (16,)), (1, (33,)), (1, (127,)), (2, (20, 10)), (2, (31, 31))])
def test_a_single_mode_above_2_to_the_j_weighs_2_to_the_js_times_its_lp_norm(dim, k):
    grid = ps.make_grid(dim, np.pi, 256 if dim == 1 else 64)
    params = ps.NormParams(p=4.0, m=1)
    assert _fit_blocks(grid) == 4 and np.linalg.norm(k) >= 2 ** _fit_blocks(grid)
    phase = sum(k_axis * x for k_axis, x in zip(k, grid.meshgrid()))
    field = ps.ComplexField(grid, np.exp(1j * phase)[np.newaxis])
    assert ps.besov_norm(field, params) == pytest.approx(2.0 ** (4 * params.s) * ps.lp_norm(field, 4.0), rel=1e-12)


def test_a_top_band_perturbation_moves_the_norm():
    # the benchmark grid: Nyquist 40.2 hosts J = 4; a Gaussian has no energy above 2^J, so a small
    # mode at |k| = 34.6 > 2^(J+1) adds its own weighted L^p mass to the norm's p-th power
    grid = ps.make_grid(1, 10.0, 256)
    params = ps.NormParams(p=4.0, m=1)
    gaussian = ps.ComplexField(grid, np.exp(-0.5 * grid.axis_nodes() ** 2)[np.newaxis])
    bump = mode(grid, np.pi * 110 / 10.0, amplitude=1e-3)
    perturbed = ps.ComplexField(grid, gaussian.values + bump.values)
    added = ps.besov_norm(perturbed, params) ** 4 - ps.besov_norm(gaussian, params) ** 4
    assert added == pytest.approx(2.0 ** (4 * params.s * 4) * ps.lp_norm(bump, 4.0) ** 4, rel=1e-6)


def test_the_grid_sets_the_block_count():
    # the count of dyadic blocks has one owner, the grid: NormParams holds the exponents only
    assert tuple(f.name for f in dataclasses.fields(ps.NormParams)) == ("p", "m")
    # L = 6, n = 64: Nyquist 16.8 hosts 3 blocks, and the pinned value is this field's norm at J = 3
    grid = ps.make_grid(1, 6.0, 64)
    x = grid.axis_nodes()
    field = ps.ComplexField(grid, (np.exp(-0.5 * x ** 2) + 0.1 * np.exp(5j * x))[np.newaxis])
    assert _fit_blocks(grid) == 3
    assert len(ps.littlewood_paley_blocks(field)) == 4
    assert ps.besov_norm(field, ps.NormParams()) == 1.991714322501285


def test_a_grid_below_the_floor_is_refused_naming_both_grid_keys():
    grid = ps.make_grid(2, 10.0, 64)                # Nyquist 10.05 hosts 2 blocks, below the floor of 3
    field = ps.ComplexField(grid, np.ones((1,) + grid.shape, dtype=complex))
    with pytest.raises(ConfigurationError, match="grid.points_per_axis, grid.half_length"):
        ps.besov_norm(field, ps.NormParams())
