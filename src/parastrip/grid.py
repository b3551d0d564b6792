"""Periodic grids, complex fields, and spectral primitives.

The computational arena is the periodic box [-L, L)^N truncating R^N.  All
derivatives are taken in the scaled convention D^alpha = i^(-|alpha|) d^alpha,
whose Fourier multiplier on exp(i k.x) is the real monomial k^alpha.  Entire
initial data of Hermite type P(z) exp(-|z|^2/2) can be evaluated anywhere in
C^N, which is what makes exact complex-shifted sampling possible.
"""

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import numpy.polynomial.hermite as nph
import numpy.polynomial.polynomial as npp

from .errors import ConfigurationError, DomainError

__all__ = [
    "Grid",
    "ComplexField",
    "HermiteData",
    "StripSpec",
    "make_grid",
    "spectral_derivative",
    "eval_hermite",
    "sample_on_shifted_grid",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _cached(build):
    """Memoize a no-argument Grid method on the instance.

    A Grid is frozen, so its geometry is a pure function of the instance.
    Every caller shares the cached arrays, which is why they are read-only.
    """
    key = "_cached_" + build.__name__

    @functools.wraps(build)
    def method(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = build(self)
            return value

    return method


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^dim with n points per axis.

    ``meshgrid``, ``wavenumbers``, ``dealias_mask`` and the derivative
    multipliers are computed once per instance and returned read-only.
    """

    dim: int
    half_length: float
    points_per_axis: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def spatial_axes(self) -> tuple:
        # axes of a (components, *shape) value array that carry space
        return tuple(range(1, self.dim + 1))

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def nyquist(self) -> float:
        return np.pi / self.spacing

    def axis_nodes(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_length + self.spacing * np.arange(n)

    @_cached
    def meshgrid(self) -> np.ndarray:
        """Node coordinates, stacked to shape (dim, n, ..., n)."""
        x = self.axis_nodes()
        return _read_only(np.stack(np.meshgrid(*([x] * self.dim), indexing="ij")))

    @_cached
    def wavenumbers(self) -> tuple:
        """Per-axis angular wavenumbers broadcast to the grid shape."""
        n = self.points_per_axis
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        return tuple(_read_only(k_axis) for k_axis in np.meshgrid(*([k] * self.dim), indexing="ij"))

    @_cached
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask over the spectral grid."""
        n = self.points_per_axis
        idx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        keep = idx <= n // 3
        mask = keep
        for _ in range(self.dim - 1):
            mask = np.logical_and.outer(mask, keep)
        return _read_only(mask.reshape(self.shape))


def make_grid(dim: int, half_length: float, points_per_axis: int) -> Grid:
    """Build a validated periodic grid.

    Parameters
    ----------
    dim : 1 or 2
    half_length : box half width L > 0; the domain is [-L, L)^dim
    points_per_axis : power of two, at least 8
    """
    if dim not in (1, 2):
        raise ConfigurationError(f"grid dim must be 1 or 2, got {dim!r}")
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ConfigurationError(f"half_length must be a positive finite real, got {half_length!r}")
    n = points_per_axis
    if not (isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0):
        raise ConfigurationError(f"points_per_axis must be a power of two >= 8, got {n!r}")
    return Grid(dim=dim, half_length=float(half_length), points_per_axis=int(n))


@dataclass
class ComplexField:
    """Complex-valued lattice function with one leading component axis."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        expected = self.grid.shape
        if v.ndim == self.grid.dim:
            v = v[np.newaxis]
        if v.ndim != self.grid.dim + 1 or v.shape[1:] != expected:
            raise ConfigurationError(
                f"field values must have shape (components,) + {expected}, got {v.shape}"
            )
        if v.shape[0] < 1:
            raise ConfigurationError("field needs at least one component")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ConfigurationError("field values must be finite")
        self.values = v

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "ComplexField":
        return cls(grid, np.zeros((components,) + grid.shape, dtype=np.complex128))


@dataclass(frozen=True)
class StripSpec:
    """Open complex strip R^N + i(-r, r)^N of declared holomorphy."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ConfigurationError(f"strip half_width must be positive, got {self.half_width!r}")

    def contains(self, shift) -> bool:
        shift = np.atleast_1d(np.asarray(shift, dtype=np.complex128))
        return bool(np.max(np.abs(shift.imag)) < self.half_width)


@dataclass(frozen=True)
class HermiteData:
    """Entire datum P(z) exp(-(z_1^2 + ... + z_N^2)/2).

    ``poly_coeffs`` encodes P in the chosen basis: plain monomials
    ('monomial') or physicists' Hermite polynomials ('hermite', evaluated by
    Clenshaw recurrence, the stable choice for high-degree payoff fits).
    For dim 2 the coefficient array is two dimensional, c[i, j] z1^i z2^j.
    """

    poly_coeffs: np.ndarray
    dim: int
    basis: str = "monomial"

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.poly_coeffs, dtype=np.complex128))
        if self.dim not in (1, 2):
            raise ConfigurationError(f"HermiteData dim must be 1 or 2, got {self.dim!r}")
        if coeffs.ndim != self.dim:
            raise ConfigurationError(
                f"poly_coeffs must be a {self.dim}-dimensional coefficient array, got ndim {coeffs.ndim}"
            )
        if self.basis not in ("monomial", "hermite"):
            raise ConfigurationError(f"unknown polynomial basis {self.basis!r}")
        object.__setattr__(self, "poly_coeffs", coeffs)


# exp() overflows past ~709 in double precision; reject a little earlier
_EXP_OVERFLOW = 700.0


def _stacked_points(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 0:
        if dim != 1:
            raise ConfigurationError("scalar evaluation point given for a multi-dimensional datum")
        return z.reshape(1)
    if z.shape[0] != dim:
        raise ConfigurationError(f"evaluation points must stack as (dim, ...), got shape {z.shape}")
    return z


def eval_hermite(data: HermiteData, z) -> np.ndarray:
    """Evaluate a Hermite datum at complex points.

    ``z`` stacks coordinates along the leading axis, shape (dim, ...).  The
    result drops that axis.  Points whose Gaussian factor would overflow
    double precision are rejected with a domain error.
    """
    pts = _stacked_points(z, data.dim)
    quad = 0.5 * np.sum(pts * pts, axis=0)
    if np.any(-quad.real > _EXP_OVERFLOW):
        worst = np.max(-quad.real)
        raise DomainError(
            f"Gaussian factor overflows: Re(-z^2/2) reaches {worst:.3g}, beyond exp range; "
            "the imaginary part of the evaluation point is too large"
        )
    if data.basis == "hermite":
        ev1, ev2 = nph.hermval, nph.hermval2d
    else:
        ev1, ev2 = npp.polyval, npp.polyval2d
    if data.dim == 1:
        poly = ev1(pts[0], data.poly_coeffs)
    else:
        poly = ev2(pts[0], pts[1], data.poly_coeffs)
    return poly * np.exp(-quad)


DataHandle = Union[HermiteData, Callable]


def _normalize_shift(dim: int, shift) -> np.ndarray:
    """A complex shift vector of length ``dim``; None means no shift."""
    if shift is None:
        return np.zeros(dim, dtype=np.complex128)
    arr = np.atleast_1d(np.asarray(shift, dtype=np.complex128))
    if arr.shape != (dim,):
        raise ConfigurationError(f"shift must be a complex vector of length {dim}, got shape {arr.shape}")
    return arr


def _shifted_points(grid: Grid, shift) -> np.ndarray:
    """Complex lattice x_j + shift, stacked to shape (dim, n, ..., n)."""
    shift = _normalize_shift(grid.dim, shift)
    return grid.meshgrid().astype(np.complex128) + shift.reshape((grid.dim,) + (1,) * grid.dim)


def sample_on_shifted_grid(data: DataHandle, grid: Grid, shift, strip: StripSpec = None) -> ComplexField:
    """Sample analytic data on the complex-shifted lattice x_j + shift.

    ``data`` is a HermiteData (entire, never strip-limited) or a callable
    taking stacked complex coordinates of shape (dim, ...).  ``shift`` is a
    complex vector of length dim; a declared ``strip`` restricts its
    imaginary part.
    """
    shift = _normalize_shift(grid.dim, shift)
    if strip is not None and not strip.contains(shift):
        raise DomainError(
            f"shift {shift} leaves the declared strip of half width {strip.half_width}"
        )
    pts = _shifted_points(grid, shift)
    if isinstance(data, HermiteData):
        if data.dim != grid.dim:
            raise ConfigurationError("datum dimension does not match the grid")
        vals = eval_hermite(data, pts)
    else:
        vals = np.asarray(data(pts), dtype=np.complex128)
    if vals.shape == grid.shape:
        vals = vals[np.newaxis]
    return ComplexField(grid, vals)


def _fftn(field_values: np.ndarray, grid: Grid) -> np.ndarray:
    return np.fft.fftn(field_values, axes=grid.spatial_axes)


def _ifftn(hat: np.ndarray, grid: Grid) -> np.ndarray:
    return np.fft.ifftn(hat, axes=grid.spatial_axes)


def _check_multi_index(alpha, dim: int) -> tuple:
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != dim or any(a < 0 for a in alpha):
        raise ConfigurationError(f"multi-index {alpha!r} is not a nonnegative {dim}-tuple")
    return alpha


def derivative_multiplier(grid: Grid, alpha) -> np.ndarray:
    """Fourier multiplier of D^alpha = i^(-|alpha|) d^alpha, i.e. k^alpha.

    Cached per grid and multi-index, and read-only like the grid geometry.
    """
    alpha = _check_multi_index(alpha, grid.dim)
    cache = grid.__dict__.setdefault("_cached_multipliers", {})
    mult = cache.get(alpha)
    if mult is None:
        mult = np.ones(grid.shape)
        for k_axis, a in zip(grid.wavenumbers(), alpha):
            if a:
                mult = mult * k_axis ** a
        mult = cache[alpha] = _read_only(mult)
    return mult


def spectral_derivative(field: ComplexField, alpha) -> ComplexField:
    """Apply D^alpha spectrally.

    In this convention D^alpha exp(i k.x) = k^alpha exp(i k.x), so repeated
    application composes additively in the multi-index with no aliasing.
    """
    mult = derivative_multiplier(field.grid, alpha)
    hat = _fftn(field.values, field.grid)
    return ComplexField(field.grid, _ifftn(hat * mult, field.grid))
