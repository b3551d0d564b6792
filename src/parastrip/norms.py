"""Discrete L^p and Besov norms.

The Besov norm is the discrete Littlewood-Paley proxy

    ( ||S_0 u||_p^p + sum_{j=1..J} 2^(j s p) ||Delta_j u||_p^p )^(1/p)

with smooth dyadic cutoffs supported in [2^(j-1), 2^(j+1)] for j < J and a
last block that takes every mode above 2^(J-1); the grid sets J
(``_fit_blocks``).  It replaces the trace-method interpolation norm
everywhere a data norm is needed; on a fixed grid the two are equivalent
and only the proxy is implemented.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import ComplexField, Grid, _cached, _fftn, _ifftn, _read_only

__all__ = ["NormParams", "lp_norm", "littlewood_paley_blocks", "besov_norm"]


# fewest Littlewood-Paley blocks a Besov norm may use
MIN_DYADIC_BLOCKS = 3


def _fit_blocks(grid: Grid) -> int:
    """Largest dyadic block count, up to 4, that the grid's Nyquist wavenumber can host.

    Raises ConfigurationError, naming the grid keys, when that is fewer
    than MIN_DYADIC_BLOCKS.
    """
    blocks = min(4, int(math.floor(math.log2(grid.nyquist))) - 1)
    if blocks < MIN_DYADIC_BLOCKS:
        raise ConfigurationError(
            f"grid.points_per_axis, grid.half_length: a Besov norm needs {MIN_DYADIC_BLOCKS} dyadic "
            f"blocks, i.e. a Nyquist wavenumber pi n / (2 L) >= {2 ** (MIN_DYADIC_BLOCKS + 1)}; "
            f"n={grid.points_per_axis} and L={grid.half_length:g} give {grid.nyquist:.4g}"
        )
    return blocks


@dataclass(frozen=True)
class NormParams:
    """Exponents for the data norms.

    The smoothness ``s`` is the parabolic trace smoothness 2 m (1 - 1/p).
    The block count is the grid's (``_fit_blocks``), so it is no field.
    The standing condition p > 2 + N/m depends on the dimension N, so it is a
    separate check, ``require_standing_condition(N)``.
    """

    p: float = 4.0
    m: int = 1

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigurationError(f"p must exceed 1, got {self.p!r}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ConfigurationError(f"m must be a positive integer, got {self.m!r}")

    @property
    def s(self) -> float:
        return 2.0 * self.m * (1.0 - 1.0 / self.p)

    def require_standing_condition(self, dim: int):
        bound = 2.0 + dim / self.m
        if not self.p > bound:
            raise ConfigurationError(
                f"integrability p={self.p} violates the standing condition p > 2 + N/m = {bound} for N={dim}"
            )


def lp_norm(field: ComplexField, p: float) -> float:
    """Discrete L^p norm over the box, components summed in the same power."""
    if not p >= 1.0:
        raise ConfigurationError(f"p must be >= 1, got {p!r}")
    return _lp_norms(field.values[np.newaxis], field.grid, p)[0]


def _powers(values: np.ndarray, p: float, scratch=False) -> np.ndarray:
    """|v|^p of every entry: for an even integer p, (re^2 + im^2)^(p/2), by multiplications for
    p = 2 and 4; any other p as np.abs(v) ** p.  ``scratch`` lets it square ``values`` in place
    (a C-contiguous complex stack), which saves a buffer of squares."""
    if p % 2:
        power = np.abs(values)
        power **= p
        return power
    if scratch:
        parts = values.view(np.float64)        # re, im interleaved
        parts *= parts
        square = parts[..., 0::2] + parts[..., 1::2]
    else:
        square = values.real * values.real
        square += values.imag * values.imag
    square **= p / 2
    return square


def _lp_norms(values: np.ndarray, grid: Grid, p: float) -> list:
    """The L^p norm of every row of a (B, M, *grid) stack; ``lp_norm`` is its one-row case."""
    sums = np.sum(_powers(values, p), axis=tuple(range(1, values.ndim)))
    return [float((total * grid.cell_volume) ** (1.0 / p)) for total in sums]


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        hi = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return lo / (lo + hi)


def _lowpass_profile(r: np.ndarray) -> np.ndarray:
    """psi(r): 1 on r <= 1, 0 on r >= 2, smooth in between."""
    return _smooth_step(2.0 - np.asarray(r, dtype=np.float64))


@_cached
def _lp_windows(grid: Grid) -> np.ndarray:
    """Spectral windows [psi_0, psi_1 - psi_0, ..., psi_(J-1) - psi_(J-2), 1 - psi_(J-1)], stacked.

    J is ``_fit_blocks(grid)``, and the windows sum to 1 on every mode.
    Cached per grid, read-only like the grid's multipliers.
    """
    blocks = _fit_blocks(grid)
    k2 = np.zeros(grid.shape)
    for k_axis in grid.wavenumbers():
        k2 = k2 + k_axis ** 2
    kabs = np.sqrt(k2)
    prev = _lowpass_profile(kabs)
    rows = [prev]
    for j in range(1, blocks):
        cur = _lowpass_profile(kabs / 2.0 ** j)
        rows.append(cur - prev)
        prev = cur
    rows.append(1.0 - prev)
    return _read_only(np.stack(rows))


def littlewood_paley_blocks(field: ComplexField) -> list:
    """Split a field into [S_0, Delta_1, ..., Delta_J] pieces, J = ``_fit_blocks(field.grid)``."""
    grid = field.grid
    windows = _lp_windows(grid)
    hat = _fftn(field.values, grid)
    return [ComplexField(grid, _ifftn(hat * window, grid)) for window in windows]


def _besov_norms(values: np.ndarray, grid: Grid, params: NormParams) -> list:
    """besov_norm of every row of a (B, M, *grid) stack, with the same rounding.

    The (J + 1, B, M, *grid) pieces are inverse-transformed into the
    product that holds them, and ``_powers`` squares them there and raises
    |piece|^p with the bits ``lp_norm`` gives.
    """
    windows = _lp_windows(grid)
    # (J + 1, B, M, *grid): every block of every row in one inverse transform
    pieces = _fftn(values, grid)[np.newaxis] * windows[:, np.newaxis, np.newaxis]
    powers = _powers(_ifftn(pieces, grid, out=pieces), params.p, scratch=True)
    pieces = None
    sums = np.sum(powers, axis=tuple(range(2, powers.ndim)))
    weight, p, smoothness = grid.cell_volume, params.p, params.s
    scales = [2.0 ** (j * smoothness * p) for j in range(1, len(sums))]
    out = []
    for row in sums.T.tolist():
        # the scalar steps of lp_norm(piece, p) ** p, block by block
        total = ((row[0] * weight) ** (1.0 / p)) ** p
        for scale, block in zip(scales, row[1:]):
            total += scale * ((block * weight) ** (1.0 / p)) ** p
        out.append(float(total ** (1.0 / p)))
    return out


def besov_norm(field: ComplexField, params: NormParams) -> float:
    """Discrete Littlewood-Paley Besov norm B^{s;p,p}.

    The norm itself is meaningful for any p > 1.  The paper's nonlinear
    theory additionally requires ``params.require_standing_condition(dim)``;
    no library code calls it, so a caller who relies on that theory checks
    it first.
    """
    return _besov_norms(field.values[np.newaxis], field.grid, params)[0]
