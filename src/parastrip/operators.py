"""Divergence-form elliptic operators with complex-analytic coefficients.

An operator of order 2m acts as

    P u = sum_{|alpha|,|beta| <= m} D^alpha ( c_{alpha beta}(x + z0, t) D^beta u ),

applied pseudo-spectrally: D^beta by multiplier, variable coefficients by
physical-space products dealiased with the 2/3 rule, then D^alpha by
multiplier.  Constant coefficients skip the round trip and are exact on
band-limited fields.  The same coefficient closures feed the ellipticity
and Garding diagnostics.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import (
    ComplexField,
    Grid,
    StripSpec,
    _check_multi_index,
    _fftn,
    _ifftn,
    _normalize_shift,
    _shifted_points,
    derivative_multiplier,
)

__all__ = [
    "TemporalDomain",
    "DivergenceOperator",
    "multi_indices",
    "OperatorPlan",
    "apply_operator",
    "leading_symbol",
    "estimate_ellipticity_constant",
    "ellipticity_samples",
    "verify_garding",
    "GardingFit",
    "random_band_limited_fields",
]


@dataclass(frozen=True)
class TemporalDomain:
    """Truncated sector [0, T - T'] + { sigma + i tau : 0 < sigma <= T', |tau| <= sigma tan(angle) }."""

    angle: float
    t_prime: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.angle < 0.5 * np.pi:
            raise ConfigurationError(f"temporal angle must lie in (0, pi/2), got {self.angle!r}")
        if not 0.0 < self.t_prime <= self.horizon:
            raise ConfigurationError(
                f"need 0 < t_prime <= horizon, got t_prime={self.t_prime!r}, horizon={self.horizon!r}"
            )

    @property
    def mu_disc_radius(self) -> float:
        """Radius sin(angle) of the admissible rotation disc around mu = 1."""
        return float(np.sin(self.angle))

    def contains(self, t: complex, tol: float = 1e-12) -> bool:
        t = complex(t)
        sigma, tau = t.real, t.imag
        if sigma < -tol or sigma > self.horizon + tol:
            return False
        reach = np.tan(self.angle) * min(max(sigma, 0.0), self.t_prime)
        return abs(tau) <= reach + tol


def multi_indices(dim: int, max_order: int) -> list:
    """All multi-indices with |alpha| <= max_order, ordered by order then lexicographically."""
    out = []
    for total in range(max_order + 1):
        block = [
            idx
            for idx in itertools.product(range(total + 1), repeat=dim)
            if sum(idx) == total
        ]
        out.extend(sorted(block))
    return out


@dataclass
class DivergenceOperator:
    """Order-2m divergence-form operator on M components.

    ``coeff(alpha, beta, z, t)`` returns the coefficient of the
    D^alpha(. D^beta) term; ``z`` stacks complex coordinates along the
    leading axis and the result may be a scalar, an (M, M) matrix, or
    either with trailing spatial axes.  ``terms`` lists the active
    (alpha, beta) pairs; None means every pair with orders up to m.
    """

    order_half: int
    components: int
    dim: int
    coeff: Callable
    strip: StripSpec
    temporal: TemporalDomain
    terms: tuple = None

    def __post_init__(self):
        if self.order_half < 1:
            raise ConfigurationError("operator order m must be at least 1")
        if self.components < 1:
            raise ConfigurationError("operator needs at least one component")
        if self.dim not in (1, 2):
            raise ConfigurationError("operator dimension must be 1 or 2")
        if self.terms is None:
            idx = multi_indices(self.dim, self.order_half)
            self.terms = tuple(itertools.product(idx, idx))
        else:
            self.terms = tuple((tuple(a), tuple(b)) for a, b in self.terms)
            for a, b in self.terms:
                _check_multi_index(a, self.dim)
                _check_multi_index(b, self.dim)
                if sum(a) > self.order_half or sum(b) > self.order_half:
                    raise ConfigurationError(f"term ({a}, {b}) exceeds operator order m={self.order_half}")

    @classmethod
    def from_terms(cls, order_half, components, dim, term_map, strip, temporal):
        """Build from a dict {(alpha, beta): constant | callable(z, t)}."""
        table = {
            (tuple(a), tuple(b)): v for (a, b), v in term_map.items()
        }

        def coeff(alpha, beta, z, t):
            entry = table.get((tuple(alpha), tuple(beta)))
            if entry is None:
                return 0.0
            if callable(entry):
                return entry(z, t)
            return entry

        return cls(
            order_half=order_half,
            components=components,
            dim=dim,
            coeff=coeff,
            strip=strip,
            temporal=temporal,
            terms=tuple(table.keys()),
        )

    def coefficient_matrix(self, alpha, beta, z, t) -> np.ndarray:
        """Normalize a coefficient to shape (M, M) + trailing point axes."""
        raw = np.asarray(self.coeff(tuple(alpha), tuple(beta), z, t), dtype=np.complex128)
        M = self.components
        point_shape = np.asarray(z).shape[1:]
        if raw.ndim == 0:
            out = np.zeros((M, M) + point_shape, dtype=np.complex128)
            out[(np.arange(M), np.arange(M))] = raw
            return out
        if raw.shape == point_shape:
            out = np.zeros((M, M) + point_shape, dtype=np.complex128)
            for i in range(M):
                out[i, i] = raw
            return out
        if raw.shape[:2] == (M, M) and raw.shape[2:] in ((), point_shape):
            if raw.shape[2:] == ():
                return np.broadcast_to(raw.reshape((M, M) + (1,) * len(point_shape)), (M, M) + point_shape).copy() if point_shape else raw
            return raw
        raise ConfigurationError(
            f"coefficient for term ({alpha}, {beta}) has unusable shape {raw.shape}"
        )


def _check_dimension(op: DivergenceOperator, grid: Grid):
    if grid.dim != op.dim:
        raise ConfigurationError(f"operator dimension {op.dim} does not match grid dimension {grid.dim}")


def _check_components(op: DivergenceOperator, field: ComplexField):
    if field.components != op.components:
        raise ConfigurationError(
            f"operator expects {op.components} components, field has {field.components}"
        )


class OperatorPlan:
    """P(x + shift, t, D) prepared for repeated application on one grid.

    Construction checks the dimension and the strip once and precomputes
    the shifted points, the dealias mask and the multiplier of every
    multi-index in ``op.terms``.  Coefficients are evaluated for the latest
    time only and reused while ``t`` repeats, which is exact because
    coefficient callables are pure functions of (z, t): a march evaluates
    them once per distinct time node.
    """

    def __init__(self, op: DivergenceOperator, grid: Grid, shift=None):
        _check_dimension(op, grid)
        shift = _normalize_shift(op.dim, shift)
        if not op.strip.contains(shift):
            raise DomainError(f"shift {shift} leaves the coefficient strip (half width {op.strip.half_width})")
        self.op = op
        self.grid = grid
        self.shift = shift
        self.points = _shifted_points(grid, shift)
        self.mask = grid.dealias_mask()
        self.multipliers = {
            idx: derivative_multiplier(grid, idx) for idx in {i for term in op.terms for i in term}
        }
        self._t = None
        self._coefficients = None

    def coefficients(self, t) -> list:
        """Per term of ``op.terms``: (coefficient field, its (M, M) value or None).

        The second entry is set when the coefficient is spatially constant.
        Raises DomainError when ``t`` leaves the operator's temporal domain.
        """
        if self._coefficients is not None and t == self._t:
            return self._coefficients
        if not self.op.temporal.contains(t):
            raise DomainError(f"time {t} lies outside the temporal domain")
        out = []
        for alpha, beta in self.op.terms:
            c = self.op.coefficient_matrix(alpha, beta, self.points, t)
            flat = c.reshape(c.shape[:2] + (-1,))
            constant = np.all(np.abs(c - flat[..., :1].reshape(c.shape[:2] + (1,) * self.grid.dim)) == 0.0)
            out.append((c, flat[..., 0] if constant else None))
        self._t, self._coefficients = t, out
        return out

    def apply(self, field: ComplexField, t) -> ComplexField:
        """P(x + shift, t, D) field, pseudo-spectrally, with the terms in ``op.terms`` order."""
        grid = self.grid
        if field.grid != grid:
            raise ConfigurationError(f"field lives on {field.grid}, the plan on {grid}")
        _check_components(self.op, field)
        coefficients = self.coefficients(t)
        hat = _fftn(field.values, grid)
        out_hat = np.zeros_like(hat)
        for (alpha, beta), (c, c0) in zip(self.op.terms, coefficients):
            inner_hat = hat * self.multipliers[beta]
            if c0 is not None:
                term_hat = np.einsum("ij,j...->i...", c0, inner_hat)
            else:
                inner = _ifftn(inner_hat, grid)
                prod = np.einsum("ij...,j...->i...", c, inner)
                term_hat = _fftn(prod, grid) * self.mask
            out_hat += term_hat * self.multipliers[alpha]
        return ComplexField(grid, _ifftn(out_hat, grid))


def apply_operator(op: DivergenceOperator, field: ComplexField, t: complex, shift=None) -> ComplexField:
    """Apply P(x + shift, t, D) to a field pseudo-spectrally (a one-shot OperatorPlan)."""
    _check_dimension(op, field.grid)
    _check_components(op, field)
    return OperatorPlan(op, field.grid, shift).apply(field, t)


def leading_symbol(op: DivergenceOperator, z, t, xi) -> np.ndarray:
    """Principal symbol sum_{|alpha|=|beta|=m} c_{alpha beta}(z, t) xi^(alpha+beta), an (M, M) matrix."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128)).reshape(op.dim)
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64)).reshape(op.dim)
    m = op.order_half
    sym = np.zeros((op.components, op.components), dtype=np.complex128)
    for alpha, beta in op.terms:
        if sum(alpha) != m or sum(beta) != m:
            continue
        c = op.coefficient_matrix(alpha, beta, z.reshape(op.dim, 1), t)[..., 0]
        power = np.prod(xi ** (np.array(alpha) + np.array(beta)))
        sym += c * power
    return sym


def ellipticity_samples(op: DivergenceOperator, z_points, t_points, rng, thetas=None,
                        n_directions: int = 8):
    """Cartesian sampling plan for the ellipticity estimate.

    Yields tuples (theta, z, t, xi, eta) covering an equispaced theta grid
    in [-angle, angle] (9 points by default), the supplied coefficient
    sample points, and seeded random directions on the unit spheres.
    """
    if thetas is None:
        thetas = np.linspace(-op.temporal.angle, op.temporal.angle, 9)
    xis = []
    for axis in range(op.dim):
        e = np.zeros(op.dim)
        e[axis] = 1.0
        xis.append(e)
    for _ in range(n_directions):
        v = rng.standard_normal(op.dim)
        xis.append(v / np.linalg.norm(v))
    etas = []
    for _ in range(max(1, n_directions // 2)):
        w = rng.standard_normal(op.components) + 1j * rng.standard_normal(op.components)
        etas.append(w / np.linalg.norm(w))
    for theta in thetas:
        for z in z_points:
            for t in t_points:
                for xi in xis:
                    for eta in etas:
                        yield (theta, z, t, xi, eta)


def estimate_ellipticity_constant(op: DivergenceOperator, samples) -> float:
    """Sampled infimum of Re(e^{i theta} <eta, S(z,t,xi) eta>) / (|xi|^{2m} |eta|^2).

    A nonpositive value is a legitimate finding (degenerate or rotated past
    the ellipticity sector), not an error.
    """
    best = np.inf
    count = 0
    for theta, z, t, xi, eta in samples:
        xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        eta = np.atleast_1d(np.asarray(eta, dtype=np.complex128))
        sym = leading_symbol(op, z, t, xi)
        num = np.real(np.exp(1j * theta) * np.vdot(eta, sym @ eta))
        den = np.linalg.norm(xi) ** (2 * op.order_half) * np.linalg.norm(eta) ** 2
        if den == 0.0:
            raise ConfigurationError("ellipticity sample with zero direction")
        best = min(best, num / den)
        count += 1
    if count == 0:
        raise ConfigurationError("ellipticity estimate needs at least one sample")
    return float(best)


@dataclass(frozen=True)
class GardingFit:
    c1: float
    c2: float
    slack: float
    n_samples: int


def _l2_pairing(a: ComplexField, b_values: np.ndarray) -> complex:
    return complex(np.sum(np.conj(a.values) * b_values) * a.grid.cell_volume)


def verify_garding(op: DivergenceOperator, fields, thetas=(0.0,), shifts=None, t_points=(0.0,)) -> GardingFit:
    """Fit Garding constants (c1, c2) on an ensemble of test fields.

    For each sample the quadratic form

        G = Re[e^{i theta} sum_{|alpha|=|beta|=m} (D^alpha w, c_{alpha beta} D^beta w)]

    is regressed against c1 * sum ||D^alpha w||^2 - c2 * ||w||^2, then c2 is
    raised to restore G >= c1 A - c2 B on every sample.  Returns the fit and
    the worst-case slack of the inequality.
    """
    from .grid import spectral_derivative
    from .norms import lp_norm

    if shifts is None:
        shifts = [np.zeros(op.dim, dtype=np.complex128)]
    m = op.order_half
    top = [a for a in multi_indices(op.dim, m) if sum(a) == m]
    rows, targets = [], []
    for w in fields:
        grid = w.grid
        d_fields = {a: spectral_derivative(w, a) for a in top}
        quad_a = sum(lp_norm(d_fields[a], 2.0) ** 2 for a in top)
        quad_b = lp_norm(w, 2.0) ** 2
        for shift in shifts:
            pts = _shifted_points(grid, shift)
            for t in t_points:
                form = 0.0 + 0.0j
                for alpha, beta in op.terms:
                    if sum(alpha) != m or sum(beta) != m:
                        continue
                    c = op.coefficient_matrix(alpha, beta, pts, t)
                    cb = np.einsum("ij...,j...->i...", c, d_fields[beta].values)
                    form += _l2_pairing(d_fields[alpha], cb)
                for theta in thetas:
                    rows.append((quad_a, quad_b))
                    targets.append(np.real(np.exp(1j * theta) * form))
    rows = np.asarray(rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if not len(rows) or np.allclose(rows[:, 0], 0.0):
        raise ConfigurationError("Garding fit needs fields with nonvanishing top-order energy")
    design = np.column_stack([rows[:, 0], -rows[:, 1]])
    sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
    c1, c2 = float(sol[0]), float(max(sol[1], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.where(rows[:, 1] > 0.0, (c1 * rows[:, 0] - targets) / rows[:, 1], 0.0)
    c2 = float(max(c2, np.max(needed), 0.0))
    slack = float(np.min(targets - c1 * rows[:, 0] + c2 * rows[:, 1]))
    return GardingFit(c1=c1, c2=c2, slack=slack, n_samples=len(rows))


def random_band_limited_fields(grid: Grid, components: int, count: int, rng,
                               band_fraction: float = 0.25) -> list:
    """Seeded random fields supported on low wavenumbers, unit L^2 scale."""
    from .norms import lp_norm

    n = grid.points_per_axis
    idx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep1 = idx <= max(1, int(band_fraction * n))
    mask = keep1
    for _ in range(grid.dim - 1):
        mask = np.logical_and.outer(mask, keep1)
    mask = mask.reshape(grid.shape)
    out = []
    for _ in range(count):
        hat = (rng.standard_normal((components,) + grid.shape)
               + 1j * rng.standard_normal((components,) + grid.shape)) * mask
        values = _ifftn(hat, grid)
        f = ComplexField(grid, values)
        scale = lp_norm(f, 2.0)
        if scale == 0.0:
            continue
        out.append(ComplexField(grid, f.values / scale))
    return out
