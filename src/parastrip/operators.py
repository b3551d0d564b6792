"""Divergence-form elliptic operators with complex-analytic coefficients.

An operator of order 2m acts as

    P u = sum_{|alpha|,|beta| <= m} D^alpha ( c_{alpha beta}(x + z0, t) D^beta u ),

applied pseudo-spectrally: D^beta by multiplier, variable coefficients by
physical-space products dealiased with the 2/3 rule, then D^alpha by
multiplier.  Constant coefficients skip the round trip and are exact on
band-limited fields.  The same table of terms feeds the ellipticity and
Garding diagnostics.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import (
    ComplexField,
    Grid,
    StripSpec,
    _band_mask,
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

    def contains(self, t: complex) -> bool:
        return self.first_outside((complex(t),)) is None

    def first_outside(self, ts):
        """Index of the first of the times ``ts`` outside the domain (to 1e-12), or None."""
        t = np.asarray(ts, dtype=np.complex128).ravel()
        sigma = t.real
        reach = np.tan(self.angle) * np.minimum(np.maximum(sigma, 0.0), self.t_prime)
        tol = 1e-12
        inside = (sigma >= -tol) & (sigma <= self.horizon + tol) & (np.abs(t.imag) <= reach + tol)
        outside = np.flatnonzero(~inside)
        return int(outside[0]) if len(outside) else None


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

    ``terms`` is the table {(alpha, beta): c_{alpha beta}} of the active
    D^alpha(. D^beta) terms, in summation order.  An entry is a constant or
    a callable ``c(z, t)``, where ``z`` stacks complex coordinates along
    the leading axis; either may be a scalar, an (M, M) matrix, or either
    with trailing spatial axes.  ``autonomous`` records that no entry
    depends on t, so a plan evaluates each term once; the default assumes
    nothing and evaluates at every node.
    """

    order_half: int
    components: int
    dim: int
    terms: dict
    strip: StripSpec
    temporal: TemporalDomain
    autonomous: bool = False

    def __post_init__(self):
        if self.order_half < 1:
            raise ConfigurationError("operator order m must be at least 1")
        if self.components < 1:
            raise ConfigurationError("operator needs at least one component")
        if self.dim not in (1, 2):
            raise ConfigurationError("operator dimension must be 1 or 2")
        if not isinstance(self.terms, dict):
            raise ConfigurationError("operator terms must be a dict {(alpha, beta): constant | callable(z, t)}")
        self.terms = {(_check_multi_index(a, self.dim), _check_multi_index(b, self.dim)): entry
                      for (a, b), entry in self.terms.items()}
        for a, b in self.terms:
            if sum(a) > self.order_half or sum(b) > self.order_half:
                raise ConfigurationError(f"term ({a}, {b}) exceeds operator order m={self.order_half}")

    @classmethod
    def from_terms(cls, order_half, components, dim, term_map, strip, temporal,
                   autonomous: bool = False):
        """Build from a dict {(alpha, beta): constant | callable(z, t)}.

        The operator is autonomous when every entry is a constant, or when
        the caller states that its callables ignore t (``autonomous=True``).
        """
        return cls(order_half, components, dim, term_map, strip, temporal,
                   autonomous=autonomous or not any(map(callable, term_map.values())))

    def coefficient_matrix(self, alpha, beta, z, t) -> np.ndarray:
        """A term's coefficient at the points ``z``, shaped (M, M) + trailing point axes."""
        entry = self.terms[(tuple(alpha), tuple(beta))]
        raw = np.asarray(entry(z, t) if callable(entry) else entry, dtype=np.complex128)
        M = self.components
        point_shape = np.asarray(z).shape[1:]
        if raw.shape in ((), point_shape):
            out = np.zeros((M, M) + point_shape, dtype=np.complex128)
            out[np.arange(M), np.arange(M)] = raw
            return out
        if raw.shape[:2] == (M, M) and raw.shape[2:] in ((), point_shape):
            raw = raw.reshape((M, M) + (raw.shape[2:] or (1,) * len(point_shape)))
            return np.broadcast_to(raw, (M, M) + point_shape).copy()
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


class _NodeCoefficients:
    """One term's coefficients at a node set: row b holds the value at ts[b].

    ``fields`` is (B, M, M, *grid), or (1, M, M, *grid) serving every node
    of an autonomous operator, and ``values`` its (B, M, M) value at the
    first point.  The apply core reads the row groups ``const_rows`` /
    ``var_rows`` (None when a group is empty, a slice when it is every row)
    and the matching stacks ``const_values`` / ``var_fields``: rows whose
    coefficient is spatially constant skip the physical-space product, and
    rows where it vanishes are in neither group.
    """

    def __init__(self, fields: np.ndarray):
        values = fields.reshape(fields.shape[:3] + (-1,))[..., 0]
        spread = fields - values.reshape(values.shape + (1,) * (fields.ndim - 3))
        const = np.all(np.abs(spread) == 0.0, axis=tuple(range(1, fields.ndim)))
        # a row whose coefficient vanishes identically adds nothing: it is in neither group
        zero = const & np.all(values == 0.0, axis=(1, 2))
        self.fields, self.values = fields, values
        self.const_rows, self.const_values = self._group(const & ~zero, values)
        self.var_rows, self.var_fields = self._group(~const, fields)

    @staticmethod
    def _group(rows: np.ndarray, stack: np.ndarray):
        if rows.all():
            return slice(None), stack
        if not rows.any():
            return None, None
        return rows, stack[rows]


def _varying_axes(terms, dim: int) -> tuple:
    """Grid axes (negative) along which some term's variable coefficient changes.

    A coefficient is taken to vary along an axis unless every slice along
    it equals the slice at index 0 exactly.
    """
    axes = []
    for a in range(-dim, 0):
        if any(term.var_fields is not None
               and np.any(term.var_fields != np.take(term.var_fields, [0], axis=a)) for term in terms):
            axes.append(a)
    return tuple(axes)


class OperatorPlan:
    """P(x + shift, t, D) prepared for repeated application on one grid.

    Construction checks the dimension and the strip once and precomputes
    the shifted points, the multiplier of every multi-index in ``op.terms``
    and, per alpha, its product with the dealias mask.  An autonomous
    operator's coefficients are evaluated once per plan and serve every
    node.  Otherwise they are kept for the latest node set only, and a new
    node set reuses the rows of times it shares with the previous one.
    That is exact because coefficient callables are pure functions of
    (z, t): a Picard window evaluates them once per distinct node, and a
    march that applies P one node at a time once per node.  Every new node
    set is checked against the temporal domain, node by node.  When an
    autonomous operator's coefficients are evaluated, ``var_axes`` records
    the grid axes along which a variable one changes; every other plan
    keeps all grid axes there.
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
        self.multipliers = {
            idx: derivative_multiplier(grid, idx) for idx in {i for term in op.terms for i in term}
        }
        mask = grid.dealias_mask()
        self.dealiased = {alpha: mask * self.multipliers[alpha] for alpha, _ in op.terms}
        self._keys = ()
        self._coefficients = None
        # grid axes (negative) the variable products are transformed over
        self.var_axes = tuple(range(-grid.dim, 0))

    def _evaluate(self, t) -> list:
        """Per term: the (M, M, *grid) coefficient field at t."""
        return [self.op.coefficient_matrix(alpha, beta, self.points, t) for alpha, beta in self.op.terms]

    def coefficients(self, ts) -> list:
        """Per term of ``op.terms``: its coefficients at the nodes ``ts`` (a _NodeCoefficients).

        Raises DomainError when a node leaves the operator's temporal domain.
        """
        keys = tuple(map(complex, ts))
        if keys == self._keys:
            return self._coefficients
        b = self.op.temporal.first_outside(ts)
        if b is not None:
            raise DomainError(f"time {ts[b]} lies outside the temporal domain")
        if self.op.autonomous:
            if self._coefficients is None:
                self._coefficients = [_NodeCoefficients(c[np.newaxis]) for c in self._evaluate(ts[0])]
                self.var_axes = _varying_axes(self._coefficients, self.grid.dim)
        else:
            previous = {key: b for b, key in enumerate(self._keys)}
            rows = {}
            for t, key in zip(ts, keys):
                if key not in rows:
                    b = previous.get(key)
                    rows[key] = self._evaluate(t) if b is None else [term.fields[b] for term in self._coefficients]
            self._coefficients = [_NodeCoefficients(np.stack([rows[key][k] for key in keys]))
                                  for k in range(len(self.op.terms))]
        self._keys = keys
        return self._coefficients

    def apply_hat(self, hat: np.ndarray, ts) -> np.ndarray:
        """The spectral core: Fourier coefficients of P(x + shift, ts[b], D) on row b.

        ``hat`` holds the Fourier coefficients of a (B, M, *grid) stack.
        Spatially constant coefficients act in Fourier space.  Variable ones
        take one inverse FFT per distinct beta; their products are summed
        per alpha in physical space and take one dealiased forward FFT per
        distinct alpha.  Contributions add up in ``op.terms`` order, an
        alpha group's at its last variable term, so an operator with one
        variable term per alpha rounds as the term-by-term algorithm does.
        Both transforms of the variable path run over ``var_axes`` only:
        a product with a coefficient constant along an axis commutes with
        the FFT along it, so an autonomous operator whose coefficients ignore
        x (the Heston chart) transforms along w alone.  That changes only
        rounding; with all axes in ``var_axes`` nothing changes.  Raises
        ConfigurationError when the stack does not end in ``(M, *grid)``.
        """
        grid, mult = self.grid, self.multipliers
        if hat.shape[2:] != grid.shape:
            raise ConfigurationError(
                f"stack of shape {hat.shape} does not end in the plan's grid shape {grid.shape}"
            )
        if hat.shape[1] != self.op.components:
            raise ConfigurationError(
                f"operator expects {self.op.components} components, field has {hat.shape[1]}"
            )
        coefficients = self.coefficients(ts)
        axes = self.var_axes
        last = {alpha: k for k, ((alpha, _), term) in enumerate(zip(self.op.terms, coefficients))
                if term.var_rows is not None}
        out_hat = np.zeros_like(hat)
        inner, products = {}, {}
        for k, ((alpha, beta), term) in enumerate(zip(self.op.terms, coefficients)):
            if term.const_rows is not None:
                const_hat = np.einsum("bij,bj...->bi...", term.const_values, hat[term.const_rows] * mult[beta])
                out_hat[term.const_rows] += const_hat * mult[alpha]
            if term.var_rows is not None:
                if beta not in inner:
                    inner[beta] = _ifftn(hat * mult[beta], grid, axes)
                prod = np.einsum("bij...,bj...->bi...", term.var_fields, inner[beta][term.var_rows])
                if alpha in products:
                    products[alpha][term.var_rows] += prod
                elif isinstance(term.var_rows, slice):
                    products[alpha] = prod
                else:
                    products[alpha] = np.zeros_like(hat)
                    products[alpha][term.var_rows] = prod
                if last[alpha] == k:
                    out_hat += _fftn(products[alpha], grid, axes) * self.dealiased[alpha]
        return out_hat

    def apply_stack(self, values: np.ndarray, ts) -> np.ndarray:
        """P(x + shift, ts[b], D) applied to row b of a (B, M, *grid) stack.

        FFT in, the spectral core ``apply_hat``, FFT out.  The batched FFTs
        and products round exactly as one row at a time would.
        """
        return _ifftn(self.apply_hat(_fftn(values, self.grid), ts), self.grid)

    def apply(self, field: ComplexField, t) -> ComplexField:
        """P(x + shift, t, D) field, pseudo-spectrally: the stack core on one row."""
        grid = self.grid
        if field.grid != grid:
            raise ConfigurationError(f"field lives on {field.grid}, the plan on {grid}")
        return ComplexField(grid, self.apply_stack(field.values[np.newaxis], (t,))[0])


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


def verify_garding(op: DivergenceOperator, fields, thetas=(0.0,), t_points=(0.0,)) -> GardingFit:
    """Fit Garding constants (c1, c2) on an ensemble of test fields.

    For each sample the quadratic form

        G = Re[e^{i theta} sum_{|alpha|=|beta|=m} (D^alpha w, c_{alpha beta} D^beta w)]

    is regressed against c1 * sum ||D^alpha w||^2 - c2 * ||w||^2 on the real
    grid, then c2 is raised to restore G >= c1 A - c2 B on every sample.
    Returns the fit and the worst-case slack of the inequality.
    """
    from .grid import spectral_derivative
    from .norms import lp_norm

    m = op.order_half
    top = [a for a in multi_indices(op.dim, m) if sum(a) == m]
    rows, targets = [], []
    for w in fields:
        grid = w.grid
        d_fields = {a: spectral_derivative(w, a) for a in top}
        quad_a = sum(lp_norm(d_fields[a], 2.0) ** 2 for a in top)
        quad_b = lp_norm(w, 2.0) ** 2
        pts = _shifted_points(grid, np.zeros(op.dim, dtype=np.complex128))
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


def random_band_limited_fields(grid: Grid, components: int, count: int, rng) -> list:
    """Seeded random fields on the lowest quarter of the wavenumbers, unit L^2 scale."""
    from .norms import lp_norm

    mask = _band_mask(grid, max(1, grid.points_per_axis // 4))
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
