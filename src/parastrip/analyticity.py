"""Verification engine for space and time analyticity of solved trajectories.

The strategy is always the same: produce independently computed samples of
what ought to be one holomorphic object (solutions shifted in space,
solutions continued along rotated time rays or two-segment paths), then
measure discrete Cauchy-Riemann residuals, lattice-shift consistency, path
independence, strip norms, and the weighted space-time integrals that the
analyticity estimates bound.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigurationError, DomainError, ParastripError
from .grid import ComplexField, _fftn, _ifftn, derivative_multiplier, spectral_derivative
from .norms import NormParams, _fit_blocks, besov_norm, lp_norm
from .operators import multi_indices
from .solver import (
    CauchyProblem,
    SolverConfig,
    SolveResult,
    _real_span,
    _solve,
    solve_along_path,
    solve_real,
)

__all__ = [
    "ShiftFamily",
    "solve_shift_family",
    "cr_residual_space",
    "shift_consistency_check",
    "cr_residual_time",
    "path_independence_check",
    "hardy_integral",
    "strip_sup_over_time",
]


def _as_vector(y, dim):
    arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if arr.shape != (dim,):
        raise ConfigurationError(f"shift must have {dim} entries, got shape {arr.shape}")
    return arr


def _key(y):
    # snapped so linspace grids compare exactly under negation
    return tuple(round(float(v), 12) for v in np.atleast_1d(y))


@dataclass
class ShiftFamily:
    """Solutions of the same problem shifted by iy across a symmetric y-grid."""

    y_values: list
    results: dict
    strip: object
    meta: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        keys = [_key(y) for y in self.y_values]
        if sorted(keys) != sorted(self.results.keys()):
            raise ConfigurationError("family y-grid and result keys disagree")
        negated = {tuple(-v for v in k) for k in keys}
        if negated != set(keys) or all(any(v != 0.0 for v in k) for k in keys):
            raise ConfigurationError("family y-grid must be symmetric about zero and contain zero")
        times = self.results[keys[0]].times
        for k in keys[1:]:
            other = self.results[k].times
            if len(other) != len(times) or np.max(np.abs(other - times)) > 1e-9:
                raise ConfigurationError("family members must share time stamps")

    @property
    def dim(self) -> int:
        return len(_key(self.y_values[0]))

    @property
    def times(self) -> np.ndarray:
        return self.results[_key(self.y_values[0])].times

    def member(self, y) -> SolveResult:
        key = _key(y)
        if key not in self.results:
            raise ConfigurationError(f"no family member at y={key}")
        return self.results[key]


def solve_shift_family(problem: CauchyProblem, y_grid, t0, horizon,
                       config: SolverConfig = None, jobs: int = None) -> ShiftFamily:
    """Solve the problem once per imaginary shift iy, y in ``y_grid``.

    Members are solves sharing every discretization knob, each with its own
    operator plan, run in lockstep through one driver (``solver._solve``);
    each gets the bits of its own serial solve.  ``jobs`` is accepted and
    ignored.  A failing member aborts the family with an error naming its
    shift; when several fail, the one with the smallest y, which a serial
    run in ascending order of y would meet first.  The error keeps the
    member's type when that is a ParastripError; any other is wrapped in one.
    """
    dim = problem.grid.dim
    ys = [_as_vector(y, dim) for y in np.atleast_1d(np.asarray(y_grid, dtype=np.float64)).reshape(-1, dim)]
    if not ys:
        raise ConfigurationError("empty shift grid")
    strip = problem.data_strip
    for y in ys:
        if not strip.contains(1j * y):
            raise DomainError(f"shift y={tuple(map(float, y))} leaves the strip of half width {strip.half_width}")
    ys = sorted(ys, key=_key)
    try:
        start, s_total = _real_span(t0, horizon)
        outcomes = _solve(problem, s_total, [(1.0 + 0.0j, 1j * y, None) for y in ys], config, t_base=start)
    except Exception as exc:          # a setting all members share: the first one reports it
        outcomes = [exc]
    results = {}
    for y, out in zip(ys, outcomes):
        if isinstance(out, Exception):
            kind = type(out) if isinstance(out, ParastripError) else ParastripError
            raise kind(f"shift family member y={tuple(map(float, y))} failed: {out}") from out
        results[_key(y)] = out
    return ShiftFamily(
        y_values=[tuple(y) for y in ys],
        results=results,
        strip=strip,
        meta={"problem": problem, "config": config, "t0": float(t0), "horizon": float(horizon)},
    )


def _family_axis(family: ShiftFamily):
    """The single axis along which the y-grid varies, with its uniform spacing."""
    ys = np.asarray([_key(y) for y in family.y_values], dtype=np.float64)
    varying = [ax for ax in range(ys.shape[1]) if np.ptp(ys[:, ax]) > 0.0]
    if len(varying) != 1:
        raise ConfigurationError("shift differencing needs a family varying along exactly one axis")
    axis = varying[0]
    if np.any(ys[:, [ax for ax in range(ys.shape[1]) if ax != axis]] != 0.0):
        raise ConfigurationError("off-axis shift components must vanish for differencing")
    line = np.sort(ys[:, axis])
    steps = np.diff(line)
    if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, np.max(np.abs(line))):
        raise ConfigurationError("shift grid must be uniform for central differencing")
    return axis, float(steps[0]), line


def _time_index(times: np.ndarray, t) -> int:
    gaps = np.abs(times - complex(t))
    j = int(np.argmin(gaps))
    if gaps[j] > 1e-9 * max(1.0, abs(complex(t))):
        raise ConfigurationError(f"time {t} is not among the stored snapshots")
    return j


def cr_residual_space(family: ShiftFamily, t, stride: int = 1) -> float:
    """Normalized Cauchy-Riemann residual || (d_x + i d_y) u / 2 ||_2 / ||u||_2 at time t.

    The x-derivative is spectral on each member, the y-derivative a central
    difference across members ``stride`` grid steps apart; widening the
    stride coarsens the stencil for refinement studies without re-solving.
    """
    axis, dy, line = _family_axis(family)
    if stride < 1:
        raise ConfigurationError("stride must be a positive integer")
    picks = line[::stride]
    if len(picks) < 3:
        raise ConfigurationError("central differencing needs at least three shifts at this stride")
    j = _time_index(family.times, t)
    e_axis = tuple(1 if ax == axis else 0 for ax in range(family.dim))
    grid = family.member([0.0] * family.dim).fields[j].grid

    def field_at(yval) -> np.ndarray:
        y = [0.0] * family.dim
        y[axis] = yval
        return family.member(y).fields[j].values

    num = 0.0
    den = 0.0
    h = stride * dy
    for i in range(1, len(picks) - 1):
        u_mid = field_at(picks[i])
        du_dy = (field_at(picks[i + 1]) - field_at(picks[i - 1])) / (2.0 * h)
        du_dx = 1j * spectral_derivative(ComplexField(grid, u_mid), e_axis).values
        resid = 0.5 * (du_dx + 1j * du_dy)
        num += lp_norm(ComplexField(grid, resid), 2.0) ** 2
        den += lp_norm(ComplexField(grid, u_mid), 2.0) ** 2
    if den == 0.0:
        raise ConfigurationError("cannot normalize the residual of an identically zero family")
    return float(math.sqrt(num / den))


def shift_consistency_check(family: ShiftFamily, problem: CauchyProblem, x0, y0, t_grid) -> float:
    """Sup discrepancy between the z0 = x0 + iy0 solve and the rolled iy0 member.

    ``x0`` must be an integer multiple of the grid spacing per axis so the
    comparison is an exact index rotation.
    """
    grid = problem.grid
    x0 = _as_vector(x0, grid.dim)
    y0 = _as_vector(y0, grid.dim)
    offsets = x0 / grid.spacing
    rounded = np.round(offsets)
    if np.max(np.abs(offsets - rounded)) > 1e-9:
        raise ConfigurationError(f"real shift {tuple(map(float, x0))} is not a lattice vector (spacing {grid.spacing})")
    member = family.member(y0)
    config = family.meta.get("config")
    shifted = solve_real(
        problem, family.meta.get("t0", 0.0), family.meta.get("horizon"), config, shift=x0 + 1j * y0
    )
    worst = 0.0
    for t in t_grid:
        j = _time_index(member.times, t)
        rolled = np.roll(
            member.fields[j].values,
            shift=[-int(k) for k in rounded],
            axis=tuple(range(1, 1 + grid.dim)),
        )
        worst = max(worst, float(np.max(np.abs(shifted.fields[j].values - rolled))))
    return worst


def cr_residual_time(problem: CauchyProblem, mu_center, d_mu, rho, config: SolverConfig = None,
                     shift=None):
    """Normalized Wirtinger residual of mu -> omega_mu(rho) over a four-point stencil.

    Pass one stencil width ``d_mu`` for a float result, a sequence of them
    for a list in the same order.  Every stencil point and the centre, which
    all widths share, is one ray solved once; the rays run in lockstep and
    keep their final rows only.
    """
    single = np.isscalar(d_mu)
    widths = [float(d_mu)] if single else [float(d) for d in d_mu]
    if not widths:
        raise ConfigurationError("need at least one stencil width")
    mu_center = complex(mu_center)
    radius = problem.temporal.mu_disc_radius
    rays = []
    for d in widths:
        if not d > 0.0:
            raise ConfigurationError("stencil width must be positive")
        stencil = [mu_center + d, mu_center - d, mu_center + 1j * d, mu_center - 1j * d]
        for mu in stencil:
            if abs(mu - 1.0) > radius + 1e-12:
                raise DomainError(f"stencil point mu={mu} leaves the disc of radius {radius}")
        # in the order a serial run solves them: each stencil, the centre after the first
        rays.extend(stencil if rays else stencil + [mu_center])
    outcomes = _solve(problem, float(rho), [(mu, shift, None) for mu in rays], config, final_only=True)
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    ends = [out.final.values for out in outcomes]
    center = outcomes[4].final
    scale = lp_norm(center, 2.0)
    if scale == 0.0:
        raise ConfigurationError("cannot normalize the residual of a zero trajectory")
    residuals = []
    for i, d in enumerate(widths):
        w_re_p, w_re_m, w_im_p, w_im_m = ends[:4] if i == 0 else ends[1 + 4 * i:5 + 4 * i]
        d_re = (w_re_p - w_re_m) / (2.0 * d)
        d_im = (w_im_p - w_im_m) / (2.0 * d)
        resid = 0.5 * (d_re + 1j * d_im)
        residuals.append(float(lp_norm(ComplexField(center.grid, resid), 2.0) / scale))
    return residuals[0] if single else residuals


def path_independence_check(problem: CauchyProblem, sigma, tau, t_prime_list,
                            config: SolverConfig = None, shift=None) -> float:
    """Sup-norm spread of solve_along_path endpoints over the segment splits."""
    t_primes = list(t_prime_list)
    if len(t_primes) < 2:
        raise ConfigurationError("path independence needs at least two segment splits")
    endpoints = [
        solve_along_path(problem, sigma, tau, tp, config, shift=shift).final.values
        for tp in t_primes
    ]
    spread = 0.0
    for i in range(len(endpoints)):
        for k in range(i + 1, len(endpoints)):
            spread = max(spread, float(np.max(np.abs(endpoints[i] - endpoints[k]))))
    return spread


def hardy_integral(result: SolveResult, p: float, c0: float, order_half: int,
                   dyadic_blocks: int = None) -> dict:
    """Weighted space-time integrals of |du/dt|^p and the derivative jet along a path.

    Returns the time-derivative part, the c0-weighted sum over all spatial
    derivatives of order <= 2m, their total, and the companion quantity that
    replaces the time-derivative part with the endpoint Besov norm.  All
    integrals use the real arclength of the stored (possibly complex) times,
    so prefixes of a trajectory give nondecreasing values.  ``dyadic_blocks``
    sets the companion norm's block count; by default it is the most the
    grid hosts, up to 4 (``norms._fit_blocks``).
    """
    if len(result) < 2:
        raise ConfigurationError("need at least two snapshots to integrate")
    grid = result.grid
    blocks = _fit_blocks(grid) if dyadic_blocks is None else dyadic_blocks
    nparams = NormParams(p=p, m=order_half, dyadic_blocks=blocks)
    weight = grid.cell_volume

    def pth_powers(rows: np.ndarray) -> list:
        # lp_norm(row, p) ** p of every row of a block, with lp_norm's rounding
        sums = np.sum(np.abs(rows) ** p, axis=tuple(range(1, rows.ndim)))
        return [float((total * weight) ** (1.0 / p)) ** p for total in sums]

    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(result.times)))])
    du = np.array([v for block in result.derivative_blocks for v in pth_powers(block)])
    part_du = float(np.trapezoid(du, x=arc))
    # D^alpha of a block is one FFT of the block and one inverse FFT per alpha
    alphas = multi_indices(grid.dim, 2 * order_half)
    per_alpha = [[] for _ in alphas]
    for block in result.blocks:
        hat = _fftn(block, grid)
        for vals, alpha in zip(per_alpha, alphas):
            vals.extend(pth_powers(_ifftn(hat * derivative_multiplier(grid, alpha), grid)))
    part_derivs = 0.0
    for vals in per_alpha:
        part_derivs += float(np.trapezoid(np.array(vals), x=arc))
    part_derivs *= c0
    companion = besov_norm(result.final, nparams) ** p + part_derivs
    return {
        "du_dt": part_du,
        "derivatives": part_derivs,
        "total": part_du + part_derivs,
        "companion": companion,
    }


def strip_sup_over_time(family: ShiftFamily, params: NormParams) -> float:
    """Sup over stored shifts and times of the Besov norm of the member fields."""
    worst = 0.0
    for key in family.results:
        for f in family.results[key].fields:
            worst = max(worst, besov_norm(f, params))
    return float(worst)
