"""Verification engine for space and time analyticity of solved trajectories.

The strategy is always the same: produce independently computed samples of
what ought to be one holomorphic object (solutions shifted in space,
solutions continued along rotated time rays or two-segment paths), then
measure discrete Cauchy-Riemann residuals, lattice-shift consistency, path
independence, strip norms, and the weighted space-time integrals that the
analyticity estimates bound.
"""

import functools
import math
import sys
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import ConfigurationError, DomainError, ParastripError
from .grid import (
    ComplexField,
    _fftn,
    _ifftn,
    _normalize_shift,
    _shifted_points,
    derivative_multiplier,
    spectral_derivative,
)
from .norms import NormParams, _besov_norms, _fit_blocks, _lp_norms, besov_norm, lp_norm
from .operators import multi_indices
from .solver import (
    CauchyProblem,
    SolverConfig,
    SolveResult,
    _Conjugate,
    _initial_field,
    _real_span,
    _release,
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


def _check_symmetric(keys):
    """Refuse a y-grid of snapped keys that is not symmetric about zero or lacks zero."""
    negated = {tuple(-v for v in k) for k in keys}
    if negated != set(keys) or all(any(v != 0.0 for v in k) for k in keys):
        raise ConfigurationError("family y-grid must be symmetric about zero and contain zero")


# a sample may differ from the conjugate of its reflection by this share of its largest
# modulus: the rounding of evaluating at conjugate points
_REFLECTION_TOL = 1e-13
# where inside a span its time-dependent inputs are sampled besides its ends: at no simple
# fraction of it, where an input that is real at the ends need not be
_INNER = (math.sqrt(5.0) - 1.0) / 2.0


def _conjugates(a, b) -> bool:
    """Whether ``b`` is the conjugate of ``a`` but for rounding; both must be finite, of one shape."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return False
    return bool(np.max(np.abs(b - np.conj(a)), initial=0.0) <= _REFLECTION_TOL * np.max(np.abs(a), initial=0.0))


def _jet_samples(spec, grid) -> np.ndarray:
    """Jet values (n_slots, M, 1, *grid) at which the reflection of a reaction is sampled: they
    vary over slots, components and points, with moduli in [0.25, 0.75] and arguments within
    0.3 of zero, off the imaginary axis where the smoothers' cuts lie."""
    x = grid.meshgrid().sum(axis=0)
    slot = np.arange(spec.n_slots).reshape((-1, 1, 1) + (1,) * grid.dim)
    comp = np.arange(spec.components).reshape((1, -1, 1) + (1,) * grid.dim)
    return (0.5 + 0.25 * np.cos(x * (1 + slot) + comp)) * np.exp(0.3j * np.sin(x + slot + 2 * comp))


def _keeps_conjugation(alpha, beta, constant: bool) -> bool:
    """Whether the grid's D^alpha (c D^beta .) maps the conjugate of a field to the conjugate of
    its image for a real c.  An axis's Nyquist mode stands for both +-n/2 but carries the one
    wavenumber -n/2, so an odd power of that axis gives it the wrong sign in the conjugate: a
    constant c needs an even power per axis, a varying one, whose product carries the Nyquist
    content of D^beta u to every mode, even alpha and beta."""
    return all((a + b) % 2 == 0 if constant else a % 2 == b % 2 == 0 for a, b in zip(alpha, beta))


def _reflected_samples(problem: CauchyProblem, shifts, times):
    """(f(z, t), f(conj z, conj t)) for each sampled input f of ``problem``, lazily (see ``_is_real``)."""
    op, grid, spec = problem.op, problem.grid, problem.reaction
    at = (1,) + (1,) * grid.dim
    if spec is not None:
        # the reflection's odd-order jets are doubled: the grid gives their Nyquist mode one
        # sign, so a reaction that reads them does not reflect
        jets = _jet_samples(spec, grid)
        odd = np.array([2.0 if any(b % 2 for b in beta) else 1.0 for beta in spec.jet_indices])
        jets_bar = np.conj(jets) * odd.reshape((-1,) + (1,) * (jets.ndim - 1))
    for shift, mirror in zip(shifts, np.conj(shifts)):
        yield _initial_field(problem, shift).values, _initial_field(problem, mirror).values
        z, z_bar = _shifted_points(grid, shift), _shifted_points(grid, mirror)
        for k, t in enumerate(times):
            t_bar = np.conj(t)
            for (alpha, beta), entry in op.terms.items():
                if callable(entry) and (k == 0 or not op.autonomous):
                    yield (op.coefficient_matrix(alpha, beta, z, t),
                           op.coefficient_matrix(alpha, beta, z_bar, t_bar))
            if problem.source is not None:
                yield tuple(out.values if isinstance(out, ComplexField) else out for out in
                            (problem.source(t, grid, shift), problem.source(t_bar, grid, mirror)))
            if spec is not None:
                yield (spec.eval(z[:, np.newaxis], np.reshape(t, at), jets),
                       spec.eval(z_bar[:, np.newaxis], np.reshape(t_bar, at), jets_bar))


def _is_real(problem: CauchyProblem, shifts, times) -> bool:
    """Whether the solve of ``problem`` at shift conj(s) along the ray conj(mu) is the conjugate
    of the solve at s along mu, for each s of ``shifts`` (complex vectors of the grid's
    dimension) and every ray through ``times``.

    That holds when f(conj z, conj t) = conj f(z, t) for the datum, the
    source, the reaction (whose jets are plain derivatives) and each term of
    ``op.terms``, and the grid keeps the reflection: every term passes
    ``_keeps_conjugation`` and the reaction reads no odd-order jet.  Then a
    reflection differs from the solve it stands for by rounding.  Constant
    terms are checked exactly; the rest is sampled on the shifted grids
    x + s and x + conj(s) at each of the ``times`` and its conjugate (an
    autonomous operator's terms at the first only, the reaction at
    ``_jet_samples``).  A sample that raises or misses its partner's
    conjugate by more than rounding makes the problem not real.  Neither
    ``_solve`` nor ``OperatorPlan`` runs this test.
    """
    terms = problem.op.terms.items()
    try:
        return (all(_keeps_conjugation(*term, not callable(entry)) for term, entry in terms)
                and all(np.all(np.conj(entry) == entry) for _, entry in terms if not callable(entry))
                and all(_conjugates(a, b) for a, b in _reflected_samples(problem, shifts, times)))
    except Exception:         # an input that cannot be sampled is not known to be real
        return False


def _reflected_rhs(rhs, stack, ts, sources=None):
    """A reflected solve's right-hand side: the conjugate of its partner's ``rhs`` at the conjugate
    stack, times and source rows."""
    return np.conj(rhs(np.conj(stack), np.conj(ts), sources=None if sources is None else np.conj(sources)))


def _mirror(partner: SolveResult) -> SolveResult:
    """The reflection of ``partner``, a solve of a real problem: the solve at the conjugate shift
    along the conjugate ray, whose rows and times are the conjugates of the partner's.  Its rows
    are conjugated when first read (``solver._Conjugate``), so making it replays nothing; its
    diagnostics are the partner's, with ``mirror_of`` the y of the partner's shift x + iy."""
    shift = partner.diagnostics["shift"]
    diag = dict(partner.diagnostics, mu=partner.diagnostics["mu"].conjugate(), shift=np.conj(shift),
                mirror_of=tuple(map(float, np.imag(shift))))
    return SolveResult(partner.grid, np.conj(partner.times), [_Conjugate(partner)], diag,
                       functools.partial(_reflected_rhs, partner.rhs))


def _solve_reflected(problem: CauchyProblem, s_total, members, config: SolverConfig, t_base=0.0, keep=None) -> list:
    """``_solve`` for the (mu, shift) ``members``, each along t = t_base + mu s, where a real
    problem solves one member of each conjugate pair.

    Members are compared as ``_key`` snaps their (mu, shift).  Of a member
    and its conjugate (conj mu, conj shift), the one met first in the list
    is solved, and the other is the ``_mirror`` of it, when the problem is
    real: ``_is_real``, asked once for the whole list, sampled on the
    partners' shifts at t_base and inside and at the end of each partner's
    ray.  Every other member is solved, one that is its own conjugate
    always.  ``keep`` is ``_solve``'s row hook over the solved members: its
    ``index`` counts them alone, and a mirror is offered no row.  Returns
    one outcome per member, in order: its SolveResult, or the exception its
    serial solve raises; the list ends at the first exception.
    """
    members = [np.concatenate([[complex(mu)], _normalize_shift(problem.grid.dim, shift)]) for mu, shift in members]
    keys = [_key(m.view(np.float64)) for m in members]
    bars = [_key(np.conj(m).view(np.float64)) for m in members]
    # a mirror's conjugate key first appears before its own key does; its partner is that member
    mirrors = {j: keys.index(bar) for j, bar in enumerate(bars) if bar in keys[:keys.index(keys[j])]}
    partners = [members[i] for i in mirrors.values()]
    # each distinct shift and time once (np.unique over rows would import numpy.ma, ~15 ms cold)
    if mirrors and not _is_real(problem, list({tuple(m[1:]): m[1:] for m in partners}.values()),
                                list(dict.fromkeys(t_base + m[0] * s_total * f for m in partners
                                                   for f in (0.0, _INNER, 1.0)))):
        mirrors = {}
    solved = iter(_solve(problem, s_total, [(complex(m[0]), m[1:], None) for j, m in enumerate(members)
                                            if j not in mirrors], config, t_base=t_base, keep=keep))
    out = []
    for j in range(len(members)):
        out.append(_mirror(out[mirrors[j]]) if j in mirrors else next(solved))
        if isinstance(out[-1], Exception):
            break
    return out


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
        _check_symmetric(keys)
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
                       config: SolverConfig = None, keep=None) -> ShiftFamily:
    """Solve the problem once per imaginary shift iy, y in ``y_grid``.

    Members are solves sharing every discretization knob, each with its own
    operator plan, run through one driver (``solver._solve``), in lockstep
    under ``picard_voc``; each solved member gets the bits of its own serial
    solve.  The members go to ``_solve_reflected`` in ascending order of y,
    so a real problem solves those up to the middle of the grid, y <= 0 on
    a line, and member y is the ``_mirror`` of member -y, which
    ``diagnostics["mirror_of"]`` names.  A mirror has the conjugated bits of
    its partner; it differs from its own serial solve by the rounding of
    the transforms, which P amplifies in the time derivatives by up to its
    symbol's largest modulus.  A failing member aborts the
    family with an error naming its shift; when several fail, the one with
    the smallest y, which a serial run in ascending order of y would meet
    first.  The error keeps the member's type when that is a
    ParastripError; any other is wrapped in one.

    ``keep(index, times, block)`` is the solved members' row hook (see
    ``solver._solve``): member ``index``, in ascending order of y, offers it
    each row it would store and keeps those it holds and its last row, so a
    caller can reduce the rows as they march and hold only the few it reads
    again.  A mirror is offered nothing and holds the conjugates of its
    partner's rows.  A hook must hold the same times for every member.
    None keeps every row.
    """
    dim = problem.grid.dim
    ys = [_as_vector(y, dim) for y in np.atleast_1d(np.asarray(y_grid, dtype=np.float64)).reshape(-1, dim)]
    if not ys:
        raise ConfigurationError("empty shift grid")
    strip = problem.data_strip
    for y in ys:
        if not strip.contains(1j * y):
            raise DomainError(f"shift y={tuple(map(float, y))} leaves the strip of half width {strip.half_width}")
    _check_symmetric([_key(y) for y in ys])
    ys = sorted(ys, key=_key)
    try:
        start, s_total = _real_span(t0, horizon)
        outcomes = _solve_reflected(problem, s_total, [(1.0, 1j * y) for y in ys], config, start, keep)
    except Exception as exc:          # a setting all members share: the first one reports it
        outcomes = [exc]
    results = {}
    for y, out in zip(ys, outcomes):
        if isinstance(out, Exception):
            _release(out, sys._getframe())
            kind = type(out) if isinstance(out, ParastripError) else ParastripError
            try:
                raise kind(f"shift family member y={tuple(map(float, y))} failed: {out}") from out
            finally:
                outcomes = out = None     # the raise pins this frame, which must not keep the error
        results[_key(y)] = out
    return ShiftFamily(
        y_values=[tuple(y) for y in ys],
        results=results,
        strip=strip,
        meta={"config": config, "t0": float(t0), "horizon": float(horizon)},
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


def _tolerance(t) -> float:
    """How far a stored time may lie from t and still be the snapshot at t."""
    return 1e-9 * max(1.0, abs(complex(t)))


def _time_index(times: np.ndarray, t) -> int:
    gaps = np.abs(times - complex(t))
    j = int(np.argmin(gaps))
    if gaps[j] > _tolerance(t):
        raise ConfigurationError(f"time {t} is not among the stored snapshots")
    return j


def _at_times(times, targets) -> np.ndarray:
    """Mask of the ``times`` that are the snapshot at one of ``targets``, as ``_time_index`` finds it."""
    times = np.asarray(times, dtype=np.complex128)
    out = np.zeros(len(times), dtype=bool)
    for t in targets:
        out |= np.abs(times - complex(t)) <= _tolerance(t)
    return out


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


# a snapshot stride past any march's node count: only the march's last row is due
_NO_SNAPSHOTS = 10 ** 9


def _hold_none(index, times, block):
    return np.zeros(len(block), dtype=bool)


def cr_residual_time(problem: CauchyProblem, mu_center, d_mu, rho, config: SolverConfig = None,
                     shift=None):
    """Normalized Wirtinger residual of mu -> omega_mu(rho) over a four-point stencil.

    Pass one stencil width ``d_mu`` for a float result, a sequence of them
    for a list in the same order.  Every stencil point and the centre, which
    all widths share, is one ray solved once; the rays run in lockstep and
    keep their final rows only: no row but the start and the last is due
    under their snapshot stride, which changes no bit of the march, and the
    row hook holds neither, so the march's last row alone is stored.  The
    rays go to ``_solve_reflected`` in that order, so a real problem solves
    one ray of each pair centre +- i d, and the other ends at its
    conjugate.
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
    config = replace(config if config is not None else SolverConfig(), snapshot_stride=_NO_SNAPSHOTS)
    outcomes = _solve_reflected(problem, float(rho), [(mu, shift) for mu in rays], config, keep=_hold_none)
    for out in outcomes:
        if isinstance(out, Exception):
            _release(out, sys._getframe())
            try:
                raise out
            finally:
                outcomes = out = None     # the raise pins this frame, which must not keep the error
    ends = [out.final.values for out in outcomes]
    grid = problem.grid
    scale = lp_norm(ComplexField._trusted(grid, ends[4]), 2.0)
    if scale == 0.0:
        raise ConfigurationError("cannot normalize the residual of a zero trajectory")
    residuals = []
    for i, d in enumerate(widths):
        w_re_p, w_re_m, w_im_p, w_im_m = ends[:4] if i == 0 else ends[1 + 4 * i:5 + 4 * i]
        d_re = (w_re_p - w_re_m) / (2.0 * d)
        d_im = (w_im_p - w_im_m) / (2.0 * d)
        resid = 0.5 * (d_re + 1j * d_im)
        residuals.append(float(lp_norm(ComplexField(grid, resid), 2.0) / scale))
    return residuals[0] if single else residuals


def _distinct_splits(t_primes) -> list:
    """``t_primes`` as a list; refused with fewer than two distinct splits, whose paths would agree trivially."""
    t_primes = list(t_primes)
    if len(set(t_primes)) < 2:
        raise ConfigurationError(f"path independence needs at least two distinct segment splits, got {t_primes}")
    return t_primes


def _usable_strides(n_shifts: int, strides) -> list:
    """The ``strides`` that leave the three shifts of ``n_shifts`` central differencing needs;
    refused when none does, since ``cr_space`` would then check nothing."""
    usable = [stride for stride in strides if (n_shifts - 1) // stride >= 2]
    if not usable:
        raise ConfigurationError(f"no stride in {list(strides)} leaves three of the {n_shifts} shifts "
                                 "that central differencing needs")
    return usable


def _paths(problem: CauchyProblem, sigma, tau, t_primes, config: SolverConfig = None):
    """A row (sigma, tau, t'_a, t'_b, sup |u_a - u_b|) per pair of splits of the two-segment paths
    to sigma + i tau, and the first path whole; of the others only the finals are kept."""
    t_primes, first, finals = _distinct_splits(t_primes), None, {}
    for tp in t_primes:
        end = solve_along_path(problem, sigma, tau, tp, config)
        first = end if first is None else first
        finals[tp] = np.array(end.final.values)     # a copy: a view would pin the last block
    rows = [(sigma, tau, a, b, float(np.max(np.abs(finals[a] - finals[b]))))
            for i, a in enumerate(t_primes) for b in t_primes[i + 1:]]
    return rows, first


def path_independence_check(problem: CauchyProblem, sigma, tau, t_prime_list,
                            config: SolverConfig = None) -> float:
    """Sup-norm spread of solve_along_path endpoints over at least two distinct segment splits."""
    rows, _ = _paths(problem, sigma, tau, t_prime_list, config)
    return max(row[-1] for row in rows)


def hardy_integral(result: SolveResult, p: float, c0: float, order_half: int) -> dict:
    """Weighted space-time integrals of |du/dt|^p and the derivative jet along a path.

    Returns the time-derivative part, the c0-weighted sum over all spatial
    derivatives of order <= 2m, their total, and the companion quantity that
    replaces the time-derivative part with the endpoint Besov norm.  All
    integrals use the real arclength of the stored (possibly complex) times,
    so prefixes of a trajectory give nondecreasing values.  The companion
    norm uses the most dyadic blocks the grid hosts, up to 4
    (``norms._fit_blocks``), and a coarser grid is refused first.
    """
    if len(result) < 2:
        raise ConfigurationError("need at least two snapshots to integrate")
    grid, nparams = result.grid, NormParams(p=p, m=order_half)
    _fit_blocks(grid)

    def pth_powers(rows: np.ndarray) -> list:
        # lp_norm(row, p) ** p of every row of a block
        return [norm ** p for norm in _lp_norms(rows, grid, p)]

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


class _NormTable:
    """The norm table of a solve or a shift family, taken as the rows come.

    ``add(index, times, block)`` takes the Besov norm of every row of member
    ``index``'s block and, for member 0, its L2 and L^p norms, each rounded
    as ``besov_norm`` and ``lp_norm`` round one row alone.  It returns the
    mask of the rows at the ``hold`` times (within ``_time_index``'s
    tolerance), so it is a shift family's row hook.  ``rows`` lists, per
    snapshot: t, the L2, L^p and Besov norms of member 0 and the Besov sup
    over the members offered: a real family offers only its solved members,
    whose mirrors have equal norms.
    """

    def __init__(self, grid, p: float, order_half: int, hold=()):
        _fit_blocks(grid)
        self.grid, self.p, self.hold, self.params = grid, p, hold, NormParams(p=p, m=order_half)
        self.first, self.besov = [], {}      # (t, L2, L^p) of member 0's rows; Besov norms by member

    def add(self, index: int, times, block: np.ndarray) -> np.ndarray:
        self.besov.setdefault(index, []).extend(_besov_norms(block, self.grid, self.params))
        if index == 0:
            self.first.extend(zip((float(np.real(t)) for t in times), _lp_norms(block, self.grid, 2.0),
                                  _lp_norms(block, self.grid, self.p)))
        return _at_times(times, self.hold)

    def rows(self) -> list:
        besov = zip(*(self.besov[k] for k in sorted(self.besov)))
        return [(t, l2, lp, b[0], max(b)) for (t, l2, lp), b in zip(self.first, besov)]


def _run(name, job):
    return job()


def _study(problem: CauchyProblem, config: SolverConfig, y_line, times, horizon, strides=(1,), path=None,
           cr_time=None, hardy=None, record=_run) -> dict:
    """Run the analyticity jobs on ``problem`` over [0, horizon]; their outputs by job name.

    Each job runs as ``record(name, job)``, which returns its output, or None
    for a failed job, whose dependants are then skipped; the default raises.
    In order: ``shift_family`` (shifts i y, y in the ascending ``y_line``,
    along the first axis; a ``_NormTable`` hook holds the rows at
    ``times``), ``cr_space`` ((stride dy, t, residual) per stride with three
    shifts, per t; the other strides are skipped), ``family_norms`` (the
    table's rows), ``cr_time`` ((d, rho, residual) per d, given ``cr_time =
    (mu, d_mu, rho)``), ``path_independence`` (``_paths``' rows, given
    ``path = (sigma, tau, t_primes)``) and ``hardy`` (``hardy_integral`` of
    the first path, given ``hardy = (p, c0)``).  Too few shifts, no stride
    with three, too few distinct splits, or a grid too coarse for the norm
    table raise ``ConfigurationError`` before any solve.
    """
    if len(y_line) < 3:
        raise ConfigurationError("central differencing needs at least three shifts")
    strides = _usable_strides(len(y_line), strides)
    if path is not None:
        _distinct_splits(path[2])
    grid = problem.grid
    norms = _NormTable(grid, config.p, problem.op.order_half, hold=times)
    y_grid = np.column_stack([y_line] + [np.zeros_like(y_line)] * (grid.dim - 1))
    out = {}
    family = record("shift_family",
                    lambda: solve_shift_family(problem, y_grid, 0.0, horizon, config, keep=norms.add))
    if family is not None:
        dy = y_line[1] - y_line[0]
        out["cr_space"] = record("cr_space", lambda: [
            (stride * dy, float(t), cr_residual_space(family, t, stride=stride))
            for stride in strides for t in times])
        out["family_norms"] = record("family_norms", norms.rows)
    if cr_time is not None:
        mu, d_mu, rho = cr_time
        out["cr_time"] = record("cr_time", lambda: [
            (d, rho, residual) for d, residual in zip(d_mu, cr_residual_time(problem, mu, d_mu, rho, config))])
    if path is not None:
        paths = record("path_independence", lambda: _paths(problem, *path, config))
        if paths is not None:
            out["path_independence"], first = paths
            if hardy is not None:
                out["hardy"] = record("hardy", lambda: hardy_integral(first, *hardy, problem.op.order_half))
    return out
