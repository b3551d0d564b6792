"""Time integration for semilinear parabolic problems on complex time rays.

Two engines share one driver:

* ``picard_voc`` freezes the generator at the window start, integrates the
  frozen part exactly in Fourier space, and sweeps a variation-of-constants
  fixed point over the window until the trajectory stops moving.  For a
  spatially constant, autonomous, linear problem the first sweep already
  reproduces the exact semigroup, so the iteration count is an honest
  stiffness/nonlinearity diagnostic.
* ``imex`` is a Crank-Nicolson / Adams-Bashforth(2) splitting with GMRES on
  the implicit half, preconditioned by the frozen Fourier symbol.  It is the
  fallback for multi-component systems.

Both integrate dw/ds = mu [A w + F(jets) + g] with A = -P, so a solve along
s with rotation mu produces u(t) on the ray t = t_base + mu s.
"""

import math
import warnings
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigurationError, ConvergenceError, DomainError, InstabilityError
from .grid import (
    ComplexField,
    Grid,
    StripSpec,
    _fftn,
    _ifftn,
    _normalize_shift,
    derivative_multiplier,
    sample_on_shifted_grid,
)
from .norms import NormParams, _fit_blocks, besov_norm, lp_norm, _smooth_step
# apply_operator stays importable as parastrip.solver.apply_operator, the name
# perfbench/tracer.py patches; the solver itself applies P through one plan per solve
from .operators import DivergenceOperator, OperatorPlan, apply_operator  # noqa: F401
from .reaction import ReactionSpec, _nemytskii_stack

__all__ = [
    "CauchyProblem",
    "SolverConfig",
    "SolveResult",
    "solve_real",
    "solve_complex_ray",
    "solve_along_path",
    "StepConstants",
    "contraction_step_fraction",
    "analyticity_time_horizon",
    "step_size_from_estimates",
    "MaxRegSample",
    "default_maxreg_ensemble",
    "estimate_max_reg_constant",
]


@dataclass
class CauchyProblem:
    """Initial value problem du/dt = A u + F(jets) + g, u(0) = initial.

    ``initial`` may be a HermiteData, a callable of stacked coordinates, or a
    ComplexField already sampled on the grid (real shifts only in that case).
    ``source`` is ``g(t, grid, shift)`` returning field values; ``reaction``
    is a ReactionSpec acting on the derivative jets of the solution and must
    share the operator's component count, dimension, and jet depth.
    ``temporal`` defaults to the operator's own domain and may only narrow it.
    """

    grid: Grid
    op: DivergenceOperator
    initial: object
    reaction: ReactionSpec = None
    source: object = None
    strip: StripSpec = None
    temporal: object = None

    def __post_init__(self):
        if self.grid.dim != self.op.dim:
            raise ConfigurationError("problem grid and operator dimensions differ")
        if self.reaction is not None:
            r = self.reaction
            if (r.dim, r.components, r.order_half) != (self.op.dim, self.op.components, self.op.order_half):
                raise ConfigurationError(
                    "reaction and operator must agree on dimension, components, and order"
                )
        if self.temporal is None:
            self.temporal = self.op.temporal

    @property
    def data_strip(self) -> StripSpec:
        return self.strip if self.strip is not None else self.op.strip


@dataclass
class SolverConfig:
    dt: float = 1e-3
    window: float = None          # picard window length; default 32 dt
    picard_tol: float = 1e-10
    picard_max_iter: int = 25
    max_window_halvings: int = 6
    p: float = 4.0                # integrability exponent for reported norms
    integrator: str = "picard_voc"
    snapshot_stride: int = 1
    gmres_tol: float = 1e-12
    check_reaction_domain: bool = True

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if self.integrator not in ("picard_voc", "imex"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if self.picard_max_iter < 1 or self.snapshot_stride < 1:
            raise ConfigurationError("picard_max_iter and snapshot_stride must be >= 1")


@dataclass
class SolveResult:
    """Trajectory snapshots along one time ray or path.

    ``time_derivatives[j]`` holds the evaluated right-hand side
    A u + F + g at ``times[j]``, i.e. du/dt in the physical time variable
    (the ray rotation mu is not folded in).
    """

    times: np.ndarray
    fields: list
    time_derivatives: list
    diagnostics: dict = dataclass_field(default_factory=dict)

    @property
    def final(self) -> ComplexField:
        return self.fields[-1]

    @property
    def snapshots(self) -> list:
        return list(zip(self.times, self.fields))

    def __len__(self):
        return len(self.fields)


def _initial_field(problem: CauchyProblem, shift) -> ComplexField:
    init = problem.initial
    if isinstance(init, ComplexField):
        if np.any(shift != 0.0):
            raise ConfigurationError(
                "sampled initial data cannot be re-evaluated off the real grid; "
                "pass HermiteData or a callable for shifted solves"
            )
        return init.copy()
    return sample_on_shifted_grid(init, problem.grid, shift, strip=problem.data_strip)


def _source_stack(problem: CauchyProblem, plan: OperatorPlan, ts):
    """The source g at every node ts[b] as a (B, M, *grid) stack, or None without a source."""
    if problem.source is None:
        return None
    shape = (problem.op.components,) + problem.grid.shape
    rows = []
    for t in ts:
        out = problem.source(t, problem.grid, plan.shift)
        if isinstance(out, ComplexField):
            out = out.values
        rows.append(np.broadcast_to(np.asarray(out, dtype=np.complex128), shape))
    return np.stack(rows)


def _jet_fields(stack: np.ndarray, indices, grid: Grid) -> list:
    """Plain partial derivatives d^beta of every row of a (B, M, *grid) stack, one stack per beta."""
    hat = _fftn(stack, grid)
    return [(1j) ** int(sum(beta)) * _ifftn(hat * derivative_multiplier(grid, beta), grid)
            for beta in indices]


def _add_forcing(problem: CauchyProblem, plan: OperatorPlan, stack: np.ndarray, ts,
                 config: SolverConfig, vals: np.ndarray, sources=None) -> np.ndarray:
    """Add F(jets) + g at node ts[b] to row b of ``vals`` in place; returns ``vals``.

    The reaction sees the whole stack in one call: the plan's points
    broadcast to (dim, B, *grid), the jets as (n_slots, M, B, *grid) and
    the node times shaped (B,) + (1,) * dim.  ``sources`` is g at the
    nodes, ``_source_stack(problem, plan, ts)``, evaluated here when not
    given; a Picard window evaluates it once and passes it to every sweep.
    """
    grid = problem.grid
    if problem.reaction is not None:
        spec = problem.reaction
        B = stack.shape[0]
        X = np.stack(_jet_fields(stack, spec.jet_indices, grid)).swapaxes(1, 2)
        points = np.broadcast_to(plan.points[:, np.newaxis], (grid.dim, B) + grid.shape)
        times = np.reshape(ts, (B,) + (1,) * grid.dim)
        forcing = _nemytskii_stack(spec, X, points, times, grid, config.check_reaction_domain)
        vals += forcing.swapaxes(0, 1)
    if sources is None:
        sources = _source_stack(problem, plan, ts)
    if sources is not None:
        vals += sources
    return vals


def _rhs_values(problem: CauchyProblem, plan: OperatorPlan, stack: np.ndarray, ts,
                config: SolverConfig, sources) -> np.ndarray:
    """Physical right-hand side A w + F(jets) + g, row b of the (B, M, *grid) stack at ts[b]."""
    return _add_forcing(problem, plan, stack, ts, config, -plan.apply_stack(stack, ts), sources)


def _frozen_symbol(plan: OperatorPlan, t) -> np.ndarray:
    """Spatial mean of the full symbol of P at time t, shape grid.shape (scalar case)."""
    p_hat = np.zeros(plan.grid.shape, dtype=np.complex128)
    for (alpha, beta), term in zip(plan.op.terms, plan.coefficients((t,))):
        # the mean runs over the full field even when c is constant, so the
        # symbol keeps the rounding of the mean of n^dim equal values
        cbar = np.mean(term.fields[0, 0, 0])
        p_hat += cbar * plan.multipliers[alpha] * plan.multipliers[beta]
    return p_hat


def _check_rotation(mu: complex, temporal):
    if abs(mu - 1.0) > temporal.mu_disc_radius + 1e-12:
        raise DomainError(
            f"ray rotation mu={mu} leaves the admissible disc of radius sin(angle)={temporal.mu_disc_radius}"
        )


_PHI_CONTOUR_POINTS = 32


def _phi_weights(a: np.ndarray):
    """phi1(a) = (e^a - 1)/a and phi2(a) = (e^a - 1 - a)/a^2, stably.

    Near the removable singularity the values are recovered as contour means
    over a unit circle around each point (exact for entire functions up to
    the Taylor tail beyond order 32); elsewhere the direct formulas are fine.
    """
    a = np.asarray(a, dtype=np.complex128)
    phi1 = np.empty_like(a)
    phi2 = np.empty_like(a)
    small = np.abs(a) <= 0.5
    large = ~small
    if np.any(large):
        al = a[large]
        ea = np.exp(al)
        phi1[large] = (ea - 1.0) / al
        phi2[large] = (ea - 1.0 - al) / (al * al)
    if np.any(small):
        th = np.exp(2j * np.pi * (np.arange(_PHI_CONTOUR_POINTS) + 0.5) / _PHI_CONTOUR_POINTS)
        z = a[small][..., np.newaxis] + th
        ez = np.exp(z)
        phi1[small] = np.mean((ez - 1.0) / z, axis=-1)
        phi2[small] = np.mean((ez - 1.0 - z) / (z * z), axis=-1)
    return phi1, phi2


def _time_nodes(span, config: SolverConfig, mu, t_base, temporal):
    s0, s1 = span
    if not s1 > s0:
        raise ConfigurationError(f"empty integration span {span}")
    n = max(1, math.ceil((s1 - s0) / config.dt - 1e-9))
    dt = (s1 - s0) / n
    s_nodes = s0 + dt * np.arange(n + 1)
    t_nodes = t_base + mu * s_nodes
    for t in t_nodes:
        if not temporal.contains(t):
            raise DomainError(
                f"path node t={complex(t)} leaves the temporal domain "
                f"(angle {temporal.angle}, split {temporal.t_prime}, horizon {temporal.horizon})"
            )
    return s_nodes, t_nodes, dt


def _picard_window(problem: CauchyProblem, plan: OperatorPlan, w0: ComplexField, span, mu,
                   config: SolverConfig, t_base=0.0, check_mu=True):
    """Integrate one window with the frozen-generator variation-of-constants scheme.

    Every sweep treats the window's n + 1 nodes as one (n + 1, M, *grid)
    stack.  Returns (s_nodes, fields, rhs_fields, sweeps, last_ratio), the
    fields and right-hand sides as (n + 1, M, *grid) stacks.  Raises
    ConvergenceError when the window fixed point stalls or exceeds the sweep
    budget, InstabilityError on non-finite iterates.
    """
    op, grid = problem.op, problem.grid
    if op.components != 1:
        raise ConfigurationError(
            "the frozen-generator integrator handles scalar problems; use integrator='imex' for systems"
        )
    temporal = problem.temporal
    mu = complex(mu)
    if check_mu:
        _check_rotation(mu, temporal)
    s_nodes, t_nodes, dt = _time_nodes(span, config, mu, t_base, temporal)
    n = len(s_nodes) - 1

    frozen = _frozen_symbol(plan, t_nodes[0])
    a_hat = -mu * dt * frozen
    propagator = np.exp(a_hat)
    phi1, phi2 = _phi_weights(a_hat)
    w_explicit = mu * dt * (phi1 - phi2)
    w_implicit = mu * dt * phi2
    sources = _source_stack(problem, plan, t_nodes)

    # zeroth iterate: free flight under the frozen generator
    traj_hat = np.empty((n + 1,) + w0.values.shape, dtype=np.complex128)
    traj_hat[0] = _fftn(w0.values, grid)
    for j in range(n):
        traj_hat[j + 1] = propagator * traj_hat[j]
    traj_phys = _ifftn(traj_hat, grid)

    delta_prev = None
    ratio = None
    for sweep in range(1, config.picard_max_iter + 1):
        h = _fftn(_rhs_values(problem, plan, traj_phys, t_nodes, config, sources), grid) + frozen * traj_hat
        explicit, implicit = w_explicit * h[:-1], w_implicit * h[1:]
        new_hat = np.empty_like(traj_hat)
        new_hat[0] = traj_hat[0]
        for j in range(n):
            new_hat[j + 1] = propagator * new_hat[j] + explicit[j] + implicit[j]
        new_phys = _ifftn(new_hat, grid)
        if not np.all(np.isfinite(new_phys)):
            raise InstabilityError(
                f"non-finite iterate in window {span} at sweep {sweep}; reduce dt or the window length"
            )
        delta = float(np.max(np.abs(new_phys - traj_phys)))
        scale = max(1.0, float(np.max(np.abs(new_phys))))
        traj_hat, traj_phys = new_hat, new_phys
        if delta <= config.picard_tol * scale:
            break
        if delta_prev is not None and delta_prev > 0.0:
            ratio = delta / delta_prev
            if ratio >= 1.0 and delta > 10.0 * config.picard_tol * scale:
                raise ConvergenceError(
                    f"window fixed point is not contracting (ratio {ratio:.3f} over {span}); "
                    "shorten the window"
                )
        delta_prev = delta
    else:
        raise ConvergenceError(
            f"window fixed point needed more than {config.picard_max_iter} sweeps over {span}"
        )

    rhs = _rhs_values(problem, plan, traj_phys, t_nodes, config, sources)
    return s_nodes, traj_phys, rhs, sweep, ratio


def _march_imex(problem: CauchyProblem, plan: OperatorPlan, w0: ComplexField, span, mu,
                config: SolverConfig, t_base=0.0, check_mu=True):
    """Crank-Nicolson on A with two-step Adams-Bashforth on the explicit part.

    Returns (s_nodes, fields, rhs_fields, gmres_iterations, None), the fields
    and right-hand sides as lists of value arrays.
    """
    op, grid = problem.op, problem.grid
    temporal = problem.temporal
    mu = complex(mu)
    if check_mu:
        _check_rotation(mu, temporal)
    s_nodes, t_nodes, dt = _time_nodes(span, config, mu, t_base, temporal)
    n = len(s_nodes) - 1
    M = op.components
    shape = (M,) + grid.shape
    size = int(np.prod(shape))

    if M == 1:
        sym = _frozen_symbol(plan, t_nodes[0])
        precond_hat = 1.0 / (1.0 + 0.5 * mu * dt * sym)

        def _apply_precond(v):
            hat = _fftn(v.reshape(shape), grid)
            return _ifftn(precond_hat * hat, grid).ravel()

        precond = LinearOperator((size, size), matvec=_apply_precond, dtype=np.complex128)
    else:
        precond = None

    def explicit_part(w: ComplexField, t) -> np.ndarray:
        zero = np.zeros((1,) + shape, dtype=np.complex128)
        return _add_forcing(problem, plan, w.values[np.newaxis], (t,), config, zero)[0]

    def implicit_solve(t_next, b_vals, x0_vals, iters):
        def matvec(v):
            f = ComplexField(grid, v.reshape(shape))
            pv = plan.apply(f, t_next).values
            return (f.values + 0.5 * mu * dt * pv).ravel()

        lhs = LinearOperator((size, size), matvec=matvec, dtype=np.complex128)
        count = [0]

        def cb(_):
            count[0] += 1

        x, info = gmres(
            lhs,
            b_vals.ravel(),
            x0=x0_vals.ravel(),
            rtol=config.gmres_tol,
            atol=0.0,
            M=precond,
            restart=50,
            maxiter=200,
            callback=cb,
            callback_type="pr_norm",
        )
        if info != 0:
            raise ConvergenceError(f"implicit solve failed to converge at t={t_next} (info={info})")
        iters.append(count[0])
        return x.reshape(shape)

    gmres_iters = []
    fields = [ComplexField(grid, w0.values.copy())]
    # du/dt at every node is A w_j + e_j; only the last two explicit parts are kept
    rhs_vals = []
    e_prev, e_j = None, explicit_part(fields[0], t_nodes[0])
    for j in range(n):
        w_j = fields[j]
        a_j = -plan.apply(w_j, t_nodes[j]).values
        rhs_vals.append(a_j + e_j)
        base = w_j.values + 0.5 * mu * dt * a_j
        if j == 0:
            # predictor with the frozen explicit part, corrector with the trapezoid
            b = base + mu * dt * e_j
            pred = ComplexField(grid, implicit_solve(t_nodes[1], b, w_j.values, gmres_iters))
            e_pred = explicit_part(pred, t_nodes[1])
            b = base + 0.5 * mu * dt * (e_j + e_pred)
            w_next = implicit_solve(t_nodes[1], b, pred.values, gmres_iters)
        else:
            b = base + mu * dt * (1.5 * e_j - 0.5 * e_prev)
            w_next = implicit_solve(t_nodes[j + 1], b, w_j.values, gmres_iters)
        if not np.all(np.isfinite(w_next)):
            raise InstabilityError(f"non-finite iterate at t={t_nodes[j + 1]}; reduce dt")
        fields.append(ComplexField(grid, w_next))
        e_prev, e_j = e_j, explicit_part(fields[-1], t_nodes[j + 1])
    rhs_vals.append(-plan.apply(fields[-1], t_nodes[n]).values + e_j)
    return s_nodes, [f.values for f in fields], rhs_vals, gmres_iters, None


def _kept_rows(values, rows) -> list:
    """The arrays of nodes ``rows`` of a window's output (a stack or a list of arrays).

    Rows of a stack are copied out together into one block of their own:
    stored snapshots then hold no window stack alive, and the heap is not
    cut into one small array per node, between which the next window's
    stacks kept landing on fresh pages (one page fault each).
    """
    if isinstance(values, np.ndarray):
        return list(values[rows])
    return [values[j] for j in rows]


def _solve(problem: CauchyProblem, s_total, mu, config: SolverConfig, t_base=0.0,
           shift=None, start: ComplexField = None, check_mu=True) -> SolveResult:
    if not s_total > 0.0:
        raise ConfigurationError(f"integration length must be positive, got {s_total!r}")
    config = config if config is not None else SolverConfig()
    shift = _normalize_shift(problem.grid.dim, shift)
    w = start if start is not None else _initial_field(problem, shift)
    plan = OperatorPlan(problem.op, problem.grid, shift)

    if config.integrator == "imex":
        window = s_total
    else:
        window = config.window if config.window is not None else 32.0 * config.dt
        if not window > 0.0:
            raise ConfigurationError("window must be positive")

    stride = config.snapshot_stride
    times = [complex(t_base)]
    fields = [w]
    derivs = [None]
    win_diag = []
    s = 0.0
    halvings = 0
    gstep = 0
    eps = 1e-12 * max(1.0, s_total)
    while s < s_total - eps:
        span = min(window, s_total - s)
        try:
            if config.integrator == "imex":
                s_nodes, wf, rf, iters, ratio = _march_imex(
                    problem, plan, w, (s, s + span), mu, config, t_base, check_mu
                )
                sweeps = None
            else:
                s_nodes, wf, rf, sweeps, ratio = _picard_window(
                    problem, plan, w, (s, s + span), mu, config, t_base, check_mu
                )
                iters = None
        except ConvergenceError:
            halvings += 1
            if halvings > config.max_window_halvings or span <= config.dt * (1.0 + 1e-9):
                raise
            window = span / 2.0
            continue
        if derivs[0] is None:
            derivs[0] = ComplexField(problem.grid, rf[0].copy())
        last_window = s + span >= s_total - eps
        kept = []
        for j in range(1, len(s_nodes)):
            gstep += 1
            is_final = last_window and j == len(s_nodes) - 1
            if gstep % stride == 0 or is_final:
                kept.append(j)
        for j, wj, rj in zip(kept, _kept_rows(wf, kept), _kept_rows(rf, kept)):
            times.append(complex(t_base + mu * s_nodes[j]))
            fields.append(ComplexField(problem.grid, wj))
            derivs.append(ComplexField(problem.grid, rj))
        win_diag.append(
            {
                "s_start": float(s),
                "s_end": float(s + span),
                "steps": len(s_nodes) - 1,
                "sweeps": sweeps,
                "gmres_iterations": iters,
                "contraction_ratio": ratio,
            }
        )
        w = ComplexField(problem.grid, wf[-1])
        s += span

    diag = {
        "integrator": config.integrator,
        "mu": complex(mu),
        "shift": shift,
        "dt": config.dt,
        "windows": win_diag,
        "picard_iterations": [d["sweeps"] for d in win_diag],
        "window_halvings": halvings,
    }
    return SolveResult(np.asarray(times, dtype=np.complex128), fields, derivs, diag)


def solve_real(problem: CauchyProblem, t0, horizon, config: SolverConfig = None, shift=None) -> SolveResult:
    """March along real time from t0 to ``horizon``."""
    t0 = float(t0)
    if not float(horizon) > t0:
        raise ConfigurationError(f"horizon {horizon} must exceed the start time {t0}")
    return _solve(problem, float(horizon) - t0, 1.0 + 0.0j, config, t_base=t0, shift=shift)


def solve_complex_ray(problem: CauchyProblem, mu, rho_max, config: SolverConfig = None,
                      shift=None) -> SolveResult:
    """March along the rotated ray t = mu rho for rho in [0, rho_max]."""
    return _solve(problem, float(rho_max), mu, config, t_base=0.0, shift=shift)


def solve_along_path(problem: CauchyProblem, sigma, tau, t_prime, config: SolverConfig = None,
                     shift=None) -> SolveResult:
    """Reach t = sigma + i tau along s + i min(s/t_prime, 1) tau, s in [0, sigma].

    Segment one is the rotated ray mu = 1 + i tau / t_prime up to s =
    t_prime; segment two continues parallel to the real axis at constant
    imaginary part.  Admissibility asks |tau| <= tan(angle) t_prime (the
    target sits in the sector); the rotation of the first segment may then
    leave the mu disc |mu - 1| <= sin(angle) that ``solve_complex_ray``
    enforces, which only matters for the disc-based continuation argument,
    not for the path integration itself.
    """
    temporal = problem.temporal
    t_prime = float(t_prime)
    sigma = float(sigma)
    tau = float(tau)
    if not 0.0 < t_prime <= temporal.t_prime + 1e-12:
        raise ConfigurationError(
            f"segment split {t_prime} must lie in (0, {temporal.t_prime}]"
        )
    if sigma < t_prime - 1e-12:
        raise ConfigurationError(
            f"path targets need sigma >= the segment split {t_prime}; got sigma={sigma}"
        )
    if abs(tau) > math.tan(temporal.angle) * t_prime + 1e-12 or not temporal.contains(complex(sigma, tau)):
        raise DomainError(f"target t={complex(sigma, tau)} lies outside the temporal domain")

    mu1 = 1.0 + 1j * tau / t_prime
    first = _solve(problem, t_prime, mu1, config, t_base=0.0, shift=shift, check_mu=False)
    if sigma <= t_prime + 1e-12:
        first.diagnostics["segments"] = [first.diagnostics["windows"]]
        return first

    second = _solve(
        problem,
        sigma - t_prime,
        1.0 + 0.0j,
        config,
        t_base=complex(t_prime, tau),
        shift=shift,
        start=first.final,
    )
    times = np.concatenate([first.times, second.times[1:]])
    fields = first.fields + second.fields[1:]
    derivs = first.time_derivatives + second.time_derivatives[1:]
    diag = {
        "integrator": first.diagnostics["integrator"],
        "mu": (first.diagnostics["mu"], second.diagnostics["mu"]),
        "shift": first.diagnostics["shift"],
        "dt": first.diagnostics["dt"],
        "segments": [first.diagnostics["windows"], second.diagnostics["windows"]],
        "picard_iterations": first.diagnostics["picard_iterations"]
        + second.diagnostics["picard_iterations"],
        "window_halvings": first.diagnostics["window_halvings"]
        + second.diagnostics["window_halvings"],
    }
    return SolveResult(times, fields, derivs, diag)


# ---------------------------------------------------------------------------
# contraction step size and analyticity horizon from measured constants


@dataclass(frozen=True)
class StepConstants:
    """Measured constants feeding the step-size and horizon formulas.

    ``coercivity_lower``/``zero_order`` bound the form from below (the
    quadratic lower estimate), ``operator_bound`` from above,
    ``perturbation_lipschitz`` controls the jet nonlinearity on the working
    box, ``embedding`` is the trace/interpolation constant at the chosen
    contraction fraction, and ``max_reg`` the maximal-regularity constant of
    the horizon under study.
    """

    p: float
    max_reg: float
    coercivity_lower: float
    operator_bound: float
    zero_order: float = 0.0
    perturbation_lipschitz: float = 0.0
    embedding: float = 1.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigurationError(f"exponent p must exceed 1, got {self.p!r}")
        for name in ("max_reg", "coercivity_lower", "operator_bound"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("zero_order", "perturbation_lipschitz", "embedding"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if self.operator_bound < self.coercivity_lower:
            raise ConfigurationError("operator_bound cannot be smaller than coercivity_lower")


def contraction_step_fraction(constants: StepConstants) -> float:
    """Admissible rotation fraction delta < 1 for one analytic continuation step."""
    p = constants.p
    delta = (
        2.0 ** (-(3.0 * p - 2.0) / p)
        * (constants.coercivity_lower / constants.operator_bound)
        * constants.max_reg ** (-1.0 / p)
    )
    return min(delta, 1.0 - 1e-12)


def analyticity_time_horizon(constants: StepConstants, delta: float = None) -> float:
    """Guaranteed horizon T1 on which the shifted fixed point stays contractive."""
    p = constants.p
    d = contraction_step_fraction(constants) if delta is None else float(delta)
    if not 0.0 < d < 1.0:
        raise ConfigurationError(f"contraction fraction must lie in (0, 1), got {d!r}")
    denom = (
        2.0 ** p
        * constants.max_reg
        * (2.0 ** (p - 1.0) * constants.perturbation_lipschitz ** p * d ** p + constants.embedding ** p)
        + constants.zero_order ** p
    )
    if not denom > 0.0:
        raise ConfigurationError("horizon formula has a nonpositive denominator; supply nonzero constants")
    return float((p / denom) ** (1.0 / p))


def step_size_from_estimates(constants: StepConstants):
    """Both formula values: the contraction fraction delta and the horizon T1."""
    delta = contraction_step_fraction(constants)
    return delta, analyticity_time_horizon(constants, delta)


# ---------------------------------------------------------------------------
# maximal regularity constant estimation


@dataclass
class MaxRegSample:
    """One (initial datum, forcing) pair; the forcing must vanish past ``support``."""

    initial: ComplexField
    source: object = None      # callable t -> field values
    support: float = 0.0


def default_maxreg_ensemble(grid: Grid, components: int, count: int, rng,
                            support: float, band_fraction: float = 0.25) -> list:
    """Band-limited random data paired with smooth compactly supported forcings."""
    from .operators import random_band_limited_fields

    if count < 3:
        raise ConfigurationError("the ensemble needs at least three samples")
    fields = random_band_limited_fields(grid, components, count, rng, band_fraction=band_fraction)
    zero = ComplexField.zeros(grid, components)
    out = []
    for i, u0 in enumerate(fields):
        profile = u0.values.copy()

        def bump(t, g=profile, T=support):
            x = np.real(t) / T
            return g * (_smooth_step(np.asarray(2.0 * x)) * _smooth_step(np.asarray(2.0 - 2.0 * x)))

        kind = i % 3
        if kind == 0:
            out.append(MaxRegSample(initial=u0))
        elif kind == 1:
            out.append(MaxRegSample(initial=zero.copy(), source=bump, support=support))
        else:
            out.append(MaxRegSample(initial=u0, source=bump, support=support))
    return out


def estimate_max_reg_constant(op: DivergenceOperator, grid: Grid, horizons, p: float,
                              ensemble, config: SolverConfig = None, shift=None):
    """Empirical maximal-regularity constant M(T), a lower bound on the true one.

    For every sample the solution of u' = A u + g, u(0) = u0 is marched once
    over the largest horizon; the ratio

        int_0^T (||u'||_p^p + ||A u||_p^p) dt
        --------------------------------------
        ||u0||_{B}^p + int_0^T ||g||_p^p dt

    is accumulated with prefix trapezoid sums, so M(T) is nondecreasing in T
    by construction whenever every forcing is supported in [0, min horizons]
    (zero extension leaves the denominator fixed while the numerator grows).
    Pass a single horizon for a float result, a sequence for a dict {T: M}.
    """
    single = np.isscalar(horizons)
    horizons = [float(horizons)] if single else sorted(float(T) for T in horizons)
    if not horizons or horizons[0] <= 0.0:
        raise ConfigurationError("horizons must be positive")
    config = config if config is not None else SolverConfig(dt=horizons[0] / 64.0)
    t_max = horizons[-1]
    n_steps = max(1, math.ceil(t_max / config.dt - 1e-9))
    dt = t_max / n_steps
    nodes = dt * np.arange(n_steps + 1)
    horizon_idx = {}
    for T in horizons:
        j = int(round(T / dt))
        if abs(nodes[j] - T) > 1e-9 * max(1.0, T):
            raise ConfigurationError(
                f"horizon {T} does not land on the time grid (dt={dt}); adjust dt or the horizons"
            )
        horizon_idx[T] = j

    bparams = NormParams(p=p, m=op.order_half, dyadic_blocks=_fit_blocks(grid))
    run_cfg = replace(config, dt=dt, snapshot_stride=1)

    best = {T: 0.0 for T in horizons}
    skipped = 0
    for sample in ensemble:
        if sample.source is not None and sample.support > horizons[0] + 1e-9:
            raise ConfigurationError(
                "forcing support must fit inside the smallest horizon for a monotone family"
            )
        source = None
        if sample.source is not None:
            source = lambda t, g, sh, f=sample.source: f(t)
        problem = CauchyProblem(grid, op, sample.initial, source=source)
        res = solve_real(problem, 0.0, t_max, run_cfg, shift=shift)
        g_vals = []
        for t in nodes:
            if sample.source is None:
                g_vals.append(np.zeros((op.components,) + grid.shape, dtype=np.complex128))
            else:
                g_vals.append(np.asarray(sample.source(t), dtype=np.complex128))
        load = np.array(
            [
                lp_norm(res.time_derivatives[j], p) ** p
                + lp_norm(ComplexField(grid, res.time_derivatives[j].values - g_vals[j]), p) ** p
                for j in range(len(nodes))
            ]
        )
        forcing = np.array([lp_norm(ComplexField(grid, g), p) ** p for g in g_vals])
        num = np.concatenate([[0.0], np.cumsum(0.5 * dt * (load[1:] + load[:-1]))])
        den_g = np.concatenate([[0.0], np.cumsum(0.5 * dt * (forcing[1:] + forcing[:-1]))])
        den0 = besov_norm(sample.initial, bparams) ** p
        for T, j in horizon_idx.items():
            den = den0 + den_g[j]
            if den < 1e-30:
                skipped += 1
                continue
            best[T] = max(best[T], num[j] / den)
    if skipped:
        warnings.warn(f"skipped {skipped} degenerate ratio(s) with vanishing data norm")
    if all(v == 0.0 for v in best.values()):
        raise ConfigurationError("no admissible samples produced a ratio; enlarge the ensemble")
    return best[horizons[0]] if single else best
