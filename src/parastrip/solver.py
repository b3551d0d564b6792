"""Time integration for semilinear parabolic problems on complex time rays.

Two engines share one driver, which marches one trajectory or several
(the members of a shift family, the rays of a stencil) and stores each as
blocks of rows checked once:

* ``picard_voc`` freezes the generator at the window start, integrates the
  frozen part exactly in Fourier space, and sweeps a variation-of-constants
  fixed point over the window until the trajectory stops moving.  For a
  spatially constant, autonomous, linear problem the first sweep already
  reproduces the exact semigroup, so the iteration count is an honest
  stiffness/nonlinearity diagnostic.  Several members run in lockstep: one
  (K, n + 1, M, *grid) stack per window, each with its own plan.
* ``imex`` is a Crank-Nicolson / Adams-Bashforth(2) splitting; it also
  integrates multi-component systems.  One march carries the solution's
  Fourier coefficients, and its implicit half, the resolvent
  (I + (mu dt / 2) P)^-1, is one of two steps.  Under an autonomous
  operator the resolvent is one matrix for the whole march, block diagonal
  over the Fourier modes of the axes the coefficients do not vary along,
  and its blocks are assembled from the coefficients' Fourier modes;
  only the coupled rows of its blocks are inverted and kept, the
  dealiased-out rest as a diagonal, checked once against the GMRES
  residual bound (``_Resolvent``), so a step is a diagonal multiply and one
  batched matmul.  Time-dependent operators, and blocks too large to
  store, take a restarted GMRES written on numpy (``_gmres``),
  left-preconditioned by the inverse of the frozen Fourier symbol, which
  is a diagonal there.

Both integrate dw/ds = mu [A w + F(jets) + g] with A = -P, so a solve along
s with rotation mu produces u(t) on the ray t = t_base + mu s.
"""

import bisect
import functools
import itertools
import math
import operator
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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
# apply_operator stays importable as parastrip.solver.apply_operator, the name that
# perfbench/test_oracles.py reads; the solver itself applies P through one plan per solve
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
        # both boundaries are piecewise linear in sigma with kinks at their t', so the
        # problem's upper boundary lies inside the operator's domain when these points do
        inner, outer = self.temporal, self.op.temporal
        sigmas = (inner.t_prime, min(outer.t_prime, inner.horizon), inner.horizon)
        if not all(outer.contains(s + 1j * math.tan(inner.angle) * min(s, inner.t_prime)) for s in sigmas):
            raise ConfigurationError(
                f"problem temporal domain (angle {inner.angle}, t' {inner.t_prime}, horizon {inner.horizon}) "
                f"is wider than the operator's (angle {outer.angle}, t' {outer.t_prime}, horizon {outer.horizon})"
            )

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
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt!r}")
        if self.window is not None and not (self.window > 0.0 and math.isfinite(self.window)):
            raise ConfigurationError(f"window must be None or positive and finite, got {self.window!r}")
        for name in ("picard_tol", "gmres_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        if not self.p > 1.0:
            raise ConfigurationError(f"p must exceed 1, got {self.p!r}")
        if self.integrator not in ("picard_voc", "imex"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if self.picard_max_iter < 1 or self.snapshot_stride < 1:
            raise ConfigurationError("picard_max_iter and snapshot_stride must be >= 1")
        if self.max_window_halvings < 0:
            raise ConfigurationError(f"max_window_halvings must be >= 0, got {self.max_window_halvings!r}")


class _Rows(Sequence):
    """The rows of a trajectory's blocks as ComplexFields, wrapped on demand.

    The blocks were checked finite once, when stored, transformed or
    derived, so rows are wrapped without a second check.  Assigning a field
    to an index writes its values into the block row.
    """

    def __init__(self, grid: Grid, blocks: list):
        self._grid, self._blocks = grid, blocks
        self._ends = list(itertools.accumulate(len(block) for block in blocks))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def _locate(self, j):
        n = len(self)
        j = operator.index(j)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError(f"row {j} of a trajectory with {n} rows")
        b = bisect.bisect_right(self._ends, j)
        return self._blocks[b], j - (self._ends[b - 1] if b else 0)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        block, row = self._locate(j)
        return ComplexField._trusted(self._grid, block[row])

    def __setitem__(self, j, field: ComplexField):
        block, row = self._locate(j)
        block[row] = field.values

    def __iter__(self):
        for block in self._blocks:
            for row in block:
                yield ComplexField._trusted(self._grid, row)

    def __add__(self, other):
        return list(self) + list(other)


def _check_finite(block: np.ndarray, times, what: str) -> np.ndarray:
    """``block`` once every row is finite; else InstabilityError naming the first bad row's time."""
    finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
    if not finite.all():
        raise InstabilityError(f"non-finite {what} at t={complex(times[int(np.argmin(finite))])}; reduce dt")
    return block


class _Coefficients(NamedTuple):
    """One node of an unforced imex march kept as its Fourier coefficients, checked finite there.

    ``hat`` is the (M, *grid) array the step returned and ``t`` the node's
    time.  ``values`` is the one-row block a per-node inverse transform
    gives, with the same bits, checked finite (InstabilityError names t).
    """

    hat: np.ndarray
    t: complex

    def values(self, grid: Grid) -> np.ndarray:
        return _check_finite(_ifftn(self.hat, grid)[np.newaxis], [self.t], "value")


# bytes of stored rows per right-hand-side evaluation of a SolveResult: enough rows
# to share the Python overhead, few enough that the stages' stacks stay in cache
_RHS_BYTES = 2 ** 18


def _runs(blocks: list, nbytes: int):
    """Consecutive blocks in runs of at most ``nbytes`` bytes; a larger block is a run alone."""
    run, size = [], 0
    for block in blocks:
        if run and size + block.nbytes > nbytes:
            yield run
            run, size = [], 0
        run.append(block)
        size += block.nbytes
    if run:
        yield run


@dataclass
class SolveResult:
    """Trajectory snapshots along one time ray or path, stored as blocks.

    ``stored`` lists (rows, M, *grid) arrays: a one-row block for the start,
    then the kept rows of each window (of each node under ``imex``).  In
    order, their rows are the values at ``times``.  The solve checks every
    block finite once, as it stores it.  An unforced imex march keeps the
    rows before its last as ``_Coefficients``; ``blocks`` inverse-transforms
    each the first time it is read, one transform and one finite check per
    row, and the values replace the coefficients in ``stored``.  So
    ``blocks``, ``fields``, ``snapshots``, ``time_derivatives`` and
    ``hardy_integral`` see values; ``final`` reads the last row, which
    every march stores as values.  ``fields`` and ``snapshots`` wrap rows
    in ComplexField on demand without a second check; ``fields[j] = f``
    writes f's values into the block.

    ``rhs`` is the right-hand side A u + F + g as the solve binds it
    (``_group_rhs`` with its problem, plan and config).  The time
    derivatives are evaluated from the stored values when first read:
    ``derivative_blocks`` holds rhs of every block at its times, evaluated
    on runs of consecutive blocks stacked up to ``_RHS_BYTES`` per call
    and checked finite once (InstabilityError names the time of a
    non-finite row); a row rounds as it does alone, since every stage of
    rhs acts row by row.  ``time_derivatives[j]`` is du/dt at
    ``times[j]`` in the physical time variable (the ray rotation mu is not
    folded in).
    """

    grid: Grid
    times: np.ndarray
    stored: list
    diagnostics: dict
    rhs: object

    def _block(self, b: int) -> np.ndarray:
        block = self.stored[b]
        if isinstance(block, _Coefficients):
            block = self.stored[b] = block.values(self.grid)
        return block

    @property
    def blocks(self) -> list:
        for b in range(len(self.stored)):
            self._block(b)
        return self.stored

    @functools.cached_property
    def fields(self) -> _Rows:
        return _Rows(self.grid, self.blocks)

    @functools.cached_property
    def derivative_blocks(self) -> list:
        out, start = [], 0
        for run in _runs(self.blocks, _RHS_BYTES):
            stack = run[0] if len(run) == 1 else np.concatenate(run)
            ts = self.times[start:start + len(stack)]
            start += len(stack)
            values = _check_finite(self.rhs(stack[np.newaxis], [ts])[0], ts, "right-hand side")
            out.extend(np.split(values, list(itertools.accumulate(map(len, run)))[:-1]))
        return out

    @functools.cached_property
    def time_derivatives(self) -> _Rows:
        return _Rows(self.grid, self.derivative_blocks)

    @property
    def final(self) -> ComplexField:
        return ComplexField._trusted(self.grid, self._block(-1)[-1])

    @property
    def snapshots(self) -> list:
        return list(zip(self.times, self.fields))

    def __len__(self):
        return len(self.times)


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


def _source_stack(problem: CauchyProblem, plan: OperatorPlan, ts, carried=None):
    """The source g at every node ts[b] as a (B, M, *grid) stack, or None without a source.

    ``carried`` is (t, row), g at a node evaluated before: a first node at
    that very t takes the row instead of calling the source again.
    """
    if problem.source is None:
        return None
    shape = (problem.op.components,) + problem.grid.shape
    rows = []
    for t in ts:
        if not rows and carried is not None and complex(t) == carried[0]:
            rows.append(carried[1])
            continue
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


def _add_forcing(problem: CauchyProblem, plan, stack: np.ndarray, ts,
                 config: SolverConfig, vals: np.ndarray, sources=None) -> np.ndarray:
    """Add F(jets) + g at node ts[b] to row b of ``vals`` in place; returns ``vals``.

    The reaction sees the whole stack in one call: the points broadcast to
    (dim, B, *grid), the jets as (n_slots, M, B, *grid) and the node times
    shaped (B,) + (1,) * dim.  ``plan`` is the OperatorPlan of every row,
    or a list of K plans, one per equal run of rows (a lockstep group's
    members); then ``sources`` must be given, or the problem has no source.
    ``sources`` is g at the nodes, ``_source_stack(problem, plan, ts)``,
    evaluated here when not given; a Picard window evaluates it once and
    passes it to every sweep.
    """
    grid = problem.grid
    if problem.reaction is not None:
        spec = problem.reaction
        B = stack.shape[0]
        X = np.stack(_jet_fields(stack, spec.jet_indices, grid)).swapaxes(1, 2)
        plans = plan if isinstance(plan, list) else [plan]
        runs = [np.broadcast_to(p.points[:, np.newaxis], (grid.dim, B // len(plans)) + grid.shape)
                for p in plans]
        points = runs[0] if len(runs) == 1 else np.concatenate(runs, axis=1)
        times = np.reshape(ts, (B,) + (1,) * grid.dim)
        forcing = _nemytskii_stack(spec, X, points, times, grid, config.check_reaction_domain)
        vals += forcing.swapaxes(0, 1)
    if sources is None:
        sources = _source_stack(problem, plan, ts)
    if sources is not None:
        vals += sources
    return vals


def _group_rhs(problem: CauchyProblem, plans: list, stack: np.ndarray, t_nodes: list,
               config: SolverConfig, sources) -> np.ndarray:
    """Physical right-hand side A w + F(jets) + g of a (K, n + 1, M, *grid) stack.

    Member a's slice is at its nodes t_nodes[a] and goes through its own
    plan; the FFTs in and out are batched over all members, and the
    reaction sees the K (n + 1) rows in one call.  ``sources`` is g as a
    (K, n + 1, M, *grid) stack; None evaluates it here (K = 1 only) if the
    problem has a source.
    """
    grid = problem.grid
    hat = _fftn(stack, grid)
    applied = np.empty_like(hat)
    for a, (plan, ts) in enumerate(zip(plans, t_nodes)):
        applied[a] = plan.apply_hat(hat[a], ts)
    hat = None
    vals, applied = _ifftn(applied, grid), None
    np.negative(vals, out=vals)
    rows = (-1,) + stack.shape[2:]
    vals = _add_forcing(problem, plans if len(plans) > 1 else plans[0], stack.reshape(rows),
                        np.concatenate(t_nodes), config, vals.reshape(rows),
                        None if sources is None else sources.reshape(rows))
    return vals.reshape(stack.shape)


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
    b = temporal.first_outside(t_nodes)
    if b is not None:
        raise DomainError(
            f"path node t={complex(t_nodes[b])} leaves the temporal domain "
            f"(angle {temporal.angle}, split {temporal.t_prime}, horizon {temporal.horizon})"
        )
    return s_nodes, t_nodes, dt


class _Window(NamedTuple):
    """One member's finished window: its node values as an (n + 1, M, *grid) array."""

    s_nodes: np.ndarray
    fields: object                # an array, or a list of node arrays (imex)
    sweeps: int = None
    gmres_iterations: list = None
    contraction_ratio: float = None
    carry: tuple = None           # the source at the last node, see _source_stack
    implicit: str = None          # imex: "blocks" or "gmres", how its implicit half was solved
    resolvent: dict = None        # imex: the record of the resolvent's build, see _Resolvent.build


def _window_constants(problem: CauchyProblem, member, t0, dt):
    """Frozen symbol, propagator and the two phi weights of one window of ``member``.

    Under an autonomous operator they depend on dt alone (a member has one
    mu), so they are kept per exact dt: windows whose dt differs in the last
    bit miss the cache and keep their own rounding.  Otherwise they are
    evaluated at each window start.
    """
    autonomous = problem.op.autonomous
    if autonomous and dt in member.constants:
        return member.constants[dt]
    mu = member.mu
    frozen = _frozen_symbol(member.plan, t0)
    a_hat = -mu * dt * frozen
    phi1, phi2 = _phi_weights(a_hat)
    out = (frozen, np.exp(a_hat), mu * dt * (phi1 - phi2), mu * dt * phi2)
    if autonomous:
        member.constants[dt] = out
    return out


class _Lane:
    """One member's sweep state inside a lockstep Picard window."""

    def __init__(self, k: int, t_nodes: np.ndarray):
        self.k, self.t_nodes = k, t_nodes
        self.sweeps, self.ratio, self.delta_prev, self.converged = 0, None, None, False

    def check(self, sweep: int, finite: bool, delta: float, scale: float, span, config: SolverConfig):
        """Judge the member's new iterate as its serial window would; returns the exception it raises, or None."""
        if not finite:
            return InstabilityError(
                f"non-finite iterate in window {span} at sweep {sweep}; reduce dt or the window length"
            )
        self.sweeps = sweep
        if delta <= config.picard_tol * scale:
            self.converged = True
            return None
        if self.delta_prev is not None and self.delta_prev > 0.0:
            self.ratio = delta / self.delta_prev
            if self.ratio >= 1.0 and delta > 10.0 * config.picard_tol * scale:
                return ConvergenceError(
                    f"window fixed point is not contracting (ratio {self.ratio:.3f} over {span}); "
                    "shorten the window"
                )
        self.delta_prev = delta
        if sweep == config.picard_max_iter:
            return ConvergenceError(
                f"window fixed point needed more than {config.picard_max_iter} sweeps over {span}"
            )
        return None


def _rows_of(keep: list, lanes: list, *stacks) -> list:
    """The lanes ``keep`` and their rows of each per-lane stack (None stays None)."""
    return [[lanes[a] for a in keep]] + [None if x is None else x[keep] for x in stacks]


def _picard_window(problem: CauchyProblem, members: list, span, config: SolverConfig,
                   t_base=0.0, check_mu=True) -> list:
    """Integrate one window for every member, in lockstep, with the frozen-generator scheme.

    The members' n + 1 nodes form one (K, n + 1, M, *grid) stack: each
    stage of a sweep (free flight, the FFTs around each member's
    ``apply_hat``, the reaction, fft(rhs), the inverse of the new iterate)
    is one batched call.  Convergence and its checks are per member, and a
    member whose fixed point has converged stops sweeping, so each gets the
    bits and sweep count of its own serial window.  A sweep evaluates the
    right-hand side once, at the iterate it starts from; none is evaluated
    at the converged iterate.

    Returns one outcome per member: a _Window, emitted by the sweep that
    converges; or the exception its serial window raises (ConvergenceError
    when the fixed point stalls or exceeds the sweep budget,
    InstabilityError on non-finite iterates, whatever its coefficients,
    source or reaction raise); or None when a stage shared with other
    members raised, and the member has to redo the window alone to learn
    its own outcome.
    """
    op, grid, temporal = problem.op, problem.grid, problem.temporal
    if op.components != 1:
        raise ConfigurationError(
            "the frozen-generator integrator handles scalar problems; use integrator='imex' for systems"
        )
    outcomes = [None] * len(members)
    lanes, consts, sources = [], [], []
    for k, m in enumerate(members):
        try:
            if check_mu:
                _check_rotation(m.mu, temporal)
            s_nodes, t_nodes, dt = _time_nodes(span, config, m.mu, t_base, temporal)
            c = _window_constants(problem, m, t_nodes[0], dt)
            g = _source_stack(problem, m.plan, t_nodes, m.carried)
        except Exception as exc:       # where this member's serial window raises it
            outcomes[k] = exc
            continue
        lanes.append(_Lane(k, t_nodes))
        consts.append(np.stack(c))
        sources.append(g)
    if not lanes:
        return outcomes
    n = len(s_nodes) - 1
    consts = np.stack(consts)          # (K, 4, *grid): frozen, propagator, w_explicit, w_implicit
    sources = None if sources[0] is None else np.stack(sources)

    # zeroth iterate: free flight under the frozen generator
    traj_hat = np.empty((len(lanes), n + 1, 1) + grid.shape, dtype=np.complex128)
    traj_hat[:, 0] = _fftn(np.stack([members[lane.k].w.values for lane in lanes]), grid)
    for j in range(n):
        traj_hat[:, j + 1] = consts[:, 1, None] * traj_hat[:, j]
    traj_phys = _ifftn(traj_hat, grid)

    sweep = 0
    while True:
        try:
            rhs = _group_rhs(problem, [members[lane.k].plan for lane in lanes], traj_phys,
                             [lane.t_nodes for lane in lanes], config, sources)
        except Exception as exc:
            if len(lanes) == 1:
                outcomes[lanes[0].k] = exc
            return outcomes              # a shared stage raised: the members redo the window alone

        # few (K, n + 1, M, *grid) stacks live at once: each is dropped, or
        # overwritten in place, as soon as the sweep is done with it
        sweep += 1
        frozen, w_explicit, w_implicit = (consts[:, i, None, None] for i in (0, 2, 3))
        h, rhs = _fftn(rhs, grid), None
        h += frozen * traj_hat
        new_hat = np.empty_like(traj_hat)
        new_hat[:, 0] = traj_hat[:, 0]
        traj_hat = None
        explicit = w_explicit * h[:, :-1]
        implicit = np.multiply(w_implicit, h[:, 1:], out=h[:, 1:])
        for j in range(n):
            new_hat[:, j + 1] = consts[:, 1, None] * new_hat[:, j] + explicit[:, j] + implicit[:, j]
        h = explicit = implicit = None
        new_phys = _ifftn(new_hat, grid)
        flat = (len(lanes), -1)
        finite = np.isfinite(new_phys).reshape(flat).all(axis=1)
        with np.errstate(invalid="ignore"):       # a non-finite member fails below, unread
            # the old iterate becomes the difference; no emitted outcome views it
            deltas = np.max(np.abs(np.subtract(new_phys, traj_phys, out=traj_phys)).reshape(flat), axis=1)
            peaks = np.max(np.abs(new_phys).reshape(flat), axis=1)
        for a, (lane, ok, delta, peak) in enumerate(zip(lanes, finite, deltas, peaks)):
            outcomes[lane.k] = lane.check(sweep, ok, float(delta), max(1.0, float(peak)), span, config)
            if lane.converged:
                carry = None if sources is None else (complex(lane.t_nodes[-1]), sources[a, -1].copy())
                outcomes[lane.k] = _Window(s_nodes, new_phys[a], lane.sweeps, None, lane.ratio, carry)
        traj_hat, traj_phys = new_hat, new_phys
        keep = [a for a, lane in enumerate(lanes) if outcomes[lane.k] is None]
        if not keep:
            return outcomes
        if len(keep) < len(lanes):
            lanes, traj_hat, traj_phys, consts, sources = _rows_of(
                keep, lanes, traj_hat, traj_phys, consts, sources)


def _givens(f, g):
    """Rotation (c, s, r) with c real, [c s; -conj(s) c] [f; g] = [r; 0], as LAPACK zlartg forms it."""
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, np.conj(g) / abs(g), abs(g)
    f2, h2 = abs(f) ** 2, abs(f) ** 2 + abs(g) ** 2
    c = math.sqrt(f2 / h2)
    return c, np.conj(g) * (f / math.sqrt(f2 * h2)), f / c


def _gmres(matvec, b: np.ndarray, x0: np.ndarray, rtol: float, precond=None,
           restart: int = 50, maxiter: int = 200, ax0: np.ndarray = None):
    """Restarted GMRES (Saad & Schultz 1986) for A x = b.

    Arnoldi with modified Gram-Schmidt on the left-preconditioned operator
    M A (``precond`` is the diagonal of M, None for the identity) and
    Givens rotations on the Hessenberg columns.  The inner loop stops on
    the preconditioned residual; its target is rescaled after each restart
    until the true residual meets ||b - A x|| <= rtol ||b||, for at most
    ``maxiter`` restarts of ``restart`` iterations.  ``ax0`` is A x0 when
    the caller has it already.  Returns (x, inner iterations, converged).
    """
    psolve = (lambda v: v) if precond is None else (lambda v: precond * v)
    norm, eps = np.linalg.norm, np.finfo(np.float64).eps
    bnrm2 = norm(b)
    if bnrm2 == 0.0:
        return np.zeros_like(b), 0, True
    atol, restart = rtol * bnrm2, min(restart, b.size)
    x = np.array(x0, dtype=np.complex128)
    r = b - (matvec(x) if ax0 is None else ax0) if x.any() else b.copy()
    if norm(r) < atol:
        return x, 0, True
    factor, ptol = 1.0, norm(psolve(b)) * min(1.0, atol / bnrm2)
    iterations = 0
    for _ in range(maxiter):
        v = np.empty((restart + 1, b.size), dtype=np.complex128)
        h = np.zeros((restart, restart + 1), dtype=np.complex128)   # h[col] is column col of H
        rotations = []
        v[0] = psolve(r)
        S = np.zeros(restart + 1, dtype=np.complex128)
        S[0] = norm(v[0])
        v[0] *= 1.0 / S[0]
        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = norm(w)
            for k in range(col + 1):
                h[col, k] = np.vdot(v[k], w)
                w -= h[col, k] * v[k]
            h[col, col + 1] = h1 = norm(w)
            v[col + 1] = w
            if h1 <= eps * h0:
                h[col, col + 1], breakdown = 0.0, True
            else:
                v[col + 1] *= 1.0 / h1
            for k, (c, s) in enumerate(rotations):
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -np.conj(s) * n0 + c * n1
            c, s, h[col, col] = _givens(h[col, col], h[col, col + 1])
            h[col, col + 1] = 0.0
            rotations.append((c, s))
            S[col], S[col + 1] = c * S[col], -np.conj(s) * S[col]
            presid = abs(S[col + 1])
            iterations += 1
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangle; a zero corner pseudo-solves
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        x += y @ v[:col + 1]
        r = b - matvec(x)
        rnorm = norm(r)
        if rnorm <= atol:
            return x, iterations, True
        if breakdown:
            break
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / rnorm)
    return x, iterations, False


def _explicit_part(problem: CauchyProblem, plan: OperatorPlan, w: np.ndarray, t,
                   config: SolverConfig) -> np.ndarray:
    """F(jets) + g of one (M, *grid) field at time t."""
    zero = np.zeros((1,) + w.shape, dtype=np.complex128)
    return _add_forcing(problem, plan, w[np.newaxis], (t,), config, zero)[0]


_BLOCK_BYTES_CAP = 8 * 2 ** 20    # dense resolvent blocks beyond this leave the implicit half to GMRES


class _Resolvent:
    """(I + c P^)^-1 of an autonomous plan on Fourier coefficients, kept as the rows it couples.

    An autonomous plan transforms its variable products along ``var_axes``
    only (see ``OperatorPlan.apply_hat``), so its spectral core P^ couples
    the components and the modes along those axes and nothing else: it is
    block diagonal over the Fourier modes of the other, fixed axes, with one
    (M n_var) x (M n_var) block per fixed mode.  ``to_blocks`` lays an
    (..., M, *grid) array of coefficients out as (..., F, b) rows against
    the F blocks of size b (fixed axes first, then the component and the
    var axes); ``from_blocks`` undoes it.

    Most rows of B = I + c P^ couple nothing: the 2/3 dealias rule drops
    every variable product outside its mask, so a mode there meets the
    constant part only.  When row i of a block B_k has no off-diagonal
    entry, B_k B_k^-1 = I makes row i of B_k^-1 exactly e_i / (B_k)_ii.
    So ``diagonal`` (F, b) holds 1 / B_ii for those rows, only the
    ``blocks`` (F_c,) that have coupled rows are inverted, and ``coupled``
    (F_c, r, b) keeps r rows of each of their inverses: the block's coupled
    rows, padded up to the largest count r with other rows of its inverse
    (any row of B_k^-1 is a valid one).  ``kept`` holds the flat indices of
    those rows in an (F, b) array.  ``apply`` multiplies by the inverse.
    """

    def __init__(self, plan: OperatorPlan, t):
        plan.coefficients((t,))   # an autonomous plan records var_axes on its first evaluation
        dim = plan.grid.dim
        var = [dim + 1 + a for a in plan.var_axes]
        self.order = [p for p in range(1, dim + 1) if p not in var] + [0] + var
        self.shape = (plan.op.components,) + plan.grid.shape
        self.size = math.prod(self.shape[p] for p in [0] + var)
        self.count = math.prod(self.shape) // self.size
        self.diagonal = self.blocks = self.kept = self.coupled = None

    def to_blocks(self, hat: np.ndarray) -> np.ndarray:
        lead = hat.ndim - len(self.shape)
        axes = list(range(lead)) + [lead + p for p in self.order]
        return hat.transpose(axes).reshape(hat.shape[:lead] + (self.count, self.size))

    def from_blocks(self, rows: np.ndarray) -> np.ndarray:
        lead = rows.ndim - 2
        permuted = rows.reshape(rows.shape[:lead] + tuple(self.shape[p] for p in self.order))
        return permuted.transpose(list(range(lead)) + [lead + p for p in np.argsort(self.order)])

    def matrix(self, plan: OperatorPlan, t, c: complex) -> np.ndarray:
        """The dense blocks of B = I + c P^(t), (F, b, b), from the coefficients' Fourier modes.

        k^alpha and the 2/3 dealias mask factor over the grid axes, into a
        part over the fixed axes (kX, maskX: one value per block) and one
        over the var axes (kV, maskV: one per mode of a block).  So block f
        of P^ is sum_e kX[f]^e (maskX[f] H_e + D_e) over the fixed-axis
        exponents e = alphaX + betaX of the terms, one (F x E) @ (E x b^2)
        matmul.  As ``apply_hat`` applies them, H_e sums the variable terms'
        diag(maskV kV^alphaV) Circ(c^) diag(kV^betaV), with Circ(c^)[k, l] =
        c^[k - l] / n_var and c^ the FFT along the var axes of an entry of
        the coefficient at index 0 of the fixed axes (``var_axes`` makes
        that exact), and D_e the constant terms' C kV^(alphaV + betaV),
        with no mask.  An entry whose samples are all equal is its value
        times the identity exactly, never a Circ(c^) with rounding off its
        diagonal, so every zero of the exact operator is a zero of B.
        """
        grid, dim, m = plan.grid, plan.grid.dim, plan.op.components
        var = [dim + a for a in plan.var_axes]
        fixed = [a for a in range(dim) if a not in var]
        n_var, b = self.size // m, self.size

        def part(full, axes):
            """A grid array constant along the axes outside ``axes``, on ``axes``, raveled."""
            return full[tuple(slice(None) if a in axes else 0 for a in range(dim))].ravel()

        def power(idx, axes):
            """k^idx's factor over ``axes``, raveled."""
            return part(derivative_multiplier(grid, [idx[a] if a in axes else 0 for a in range(dim)]), axes)

        mask, shape = grid.dealias_mask(), tuple(grid.shape[a] for a in var)
        modes, diff = np.arange(n_var), None     # diff: flat index of k - l (mod n) along the var axes
        stacks = {}                              # (masked, e) -> H_e or D_e as (m, n_var, m, n_var)
        for (alpha, beta), term in zip(plan.op.terms, plan.coefficients((t,))):
            e = tuple(alpha[a] + beta[a] if a in fixed else 0 for a in range(dim))
            if term.const_rows is not None:
                block = stacks.setdefault((False, e), np.zeros((m, n_var, m, n_var), np.complex128))
                kv = power(alpha, var) * power(beta, var)
                block[:, modes, :, modes] += term.const_values[0] * kv[:, np.newaxis, np.newaxis]
            if term.var_rows is None:
                continue
            left, right = part(mask, var) * power(alpha, var), power(beta, var)
            block = stacks.setdefault((True, e), np.zeros((m, n_var, m, n_var), np.complex128))
            for i, j in itertools.product(range(m), repeat=2):
                entry = part(term.var_fields[0, i, j], var)
                if np.all(entry == entry[0]):
                    block[i, modes, j, modes] += entry[0] * left * right
                    continue
                if diff is None:
                    k = np.unravel_index(modes, shape)
                    diff = np.ravel_multi_index(tuple((q[:, None] - q) % n for q, n in zip(k, shape)), shape)
                spectrum = np.fft.fftn(entry.reshape(shape)).ravel() / n_var
                block[i, :, j, :] += left[:, np.newaxis] * spectrum[diff] * right
        weights = [power(e, fixed) * (part(mask, fixed) if masked else 1.0) for masked, e in stacks]
        if stacks:
            blocks = np.stack(weights, axis=1) @ np.stack(list(stacks.values())).reshape(len(stacks), b * b)
        else:                                    # every term vanishes: P^ = 0
            blocks = np.zeros((self.count, b * b), dtype=np.complex128)
        blocks = blocks.reshape(self.count, b, b)
        blocks *= c
        blocks[:, np.arange(b), np.arange(b)] += 1.0
        return blocks

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """B^-1 rhs on (F, b) block rows: the diagonal, then the coupled rows by one batched matmul."""
        out = np.multiply(self.diagonal, rhs, out=np.empty(self.diagonal.shape, np.complex128))
        # out is C-ordered, so its flat view writes through at the flat indices ``kept``
        out.reshape(-1)[self.kept] = np.matmul(self.coupled, rhs[self.blocks, :, np.newaxis]).reshape(-1)
        return out

    @classmethod
    def build(cls, plan: OperatorPlan, t, c: complex, tol: float):
        """The resolvent of B = I + c P^(t) and a record of its build; None and why when refused.

        The march must then use GMRES: when the dense blocks would take more
        than _BLOCK_BYTES_CAP bytes, when B is singular, or when the
        residual max_k ||I - B_k X_k||_F of the inverse X as ``apply`` uses
        it exceeds ``tol``, so that X cannot promise the residual GMRES is
        held to.  Coupled rows are found by exact comparison with zero.  A
        kept resolvent records its coupled blocks and rows, its bytes, the
        residual, the build time and the part of it ``inv`` took.
        """
        start = time.perf_counter()
        out = cls(plan, t)
        b = out.size
        dense = out.count * b * b * np.dtype(np.complex128).itemsize
        if dense > _BLOCK_BYTES_CAP:
            return None, {"refused": "cap", "value": dense, "limit": _BLOCK_BYTES_CAP}
        matrix = out.matrix(plan, t, c)
        idx = np.arange(b)
        pivots = matrix[:, idx, idx]
        lone = np.count_nonzero(matrix, axis=2) <= (pivots != 0)     # no off-diagonal entry
        if not np.all(pivots[lone]):
            return None, {"refused": "singular"}
        out.diagonal = np.divide(1.0, pivots, out=np.zeros(pivots.shape, np.complex128), where=lone)
        counts = b - np.count_nonzero(lone, axis=1)
        out.blocks = np.flatnonzero(counts)
        sub, matrix = matrix[out.blocks], None
        inverted = time.perf_counter()
        try:
            inverse = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            return None, {"refused": "singular"}
        inverted = time.perf_counter() - inverted
        # coupled rows first, then the lone rows in order, as many as the widest block needs
        rows = np.argsort(lone[out.blocks], axis=1, kind="stable")[:, :counts.max()]
        out.coupled = np.take_along_axis(inverse, rows[..., np.newaxis], axis=1)
        out.kept = (b * out.blocks[:, np.newaxis] + rows).ravel()
        # the inverse as apply uses it: every row it does not keep is e_i / B_ii
        dropped = np.ones(sub.shape[:2], dtype=bool)
        np.put_along_axis(dropped, rows, False, axis=1)
        inverse[dropped] = 0.0
        k, i = np.nonzero(dropped)
        inverse[k, i, i] = out.diagonal[out.blocks[k], i]
        product = np.matmul(sub, inverse)
        product[:, idx, idx] -= 1.0
        norms = np.linalg.norm(1.0 - pivots * out.diagonal, axis=1)
        norms[out.blocks] = np.linalg.norm(product, axis=(1, 2))
        residual = float(np.max(norms))
        if not residual <= tol:
            return None, {"refused": "residual", "value": residual, "limit": tol}
        kept = (out.diagonal, out.blocks, out.kept, out.coupled)
        return out, {"coupled_blocks": len(out.blocks), "coupled_rows": rows.shape[1],
                     "bytes": sum(a.nbytes for a in kept), "residual": residual,
                     "build_s": time.perf_counter() - start, "invert_s": inverted}


def _blocks_step(resolvent: _Resolvent):
    """The implicit half by the resolvent blocks, as a step of ``_march_imex``.

    With B = I + c P^ and C = I - c P^ = 2I - B, the step B w^_{j+1} = C w^_j
    + f^_j reads w^_{j+1} = B^-1 (2 w^_j + f^_j) - w^_j, where B^-1 is
    ``resolvent.apply``: the diagonal times every row, then one batched
    matmul of the compact coupled rows that overwrites theirs.
    """
    def step(j, w_hat, f_hat, guess):
        rows = resolvent.to_blocks(w_hat)
        rhs = 2.0 * rows
        if f_hat is not None:
            rhs += resolvent.to_blocks(f_hat)
        new = resolvent.apply(rhs)
        new -= rows
        return resolvent.from_blocks(new), 0

    return step


def _gmres_step(problem: CauchyProblem, plan: OperatorPlan, t_nodes, c: complex, config: SolverConfig):
    """The implicit half by GMRES, as a step of ``_march_imex``.

    GMRES solves (I + c P^(t_{j+1})) x = w^_j - c P^(t_j) w^_j + f^_j from
    ``guess``, with the plan's spectral core as the operator and the frozen
    symbol's inverse as a diagonal preconditioner (scalar problems).
    c P^(t_j) w^_j is applied once per node.  Under an autonomous operator
    P(t_j) = P(t_{j+1}), so it also gives the initial residual of a start
    from w^_j.
    """
    shape = (problem.op.components,) + problem.grid.shape
    precond = None
    if problem.op.components == 1:
        precond = (1.0 / (1.0 + c * _frozen_symbol(plan, t_nodes[0]))).ravel()
    applied = {}                  # node j: c P^(t_j) w^_j, shared by node 0's predictor and corrector

    def step(j, w_hat, f_hat, guess):
        if j not in applied:
            applied.clear()
            applied[j] = c * plan.apply_hat(w_hat[np.newaxis], (t_nodes[j],))[0]
        t_next = t_nodes[j + 1]

        def matvec(v_hat):
            return v_hat + c * plan.apply_hat(v_hat.reshape((1,) + shape), (t_next,)).ravel()

        b = w_hat - applied[j]
        if f_hat is not None:
            b += f_hat
        ax0 = (w_hat + applied[j]).ravel() if problem.op.autonomous and guess is w_hat else None
        x_hat, count, converged = _gmres(matvec, b.ravel(), guess.ravel(), config.gmres_tol, precond, ax0=ax0)
        if not converged:
            raise ConvergenceError(f"implicit solve failed to converge at t={t_next} ({count} GMRES iterations)")
        return x_hat.reshape(shape), count

    return step


def _march_imex(problem: CauchyProblem, plan: OperatorPlan, w0: ComplexField, span, mu,
                config: SolverConfig, t_base=0.0, check_mu=True):
    """Crank-Nicolson on A with two-step Adams-Bashforth on the explicit part.

    One march on w^, the solution's Fourier coefficients.  Node j forms the
    explicit part (AB2; at node 0 a predictor with the frozen explicit part,
    then a trapezoid corrector) and f^_j = FFT(mu dt explicit), None for a
    problem with neither a reaction nor a source.  It leaves the implicit
    half, the resolvent (I + c P^)^-1 with c = mu dt / 2, to a step
    ``(j, w^_j, f^_j, guess) -> (w^_{j+1}, iterations)``.  A forced march
    needs every node's values for its explicit part, so it takes one
    inverse FFT of each result and checks the values finite.  An unforced
    one checks each w^_{j+1} finite on its coefficients and transforms the
    last node only, the next start; the nodes before it stay
    ``_Coefficients`` until a SolveResult reads them.  An autonomous
    operator's resolvent is one matrix for the whole march, built once
    (``_Resolvent``) and applied by ``_blocks_step``; a time-dependent
    operator, or blocks that ``_Resolvent.build`` refuses, leave each step
    to ``_gmres_step``.  The problem's temporal domain lies inside the
    operator's, so ``_time_nodes`` checks the nodes for both.  The window's
    fields are a list with one entry per node, values or coefficients; it
    records one ``gmres_iterations`` entry per implicit solve (0 under the
    blocks), the step that served it as ``implicit`` and the build record
    as ``resolvent``.
    """
    mu = complex(mu)
    if check_mu:
        _check_rotation(mu, problem.temporal)
    s_nodes, t_nodes, dt = _time_nodes(span, config, mu, t_base, problem.temporal)
    grid, c = problem.grid, 0.5 * mu * dt
    resolvent, record = None, {"refused": "time_dependent"}
    if problem.op.autonomous:
        resolvent, record = _Resolvent.build(plan, t_nodes[0], c, config.gmres_tol)
    step = _gmres_step(problem, plan, t_nodes, c, config) if resolvent is None else _blocks_step(resolvent)
    forced = problem.reaction is not None or problem.source is not None
    fields, iterations, n = [w0.values.copy()], [], len(t_nodes) - 1

    def solve(j, w_hat, explicit, guess, transform):
        """w^_{j+1} and, with ``transform``, its values (else None), checked finite if taken, else w^_{j+1}."""
        new, count = step(j, w_hat, None if explicit is None else _fftn(mu * dt * explicit, grid), guess)
        iterations.append(count)
        values = _ifftn(new, grid) if transform else None
        if not np.all(np.isfinite(new if values is None else values)):
            raise InstabilityError(f"non-finite iterate at t={t_nodes[j + 1]}; reduce dt")
        return new, values

    w_hat = _fftn(fields[0], grid)
    e_j = explicit = None
    for j in range(n):
        if forced:
            e_prev, e_j = e_j, _explicit_part(problem, plan, fields[j], t_nodes[j], config)
            explicit = e_j if j == 0 else 1.5 * e_j - 0.5 * e_prev
        guess = w_hat
        if j == 0:             # predictor with the frozen explicit part, corrector with the trapezoid
            guess, pred = solve(0, w_hat, explicit, w_hat, forced)
            if forced:
                explicit = 0.5 * (e_j + _explicit_part(problem, plan, pred, t_nodes[1], config))
        w_hat, values = solve(j, w_hat, explicit, guess, forced or j == n - 1)
        fields.append(_Coefficients(w_hat, t_nodes[j + 1]) if values is None else values)
    return _Window(s_nodes, fields, gmres_iterations=iterations,
                   implicit="gmres" if resolvent is None else "blocks", resolvent=record)


def _store_rows(out: list, values, rows, times: list):
    """Append rows ``rows`` of a window's values to ``out`` as blocks, each checked finite once.

    A stack's rows are copied out together into one block of their own:
    stored snapshots then hold no window stack alive, and the heap is not cut
    into one small array per node, between which the next window's stacks
    kept landing on fresh pages (one page fault each).  A list of node
    arrays (imex) gives one block per row, a view: copying a whole march
    into one block would double its memory for a moment.  A node kept as
    ``_Coefficients`` was checked finite by the march and is stored as it
    is.  ``times`` holds the time of each row, for the message of a
    non-finite one.
    """
    if isinstance(values, np.ndarray):
        out.append(_check_finite(values[rows], times, "value"))
        return
    for j, t in zip(rows, times):
        node = values[j]
        out.append(node if isinstance(node, _Coefficients) else _check_finite(node[np.newaxis], [t], "value"))


class _Member:
    """One trajectory of a (lockstep) solve: its plan, marching state and stored blocks."""

    def __init__(self, index: int, mu, shift, plan: OperatorPlan, start: ComplexField, window: float):
        self.index, self.mu, self.shift, self.plan = index, complex(mu), shift, plan
        self.w, self.s, self.window = start, 0.0, window
        self.halvings, self.gstep, self.carried, self.error = 0, 0, None, None
        self.constants = {}           # window constants by exact dt (autonomous operators)
        self.times, self.blocks, self.win_diag, self.win_wall = [], [], [], []

    def store(self, win: _Window, bounds, wall_s: float, last_window: bool, config: SolverConfig, t_base,
              final_only):
        """Keep the window's rows due by the snapshot stride (the final row only with
        ``final_only``), record its diagnostics and move the state to its end.  ``wall_s``
        is the wall time of the call that marched the window (shared by a lockstep group)."""
        n = len(win.s_nodes) - 1
        kept = []
        for j in range(1, n + 1):
            self.gstep += 1
            if (last_window and j == n) or (not final_only and self.gstep % config.snapshot_stride == 0):
                kept.append(j)
        if not self.win_diag and not final_only:
            self.times.append(complex(t_base))          # the start row comes first
            self.blocks.append(self.w.values[np.newaxis])
        times = [complex(t_base + self.mu * win.s_nodes[j]) for j in kept]
        if kept:
            _store_rows(self.blocks, win.fields, kept, times)
            self.times.extend(times)
        self.win_diag.append(
            {
                "s_start": bounds[0],
                "s_end": bounds[1],
                "steps": n,
                "sweeps": win.sweeps,
                "gmres_iterations": win.gmres_iterations,
                "implicit": win.implicit,
                "resolvent": win.resolvent,
                "contraction_ratio": win.contraction_ratio,
            }
        )
        self.win_wall.append(wall_s)
        self.w = ComplexField._trusted(self.plan.grid, np.array(win.fields[-1]))
        self.carried = win.carry
        self.s = bounds[1]             # s + span, rounded as a serial march adds it

    def result(self, problem: CauchyProblem, config: SolverConfig) -> SolveResult:
        diag = {
            "integrator": config.integrator,
            "mu": self.mu,
            "shift": self.shift,
            "dt": config.dt,
            "windows": self.win_diag,
            "picard_iterations": [d["sweeps"] for d in self.win_diag],
            "window_wall_s": self.win_wall,
            "window_halvings": self.halvings,
        }
        rhs = functools.partial(_group_rhs, problem, [self.plan], config=config, sources=None)
        return SolveResult(self.plan.grid, np.asarray(self.times, dtype=np.complex128), self.blocks, diag, rhs)


def _march(problem: CauchyProblem, members: list, s_total: float, config: SolverConfig,
           t_base, check_mu: bool, final_only: bool):
    """Advance every member to s_total, recording each one's blocks or error on it.

    Under picard_voc the members start as one lockstep group sharing window
    spans.  A member that halves its window, or has to redo one alone,
    leaves the group and, once the group is done, continues alone (K = 1)
    from its own state, on the serial schedule.  Under imex every member
    marches alone, one after another.  Members after the first one to fail
    are abandoned: a serial run in member order would never reach them.
    """
    eps = 1e-12 * max(1.0, s_total)
    queue = [members] if config.integrator == "picard_voc" else [[m] for m in members]
    while queue:
        group, pending = queue.pop(0), []
        while True:
            first_failure = min((m.index for m in members if m.error is not None), default=len(members))
            group = [m for m in group if m.index < first_failure]
            if not group or group[0].s >= s_total - eps:
                break
            lead = group[0]
            span = min(lead.window, s_total - lead.s)
            bounds = (float(lead.s), float(lead.s + span))     # plain numbers, as messages print them
            last_window = lead.s + span >= s_total - eps
            started = time.perf_counter()
            if config.integrator == "imex":
                try:
                    outcomes = [_march_imex(problem, lead.plan, lead.w, bounds, lead.mu, config, t_base, check_mu)]
                except Exception as exc:
                    outcomes = [exc]
            else:
                outcomes = _picard_window(problem, group, bounds, config, t_base, check_mu)
            wall_s = time.perf_counter() - started
            stay = []
            for m, out in zip(group, outcomes):
                if out is None:
                    pending.append(m)
                elif isinstance(out, ConvergenceError):
                    m.halvings += 1
                    if m.halvings > config.max_window_halvings or span <= config.dt * (1.0 + 1e-9):
                        m.error = out
                    else:
                        m.window = span / 2.0
                        (stay if len(group) == 1 else pending).append(m)
                elif isinstance(out, Exception):
                    m.error = out
                else:
                    try:
                        m.store(out, bounds, wall_s, last_window, config, t_base, final_only)
                    except InstabilityError as exc:
                        m.error = exc
                        continue
                    stay.append(m)
            group = stay
        queue[:0] = [[m] for m in pending]


def _solve(problem: CauchyProblem, s_total, members, config: SolverConfig, t_base=0.0,
           check_mu=True, final_only=False) -> list:
    """Solve for every member (mu, shift, start) along t = t_base + mu s, s in [0, s_total].

    One driver for one member or many (see ``_march``); every member gets
    the bits, sweep counts and halvings of its own serial solve.
    ``final_only`` stores the final row alone.  Returns one entry per
    member, in order: its SolveResult, or the exception its serial solve
    raises.  The list ends at the first exception, the one a serial run of
    the members in order raises first.
    """
    if not s_total > 1e-12:  # _march counts a span within 1e-12 of its end as done
        raise ConfigurationError(f"integration length must exceed 1e-12, got {s_total!r}")
    config = config if config is not None else SolverConfig()
    if config.integrator == "imex":
        window = s_total
    else:
        window = config.window if config.window is not None else 32.0 * config.dt

    states = []
    for index, (mu, shift, start) in enumerate(members):
        try:
            shift = _normalize_shift(problem.grid.dim, shift)
            w = start if start is not None else _initial_field(problem, shift)
            plan = OperatorPlan(problem.op, problem.grid, shift)
        except Exception as exc:       # a serial run raises it here and never reaches later members
            states.append(exc)
            break
        states.append(_Member(index, mu, shift, plan, w, window))
    _march(problem, [m for m in states if isinstance(m, _Member)], s_total, config, t_base, check_mu, final_only)
    out = []
    for state in states:
        error = state if isinstance(state, Exception) else state.error
        out.append(state.result(problem, config) if error is None else error)
        if error is not None:
            break
    return out


def _solve_one(problem: CauchyProblem, s_total, mu, config: SolverConfig, t_base=0.0,
               shift=None, start: ComplexField = None, check_mu=True) -> SolveResult:
    (out,) = _solve(problem, s_total, [(mu, shift, start)], config, t_base, check_mu)
    if isinstance(out, Exception):
        raise out
    return out


def _real_span(t0, horizon):
    """(t0, horizon - t0) as floats, once the horizon exceeds the start."""
    t0 = float(t0)
    if not float(horizon) > t0:
        raise ConfigurationError(f"horizon {horizon} must exceed the start time {t0}")
    return t0, float(horizon) - t0


def solve_real(problem: CauchyProblem, t0, horizon, config: SolverConfig = None, shift=None) -> SolveResult:
    """March along real time from t0 to ``horizon``."""
    t0, s_total = _real_span(t0, horizon)
    return _solve_one(problem, s_total, 1.0 + 0.0j, config, t_base=t0, shift=shift)


def solve_complex_ray(problem: CauchyProblem, mu, rho_max, config: SolverConfig = None,
                      shift=None) -> SolveResult:
    """March along the rotated ray t = mu rho for rho in [0, rho_max]."""
    return _solve_one(problem, float(rho_max), mu, config, t_base=0.0, shift=shift)


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
    first = _solve_one(problem, t_prime, mu1, config, t_base=0.0, shift=shift, check_mu=False)
    if sigma <= t_prime + 1e-12:
        first.diagnostics["segments"] = [first.diagnostics["windows"]]
        return first

    second = _solve_one(
        problem,
        sigma - t_prime,
        1.0 + 0.0j,
        config,
        t_base=complex(t_prime, tau),
        shift=shift,
        start=first.final,
    )
    # the second segment's one-row start block is the first segment's final row
    times = np.concatenate([first.times, second.times[1:]])
    blocks = first.stored + second.stored[1:]
    diag = {
        "integrator": first.diagnostics["integrator"],
        "mu": (first.diagnostics["mu"], second.diagnostics["mu"]),
        "shift": first.diagnostics["shift"],
        "dt": first.diagnostics["dt"],
        "segments": [first.diagnostics["windows"], second.diagnostics["windows"]],
        "picard_iterations": first.diagnostics["picard_iterations"]
        + second.diagnostics["picard_iterations"],
        "window_wall_s": first.diagnostics["window_wall_s"] + second.diagnostics["window_wall_s"],
        "window_halvings": first.diagnostics["window_halvings"]
        + second.diagnostics["window_halvings"],
    }
    # both segments share the problem, the shift and the config, hence the right-hand side
    return SolveResult(first.grid, times, blocks, diag, first.rhs)


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
        g_vals = np.zeros((len(nodes), op.components) + grid.shape, dtype=np.complex128)
        if sample.source is not None:
            for j, t in enumerate(nodes):
                g_vals[j] = sample.source(t)
        # du/dt block by block as SolveResult.derivative_blocks checks it, with g at the
        # nodes passed in rather than evaluated again
        derivs, start = [], 0
        for block in res.blocks:
            stop = start + len(block)
            ts, sources = res.times[start:stop], None if source is None else g_vals[np.newaxis, start:stop]
            derivs.append(_check_finite(res.rhs(block[np.newaxis], [ts], sources=sources)[0], ts,
                                        "right-hand side"))
            start = stop
        derivs = np.concatenate(derivs)
        load = np.array(
            [
                lp_norm(ComplexField(grid, derivs[j]), p) ** p
                + lp_norm(ComplexField(grid, derivs[j] - g_vals[j]), p) ** p
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
