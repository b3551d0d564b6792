"""Time integration for semilinear parabolic problems on complex time rays.

Two engines share one driver, which marches one trajectory or several
(the members of a shift family, the rays of a stencil) and stores each as
blocks of rows checked once:

* ``picard_voc`` freezes the generator at the window start, integrates the
  frozen part exactly in Fourier space, and sweeps a variation-of-constants
  fixed point over the window, on the iterate's Fourier coefficients, until
  the trajectory stops moving.  When the frozen generator is the
  generator, the sweep has no operator part, so a window of a spatially
  constant, autonomous, linear problem is its own free flight: it reports
  the one sweep that would reproduce the exact semigroup without running
  it, and the iteration count is an honest stiffness/nonlinearity
  diagnostic.
  Several members run in lockstep: one (K, n + 1, M, *grid) stack per
  window, each with its own plan.
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

import functools
import itertools
import math
import sys
import time
import warnings
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
    _read_only,
    derivative_multiplier,
    sample_on_shifted_grid,
)
from .norms import NormParams, _fit_blocks, _lp_norms, _smooth_step, besov_norm
# apply_operator stays importable as parastrip.solver.apply_operator, the name that
# perfbench/test_oracles.py reads; the solver itself applies P through one plan per solve
from .operators import DivergenceOperator, OperatorPlan, TemporalDomain, apply_operator  # noqa: F401
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
    ``temporal`` is the operator's time domain, so a problem built with
    ``replace(problem, op=...)`` has the new operator's.
    """

    grid: Grid
    op: DivergenceOperator
    initial: object
    reaction: ReactionSpec = None
    source: object = None
    strip: StripSpec = None

    def __post_init__(self):
        if self.grid.dim != self.op.dim:
            raise ConfigurationError("problem grid and operator dimensions differ")
        if self.reaction is not None:
            r = self.reaction
            if (r.dim, r.components, r.order_half) != (self.op.dim, self.op.components, self.op.order_half):
                raise ConfigurationError(
                    "reaction and operator must agree on dimension, components, and order"
                )

    @property
    def temporal(self) -> TemporalDomain:
        return self.op.temporal

    @property
    def data_strip(self) -> StripSpec:
        return self.strip if self.strip is not None else self.op.strip


@dataclass
class SolverConfig:
    """Discretization and iteration settings of a solve.

    Only ``picard_voc`` reads ``window``, ``picard_tol``,
    ``picard_max_iter`` and ``max_window_halvings``: it halves a window
    whose fixed point fails to converge.  ``imex`` marches the whole span
    as one window of steps of at most ``dt``, and a GMRES failure ends its
    solve.
    """

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
        for name, least in (("picard_max_iter", 1), ("snapshot_stride", 1), ("max_window_halvings", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
                raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_finite(block: np.ndarray, times, what: str) -> np.ndarray:
    """``block``, made read-only, once every row is finite; else InstabilityError naming the first bad row.

    Every block that passes is kept as it was checked: a write to a stored
    row would go unseen by the time derivatives cached from it.
    """
    finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
    if not finite.all():
        raise InstabilityError(f"non-finite {what} at t={complex(times[int(np.argmin(finite))])}; reduce dt")
    return _read_only(block)


class _Replay:
    """An unhooked unforced blocks march kept as its start w^_0 and its ``_Resolvent``, marched
    again when its result is read.

    ``times`` are the march's node times.  ``rows`` repeats the march's
    steps from ``start``, the same call on the same input, so every node
    gets the coefficients the march computed, bit for bit, and its values
    by the per-node inverse transform a forced march takes.
    """

    def __init__(self, start: np.ndarray, resolvent, times):
        self.start, self.resolvent, self.times = start, resolvent, times

    def rows(self, nodes, grid: Grid):
        """The values at the ascending ``nodes`` as checked (k, M, *grid) runs of _HOOK_BYTES."""
        step, w_hat, j, size = _blocks_step(self.resolvent), self.start, 0, _hook_rows(self.start)
        for at in range(0, len(nodes), size):
            run = nodes[at:at + size]
            out = np.empty((len(run),) + self.start.shape, np.complex128)
            for i, node in enumerate(run):
                while j < node:
                    w_hat, _ = step(j, w_hat, None, w_hat)
                    j += 1
                out[i] = _ifftn(w_hat, grid)
            yield _check_finite(out, [self.times[k] for k in run], "value")


class _Pending(NamedTuple):
    """The due ``nodes`` before the last of a ``_Replay``'s march, stored unread until they are read."""

    replay: _Replay
    nodes: list

    def rows(self, grid: Grid):
        return self.replay.rows(self.nodes, grid)


class _Conjugate(NamedTuple):
    """Every row of ``partner``, conjugated when first read: the rows of a reflected solve
    (``analyticity._mirror``).  ``final`` conjugates the partner's last row alone."""

    partner: "SolveResult"

    def rows(self, grid: Grid) -> list:
        return [_read_only(np.conj(block)) for block in self.partner.blocks]

    @property
    def final(self) -> np.ndarray:
        return _read_only(np.conj(self.partner.final.values))


# bytes of stored rows per right-hand-side evaluation of a SolveResult, and of dense
# resolvent blocks per chunk of their build: enough rows or blocks to share the Python
# overhead, few enough that the stacks stay in cache
_RHS_BYTES = 2 ** 18


# bytes of imex rows per run handed to a member's _hold or replayed: few calls, while a hook
# that takes the rows' norms holds about 11 times its block in temporaries
_HOOK_BYTES = 2 ** 16


def _hook_rows(row: np.ndarray) -> int:
    """Rows like ``row`` per run of _HOOK_BYTES, at least one."""
    return max(1, _HOOK_BYTES // row.nbytes)


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

    ``stored`` lists (rows, M, *grid) arrays, each checked finite once: a
    one-row block for the start, then the due rows of each Picard window
    or each run of an imex march, or those a row hook holds (see
    ``_Member._hold``); in order, their rows are the values at ``times``.
    An unforced blocks march without a row hook keeps its due rows before
    its last unread, as one ``_Pending``: the first read of ``blocks``
    replays them (one more batched matvec per node) in checked runs of
    _HOOK_BYTES, with the bits they had in the march, which then replace
    it; a fully read result holds no resolvent.  A reflected solve stores
    one ``_Conjugate`` of its partner, which a read of ``blocks`` turns into
    the conjugates of the partner's blocks.  ``final`` reads the last row,
    which every march stores as values, and replays nothing.
    ``fields`` and ``time_derivatives`` are tuples of ComplexField views of
    the rows, wrapped without a second check.

    ``rhs(stack, ts, sources=None)`` is the right-hand side A u + F + g as
    the solve binds it (``_rhs`` with its problem, plan and config).  The
    time derivatives are evaluated from the stored values when first read:
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

    @property
    def blocks(self) -> tuple:
        if not all(isinstance(part, np.ndarray) for part in self.stored):
            # every run is made and checked before any replaces its placeholder
            self.stored[:] = [run for part in self.stored for run in (
                (part,) if isinstance(part, np.ndarray) else part.rows(self.grid))]
        return tuple(self.stored)

    @functools.cached_property
    def fields(self) -> tuple:
        return tuple(ComplexField._trusted(self.grid, row) for block in self.blocks for row in block)

    @functools.cached_property
    def derivative_blocks(self) -> tuple:
        out, start = [], 0
        for run in _runs(self.blocks, _RHS_BYTES):
            stack = run[0] if len(run) == 1 else np.concatenate(run)
            ts = self.times[start:start + len(stack)]
            start += len(stack)
            values = _check_finite(self.rhs(stack, ts), ts, "right-hand side")
            out.extend(np.split(values, list(itertools.accumulate(map(len, run)))[:-1]))
        return tuple(out)

    @functools.cached_property
    def time_derivatives(self) -> tuple:
        return tuple(ComplexField._trusted(self.grid, row) for block in self.derivative_blocks for row in block)

    @property
    def final(self) -> ComplexField:
        last = self.stored[-1]
        return ComplexField._trusted(self.grid, last.final if isinstance(last, _Conjugate) else last[-1])

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


def _jet_fields(hat: np.ndarray, indices, grid: Grid, values=None) -> list:
    """Plain partial derivatives d^beta of a (B, M, *grid) stack from its coefficients, one per beta.

    ``values``, when given, are exactly ``_ifftn(hat)``, which beta = 0
    takes instead of transforming ``hat`` again (the multiplier k^0 is 1).
    """
    return [(1j) ** int(sum(beta)) * (values if values is not None and not any(beta)
                                      else _ifftn(hat * derivative_multiplier(grid, beta), grid))
            for beta in indices]


def _add_forcing(problem: CauchyProblem, plan, hat: np.ndarray, ts,
                 config: SolverConfig, vals: np.ndarray, sources=None, values=None) -> np.ndarray:
    """Add F(jets) + g at node ts[b] to row b of ``vals`` in place; returns ``vals``.

    The reaction takes its jets from ``hat``, the Fourier coefficients of
    the (B, M, *grid) stack, and sees the whole stack in one call: the
    points broadcast to (dim, B, *grid), the jets as (n_slots, M, B, *grid)
    and the node times shaped (B,) + (1,) * dim.  ``plan`` is the
    OperatorPlan of every row, or a list of K plans, one per equal run of
    rows (a lockstep group's members); then ``sources`` must be given, or
    the problem has no source.  ``sources`` is g at the nodes,
    ``_source_stack(problem, plan, ts)``, evaluated here when not given; a
    Picard window evaluates it once and passes it to every sweep.
    ``values``, when given, are the stack's own values, ``_ifftn(hat)``,
    from which ``_jet_fields`` takes the beta = 0 jet.
    """
    grid = problem.grid
    if problem.reaction is not None:
        spec = problem.reaction
        B = hat.shape[0]
        X = np.stack(_jet_fields(hat, spec.jet_indices, grid, values)).swapaxes(1, 2)
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


def _rhs(problem: CauchyProblem, plan: OperatorPlan, stack: np.ndarray, ts,
         config: SolverConfig, sources=None) -> np.ndarray:
    """Physical right-hand side A w + F(jets) + g of a (B, M, *grid) stack, row b at node ts[b]: one
    FFT of the stack serves ``plan.apply_hat`` and the jets; ``sources`` as ``_add_forcing`` takes it."""
    hat = _fftn(stack, problem.grid)
    vals = _ifftn(plan.apply_hat(hat, ts), problem.grid)
    np.negative(vals, out=vals)
    return _add_forcing(problem, plan, hat, ts, config, vals, sources)


def _frozen_symbol(plan: OperatorPlan, ts) -> np.ndarray:
    """Frozen symbol of P at the first of the nodes ``ts``, shape grid.shape (scalar case)."""
    p_hat = np.zeros(plan.grid.shape, dtype=np.complex128)
    for (alpha, beta), term in zip(plan.op.terms, plan.coefficients(ts)):
        # a constant term enters as its value, not as the mean of n^dim copies of it, so that
        # its part of P^_0 - P^ is exactly zero; a variable one enters as its spatial mean
        rows = term.var_rows
        varies = rows is not None and (isinstance(rows, slice) or rows[0])
        cbar = np.mean(term.fields[0, 0, 0]) if varies else term.values[0, 0, 0]
        p_hat += cbar * plan.multipliers[alpha] * plan.multipliers[beta]
    return p_hat


def _keeps_operator(plan: OperatorPlan, ts) -> bool:
    """Whether a Picard bracket over the nodes ``ts`` keeps its operator part P^_0 w^ - P^ w^.

    A term constant in space at every node, with one value at all of them,
    is its own frozen symbol there (``_frozen_symbol`` takes its exact
    value).  When every term is, P^_0 w^ - P^ w^ is zero but for rounding
    and the bracket leaves it out.  A variable term, or a spatially
    constant one whose value changes over the nodes and so leaves
    (c(t_0) - c(t_j)) k^alpha k^beta w^, keeps the whole part.
    """
    return any(term.var_rows is not None or np.any(term.values != term.values[0])
               for term in plan.coefficients(ts))


_PHI_CONTOUR_POINTS = 32


def _phi_weights(a: np.ndarray):
    """phi1(a) = (e^a - 1)/a and phi2(a) = (e^a - 1 - a)/a^2, stably.

    Near the removable singularity the values are recovered as contour means
    over a unit circle around each point (exact for entire functions up to
    the Taylor tail beyond order 32); elsewhere the direct formulas are fine.
    A symbol even in k, seen at k = +-1 on the last axis, repeats for +-k,
    and in 2-D for every k of equal |k|: each distinct value of ``a`` is
    evaluated once and scattered to its copies.  One with an odd part has
    no repeats to find and skips the search.
    """
    a = np.asarray(a, dtype=np.complex128)
    edge = (0,) * (a.ndim - 1)
    even = a.ndim > 0 and a.shape[-1] > 2 and a[edge + (1,)] == a[edge + (-1,)]
    distinct, inverse = np.unique(a, return_inverse=True) if even else (a, None)
    phi1 = np.empty_like(distinct)
    phi2 = np.empty_like(distinct)
    small = np.abs(distinct) <= 0.5
    large = ~small
    if np.any(large):
        al = distinct[large]
        ea = np.exp(al)
        phi1[large] = (ea - 1.0) / al
        phi2[large] = (ea - 1.0 - al) / (al * al)
    if np.any(small):
        th = np.exp(2j * np.pi * (np.arange(_PHI_CONTOUR_POINTS) + 0.5) / _PHI_CONTOUR_POINTS)
        z = distinct[small][..., np.newaxis] + th
        ez = np.exp(z)
        phi1[small] = np.mean((ez - 1.0) / z, axis=-1)
        phi2[small] = np.mean((ez - 1.0 - z) / (z * z), axis=-1)
    if inverse is None:
        return phi1, phi2
    inverse = inverse.reshape(a.shape)
    return phi1[inverse], phi2[inverse]


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
    """One member's finished window: the values of its nodes, unless it held its own rows."""

    s_nodes: np.ndarray
    fields: np.ndarray = None     # every node (picard_voc); an imex march holds its rows as it goes
    sweeps: int = None
    gmres_iterations: list = None
    contraction_ratio: float = None
    carry: tuple = None           # the source at the last node, see _source_stack
    implicit: str = None          # imex: "blocks" or "gmres", how its implicit half was solved
    resolvent: dict = None        # imex: the record of the resolvent's build, see _Resolvent.build


def _window_constants(problem: CauchyProblem, member, t_nodes, dt, shared: dict):
    """Constants of one window of ``member`` on the nodes ``t_nodes``.

    They are ``_keeps_operator`` and one (4, *grid) stack: the frozen
    symbol P^_0, the propagator e^{-mu dt P^_0} and the two phi weights.
    Under an autonomous operator they depend on dt alone (a member has one
    mu), so they are kept per exact dt: windows whose dt differs in the
    last bit miss the cache and keep their own rounding.  Otherwise they
    are evaluated for each window.  ``shared`` holds the stacks built in
    this window by (mu, dt, P^_0), byte for byte: members whose three agree
    share one stack, and so one ``_phi_weights`` call.
    """
    autonomous = problem.op.autonomous
    if autonomous and dt in member.constants:
        return member.constants[dt]
    mu, plan = member.mu, member.plan
    frozen = _frozen_symbol(plan, t_nodes)
    key = (np.complex128(mu).tobytes(), dt, frozen.tobytes())
    stack = shared.get(key)
    if stack is None:
        a_hat = -mu * dt * frozen
        phi1, phi2 = _phi_weights(a_hat)
        stack = shared[key] = np.stack((frozen, np.exp(a_hat), mu * dt * (phi1 - phi2), mu * dt * phi2))
    out = (_keeps_operator(plan, t_nodes), stack)
    if autonomous:
        member.constants[dt] = out
    return out


class _Lane:
    """Member ``k``'s sweep state inside a lockstep Picard window."""

    def __init__(self, k: int, member, t_nodes: np.ndarray, keeps: bool):
        self.k, self.member, self.t_nodes, self.keeps = k, member, t_nodes, keeps   # keeps: see _keeps_operator
        self.sweeps, self.ratio, self.delta_prev, self.converged = 0, None, None, False

    def check(self, sweep: int, finite: bool, delta: float, scale: float, span, config: SolverConfig):
        """Judge the member's new iterate as its serial window would, raising the error it raises."""
        if not finite:
            raise InstabilityError(
                f"non-finite iterate in window {span} at sweep {sweep}; reduce dt or the window length"
            )
        self.sweeps = sweep
        if delta <= config.picard_tol * scale:
            self.converged = True
            return
        if self.delta_prev is not None and self.delta_prev > 0.0:
            self.ratio = delta / self.delta_prev
            if self.ratio >= 1.0 and delta > 10.0 * config.picard_tol * scale:
                raise ConvergenceError(
                    f"window fixed point is not contracting (ratio {self.ratio:.3f} over {span}); "
                    "shorten the window"
                )
        self.delta_prev = delta
        if sweep == config.picard_max_iter:
            raise ConvergenceError(
                f"window fixed point needed more than {config.picard_max_iter} sweeps over {span}"
            )


def _rows_of(keep: list, lanes: list, *stacks) -> list:
    """The lanes ``keep`` and their rows of each per-lane stack (None stays None)."""
    return [[lanes[a] for a in keep]] + [None if x is None else x[keep] for x in stacks]


def _picard_window(problem: CauchyProblem, members: list, span, config: SolverConfig) -> list:
    """Integrate one window for every member, in lockstep, with the frozen-generator scheme.

    The members' n + 1 nodes form one (K, n + 1, M, *grid) stack, whose
    zeroth iterate is the free flight under the frozen symbol P^_0.  A sweep
    forms its bracket h = P^_0 w^ - P^ w^ + FFT(F + g) from w^, the
    coefficients of the iterate it starts from: P^ is each member's
    ``apply_hat``, and the reaction takes its jets from w^ and from the
    iterate's values.  A member whose terms are all constant in space and
    over the window's nodes (``_keeps_operator`` is false) is its own
    frozen generator, so its h has no operator part.  F + g is transformed
    forward only when the problem has a reaction or a source; the inverse
    of the new iterate is the sweep's other batched FFT.  When no member
    keeps its operator part and there is no reaction, h reads no iterate:
    without a source it is zero, and the window judges the free flight as
    sweep 1's iterate; with one, it is the same at every sweep, and the
    window judges sweep 1's iterate again as sweep 2, which would give it
    back with delta = 0.  Convergence and its checks
    are per member, and a member whose fixed point has converged stops
    sweeping, so each gets the bits and sweep count of its own serial
    window.  A sweep evaluates h once, at the iterate it starts from; none
    at the converged iterate.  Members on one ray share its nodes, and
    members whose constants agree share them (``_window_constants``).

    Returns one outcome per member: a _Window, emitted by the sweep that
    converges; or the exception its serial window raises (ConvergenceError
    when the fixed point stalls or exceeds the sweep budget,
    InstabilityError on non-finite iterates, whatever its coefficients,
    source or reaction raise).  When a stage the lanes share raises, each
    lane still sweeping redoes the window alone, as its serial solve does,
    to learn its own outcome.
    """
    op, grid, temporal = problem.op, problem.grid, problem.temporal
    if op.components != 1:
        raise ConfigurationError(
            "the frozen-generator integrator handles scalar problems; use integrator='imex' for systems"
        )
    outcomes = [None] * len(members)
    lanes, consts, sources = [], [], []
    rays, shared = {}, {}              # nodes by (mu, t_base), byte for byte; constants, see _window_constants
    for k, m in enumerate(members):
        try:
            ray = np.complex128([m.mu, m.t_base]).tobytes()
            if ray not in rays:        # kept once computed, so a member that raises raises its own error
                rays[ray] = _time_nodes(span, config, m.mu, m.t_base, temporal)
            s_nodes, t_nodes, dt = rays[ray]
            keeps, c = _window_constants(problem, m, t_nodes, dt, shared)
            g = _source_stack(problem, m.plan, t_nodes, m.carried)
        except Exception as exc:       # where this member's serial window raises it
            outcomes[k] = exc
            continue
        lanes.append(_Lane(k, m, t_nodes, keeps))
        consts.append(c)
        sources.append(g)
    if not lanes:
        return outcomes
    n = len(s_nodes) - 1
    consts = np.stack(consts)          # (K, 4, *grid): frozen, propagator, w_explicit, w_implicit
    sources = None if sources[0] is None else np.stack(sources)

    # zeroth iterate: free flight under the frozen generator
    traj_hat = np.empty((len(lanes), n + 1, 1) + grid.shape, dtype=np.complex128)
    traj_hat[:, 0] = _fftn(np.stack([lane.member.w.values for lane in lanes]), grid)
    prop = consts[:, 1, None]
    for j in range(n):
        np.multiply(prop, traj_hat[:, j], out=traj_hat[:, j + 1])
    traj_phys = _ifftn(traj_hat, grid)

    static = problem.reaction is None and not any(lane.keeps for lane in lanes)   # h reads no iterate
    sweep, peaks = 0, None
    while True:
        sweep += 1
        flat = (len(lanes), -1)
        repeat = static and (sweep > 1 or problem.source is None)
        if repeat:               # this sweep would give back the iterate it starts from, delta = 0
            new_phys, deltas = traj_phys, np.zeros(len(lanes))
        else:
            try:
                h = _bracket(problem, lanes, consts[:, 0], traj_hat, traj_phys, sources, config)
            except Exception as exc:
                if len(lanes) > 1:
                    break                    # a stage the lanes share raised: each redoes the window below
                outcomes[lanes[0].k] = exc
                return outcomes

            # few (K, n + 1, M, *grid) stacks live at once: each is dropped, or
            # overwritten in place, as soon as the sweep is done with it
            prop, w_explicit, w_implicit = (consts[:, i, None] for i in (1, 2, 3))
            new_hat = np.empty_like(traj_hat)
            new_hat[:, 0] = traj_hat[:, 0]
            traj_hat = None
            explicit = w_explicit[:, None] * h[:, :-1]
            implicit = np.multiply(w_implicit[:, None], h[:, 1:], out=h[:, 1:])
            for j in range(n):
                row = np.multiply(prop, new_hat[:, j], out=new_hat[:, j + 1])
                row += explicit[:, j]
                row += implicit[:, j]
            h = explicit = implicit = row = None      # row views this stack, which the next sweep drops
            new_phys = _ifftn(new_hat, grid)
            with np.errstate(invalid="ignore"):       # a non-finite member fails below, unread
                # the old iterate becomes the difference; no emitted outcome views it
                deltas = np.max(np.abs(np.subtract(new_phys, traj_phys, out=traj_phys)).reshape(flat), axis=1)
            traj_hat = new_hat
        finite = np.isfinite(new_phys).reshape(flat).all(axis=1)
        if not repeat:
            with np.errstate(invalid="ignore"):
                peaks = np.max(np.abs(new_phys).reshape(flat), axis=1)
        elif peaks is None:      # the free flight: delta = 0 passes at any scale
            peaks = np.ones(len(lanes))
        for a, (lane, ok, delta, peak) in enumerate(zip(lanes, finite, deltas, peaks)):
            try:
                lane.check(sweep, ok, float(delta), max(1.0, float(peak)), span, config)
            except (ConvergenceError, InstabilityError) as exc:
                outcomes[lane.k] = exc
                continue
            if lane.converged:
                carry = None if sources is None else (complex(lane.t_nodes[-1]), sources[a, -1].copy())
                outcomes[lane.k] = _Window(s_nodes, new_phys[a], lane.sweeps, None, lane.ratio, carry)
        traj_phys = new_phys
        keep = [a for a, lane in enumerate(lanes) if outcomes[lane.k] is None]
        if not keep:
            return outcomes
        if len(keep) < len(lanes):
            lanes, traj_hat, traj_phys, consts, sources, peaks = _rows_of(
                keep, lanes, traj_hat, traj_phys, consts, sources, peaks)
    traj_hat = traj_phys = new_hat = new_phys = consts = sources = None
    for lane in lanes:
        (outcomes[lane.k],) = _picard_window(problem, [lane.member], span, config)
    return outcomes


def _bracket(problem: CauchyProblem, lanes: list, symbols: np.ndarray, traj_hat: np.ndarray,
             traj_phys: np.ndarray, sources, config: SolverConfig) -> np.ndarray:
    """A sweep's h = P^_0 w^ - P^ w^ + FFT(F + g) of every lane's nodes (see ``_picard_window``).

    ``symbols`` (K, *grid) holds each lane's P^_0, ``traj_hat`` the
    (K, n + 1, M, *grid) coefficients w^, ``traj_phys`` their values
    ``_ifftn(traj_hat)``, from which the reaction takes its beta = 0 jet,
    and ``sources`` g at the nodes or None.  A lane that does not keep its
    operator part has none.
    """
    h = None
    if any(lane.keeps for lane in lanes):
        h = symbols[:, None, None] * traj_hat
        for a, lane in enumerate(lanes):
            if lane.keeps:
                h[a] -= lane.member.plan.apply_hat(traj_hat[a], lane.t_nodes)
            else:
                h[a] = 0.0
    if problem.reaction is not None or problem.source is not None:
        plans, rows = [lane.member.plan for lane in lanes], traj_hat.reshape((-1,) + traj_hat.shape[2:])
        forcing = _add_forcing(problem, plans if len(plans) > 1 else plans[0], rows,
                               np.concatenate([lane.t_nodes for lane in lanes]), config, np.zeros_like(rows),
                               None if sources is None else sources.reshape(rows.shape),
                               values=traj_phys.reshape(rows.shape))
        forcing = _fftn(forcing.reshape(traj_hat.shape), problem.grid)
        if h is None:
            return forcing
        h += forcing
    return h


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


def _explicit_part(problem: CauchyProblem, plan: OperatorPlan, w_hat: np.ndarray, t,
                   config: SolverConfig, values=None) -> np.ndarray:
    """F(jets) + g at time t of the (M, *grid) field whose Fourier coefficients are ``w_hat``;
    ``values``, when given, are exactly ``_ifftn(w_hat)`` (see ``_jet_fields``)."""
    zero = np.zeros((1,) + w_hat.shape, dtype=np.complex128)
    return _add_forcing(problem, plan, w_hat[np.newaxis], (t,), config, zero,
                        values=None if values is None else values[np.newaxis])[0]


# dense resolvent blocks over this in total leave the implicit half to GMRES: the build holds one
# chunk of them at a time, but the coupled rows it keeps of their inverses can reach this size
_BLOCK_BYTES_CAP = 8 * 2 ** 20


class _Resolvent:
    """(I + c P^)^-1 of an autonomous plan on Fourier coefficients, kept as the rows it couples.

    An autonomous plan transforms its variable products along ``var_axes``
    only (see ``OperatorPlan.apply_hat``), so its spectral core P^ couples
    the components and the modes along those axes and nothing else: it is
    block diagonal over the Fourier modes of the other, fixed axes, with one
    (M n_var) x (M n_var) block per fixed mode.  ``to_blocks`` lays an
    (..., M, *grid) array of coefficients out as (..., F, b) rows against
    the F blocks of size b (fixed axes first, then the component and the
    var axes); ``from_blocks`` undoes it.  ``matrix`` assembles the blocks
    of B ``chunk`` at a time, as many as fit _RHS_BYTES (at least one).

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
        self.inverse = [int(p) for p in np.argsort(self.order)]
        self.shape = (plan.op.components,) + plan.grid.shape
        self.size = math.prod(self.shape[p] for p in [0] + var)
        self.count = math.prod(self.shape) // self.size
        self.diagonal = self.blocks = self.kept = self.coupled = None
        self.chunk = max(1, _RHS_BYTES // (self.size * self.size * np.dtype(np.complex128).itemsize))

    def to_blocks(self, hat: np.ndarray) -> np.ndarray:
        lead = hat.ndim - len(self.shape)
        axes = list(range(lead)) + [lead + p for p in self.order]
        return hat.transpose(axes).reshape(hat.shape[:lead] + (self.count, self.size))

    def from_blocks(self, rows: np.ndarray) -> np.ndarray:
        lead = rows.ndim - 2
        permuted = rows.reshape(rows.shape[:lead] + tuple(self.shape[p] for p in self.order))
        return permuted.transpose(list(range(lead)) + [lead + p for p in self.inverse])

    def matrix(self, plan: OperatorPlan, t, c: complex):
        """The dense blocks of B = I + c P^(t) from the coefficients' Fourier modes, a chunk at a time.

        Returns ``assemble``: assemble(f) is blocks f, ..., f + k - 1 of B as
        a (k, b, b) array, k = ``self.chunk`` (fewer at the end), so no
        (F, b, b) stack of every block is ever held.  k^alpha and the 2/3
        dealias mask factor over the grid axes, into a part over the fixed
        axes (kX, maskX: one value per block) and one over the var axes (kV,
        maskV: one per mode of a block).  So block f of P^ is sum_e kX[f]^e
        (maskX[f] H_e + D_e) over the fixed-axis exponents e = alphaX + betaX
        of the terms: ``assemble`` keeps the weights (F x E) and the stacked
        terms (E x b^2) and multiplies k rows of the weights by the terms.
        As ``apply_hat`` applies them, H_e sums the variable terms' diag(maskV
        kV^alphaV) Circ(c^) diag(kV^betaV), with Circ(c^)[k, l] = c^[k - l] /
        n_var and c^ the FFT along the var axes of an entry of the
        coefficient at index 0 of the fixed axes (``var_axes`` makes that
        exact), and D_e the constant terms' C kV^(alphaV + betaV), with no
        mask.  An entry whose samples are all equal is its value times the
        identity exactly, never a Circ(c^) with rounding off its diagonal,
        so every zero of the exact operator is a zero of B.
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
        if not stacks:                           # every term vanishes: P^ = 0
            stacks[False, (0,) * dim] = np.zeros((m, n_var, m, n_var), np.complex128)
        weights = np.stack([power(e, fixed) * (part(mask, fixed) if masked else 1.0) for masked, e in stacks],
                           axis=1)
        terms = np.stack(list(stacks.values())).reshape(len(stacks), b * b)
        diagonal = np.arange(b)

        def assemble(f):
            blocks = (weights[f:f + self.chunk] @ terms).reshape(-1, b, b)
            blocks *= c
            blocks[:, diagonal, diagonal] += 1.0
            return blocks

        return assemble

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
        held to.  B is read in chunks of ``chunk`` consecutive blocks (see
        ``matrix``), in two passes: the first records every block's pivots
        and the rows that couple nothing, found by exact comparison with
        zero; the second assembles again only the chunks that hold coupled
        blocks.  Each coupled block is inverted, has its rows kept and its
        residual taken on its own, so no stack of blocks, inverses or
        products outlives one chunk.  A kept resolvent records its coupled
        blocks and rows, its bytes, the residual, the build time and the part
        of it the second pass took (the inversions, mostly).
        """
        start = time.perf_counter()
        out = cls(plan, t)
        b, step = out.size, out.chunk
        dense = out.count * b * b * np.dtype(np.complex128).itemsize
        if dense > _BLOCK_BYTES_CAP:
            return None, {"refused": "cap", "value": dense, "limit": _BLOCK_BYTES_CAP}
        assemble = out.matrix(plan, t, c)
        idx = np.arange(b)
        pivots = np.empty((out.count, b), np.complex128)
        lone = np.empty((out.count, b), dtype=bool)          # no off-diagonal entry
        for f in range(0, out.count, step):
            chunk = assemble(f)
            pivots[f:f + step] = chunk[:, idx, idx]
            lone[f:f + step] = np.count_nonzero(chunk, axis=2) <= (pivots[f:f + step] != 0)
        if not np.all(pivots[lone]):
            return None, {"refused": "singular"}
        out.diagonal = np.divide(1.0, pivots, out=np.zeros(pivots.shape, np.complex128), where=lone)
        counts = b - np.count_nonzero(lone, axis=1)
        out.blocks = np.flatnonzero(counts)
        # coupled rows first, then the lone rows in order, as many as the widest block needs
        rows = np.argsort(lone[out.blocks], axis=1, kind="stable")[:, :counts.max()]
        out.coupled = np.empty(rows.shape + (b,), np.complex128)
        out.kept = (b * out.blocks[:, np.newaxis] + rows).ravel()
        norms = np.linalg.norm(1.0 - pivots * out.diagonal, axis=1)
        inverted, f = time.perf_counter(), -step
        for block, k, kept in zip(out.coupled, out.blocks, rows):
            if k >= f + step:                 # the blocks are ascending: each chunk is assembled once
                f = k - k % step
                chunk = assemble(f)
            matrix = chunk[k - f]
            try:
                inverse = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                return None, {"refused": "singular"}
            block[...] = inverse[kept]
            # the inverse as apply uses it: every row it does not keep is e_i / B_ii
            dropped = np.ones(b, dtype=bool)
            dropped[kept] = False
            inverse[dropped] = 0.0
            i = np.flatnonzero(dropped)
            inverse[i, i] = out.diagonal[k, i]
            product = matrix @ inverse
            product[idx, idx] -= 1.0
            norms[k] = np.linalg.norm(product, axis=(0, 1))
        inverted = time.perf_counter() - inverted
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
        precond = (1.0 / (1.0 + c * _frozen_symbol(plan, t_nodes[:1]))).ravel()
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


def _march_imex(problem: CauchyProblem, member, s_total, config: SolverConfig):
    """Crank-Nicolson on A with two-step Adams-Bashforth on the explicit part.

    One march on w^, the solution's Fourier coefficients, over the whole
    span [0, s_total] of ``member``'s ray, from its start.  Node j forms the
    explicit part (AB2; at node 0 a predictor with the frozen explicit part,
    then a trapezoid corrector) and f^_j = FFT(mu dt explicit), None for a
    problem with neither a reaction nor a source.  It leaves the implicit
    half, the resolvent (I + c P^)^-1 with c = mu dt / 2, to a step
    ``(j, w^_j, f^_j, guess) -> (w^_{j+1}, iterations)``.  An autonomous
    operator's resolvent is one matrix for the whole march, built once
    (``_Resolvent``) and applied by ``_blocks_step``; a time-dependent
    operator, or blocks that ``_Resolvent.build`` refuses, leave each step
    to ``_gmres_step``.  The problem's temporal domain lies inside the
    operator's, so ``_time_nodes`` checks the nodes for both.

    The march is its member's only window, and only the rows of its due
    nodes, ``_due_nodes(0, n, True, stride)``, outlive their step: it hands
    them to its member's ``_hold(times, block, last)`` as soon as it has
    made them, in read-only runs of at most _HOOK_BYTES, the run of node n
    with ``last``.  A node it transforms takes one inverse FFT and a
    finite check of its values, any other a check of w^_{j+1}.  The explicit
    part takes the reaction's jets from w^_j (the corrector's from the
    predictor's coefficients), its beta = 0 jet from node j's values when
    node j was transformed, so a march transforms its due nodes only.
    Unforced, under the blocks step and without a row hook (``keep``), it
    transforms its last node only, and first hands over the due nodes
    before it as one ``_Pending``, whose ``_Replay`` keeps w^_0 and the
    resolvent; a GMRES replay would repeat every solve, so a GMRES march
    has none.  The window it returns has no fields; it records one
    ``gmres_iterations`` entry per implicit solve (0 under the blocks), the
    step that served it as ``implicit`` and the build record as
    ``resolvent``.
    """
    mu, t_base, plan, hold = member.mu, member.t_base, member.plan, member._hold
    s_nodes, t_nodes, dt = _time_nodes((0.0, s_total), config, mu, t_base, problem.temporal)
    grid, c = problem.grid, 0.5 * mu * dt
    resolvent, record = None, {"refused": "time_dependent"}
    if problem.op.autonomous:
        resolvent, record = _Resolvent.build(plan, t_nodes[0], c, config.gmres_tol)
    step = _gmres_step(problem, plan, t_nodes, c, config) if resolvent is None else _blocks_step(resolvent)
    forced = problem.reaction is not None or problem.source is not None
    n = len(t_nodes) - 1
    due = _due_nodes(0, n, True, config.snapshot_stride)
    times = [complex(t_base + mu * s_nodes[j]) for j in due]
    iterations = []

    def solve(j, w_hat, explicit, guess, transform):
        """w^_{j+1} and, with ``transform``, its values (else None), checked finite if taken, else w^_{j+1}."""
        new, count = step(j, w_hat, None if explicit is None else _fftn(mu * dt * explicit, grid), guess)
        iterations.append(count)
        values = _ifftn(new, grid) if transform else None
        if not np.all(np.isfinite(new if values is None else values)):
            raise InstabilityError(f"non-finite iterate at t={t_nodes[j + 1]}; reduce dt")
        return new, values

    w_hat = _fftn(member.w.values, grid)
    if not forced and member.keep is None and resolvent is not None and len(due) > 1:
        hold(times[:-1], _Pending(_Replay(w_hat, resolvent, t_nodes), due[:-1]))
        due, times = due[-1:], times[-1:]
    size, run, at = _hook_rows(member.w.values), [], 0       # run: the due rows made since the last hold
    e_j = explicit = values = None      # values: _ifftn(w_hat) once node j was transformed, else None
    for j in range(n):
        if forced:
            e_prev, e_j = e_j, _explicit_part(problem, plan, w_hat, t_nodes[j], config, values)
            explicit = e_j if j == 0 else 1.5 * e_j - 0.5 * e_prev
        guess = w_hat
        if j == 0:             # predictor with the frozen explicit part, corrector with the trapezoid
            guess, _ = solve(0, w_hat, explicit, w_hat, False)
            if forced:
                explicit = 0.5 * (e_j + _explicit_part(problem, plan, guess, t_nodes[1], config))
        w_hat, values = solve(j, w_hat, explicit, guess, j + 1 == due[at])
        if j + 1 == due[at]:
            run.append(values)
            at += 1
            if len(run) == size or at == len(due):
                hold(times[at - len(run):at], _read_only(np.stack(run)), at == len(due))
                run = []
    return _Window(s_nodes, gmres_iterations=iterations,
                   implicit="gmres" if resolvent is None else "blocks", resolvent=record)


def _due_nodes(done: int, n: int, last_window: bool, stride: int) -> list:
    """The nodes 1..n of a window, ``done`` steps into its march, whose rows a solve stores:
    those whose step count the snapshot stride divides, and the last of the last window."""
    return [j for j in range(1, n + 1) if (done + j) % stride == 0 or (last_window and j == n)]


def _due_rows(values: np.ndarray, rows: list):
    """Rows ``rows`` of a window's (n + 1, M, *grid) stack, read-only, and whether they are a
    view of it: evenly spaced rows, as a snapshot stride leaves them, are; any others (the last
    row after a stride that does not divide the march) are a copy.  The window's lane has
    checked every row finite (``_Lane.check``).
    """
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    view = rows == list(range(rows[0], rows[-1] + 1, step))
    return _read_only(values[rows[0]:rows[-1] + 1:step] if view else values[rows]), view


class _Member:
    """One trajectory of a (lockstep) solve: its plan, marching state and stored blocks.

    ``keep`` is the solve's row hook (see ``_solve``), offered the start
    row, at ``t_base``, as the member is made.
    """

    def __init__(self, index: int, mu, shift, plan: OperatorPlan, start: ComplexField, window: float,
                 t_base, keep):
        self.index, self.mu, self.shift, self.plan = index, complex(mu), shift, plan
        self.w, self.s, self.window, self.t_base, self.keep = start, 0.0, window, t_base, keep
        self.halvings, self.gstep, self.carried, self.error = 0, 0, None, None
        self.constants = {}           # window constants by exact dt (autonomous operators)
        self.times, self.blocks, self.win_diag, self.win_wall = [], [], [], []
        self._hold([complex(t_base)], _read_only(start.values[np.newaxis]))

    def store(self, win: _Window, bounds, wall_s: float, last_window: bool, config: SolverConfig):
        """Hand a Picard window's due rows (``_due_nodes``) to ``_hold`` at once (``_due_rows``),
        record the window's diagnostics and move the state to its end.  ``wall_s`` is the wall
        time of the call that marched the window (shared by a lockstep group).  An imex march,
        its member's only window, has held its rows as it made them.
        """
        n = len(win.s_nodes) - 1
        if win.fields is not None:
            due = _due_nodes(self.gstep, n, last_window, config.snapshot_stride)
            if due:
                times = [complex(self.t_base + self.mu * win.s_nodes[j]) for j in due]
                block, view = _due_rows(win.fields, due)
                self._hold(times, block, last_window, view)
            self.w = ComplexField._trusted(self.plan.grid, np.array(win.fields[-1]))
        self.gstep += n
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
        self.carried = win.carry
        self.s = bounds[1]             # s + span, rounded as a serial march adds it

    def _hold(self, times: list, block, last: bool = False, view: bool = False):
        """Store the rows of a checked ``block`` at ``times`` that ``keep`` holds (all, or a
        ``_Pending`` as it is, without ``keep``; anything but one boolean per row raises
        ConfigurationError), its last row too when ``last``.

        The rows of a ``view`` of a window's stack are copied out together
        into one block of their own: stored snapshots then hold no window
        stack alive, and the heap is not cut into one small array per node,
        between which the next window's stacks kept landing on fresh pages
        (one page fault each).
        """
        if self.keep is not None:
            mask = self.keep(self.index, times, block)
            if np.shape(mask) != (len(times),):
                got = repr(mask) if np.ndim(mask) == 0 else f"shape {np.shape(mask)}"
                raise ConfigurationError(f"row hook keep must return one boolean per row of {len(times)}, "
                                         f"got {got}")
            held = np.array(mask, dtype=bool)
            held[-1] |= last
            if not held.all():
                times = [t for t, h in zip(times, held) if h]
                block, view = _read_only(block[held]), False
        if times:
            self.times.extend(times)
            self.blocks.append(_read_only(block.copy()) if view else block)

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
        rhs = functools.partial(_rhs, problem, self.plan, config=config)
        return SolveResult(self.plan.grid, np.asarray(self.times, dtype=np.complex128), self.blocks, diag, rhs)


def _release(error: Exception, frame) -> None:
    """Clear the locals of the finished frames from ``error``'s raise up to ``frame``.

    A kept error keeps the frame that raised it, and through each caller
    (``f_back``) every frame up to ``frame``.  A window's frame holds its
    stacks and its outcomes, ``error`` among them: a reference cycle.  A
    cleared frame keeps its code and line, so a failed job's ``origin``
    still names the raise.  A running frame cannot be cleared, so
    ``_solve`` clears the frames below its own, and each caller of
    ``_solve`` that raises an error clears ``_solve``'s, which holds the
    members' plans and rows, then drops its own reference to the error as
    it raises it.
    """
    tb = error.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    caller = None if tb is None else tb.tb_frame
    while caller is not None and caller is not frame:
        caller.clear()
        caller = caller.f_back


def _march(problem: CauchyProblem, members: list, s_total: float, config: SolverConfig):
    """Advance every member to s_total by Picard windows, recording each one's blocks or error on it.

    The members start as one lockstep group sharing window spans.  A member
    that halves its window leaves the group and, once the group is done,
    continues alone (K = 1) from its own state, on the serial schedule.
    Members after the first one to fail are abandoned: a serial run in
    member order would never reach them.
    """
    eps = 1e-12 * max(1.0, s_total)
    queue = [members]
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
            outcomes = _picard_window(problem, group, bounds, config)
            wall_s = time.perf_counter() - started
            stay = []
            for m, out in zip(group, outcomes):
                if isinstance(out, ConvergenceError):
                    if m.halvings >= config.max_window_halvings or span <= config.dt * (1.0 + 1e-9):
                        # the error keeps its type and traceback, so its origin stays the judging line
                        out.args = (f"{out} after {m.halvings} window halvings at solver.dt = {config.dt}; "
                                    "try a smaller dt or integrator 'imex'",)
                        m.error = out
                    else:
                        m.halvings += 1
                        _release(out, sys._getframe())
                        m.window = span / 2.0
                        (stay if len(group) == 1 else pending).append(m)
                elif isinstance(out, Exception):
                    m.error = out
                else:
                    try:
                        m.store(out, bounds, wall_s, last_window, config)
                    except Exception as exc:      # the row hook's error is its member's
                        m.error = exc
                        continue
                    stay.append(m)
            group = stay
        queue[:0] = [[m] for m in pending]


def _check_length(s_total):
    """Refuse an integration length of at most 1e-12, which ``_march`` counts as done."""
    if not s_total > 1e-12:
        raise ConfigurationError(f"integration length must exceed 1e-12, got {s_total!r}")


def _solve(problem: CauchyProblem, s_total, members, config: SolverConfig, t_base=0.0, keep=None) -> list:
    """Solve for every member (mu, shift, start) along t = t_base + mu s, s in [0, s_total].

    One driver for one member or many: lockstep Picard windows (``_march``),
    or under imex one ``_march_imex`` per member in turn; every member gets
    the bits, sweep counts and halvings of its own serial solve.
    ``keep(index, times, block)`` is a row hook: every row a member would
    store (the start row and the rows due by the snapshot stride, checked
    finite, in time order, each once) reaches it as a read-only (rows, M,
    *grid) block with its times, and it returns a boolean mask of the rows
    to store.  The member stores those and its march's last row, which
    ``final`` reads; ``times`` lists the stored rows.  ``index`` is the
    member's place in ``members``: each member's start row is offered as it
    is made, then the members of a lockstep group take turns window by
    window, so the calls of different members interleave.  An imex march
    offers its rows in runs as it makes them.  Under either integrator an
    error the hook raises is its member's, as any other raised in the
    member's march.  A block may view a whole window, so a hook keeps none
    past its call.  With ``keep=None`` every such row is stored.  Returns
    one entry per member, in order: its SolveResult, or the exception its
    serial solve raises.  The list ends at the first exception, the one a serial run of
    the members in order raises first.
    """
    _check_length(s_total)
    config = config if config is not None else SolverConfig()
    window = config.window if config.window is not None else 32.0 * config.dt

    states = []
    for index, (mu, shift, start) in enumerate(members):
        try:
            shift = _normalize_shift(problem.grid.dim, shift)
            w = start if start is not None else _initial_field(problem, shift)
            states.append(_Member(index, mu, shift, OperatorPlan(problem.op, problem.grid, shift), w, window,
                                  t_base, keep))
        except Exception as exc:       # a serial run raises it here and never reaches later members
            states.append(exc)
            break
    marched = [m for m in states if isinstance(m, _Member)]
    if config.integrator == "picard_voc":
        _march(problem, marched, s_total, config)
    else:
        for m in marched:
            started = time.perf_counter()
            try:
                win = _march_imex(problem, m, s_total, config)
            except Exception as exc:   # a serial run in member order stops at the first error
                m.error = exc
                break
            m.store(win, (0.0, float(s_total)), time.perf_counter() - started, True, config)
    for m in marched:
        if m.error is not None:
            _release(m.error, sys._getframe())
    out = []
    for state in states:
        error = state if isinstance(state, Exception) else state.error
        out.append(state.result(problem, config) if error is None else error)
        if error is not None:
            break
    return out


def _solve_one(problem: CauchyProblem, s_total, mu, config: SolverConfig, t_base=0.0,
               shift=None, start: ComplexField = None, keep=None) -> SolveResult:
    (out,) = _solve(problem, s_total, [(mu, shift, start)], config, t_base, keep)
    if isinstance(out, Exception):
        _release(out, sys._getframe())
        try:
            raise out
        finally:
            out = None            # the raise pins this frame, which must not keep the error
    return out


def _real_span(t0, horizon):
    """(t0, horizon - t0) as floats, once the horizon exceeds the start."""
    t0 = float(t0)
    if not float(horizon) > t0:
        raise ConfigurationError(f"horizon {horizon} must exceed the start time {t0}")
    return t0, float(horizon) - t0


def solve_real(problem: CauchyProblem, t0, horizon, config: SolverConfig = None, shift=None,
               keep=None) -> SolveResult:
    """March along real time from t0 to ``horizon``.

    ``keep(index, times, block)`` is the row hook of ``_solve`` (``index``
    is 0): the result stores the rows it holds and the last row.  None
    keeps every row.
    """
    t0, s_total = _real_span(t0, horizon)
    return _solve_one(problem, s_total, 1.0 + 0.0j, config, t_base=t0, shift=shift, keep=keep)


def solve_complex_ray(problem: CauchyProblem, mu, rho_max, config: SolverConfig = None,
                      shift=None) -> SolveResult:
    """March along the rotated ray t = mu rho for rho in [0, rho_max], mu in the admissible disc."""
    if abs(complex(mu) - 1.0) > problem.temporal.mu_disc_radius + 1e-12:
        raise DomainError(f"ray rotation mu={complex(mu)} leaves the admissible disc of radius "
                          f"sin(angle)={problem.temporal.mu_disc_radius}")
    return _solve_one(problem, float(rho_max), mu, config, t_base=0.0, shift=shift)


def solve_along_path(problem: CauchyProblem, sigma, tau, t_prime, config: SolverConfig = None) -> SolveResult:
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
    first = _solve_one(problem, t_prime, mu1, config, t_base=0.0)
    if sigma <= t_prime + 1e-12:
        first.diagnostics["segments"] = [first.diagnostics["windows"]]
        return first

    second = _solve_one(problem, sigma - t_prime, 1.0 + 0.0j, config, t_base=complex(t_prime, tau),
                        start=first.final)
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
    # both segments share the problem and the config, hence the right-hand side
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
                            support: float) -> list:
    """Band-limited random data paired with smooth compactly supported forcings."""
    from .operators import random_band_limited_fields

    if count < 3:
        raise ConfigurationError("the ensemble needs at least three samples")
    fields = random_band_limited_fields(grid, components, count, rng)
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


def _max_reg_time_grid(horizons, config: SolverConfig = None):
    """(sorted horizons, march config, node times, {horizon: node}) of the estimator's march in equal
    steps of at most ``config.dt`` (default: the smallest horizon / 64), every horizon on a node."""
    horizons = sorted(float(T) for T in horizons)
    if not horizons or horizons[0] <= 0.0:
        raise ConfigurationError("horizons must be positive")
    config = config if config is not None else SolverConfig(dt=horizons[0] / 64.0)
    n_steps = max(1, math.ceil(horizons[-1] / config.dt - 1e-9))
    dt = horizons[-1] / n_steps
    nodes = dt * np.arange(n_steps + 1)
    horizon_idx = {T: int(round(T / dt)) for T in horizons}
    for T, j in horizon_idx.items():
        if abs(nodes[j] - T) > 1e-9 * max(1.0, T):
            raise ConfigurationError(f"horizon {T} does not land on the time grid (dt={dt}); adjust dt or horizons")
    return horizons, replace(config, dt=dt, snapshot_stride=1), nodes, horizon_idx


def _check_support(support: float, horizon: float):
    """Refuse a forcing support past the smallest horizon, which would leave M(T) not monotone."""
    if support > horizon + 1e-9:
        raise ConfigurationError("forcing support must fit inside the smallest horizon for a monotone family, "
                                 f"got {support!r} > {horizon!r}")


def estimate_max_reg_constant(op: DivergenceOperator, grid: Grid, horizons, p: float,
                              ensemble, config: SolverConfig = None):
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
    Bad horizons, supports and grids are refused before any solve.
    """
    single = np.isscalar(horizons)
    horizons, run_cfg, nodes, horizon_idx = _max_reg_time_grid([horizons] if single else horizons, config)
    _check_support(max([s.support for s in ensemble if s.source is not None], default=0.0), horizons[0])
    _fit_blocks(grid)
    bparams, dt = NormParams(p=p, m=op.order_half), run_cfg.dt

    best = {T: 0.0 for T in horizons}
    skipped = 0
    for sample in ensemble:
        source = None
        if sample.source is not None:
            source = lambda t, g, sh, f=sample.source: f(t)
        problem = CauchyProblem(grid, op, sample.initial, source=source)
        res = solve_real(problem, 0.0, horizons[-1], run_cfg)
        g_vals = np.zeros((len(nodes), op.components) + grid.shape, dtype=np.complex128)
        if sample.source is not None:
            for j, t in enumerate(nodes):
                g_vals[j] = sample.source(t)
        # du/dt block by block as SolveResult.derivative_blocks checks it, with g at the
        # nodes passed in rather than evaluated again
        derivs, start = [], 0
        for block in res.blocks:
            stop = start + len(block)
            ts, sources = res.times[start:stop], None if source is None else g_vals[start:stop]
            derivs.append(_check_finite(res.rhs(block, ts, sources=sources), ts, "right-hand side"))
            start = stop
        derivs = np.concatenate(derivs)
        load = np.array([a ** p + b ** p for a, b in zip(_lp_norms(derivs, grid, p),
                                                        _lp_norms(derivs - g_vals, grid, p))])
        forcing = np.array([g ** p for g in _lp_norms(g_vals, grid, p)])
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
