"""Holomorphic reaction terms and the smoothed positive/negative parts.

The smoothers

    f_eps_plus(z)  = z [ 1/2 + (i / 2 pi) log((1 - i z/eps) / (1 + i z/eps)) ]
    f_eps_minus(z) = z [ 1/2 - (i / 2 pi) log((1 - i z/eps) / (1 + i z/eps)) ]

are holomorphic off the cuts {+-i y : y >= eps}, restrict on the real line to
v [1/2 +- arctan(v/eps)/pi], and satisfy f_plus + f_minus = id exactly.  They
approximate max(v, 0) and min(v, 0) with O(eps) error away from the kink.

Off the cuts (i / 2 pi) log((1 - i w) / (1 + i w)) = arctan(w) / pi, and the
complex arctan has its cuts at +-i[1, inf) in w = z/eps, which are the
smoothers' cuts.  The code computes the arctan form,

    f_eps_plus(z) = z [ 1/2 + arctan(z/eps) / pi ],

because the log's argument has modulus 1 on the real line, where a complex
log is several times slower than the arctan, and because on the real line
the arctan form is exactly real while the log form leaves an imaginary part
of about 1e-17 |z|.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, InstabilityError
from .grid import ComplexField, Grid, _shifted_points
from .operators import multi_indices

__all__ = [
    "f_plus",
    "f_minus",
    "in_branch_domain",
    "smoother_identity_check",
    "ReactionSpec",
    "nemytskii",
    "jet_lipschitz_estimate",
]


def _eps_value(eps) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ConfigurationError(f"smoothing epsilon must be positive, got {eps!r}")
    return eps


# evaluation is rejected within this relative distance of the branch points
_BRANCH_GUARD = 1e-9


def in_branch_domain(eps, z) -> np.ndarray:
    """True where z avoids the branch cuts {+- i y : y >= eps}."""
    eps = _eps_value(eps)
    z = np.asarray(z, dtype=np.complex128)
    on_cut = (z.real == 0.0) & (np.abs(z.imag) >= eps)
    return ~on_cut


def _guard_branch(eps: float, z: np.ndarray):
    bad = ~in_branch_domain(eps, z)
    near = (np.abs(z - 1j * eps) <= _BRANCH_GUARD * eps) | (np.abs(z + 1j * eps) <= _BRANCH_GUARD * eps)
    bad = bad | near
    if np.any(bad):
        where = np.argwhere(bad)
        first = tuple(where[0])
        val = z[first] if z.ndim else complex(z)
        raise DomainError(
            f"smoother argument {val} at index {first} hits the branch cut of scale eps={eps}"
        )


def _turn(eps: float, z: np.ndarray) -> np.ndarray:
    """arctan(z/eps)/pi, the part the smoothers add to and take from 1/2."""
    return np.arctan(z / eps) / np.pi


def _smoothed_parts(eps, z):
    """(f_minus(z), f_plus(z)) from one branch guard and one arctan.

    Both smoothers and the XVA reaction and source form the parts here, so
    each part rounds the same way wherever it is taken.
    """
    eps = _eps_value(eps)
    z = np.asarray(z, dtype=np.complex128)
    _guard_branch(eps, z)
    turn = _turn(eps, z)
    return z * (0.5 - turn), z * (0.5 + turn)


def f_plus(eps, z):
    """Holomorphic smoothing of the positive part max(v, 0)."""
    out = _smoothed_parts(eps, z)[1]
    return out if out.ndim else complex(out)


def f_minus(eps, z):
    """Holomorphic smoothing of the (signed) negative part min(v, 0)."""
    out = _smoothed_parts(eps, z)[0]
    return out if out.ndim else complex(out)


def smoother_identity_check(eps, samples) -> float:
    """Max deviation of f_plus + f_minus from the identity on the samples."""
    z = np.asarray(samples, dtype=np.complex128)
    resid = f_plus(eps, z) + f_minus(eps, z) - z
    return float(np.max(np.abs(resid)))


@dataclass
class ReactionSpec:
    """Analytic reaction f(x, t, jets) acting on derivative jets up to order m.

    ``eval(z, t, X)`` receives stacked complex coordinates ``z`` of shape
    (dim, *points), the jet array ``X`` of shape (n_slots, M, *points)
    holding the plain partial derivatives d^beta u in the canonical
    multi-index order (by order, then lexicographic), and the time ``t``;
    it returns the reaction values of shape (M, *points).  The solver hands
    over a whole window at once: the points are (B, *grid) with the batch
    axis of time nodes first, ``z`` is a read-only broadcast view, and
    ``t`` holds the node times shaped (B,) + (1,) * dim, so it broadcasts
    against the points.  Elsewhere ``t`` may be a scalar.  ``eval`` must be
    pointwise in the point axes, batch axis included.  ``domain_check(X)``
    returns a truth mask of admissible jet values that broadcasts against
    ``X``.  ``jet_lipschitz_estimate`` differentiates ``eval`` numerically.
    """

    order_half: int
    components: int
    dim: int
    eval: Callable
    domain_check: Callable = None

    def __post_init__(self):
        if self.order_half < 0:
            raise ConfigurationError("jet depth must be nonnegative")
        if self.components < 1 or self.dim not in (1, 2):
            raise ConfigurationError("reaction needs components >= 1 and dim in (1, 2)")

    @property
    def jet_indices(self) -> list:
        return multi_indices(self.dim, self.order_half)

    @property
    def n_slots(self) -> int:
        return len(self.jet_indices)


def _offender(bad: np.ndarray, ts, grid: Grid):
    """Index, node time and grid point of the earliest node's first True entry.

    ``bad`` has the batch axis of time nodes third, after (slot, component).
    """
    where = tuple(np.argwhere(np.moveaxis(bad, 2, 0))[0])
    index = where[1:3] + where[:1] + where[3:]
    nodes = grid.meshgrid()[(slice(None),) + where[3:]]
    point = tuple(float(x) for x in np.round(nodes, 6))
    return index, np.ravel(ts)[where[0]], point


def _nemytskii_stack(spec: ReactionSpec, X: np.ndarray, points: np.ndarray, ts, grid: Grid,
                     check_domain: bool) -> np.ndarray:
    """F(ts[b], jets) at every node of a stack, in one ``eval`` call.

    ``X`` holds the jets as (n_slots, M, B, *grid), ``points`` the shifted
    lattice as (dim, B, *grid) and ``ts`` the node times shaped (B,) + (1,)
    * dim; returns (M, B, *grid).  Each check runs once for the stack and
    names the node time and grid point of its first offender, earliest node
    first: non-finite jets and values raise InstabilityError, jets outside
    the declared holomorphy domain DomainError (unless ``check_domain`` is
    off), a misshapen result ConfigurationError.
    """
    if not np.all(np.isfinite(X)):
        _, t, point = _offender(~np.isfinite(X), ts, grid)
        raise InstabilityError(
            f"non-finite jet value at grid point {point} (t={t}); reduce dt or the window length"
        )
    if check_domain and spec.domain_check is not None:
        ok = np.asarray(spec.domain_check(X))
        if not np.all(ok):
            index, t, point = _offender(np.broadcast_to(~ok, X.shape), ts, grid)
            raise DomainError(
                f"jet value {X[index]} at grid point {point} (t={t}) left the reaction's holomorphy domain"
            )
    vals = np.asarray(spec.eval(points, ts, X), dtype=np.complex128)
    expected = X.shape[1:]
    if vals.ndim == len(expected) - 1:
        vals = vals[np.newaxis]
    if vals.shape != expected:
        raise ConfigurationError(f"reaction eval returned shape {vals.shape}, expected {expected}")
    if not np.all(np.isfinite(vals)):
        _, t, point = _offender(~np.isfinite(vals)[np.newaxis], ts, grid)
        raise InstabilityError(f"non-finite reaction value at grid point {point} (t={t}); reduce dt")
    return vals


def nemytskii(spec: ReactionSpec, jets, shift, t, grid: Grid) -> ComplexField:
    """Evaluate the shifted superposition operator F^(shift)(t, jets).

    ``jets`` lists one ComplexField per multi-index in canonical order.
    Jet values outside the declared holomorphy domain raise a domain error
    naming the first offending grid point.  This is the solver's stack core
    with one node.
    """
    if len(jets) != spec.n_slots:
        raise ConfigurationError(
            f"reaction expects {spec.n_slots} jet fields (orders <= {spec.order_half}), got {len(jets)}"
        )
    X = np.stack([j.values for j in jets])[:, :, np.newaxis]
    points = _shifted_points(grid, shift)[:, np.newaxis]
    ts = np.reshape(t, (1,) + (1,) * grid.dim)
    return ComplexField(grid, _nemytskii_stack(spec, X, points, ts, grid, check_domain=True)[:, 0])


def _numeric_jet_jacobian(spec: ReactionSpec, z, t, X) -> np.ndarray:
    """Differentiate eval along each jet slot.

    Uses the non-cancelling imaginary perturbation (step 1e-20) when the jet
    sample is real and the reaction is real on it; otherwise a central
    complex difference with a scaled ~1e-7 step, the best double precision
    allows for genuinely complex arguments.
    """
    base = np.asarray(spec.eval(z, t, X))
    n_slots, M = X.shape[0], X.shape[1]
    out = np.zeros((M, n_slots, M) + X.shape[2:], dtype=np.complex128)
    real_case = np.all(X.imag == 0.0) and np.all(np.abs(base.imag) == 0.0)
    for slot in range(n_slots):
        for k in range(M):
            if real_case:
                h = 1e-20
                Xp = X.astype(np.complex128).copy()
                Xp[slot, k] += 1j * h
                out[:, slot, k] = np.asarray(spec.eval(z, t, Xp)).imag / h
            else:
                h = 1e-7 * (1.0 + np.max(np.abs(X[slot, k])))
                Xp = X.copy()
                Xm = X.copy()
                Xp[slot, k] += h
                Xm[slot, k] -= h
                out[:, slot, k] = (np.asarray(spec.eval(z, t, Xp)) - np.asarray(spec.eval(z, t, Xm))) / (2.0 * h)
    return out


def jet_lipschitz_estimate(spec: ReactionSpec, jet_box, z_points, t_points, rng,
                           n_samples: int = 200) -> float:
    """Sampled sup of |d f_j / d X_{slot,k}| over the jet box.

    ``jet_box`` gives one ((re_lo, re_hi), (im_lo, im_hi)) rectangle per jet
    slot; samples are drawn uniformly.  The jacobian is ``_numeric_jet_jacobian``
    of the spec's ``eval``.
    """
    if len(jet_box) != spec.n_slots:
        raise ConfigurationError(f"jet box must give one rectangle per slot ({spec.n_slots})")
    sup = 0.0
    z_points = list(z_points)
    t_points = list(t_points)
    for _ in range(n_samples):
        X = np.zeros((spec.n_slots, spec.components, 1), dtype=np.complex128)
        for slot, ((re_lo, re_hi), (im_lo, im_hi)) in enumerate(jet_box):
            X[slot] = (
                rng.uniform(re_lo, re_hi, size=(spec.components, 1))
                + 1j * rng.uniform(im_lo, im_hi, size=(spec.components, 1))
            )
        z = np.asarray(z_points[rng.integers(len(z_points))], dtype=np.complex128).reshape(spec.dim, 1)
        t = t_points[rng.integers(len(t_points))]
        sup = max(sup, float(np.max(np.abs(_numeric_jet_jacobian(spec, z, t, X)))))
    return sup
