"""Bilateral counterparty-risk pricing with analytic nonlinearity smoothing.

Claims on a single asset are priced in log price X = ln S and time to
maturity tau on the periodic box.  Three values are produced: the default
free price V, the adjusted price V_hat marked to its own value (semilinear
reaction in the positive/negative-part smoothers), and the adjusted price
marked to V (linear equation with a source assembled from the V surface).
Payoff kinks are smoothed with the same branch-cut-aware functions, or
replaced by an entire Hermite-function expansion, so every priced datum
extends holomorphically to an explicit strip and the analyticity verifiers
apply verbatim.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analyticity import path_independence_check, cr_residual_space, solve_shift_family, strip_sup_over_time
from .errors import ConfigurationError, DomainError
from .grid import ComplexField, Grid, HermiteData, StripSpec, _fftn, eval_hermite, make_grid
from .norms import NormParams, _fit_blocks
from .operators import DivergenceOperator, TemporalDomain
from .reaction import ReactionSpec, _smoothed_parts, f_minus, f_plus, in_branch_domain
from .solver import CauchyProblem, SolverConfig, SolveResult, solve_real

__all__ = [
    "XvaParams",
    "PayoffSpec",
    "bs_log_generator",
    "heston_generator",
    "heston_chart_generator",
    "terminal_data",
    "hermite_payoff_fit",
    "price_riskfree",
    "price_xva_nonlinear",
    "price_xva_linear",
    "compute_xva_surfaces",
    "verify_price_analyticity",
    "evaluate_at",
]

_HESTON_KEYS = ("kappa", "theta", "sigma_v", "rho", "v_min", "v_max")


@dataclass(frozen=True)
class XvaParams:
    """Market and adjustment parameters.

    ``lambda_B``/``lambda_C`` are the own and counterparty default
    intensities, ``R_B``/``R_C`` the recoveries, ``s_F`` the funding spread,
    ``q_S`` the financing cost rate and ``gamma_S`` the dividend rate of the
    asset.  ``theta_mtm`` interpolates the mark-to-market between the
    default-free value (0) and the adjusted value itself (1).
    """

    sigma: float
    epsilon: float = 1e-2
    r: float = 0.0
    lambda_B: float = 0.0
    lambda_C: float = 0.0
    R_B: float = 1.0
    R_C: float = 1.0
    s_F: float = 0.0
    q_S: float = 0.0
    gamma_S: float = 0.0
    theta_mtm: float = 1.0
    heston: dict = None

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ConfigurationError(
                f"volatility must be positive (sigma = {self.sigma!r} degenerates the generator)"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"smoothing epsilon must lie in (0, 1), got {self.epsilon!r}")
        for name in ("lambda_B", "lambda_C", "s_F"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        for name in ("R_B", "R_C"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"recovery {name} must lie in [0, 1], got {getattr(self, name)!r}")
        if not 0.0 <= self.theta_mtm <= 1.0:
            raise ConfigurationError(f"theta_mtm must lie in [0, 1], got {self.theta_mtm!r}")
        if self.heston is not None:
            blk = dict(self.heston)
            missing = [k for k in _HESTON_KEYS if k not in blk]
            unknown = [k for k in blk if k not in _HESTON_KEYS]
            if missing or unknown:
                raise ConfigurationError(
                    f"heston block needs exactly the keys {_HESTON_KEYS}; missing {missing}, unknown {unknown}"
                )
            blk = {k: float(blk[k]) for k in _HESTON_KEYS}
            if not abs(blk["rho"]) < 1.0:
                raise ConfigurationError(f"correlation must satisfy |rho| < 1, got {blk['rho']!r}")
            if not 0.0 < blk["v_min"] < blk["v_max"]:
                raise ConfigurationError(
                    f"variance band needs 0 < v_min < v_max, got [{blk['v_min']!r}, {blk['v_max']!r}]"
                )
            object.__setattr__(self, "heston", blk)


_PAYOFF_KINDS = ("smoothed_call", "smoothed_put", "hermite_expansion")


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal datum with its declared strip of holomorphy.

    Smoothed calls/puts extend only to |Im X| < arctan(epsilon / strike):
    past that width the shifted argument exp(X) - K meets the smoother's
    branch cut.  Hermite expansions are entire, so their admissible half
    width is unrestricted.
    """

    kind: str
    strike: float = None
    epsilon: float = None
    hermite: HermiteData = None
    admissible_half_width: float = None

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise ConfigurationError(f"payoff kind must be one of {_PAYOFF_KINDS}, got {self.kind!r}")
        if self.kind == "hermite_expansion":
            if not isinstance(self.hermite, HermiteData):
                raise ConfigurationError("hermite_expansion payoff needs HermiteData coefficients")
            if self.admissible_half_width is None:
                object.__setattr__(self, "admissible_half_width", math.inf)
            if not self.admissible_half_width > 0.0:
                raise ConfigurationError("admissible half width must be positive")
            return
        if self.strike is None or not self.strike > 0.0:
            raise ConfigurationError(f"{self.kind} needs a positive strike, got {self.strike!r}")
        if self.epsilon is None or not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"{self.kind} needs smoothing epsilon in (0, 1), got {self.epsilon!r}")
        cap = math.atan(self.epsilon / self.strike)
        if self.admissible_half_width is None:
            object.__setattr__(self, "admissible_half_width", cap)
        if not 0.0 < self.admissible_half_width <= cap + 1e-15:
            raise ConfigurationError(
                f"admissible half width {self.admissible_half_width!r} exceeds the branch-cut "
                f"clearance arctan(eps/K) = {cap!r}"
            )


def _taper(x, half_length: float):
    # entire damping, ~1 on the pricing core and ~7e-12 at the periodic seam
    return np.exp(-((1.5 * x / half_length) ** 8))


def terminal_data(payoff: PayoffSpec, half_length: float):
    """Callable initial datum on stacked complex coordinates.

    The first coordinate is log price; any further coordinates (the variance
    chart) are ignored, so the same datum serves both generators.  Calls and
    puts are damped by an entire taper tied to the box half length so the
    periodic wrap-around of exp(X) is negligible.
    """
    if payoff.kind == "hermite_expansion" and payoff.hermite.dim != 1:
        raise ConfigurationError("payoff expansions are one dimensional in log price")

    def values(pts):
        x = np.asarray(pts, dtype=np.complex128)[0]
        if payoff.kind == "hermite_expansion":
            return eval_hermite(payoff.hermite, x[np.newaxis])
        gap = np.exp(x) - payoff.strike
        if payoff.kind == "smoothed_call":
            core = f_plus(payoff.epsilon, gap)
        else:
            core = -np.asarray(f_minus(payoff.epsilon, gap))
        return core * _taper(x, half_length)

    return values


def hermite_payoff_fit(payoff: PayoffSpec, half_length: float, n_terms: int = 40,
                       fit_width: float = 9.0, n_samples: int = 2001) -> PayoffSpec:
    """Replace a smoothed call/put by an entire Hermite-function expansion.

    Least squares against the tapered payoff on a dense real window, using
    the normalized three-term recurrence (stable far beyond degree 40); the
    coefficients are stored in the physicists' convention that the datum
    evaluator expects.
    """
    if payoff.kind == "hermite_expansion":
        return payoff
    if not 1 <= n_terms <= 200:
        raise ConfigurationError(f"expansion length must lie in [1, 200], got {n_terms!r}")
    x = np.linspace(-fit_width, fit_width, n_samples)
    target = np.asarray(terminal_data(payoff, half_length)(x[np.newaxis]), dtype=np.complex128)
    psi = np.empty((n_terms, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_terms > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for i in range(1, n_terms - 1):
        psi[i + 1] = x * math.sqrt(2.0 / (i + 1)) * psi[i] - math.sqrt(i / (i + 1)) * psi[i - 1]
    coef, *_ = np.linalg.lstsq(psi.T, target, rcond=None)
    scale = np.array([math.sqrt(2.0 ** i * math.factorial(i) * math.sqrt(math.pi)) for i in range(n_terms)])
    data = HermiteData(poly_coeffs=coef / scale, dim=1, basis="hermite")
    return PayoffSpec(kind="hermite_expansion", hermite=data)


_DEFAULT_TEMPORAL = TemporalDomain(angle=0.25 * math.pi, t_prime=2.0, horizon=16.0)


def bs_log_generator(params: XvaParams, temporal: TemporalDomain = None) -> DivergenceOperator:
    """Constant-volatility generator in log price, without the discount term."""
    if not params.sigma > 0.0:
        raise ConfigurationError("sigma = 0 gives a degenerate (non-elliptic) generator")
    drift = params.q_S - params.gamma_S + 0.5 * params.sigma ** 2
    terms = {((1,), (1,)): 0.5 * params.sigma ** 2}
    if drift != 0.0:
        terms[((0,), (1,))] = -1j * drift
    return DivergenceOperator.from_terms(
        1, 1, 1, terms, StripSpec(math.inf), temporal or _DEFAULT_TEMPORAL
    )


def heston_generator(params: XvaParams, temporal: TemporalDomain = None) -> DivergenceOperator:
    """Stochastic-variance generator in (X = ln S, v), literal coordinates.

    The second coordinate is read as the variance and clamped to the
    declared band, so symbol and coercivity sampling ranges over exactly the
    admissible states.  First-order coefficients carry the divergence-form
    corrections for the linear-in-v diffusion entries.
    """
    if params.heston is None:
        raise ConfigurationError("heston block missing from the parameters")
    blk = params.heston
    if blk["v_min"] <= 0.0:
        raise DomainError(
            f"variance floor v_min = {blk['v_min']!r} degenerates the diffusion; "
            "uniform ellipticity needs v_min > 0"
        )
    kappa, theta_v, sigma_v, rho = blk["kappa"], blk["theta"], blk["sigma_v"], blk["rho"]
    v_lo, v_hi = blk["v_min"], blk["v_max"]
    drift_x = params.q_S - params.gamma_S

    def v_of(z):
        return np.clip(np.real(np.asarray(z)[1]), v_lo, v_hi)

    terms = {
        ((1, 0), (1, 0)): lambda z, t: 0.5 * v_of(z),
        ((1, 0), (0, 1)): lambda z, t: 0.5 * rho * sigma_v * v_of(z),
        ((0, 1), (1, 0)): lambda z, t: 0.5 * rho * sigma_v * v_of(z),
        ((0, 1), (0, 1)): lambda z, t: 0.5 * sigma_v ** 2 * v_of(z),
        ((0, 0), (1, 0)): lambda z, t: -1j * (drift_x - 0.5 * v_of(z) - 0.5 * rho * sigma_v),
        ((0, 0), (0, 1)): lambda z, t: -1j * (kappa * (theta_v - v_of(z)) - 0.5 * sigma_v ** 2),
    }
    return DivergenceOperator.from_terms(
        1, 1, 2, terms, StripSpec(math.inf), temporal or _DEFAULT_TEMPORAL, autonomous=True
    )


def heston_chart_generator(params: XvaParams, grid: Grid, v_center: float = None,
                           temporal: TemporalDomain = None):
    """Periodic pricing form of the stochastic-variance generator.

    The second grid axis w is mapped onto the variance band by the entire
    chart v(w) = v_center + s (L/pi) sin(pi w / L) with s = (v_max -
    v_min) / (2L), which compresses the band to v_center +- (v_max -
    v_min)/(2 pi) and keeps every coefficient an entire periodic function.
    The substitution d/dv -> (1/s) d/dw is applied with the constant chart
    rate, so the operator agrees with the literal-coordinate generator to
    second order in w at the chart center, where prices are read off.

    Returns the operator together with the chart callable w -> v(w).
    """
    if params.heston is None:
        raise ConfigurationError("heston block missing from the parameters")
    if grid.dim != 2:
        raise ConfigurationError("the variance chart needs a two-dimensional grid")
    blk = params.heston
    kappa, theta_v, sigma_v, rho = blk["kappa"], blk["theta"], blk["sigma_v"], blk["rho"]
    v_lo, v_hi = blk["v_min"], blk["v_max"]
    length = grid.half_length
    rate = (v_hi - v_lo) / (2.0 * length)
    amp = rate * length / math.pi
    if v_center is None:
        v_center = 0.5 * (v_lo + v_hi)
    if not (v_lo + amp <= v_center <= v_hi - amp):
        raise ConfigurationError(
            f"chart center {v_center!r} must keep v_center +- {amp:.6g} inside "
            f"the variance band [{v_lo!r}, {v_hi!r}]"
        )
    drift_x = params.q_S - params.gamma_S

    def chart(w):
        w = np.asarray(w, dtype=np.complex128)
        return v_center + amp * np.sin(math.pi * w / length)

    def chart_cos(w):
        return np.cos(math.pi * np.asarray(w, dtype=np.complex128) / length)

    terms = {
        ((1, 0), (1, 0)): lambda z, t: 0.5 * chart(np.asarray(z)[1]),
        ((1, 0), (0, 1)): lambda z, t: 0.5 * rho * sigma_v * chart(np.asarray(z)[1]) / rate,
        ((0, 1), (1, 0)): lambda z, t: 0.5 * rho * sigma_v * chart(np.asarray(z)[1]) / rate,
        ((0, 1), (0, 1)): lambda z, t: 0.5 * sigma_v ** 2 * chart(np.asarray(z)[1]) / rate ** 2,
        ((0, 0), (1, 0)): lambda z, t: -1j * (
            drift_x - 0.5 * chart(np.asarray(z)[1]) - 0.5 * rho * sigma_v * chart_cos(np.asarray(z)[1])
        ),
        ((0, 0), (0, 1)): lambda z, t: -1j * (
            kappa * (theta_v - chart(np.asarray(z)[1])) - 0.5 * sigma_v ** 2 * chart_cos(np.asarray(z)[1])
        ) / rate,
    }
    op = DivergenceOperator.from_terms(
        1, 1, 2, terms, StripSpec(math.inf), temporal or _DEFAULT_TEMPORAL, autonomous=True
    )
    return op, chart


def _with_zero_order(op: DivergenceOperator, rate: float) -> DivergenceOperator:
    """Fold a constant zero-order rate (discounting) into the operator."""
    if rate == 0.0:
        return op
    zero = ((0,) * op.dim, (0,) * op.dim)
    base = op.coeff

    def coeff(alpha, beta, z, t):
        val = base(alpha, beta, z, t)
        if (tuple(alpha), tuple(beta)) == zero:
            return np.asarray(val, dtype=np.complex128) + rate
        return val

    terms = tuple(dict.fromkeys(tuple(op.terms) + (zero,)))
    return DivergenceOperator(
        order_half=op.order_half,
        components=op.components,
        dim=op.dim,
        coeff=coeff,
        strip=op.strip,
        temporal=op.temporal,
        terms=terms,
        autonomous=op.autonomous,
    )


def _pricing_config(grid: Grid, horizon: float, config: SolverConfig) -> SolverConfig:
    if config is not None:
        return config
    if grid.dim == 1:
        return SolverConfig(dt=horizon / 500.0, integrator="picard_voc")
    return SolverConfig(dt=horizon / 400.0, integrator="imex")


def _check_payoff(payoff: PayoffSpec, grid: Grid):
    if not isinstance(payoff, PayoffSpec):
        raise ConfigurationError("payoff must be a PayoffSpec")
    if payoff.kind == "hermite_expansion" and payoff.hermite.dim != 1:
        raise ConfigurationError("payoff expansions must be one dimensional in log price")
    if payoff.kind != "hermite_expansion" and abs(math.log(payoff.strike)) > grid.half_length:
        raise ConfigurationError("strike lies outside the log-price box")


def _pricing_problem(params: XvaParams, payoff: PayoffSpec, grid: Grid, rate: float = None,
                     reaction: ReactionSpec = None, source=None) -> CauchyProblem:
    """The pricing problem on ``grid``, discounted at ``rate`` (default r).

    The generator is the log-price one in 1-D and the variance chart centred
    on the long-run variance in 2-D; the datum is the payoff, with its strip.
    """
    _check_payoff(payoff, grid)
    if grid.dim == 1:
        op = bs_log_generator(params)
    else:
        v_center = params.heston["theta"] if params.heston else None
        op, _ = heston_chart_generator(params, grid, v_center=v_center)
    return CauchyProblem(
        grid=grid,
        op=_with_zero_order(op, params.r if rate is None else rate),
        initial=terminal_data(payoff, grid.half_length),
        reaction=reaction,
        source=source,
        strip=StripSpec(payoff.admissible_half_width),
    )


def _surface_lookup(result: SolveResult):
    """Stored values at time t, (M, *grid); an array of times stacks them to (M, B, *grid)."""
    times = np.asarray(result.times)

    def one(t):
        t = complex(t)
        if abs(t.imag) > 1e-12:
            raise ConfigurationError(
                "stored price surfaces exist for real times only; re-solve the "
                "adjusted problem directly for complex-time studies"
            )
        j = int(np.argmin(np.abs(times - t.real)))
        if abs(times[j] - t.real) > 1e-9 * max(1.0, abs(t.real)):
            raise ConfigurationError(f"no stored price surface at t = {t.real!r}")
        return result.fields[j].values

    def at(t):
        if np.ndim(t) == 0:
            return one(t)
        return np.stack([one(tb) for tb in np.ravel(t)], axis=1)

    return at


def _adjustment_reaction(params: XvaParams, dim: int, mark_lookup=None) -> ReactionSpec:
    """Own-value or blended-mark counterparty/funding reaction.

    With mark M = theta_mtm * own + (1 - theta_mtm) * reference the reaction
    reads -(1-R_B) lam_B f_minus(M) - ((1-R_C) lam_C + s_F) f_plus(M)
    - (lam_B + lam_C)(own - M); at theta_mtm = 1 the last term drops and
    the equation is the semilinear one, at theta_mtm = 0 (with the
    default-free reference) it reproduces the linear source structure.
    """
    eps = params.epsilon
    lam_b, lam_c = params.lambda_B, params.lambda_C
    cost_minus = (1.0 - params.R_B) * lam_b
    cost_plus = (1.0 - params.R_C) * lam_c + params.s_F
    theta = params.theta_mtm if mark_lookup is not None else 1.0

    def evaluate(z, t, X):
        own = X[0]
        mark = own if theta == 1.0 else theta * own + (1.0 - theta) * mark_lookup(t)
        minus, plus = _smoothed_parts(eps, mark)
        out = -cost_minus * minus - cost_plus * plus
        if theta != 1.0:
            out = out - (lam_b + lam_c) * (own - mark)
        return out

    def admissible(X):
        return in_branch_domain(eps, X[0])

    return ReactionSpec(order_half=1, components=1, dim=dim, eval=evaluate, domain_check=admissible)


def price_riskfree(params: XvaParams, payoff: PayoffSpec, grid: Grid, horizon: float,
                   config: SolverConfig = None) -> SolveResult:
    """Default-free value V: the discounted linear equation, no adjustments."""
    problem = _pricing_problem(params, payoff, grid)
    return solve_real(problem, 0.0, horizon, _pricing_config(grid, horizon, config))


def price_xva_nonlinear(params: XvaParams, payoff: PayoffSpec, grid: Grid, horizon: float,
                        config: SolverConfig = None) -> SolveResult:
    """Adjusted value V_hat with the semilinear own-mark reaction.

    With theta_mtm < 1 the mark blends in the default-free surface, which is
    priced first on the same grid and time step.
    """
    config = _pricing_config(grid, horizon, config)
    lookup = None
    if params.theta_mtm < 1.0:
        lookup = _surface_lookup(price_riskfree(params, payoff, grid, horizon, config))
    reaction = _adjustment_reaction(params, grid.dim, mark_lookup=lookup)
    problem = _pricing_problem(params, payoff, grid, reaction=reaction)
    return solve_real(problem, 0.0, horizon, config)


def price_xva_linear(params: XvaParams, payoff: PayoffSpec, reference: SolveResult, grid: Grid,
                     horizon: float, config: SolverConfig = None) -> SolveResult:
    """Adjusted value marked to the default-free surface: linear with sources.

    The default intensities move into the discount rate and the smoothers
    act on the stored reference V, giving the inhomogeneous equation with
    source (R_B lam_B + lam_C) f_minus(V) + (lam_B + R_C lam_C - s_F)
    f_plus(V); the reference must live on the same grid with stored
    snapshots at every time node of this solve.
    """
    if reference.fields[0].grid != grid:
        raise ConfigurationError("reference surface was priced on a different grid")
    eps = params.epsilon
    lam_b, lam_c = params.lambda_B, params.lambda_C
    gain_minus = params.R_B * lam_b + lam_c
    gain_plus = lam_b + params.R_C * lam_c - params.s_F
    lookup = _surface_lookup(reference)

    def source(t, grid_, shift):
        if shift is not None and np.any(np.asarray(shift) != 0):
            raise ConfigurationError(
                "the linear adjustment equation is tied to an unshifted reference surface; "
                "run analyticity checks on the semilinear problem instead"
            )
        minus, plus = _smoothed_parts(eps, lookup(t))
        return gain_minus * minus + gain_plus * plus

    problem = _pricing_problem(params, payoff, grid, rate=params.r + lam_b + lam_c, source=source)
    return solve_real(problem, 0.0, horizon, _pricing_config(grid, horizon, config))


def compute_xva_surfaces(params: XvaParams, payoff: PayoffSpec, grid: Grid, horizon: float,
                         config: SolverConfig = None) -> dict:
    """Price V, V_hat (semilinear), V_hat (linearized) and the adjustment.

    The returned dict carries the three SolveResults plus the terminal
    adjustment surface xva = V_hat - V.
    """
    riskfree = price_riskfree(params, payoff, grid, horizon, config)
    nonlinear = price_xva_nonlinear(params, payoff, grid, horizon, config)
    linear = price_xva_linear(params, payoff, riskfree, grid, horizon, config)
    return {
        "riskfree": riskfree,
        "nonlinear": nonlinear,
        "linear": linear,
        "xva": nonlinear.final.values - riskfree.final.values,
    }


def evaluate_at(field: ComplexField, point) -> np.ndarray:
    """Trigonometric interpolation of every component at one physical point."""
    grid = field.grid
    pt = np.atleast_1d(np.asarray(point))
    if pt.shape != (grid.dim,):
        raise ConfigurationError(f"evaluation point must have {grid.dim} coordinates, got shape {pt.shape}")
    for axis, x in enumerate(pt):
        if np.imag(x) != 0.0 or not np.isfinite(x):
            raise ConfigurationError(f"evaluation point coordinate {axis} is {x.item()!r}, not a finite real number")
    pt = pt.real.astype(np.float64)
    n = grid.points_per_axis
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    out = _fftn(field.values, grid)
    for x in pt:
        phase = np.exp(1j * k * (x + grid.half_length)) / n
        out = np.tensordot(out, phase, axes=([1], [0]))
    return out


def verify_price_analyticity(params: XvaParams, payoff: PayoffSpec, y_grid, tau_grid,
                             config: SolverConfig = None, grid: Grid = None,
                             t_prime_list=None, tau_target: float = None,
                             jobs: int = None) -> dict:
    """Analyticity report for the semilinear adjusted price.

    Runs the shift-family Cauchy-Riemann residuals at the requested times,
    one two-segment path-independence spread, and the strip sup norm, after
    rejecting shifts that would touch the payoff's branch cut and grids
    too coarse for the strip norm's dyadic blocks.  ``jobs`` is accepted
    and ignored: the family members run one after another.
    """
    y_arr = np.atleast_1d(np.asarray(y_grid, dtype=np.float64))
    cap = payoff.admissible_half_width
    for y in y_arr:
        if abs(y) >= cap:
            raise DomainError(
                f"shift y = {y!r} reaches the payoff branch cut: smoothed kinks extend only to "
                f"|Im X| < arctan(eps/K) = {cap!r}"
            )
    taus = sorted(float(t) for t in np.atleast_1d(np.asarray(tau_grid, dtype=np.float64)))
    if not taus or taus[0] <= 0.0:
        raise ConfigurationError("tau_grid must contain positive times")
    horizon = taus[-1]
    if grid is None:
        grid = make_grid(1, 6.0, 256)
    problem = _pricing_problem(params, payoff, grid, reaction=_adjustment_reaction(params, grid.dim))
    config = _pricing_config(grid, horizon, config)
    strip_params = NormParams(p=config.p, m=problem.op.order_half, dyadic_blocks=_fit_blocks(grid))
    shifts = [(y,) + (0.0,) * (grid.dim - 1) for y in y_arr]
    family = solve_shift_family(problem, shifts, 0.0, horizon, config)
    cr_space = {tau: cr_residual_space(family, tau) for tau in taus}
    if t_prime_list is None:
        t_prime_list = (0.4 * horizon, 0.6 * horizon)
    if tau_target is None:
        tau_target = 0.05 * horizon
    spread = path_independence_check(problem, horizon, tau_target, t_prime_list, config)
    strip_sup = strip_sup_over_time(family, strip_params)
    return {
        "admissible_half_width": cap,
        "y_grid": [float(y) for y in y_arr],
        "tau_grid": taus,
        "cr_space": cr_space,
        "path_t_primes": [float(t) for t in t_prime_list],
        "path_tau": float(tau_target),
        "path_spread": float(spread),
        "strip_sup": float(strip_sup),
    }
