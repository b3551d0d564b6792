"""Configuration-driven experiment runner.

``parastrip <command> --config <path> [--output <dir>] [--seed <u64>]
[--jobs <k>]`` reads a single JSON tree, validates it against the chosen
command, runs the jobs one after another, and writes canonical CSV tables,
optional SVG line charts, a pass/fail report, and a manifest indexing every
emitted file.  Identical config and seed give byte identical CSVs.
``--jobs`` is accepted and recorded in the manifest but ignored.
"""

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analyticity import (
    cr_residual_space,
    cr_residual_time,
    hardy_integral,
    solve_shift_family,
)
from .errors import ConfigurationError, ParastripError
from .grid import ComplexField, HermiteData, StripSpec, _shifted_points, make_grid
from .norms import NormParams, _besov_norms, _fit_blocks, lp_norm
from .operators import (
    DivergenceOperator,
    TemporalDomain,
    ellipticity_samples,
    estimate_ellipticity_constant,
    random_band_limited_fields,
    verify_garding,
)
from .reaction import ReactionSpec
from .solver import (
    CauchyProblem,
    SolverConfig,
    default_maxreg_ensemble,
    estimate_max_reg_constant,
    solve_along_path,
    solve_real,
)
from .xva import (
    PayoffSpec,
    XvaParams,
    bs_log_generator,
    compute_xva_surfaces,
    evaluate_at,
    hermite_payoff_fit,
    heston_generator,
)

FLOAT_FMT = "%.12e"
COMMANDS = ("solve", "verify-analyticity", "xva", "ellipticity", "maxreg", "convergence")


# ---------------------------------------------------------------------------
# emission helpers

def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % float(v)
    return str(v)


def _row_format(kinds: tuple):
    """The %-template that formats a row of cells of types ``kinds`` as ``_fmt_cell`` does.

    Returns the template and the positions of bool cells, which the caller
    spells out first.
    """
    specs, bools = [], []
    for i, kind in enumerate(kinds):
        if issubclass(kind, (bool, np.bool_)):
            bools.append(i)
            specs.append("%s")
        elif issubclass(kind, (int, np.integer)):
            specs.append("%d")
        elif issubclass(kind, (float, np.floating)):
            specs.append(FLOAT_FMT)
        else:
            specs.append("%s")
    return ",".join(specs), tuple(bools)


def write_csv(out_dir: Path, name: str, header, rows) -> str:
    """One %-format per row, its template chosen once per sequence of cell types."""
    lines = [",".join(header)]
    formats = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = _row_format(kinds)
        template, bools = fmt
        if bools:
            row = list(row)
            for i in bools:
                row[i] = "true" if row[i] else "false"
            row = tuple(row)
        lines.append(template % row)
    (out_dir / name).write_text("\n".join(lines) + "\n")
    return name


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _chart_points(xs, ys, log_y: bool) -> list:
    """The (x, y) floats of one series that a chart draws: log10 y under ``log_y``
    (y <= 0 dropped), then the finite points only."""
    out = []
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if log_y:
            if y <= 0.0 or not np.isfinite(y):
                continue
            y = math.log10(y)
        if np.isfinite(x) and np.isfinite(y):
            out.append((x, y))
    return out


def write_svg(out_dir: Path, name: str, series, title: str, x_label: str, y_label: str,
              log_y: bool = False) -> str:
    """Minimal deterministic line chart; series is a list of (label, xs, ys)."""
    width, height, margin = 720.0, 480.0, 70.0
    drawn = [_chart_points(xs, ys, log_y) for _, xs, ys in series]
    pts = [p for points in drawn for p in points]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
    y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-300:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return margin + (float(x) - x_lo) / (x_hi - x_lo) * (width - 2.0 * margin)

    def sy(y):
        return height - margin - (float(y) - y_lo) / (y_hi - y_lo) * (height - 2.0 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{("log10 " if log_y else "") + y_label}</text>',
        f'<rect x="{margin:.1f}" y="{margin:.1f}" width="{width - 2 * margin:.1f}" '
        f'height="{height - 2 * margin:.1f}" fill="none" stroke="#333"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 16:.1f}" text-anchor="middle" '
            f'font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6:.1f}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.4g}</text>'
        )
    for idx, ((label, _, _), points) in enumerate(zip(series, drawn)):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in points]
        if coords:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(coords)}"/>'
            )
        parts.append(
            f'<text x="{width - margin - 4:.1f}" y="{margin + 16 + 14 * idx:.1f}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    (out_dir / name).write_text("\n".join(parts) + "\n")
    return name


def emit_report(checks, out_dir: Path) -> list:
    """Summary table of measured values against their targets, CSV plus text."""
    rows = [(name, value, target, passed) for name, value, target, passed in checks]
    files = [write_csv(out_dir, "report.csv", ["name", "value", "target", "status"],
                       [(n, v, t, "pass" if ok else "fail") for n, v, t, ok in rows])]
    lines = []
    for n, v, t, ok in rows:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {n}: {_fmt_cell(v)} (target {t})")
    n_pass = sum(1 for r in rows if r[3])
    lines.append(f"{n_pass}/{len(rows)} checks passed" if rows else "no checks recorded")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    files.append("report.txt")
    return files


# ---------------------------------------------------------------------------
# config plumbing

class _Invalid(Exception):
    def __init__(self, violations):
        super().__init__("invalid configuration")
        self.violations = list(violations)


def _config_digest(cfg) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _section(cfg: dict, name: str, errors: list, required: bool = True, label: str = None) -> dict:
    label = label or name
    block = cfg.get(name)
    if block is None:
        if required:
            errors.append(f"{label}: required section is missing")
        return {}
    if not isinstance(block, dict):
        errors.append(f"{label}: must be an object")
        return {}
    return block


def _number(block: dict, section: str, key: str, errors: list, default=None,
            required: bool = False, minimum=None, strict_min=None, maximum=None):
    if key not in block:
        if required:
            errors.append(f"{section}.{key}: required value is missing")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{section}.{key}: must be a number, got {v!r}")
        return default
    v = float(v)
    if not np.isfinite(v):
        errors.append(f"{section}.{key}: must be finite, got {v!r}")
        return default
    if minimum is not None and v < minimum:
        errors.append(f"{section}.{key}: must be >= {minimum}, got {v!r}")
        return default
    if strict_min is not None and v <= strict_min:
        errors.append(f"{section}.{key}: must be > {strict_min}, got {v!r}")
        return default
    if maximum is not None and v > maximum:
        errors.append(f"{section}.{key}: must be <= {maximum}, got {v!r}")
        return default
    return v


def _build_grid(cfg: dict, errors: list):
    block = _section(cfg, "grid", errors)
    if not block:
        return None
    dim = block.get("dim", 1)
    bad_dim = dim not in (1, 2)
    if bad_dim:
        errors.append(f"grid.dim: must be 1 or 2, got {dim!r}")
    half = _number(block, "grid", "half_length", errors, required=True, strict_min=0.0)
    n = block.get("points_per_axis")
    bad_n = not (isinstance(n, int) and not isinstance(n, bool) and n >= 8 and (n & (n - 1)) == 0)
    if bad_n:
        errors.append(f"grid.points_per_axis: must be a power of two >= 8, got {n!r}")
    if bad_dim or bad_n or half is None:
        return None
    return make_grid(dim, half, n)


def _build_temporal(cfg: dict, horizon: float, errors: list):
    block = _section(cfg, "temporal", errors, required=False)
    angle = _number(block, "temporal", "angle", errors, default=0.25 * math.pi,
                    strict_min=0.0, maximum=0.5 * math.pi - 1e-9)
    t_prime = _number(block, "temporal", "t_prime", errors, default=horizon, strict_min=0.0)
    total = _number(block, "temporal", "horizon", errors, default=2.0 * horizon, strict_min=0.0)
    try:
        return TemporalDomain(angle=angle, t_prime=min(t_prime, total), horizon=max(total, horizon))
    except ParastripError as exc:
        errors.append(f"temporal: {exc}")
        return None


def _build_operator(cfg: dict, grid, temporal, errors: list, literal_heston: bool = False):
    """The configured operator; ``kind: heston`` only where ``literal_heston`` (ellipticity)."""
    block = _section(cfg.get("problem", cfg), "operator", errors)
    if not block or grid is None or temporal is None:
        return None
    kind = block.get("kind")
    if kind == "heston" and not literal_heston:
        errors.append(
            "problem.operator.kind: heston reads the variance as clip(Re v), which is not "
            "holomorphic, and is accepted by ellipticity only; use heston_chart to solve"
        )
        return None
    strip_width = _number(block, "problem.operator", "strip_half_width", errors,
                          default=math.inf, strict_min=0.0)
    strip = StripSpec(strip_width)
    if kind == "heat":
        a = _number(block, "problem.operator", "diffusivity", errors, default=1.0, strict_min=0.0)
        terms = {}
        for ax in range(grid.dim):
            e = tuple(1 if i == ax else 0 for i in range(grid.dim))
            terms[(e, e)] = a
        return DivergenceOperator.from_terms(1, 1, grid.dim, terms, strip, temporal)
    if kind == "variable_heat":
        base = _number(block, "problem.operator", "base", errors, default=1.0, strict_min=0.0)
        ripple = _number(block, "problem.operator", "variation", errors, default=0.25,
                         minimum=0.0, maximum=0.95)
        wave = block.get("wavenumber", 1)
        if not (isinstance(wave, int) and wave >= 1):
            errors.append(f"problem.operator.wavenumber: must be a positive integer, got {wave!r}")
            return None
        k0 = wave * math.pi / grid.half_length

        def coeff(z, t):
            return base * (1.0 + ripple * np.cos(k0 * np.asarray(z)[0]))

        terms = {}
        for ax in range(grid.dim):
            e = tuple(1 if i == ax else 0 for i in range(grid.dim))
            terms[(e, e)] = coeff
        return DivergenceOperator.from_terms(1, 1, grid.dim, terms, strip, temporal, autonomous=True)
    if kind in ("bs", "heston", "heston_chart"):
        try:
            params = XvaParams(
                sigma=block.get("sigma", 0.2),
                q_S=block.get("q_S", 0.0),
                gamma_S=block.get("gamma_S", 0.0),
                heston=block.get("heston"),
            )
            if kind == "bs":
                return bs_log_generator(params, temporal)
            if kind == "heston":
                return heston_generator(params, temporal)
            from .xva import heston_chart_generator

            op, _ = heston_chart_generator(params, grid, v_center=block.get("v_center"),
                                           temporal=temporal)
            return op
        except ParastripError as exc:
            errors.append(f"problem.operator: {exc}")
            return None
    if kind == "custom":
        raw = block.get("terms")
        if not isinstance(raw, list) or not raw:
            errors.append("problem.operator.terms: custom operators need a nonempty term list")
            return None
        terms = {}
        for i, entry in enumerate(raw):
            try:
                alpha = tuple(int(a) for a in entry["alpha"])
                beta = tuple(int(b) for b in entry["beta"])
                value = complex(entry.get("re", 0.0), entry.get("im", 0.0))
            except (KeyError, TypeError, ValueError):
                errors.append(f"problem.operator.terms[{i}]: needs alpha, beta and re/im entries")
                return None
            terms[(alpha, beta)] = value
        try:
            return DivergenceOperator.from_terms(
                block.get("order_half", 1), block.get("components", 1), grid.dim,
                terms, strip, temporal,
            )
        except ParastripError as exc:
            errors.append(f"problem.operator: {exc}")
            return None
    errors.append(
        f"problem.operator.kind: must be one of heat, variable_heat, bs, heston, heston_chart, "
        f"custom, got {kind!r}"
    )
    return None


def _build_initial(cfg: dict, grid, errors: list):
    block = _section(cfg.get("problem", cfg), "initial", errors)
    if not block or grid is None:
        return None
    kind = block.get("kind")
    if kind == "gaussian":
        amp = _number(block, "problem.initial", "amplitude", errors, default=1.0)
        width = _number(block, "problem.initial", "width", errors, default=1.0, strict_min=0.0)
        center = np.asarray(block.get("center", [0.0] * grid.dim), dtype=np.float64).reshape(-1)
        if center.shape != (grid.dim,):
            errors.append(f"problem.initial.center: needs {grid.dim} coordinates")
            return None

        def datum(pts):
            pts = np.asarray(pts, dtype=np.complex128)
            quad = sum((pts[ax] - center[ax]) ** 2 for ax in range(grid.dim))
            return amp * np.exp(-quad / (2.0 * width ** 2))

        return datum
    if kind == "hermite":
        basis = block.get("basis", "hermite")
        try:
            return HermiteData(np.asarray(block.get("coeffs"), dtype=np.complex128), grid.dim, basis)
        except (ParastripError, TypeError, ValueError) as exc:
            errors.append(f"problem.initial: {exc}")
            return None
    if kind == "mode":
        idx = block.get("index", [1] * grid.dim)
        idx = [idx] if isinstance(idx, int) else list(idx)
        if len(idx) != grid.dim or not all(isinstance(j, int) for j in idx):
            errors.append(f"problem.initial.index: needs {grid.dim} integer entries")
            return None
        amp = _number(block, "problem.initial", "amplitude", errors, default=1.0)
        ks = [j * math.pi / grid.half_length for j in idx]

        def datum(pts):
            pts = np.asarray(pts, dtype=np.complex128)
            phase = sum(k * pts[ax] for ax, k in enumerate(ks))
            return amp * np.exp(1j * phase)

        return datum
    errors.append(f"problem.initial.kind: must be gaussian, hermite or mode, got {kind!r}")
    return None


def _build_reaction(cfg: dict, grid, errors: list):
    block = _section(cfg.get("problem", cfg), "reaction", errors, required=False)
    kind = block.get("kind", "none") if block else "none"
    if kind == "none":
        return None
    if grid is None:
        return None
    if kind == "linear":
        rate = complex(_number(block, "problem.reaction", "rate", errors, default=0.0) or 0.0,
                       _number(block, "problem.reaction", "rate_im", errors, default=0.0) or 0.0)

        def lin(z, t, X):
            return rate * X[0]

        return ReactionSpec(order_half=1, components=1, dim=grid.dim, eval=lin)
    if kind == "quadratic_surrogate":
        strength = _number(block, "problem.reaction", "strength", errors, default=1.0)

        def surrogate(z, t, X):
            # deliberately non-holomorphic (conjugate-quadratic); negative control
            return strength * X[0] * np.conj(X[0])

        return ReactionSpec(order_half=1, components=1, dim=grid.dim, eval=surrogate)
    errors.append(
        f"problem.reaction.kind: must be none, linear or quadratic_surrogate, got {kind!r}"
    )
    return None


def _build_source(cfg: dict, grid, errors: list):
    block = _section(cfg.get("problem", cfg), "source", errors, required=False)
    if not block or block.get("kind", "none") == "none":
        return None
    if block.get("kind") != "modulated":
        errors.append(f"problem.source.kind: must be none or modulated, got {block.get('kind')!r}")
        return None
    datum_cfg = {"problem": {"initial": block.get("datum", {})}}
    datum = _build_initial(datum_cfg, grid, errors)
    rate = _number(block, "problem.source", "rate", errors, default=0.0)
    if datum is None:
        return None

    def source(t, grid_, shift):
        pts = _shifted_points(grid_, shift)
        vals = np.asarray(datum(pts) if callable(datum) else None, dtype=np.complex128)
        if vals.shape == grid_.shape:
            vals = vals[np.newaxis]
        return vals * np.exp(-rate * t)

    return source


def _build_solver_config(cfg: dict, errors: list, **overrides):
    block = dict(_section(cfg, "solver", errors, required=False))
    block.update(overrides)
    allowed = {
        "dt", "window", "picard_tol", "picard_max_iter", "max_window_halvings", "p",
        "integrator", "snapshot_stride", "gmres_tol", "check_reaction_domain",
    }
    unknown = [k for k in block if k not in allowed]
    if unknown:
        errors.append(f"solver: unknown keys {sorted(unknown)}")
        return None
    try:
        return SolverConfig(**block)
    except (ParastripError, TypeError) as exc:
        errors.append(f"solver: {exc}")
        return None


def _build_problem(cfg: dict, horizon: float, errors: list):
    grid = _build_grid(cfg, errors)
    temporal = _build_temporal(cfg, horizon, errors)
    op = _build_operator(cfg, grid, temporal, errors)
    initial = _build_initial(cfg, grid, errors)
    reaction = _build_reaction(cfg, grid, errors)
    source = _build_source(cfg, grid, errors)
    if errors or op is None or initial is None:
        return None, grid
    try:
        problem = CauchyProblem(grid=grid, op=op, initial=initial, reaction=reaction, source=source)
    except ParastripError as exc:
        errors.append(f"problem: {exc}")
        return None, grid
    return problem, grid


# ---------------------------------------------------------------------------
# norms table shared by solve / verify

def _check_norm_grid(grid, errors: list):
    """Reject a grid too coarse for the Besov norm tables of solve and verify-analyticity."""
    if grid is not None:
        try:
            _fit_blocks(grid)
        except ConfigurationError as exc:
            errors.append(str(exc))


def _check_integrator(op, integrator: str, errors: list, key: str = "solver.integrator"):
    """Reject a system under picard_voc, which handles scalar problems only."""
    if op is not None and op.components > 1 and integrator == "picard_voc":
        errors.append(
            f"problem.operator.components: {op.components} components need the imex integrator, "
            f"but {key} is picard_voc, which handles scalar problems only"
        )


def _check_initial(cfg: dict, op, errors: list):
    """Reject a system: every initial-data kind is scalar, so no datum can start it."""
    if op is not None and op.components > 1:
        errors.append(
            f"problem.operator.components: {op.components} components, but problem.initial.kind "
            f"{cfg.get('problem', cfg)['initial']['kind']!r} gives one, as every initial kind is scalar"
        )


def _norm_rows(members, p: float, order_half: int):
    """Per snapshot: t, the L2, L^p and Besov norms of members[0], and the Besov sup over members."""
    grid = members[0].fields[0].grid
    params = NormParams(p=p, m=order_half, dyadic_blocks=_fit_blocks(grid))
    rows = []
    for j, t in enumerate(members[0].times):
        f = members[0].fields[j]
        besov = _besov_norms(np.stack([m.fields[j].values for m in members]), grid, params)
        rows.append((float(np.real(t)), lp_norm(f, 2.0), lp_norm(f, p), besov[0], max(besov)))
    return rows


def _stride_indices(n: int, limit: int = 60):
    step = max(1, (n - 1) // limit or 1)
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(cfg, out_dir, rng, record):
    errors = []
    run = _section(cfg, "run", errors)
    horizon = _number(run, "run", "horizon", errors, required=True, strict_min=0.0)
    t0 = _number(run, "run", "t0", errors, default=0.0, minimum=0.0)
    problem, grid = _build_problem(cfg, horizon or 1.0, errors)
    _check_norm_grid(grid, errors)
    config = _build_solver_config(cfg, errors)
    if problem is not None and config is not None:
        _check_integrator(problem.op, config.integrator, errors)
    if problem is not None:
        _check_initial(cfg, problem.op, errors)
    if errors:
        raise _Invalid(errors)

    result = record("solve", lambda: solve_real(problem, t0, horizon, config))
    if result is None:
        return []
    files = []
    idx = _stride_indices(len(result.times))
    mesh = grid.meshgrid()
    head = ["t", "x1"] + (["x2"] if grid.dim == 2 else []) + ["component", "re_u", "im_u"]
    rows = []
    for j in idx:
        t = float(np.real(result.times[j]))
        vals = result.fields[j].values
        for comp in range(vals.shape[0]):
            flat = vals[comp].reshape(-1)
            coords = mesh.reshape(grid.dim, -1)
            for kk in range(flat.size):
                rows.append((t, *[float(coords[ax, kk]) for ax in range(grid.dim)],
                             comp, float(flat[kk].real), float(flat[kk].imag)))
    files.append(write_csv(out_dir, "trajectory.csv", head, rows))
    norm_rows = record("norms", lambda: _norm_rows([result], config.p, problem.op.order_half))
    if norm_rows is not None:
        files.append(write_csv(out_dir, "norms.csv", ["t", "l2", "lp", "besov", "strip_norm"], norm_rows))
        ts = [r[0] for r in norm_rows]
        files.append(write_svg(out_dir, "norms.svg",
                               [("l2", ts, [r[1] for r in norm_rows]),
                                ("besov", ts, [r[3] for r in norm_rows])],
                               "solution norms", "t", "norm"))
    if grid.dim == 1:
        x = grid.axis_nodes()
        final = result.final.values[0]
        files.append(write_svg(out_dir, "final_state.svg",
                               [("re u", x, final.real), ("im u", x, final.imag)],
                               "final state", "x", "u"))
    checks = [("solve_finite", float(lp_norm(result.final, 2.0)), "finite", bool(np.isfinite(lp_norm(result.final, 2.0))))]
    return files, checks


def _cmd_verify_analyticity(cfg, out_dir, rng, record):
    errors = []
    run = _section(cfg, "run", errors)
    horizon = _number(run, "run", "horizon", errors, required=True, strict_min=0.0)
    block = _section(cfg, "analyticity", errors)
    y_max = _number(block, "analyticity", "y_half_width", errors, required=True, strict_min=0.0)
    n_shifts = block.get("n_shifts", 9)
    if not (isinstance(n_shifts, int) and n_shifts >= 5 and n_shifts % 2 == 1):
        errors.append(f"analyticity.n_shifts: must be an odd integer >= 5, got {n_shifts!r}")
        n_shifts = 9
    times = block.get("times", [horizon] if horizon else [])
    strides = block.get("strides", [1, 2, 4])
    d_mus = block.get("d_mu", [0.05, 0.025])
    rho = _number(block, "analyticity", "rho", errors, default=(horizon or 1.0) * 0.5, strict_min=0.0)
    mu_re = _number(block, "analyticity", "mu_center_re", errors, default=1.0)
    mu_im = _number(block, "analyticity", "mu_center_im", errors, default=0.0)
    path = _section(block, "path", [], required=False, label="analyticity.path") or {}
    sigma = float(path.get("sigma", horizon or 1.0))
    tau = float(path.get("tau", 0.1 * (horizon or 1.0)))
    t_primes = [float(v) for v in path.get("t_primes", [0.4 * sigma, 0.6 * sigma])]
    hardy = _section(block, "hardy", [], required=False, label="analyticity.hardy") or {}
    hardy_p = float(hardy.get("p", 4.0))
    hardy_c0 = float(hardy.get("c0", 1.0))
    problem, grid = _build_problem(cfg, horizon or 1.0, errors)
    _check_norm_grid(grid, errors)
    config = _build_solver_config(cfg, errors)
    if problem is not None and config is not None:
        _check_integrator(problem.op, config.integrator, errors)
    if problem is not None:
        _check_initial(cfg, problem.op, errors)
    if problem is not None and y_max is not None and not problem.data_strip.contains(1j * y_max):
        errors.append(
            f"analyticity.y_half_width: {y_max!r} must lie inside the coefficient strip, "
            f"problem.operator.strip_half_width = {problem.data_strip.half_width!r}"
        )
    if not (isinstance(strides, list) and strides and all(
            isinstance(s, int) and s >= 1 for s in strides)):
        errors.append(f"analyticity.strides: must be a nonempty list of positive integers, got {strides!r}")
        strides = [1]
    if errors:
        raise _Invalid(errors)

    y_line = np.linspace(-y_max, y_max, n_shifts)
    # the family shifts along the first axis: y -> (y, 0) on a 2-D grid
    y_grid = np.column_stack([y_line] + [np.zeros_like(y_line)] * (grid.dim - 1))
    family = record("shift_family",
                    lambda: solve_shift_family(problem, y_grid, 0.0, horizon, config))
    files, checks = [], []
    if family is not None:
        def space_rows():
            dy = y_line[1] - y_line[0]
            rows = []
            for stride in strides:
                if (n_shifts - 1) // stride < 2:
                    continue
                for t in times:
                    rows.append((stride * dy, float(t), cr_residual_space(family, t, stride=stride)))
            return rows

        rows = record("cr_space", space_rows)
        if rows is not None:
            files.append(write_csv(out_dir, "cr_space.csv", ["dy", "t", "residual"], rows))
            per_t = {}
            for dy_eff, t, res in rows:
                per_t.setdefault(t, []).append((dy_eff, res))
            orders = []
            for t, pairs in per_t.items():
                pairs.sort()
                for (d1, r1), (d2, r2) in zip(pairs, pairs[1:]):
                    if r1 > 0 and r2 > 0:
                        orders.append(math.log(r2 / r1) / math.log(d2 / d1))
            if orders:
                worst = min(orders)
                checks.append(("cr_space_order", worst, ">= 1.9", worst >= 1.9))
            files.append(write_svg(out_dir, "cr_space.svg",
                                   [(f"t={t:g}", [p[0] for p in sorted(pairs)], [p[1] for p in sorted(pairs)])
                                    for t, pairs in per_t.items()],
                                   "spatial CR residual", "dy", "residual", log_y=True))

        norm_rows = record("family_norms", lambda: _norm_rows(
            list(family.results.values()), config.p, problem.op.order_half))
        if norm_rows is not None:
            files.append(write_csv(out_dir, "norms.csv", ["t", "l2", "lp", "besov", "strip_norm"], norm_rows))

    def time_rows():
        widths = [float(d_mu) for d_mu in d_mus]
        residuals = cr_residual_time(problem, complex(mu_re, mu_im), widths, rho, config)
        return [(d_mu, rho, residual) for d_mu, residual in zip(widths, residuals)]

    rows = record("cr_time", time_rows)
    if rows is not None:
        files.append(write_csv(out_dir, "cr_time.csv", ["d_mu", "rho", "residual"], rows))

    def path_rows():
        ends = {}
        for tp in t_primes:
            ends[tp] = solve_along_path(problem, sigma, tau, tp, config)
        rows = []
        spread = 0.0
        for i, a in enumerate(t_primes):
            for b in t_primes[i + 1:]:
                gap = float(np.max(np.abs(ends[a].final.values - ends[b].final.values)))
                spread = max(spread, gap)
                rows.append((sigma, tau, a, b, gap))
        return rows, spread, ends

    out = record("path_independence", path_rows)
    if out is not None:
        rows, spread, ends = out
        files.append(write_csv(out_dir, "path_independence.csv",
                               ["sigma", "tau", "t_prime_a", "t_prime_b", "spread"], rows))
        checks.append(("path_spread", spread, "< 1e-6", spread < 1e-6))

        def hardy_rows():
            hrows = []
            traj = ends[t_primes[0]]
            parts = hardy_integral(traj, hardy_p, hardy_c0, problem.op.order_half)
            hrows.append((0.0, tau, parts["du_dt"], parts["derivatives"], parts["total"]))
            return hrows

        hrows = record("hardy", hardy_rows)
        if hrows is not None:
            files.append(write_csv(out_dir, "hardy.csv",
                                   ["y", "tau", "lhs_du_dt", "lhs_derivs", "total"], hrows))
    return files, checks


def _xva_point(params, payoff, grid, horizon, config):
    surfaces = compute_xva_surfaces(params, payoff, grid, horizon, config)
    atm = [math.log(payoff.strike) if payoff.kind != "hermite_expansion" else 0.0]
    atm += [0.0] * (grid.dim - 1)
    xva_atm = float(np.real(evaluate_at(
        ComplexField(grid, surfaces["xva"]), atm))[0])
    gap = float(np.max(np.abs(surfaces["nonlinear"].final.values - surfaces["linear"].final.values)))
    return surfaces, xva_atm, gap


def _cmd_xva(cfg, out_dir, rng, record):
    errors = []
    block = _section(cfg, "xva", errors)
    horizon = _number(block, "xva", "horizon", errors, required=True, strict_min=0.0)
    pblock = _section(block, "params", [], required=False, label="xva.params")
    if not pblock:
        errors.append("xva.params: required section is missing")
    params = None
    if pblock:
        try:
            params = XvaParams(**pblock)
        except (ParastripError, TypeError) as exc:
            errors.append(f"xva.params: {exc}")
    grid = _build_grid(cfg, errors) if "grid" in cfg else make_grid(1, 6.0, 256)
    payoff = None
    pay = _section(block, "payoff", [], required=False, label="xva.payoff")
    if not pay:
        errors.append("xva.payoff: required section is missing")
    elif params is not None and grid is not None:
        try:
            payoff = PayoffSpec(
                kind=pay.get("kind", "smoothed_call"),
                strike=pay.get("strike"),
                epsilon=pay.get("epsilon", params.epsilon),
                admissible_half_width=pay.get("admissible_half_width"),
            ) if pay.get("kind", "smoothed_call") != "hermite_expansion" else None
            if payoff is None:
                base = PayoffSpec(kind=pay.get("from", "smoothed_call"),
                                  strike=pay.get("strike"),
                                  epsilon=pay.get("epsilon", params.epsilon))
                payoff = hermite_payoff_fit(base, grid.half_length,
                                            n_terms=pay.get("n_terms", 40))
        except ParastripError as exc:
            errors.append(f"xva.payoff: {exc}")
    config = _build_solver_config(cfg, errors) if "solver" in cfg else None
    sweep = cfg.get("sweep", {})
    eps_list = sweep.get("epsilon", []) if isinstance(sweep, dict) else []
    if errors:
        raise _Invalid(errors)

    files, checks = [], []
    base = record("xva_price", lambda: _xva_point(params, payoff, grid, horizon, config))
    if base is not None:
        surfaces, xva_atm, gap = base
        idx = _stride_indices(len(surfaces["riskfree"].times), limit=12)
        x = grid.axis_nodes()
        center = grid.points_per_axis // 2
        rows = []
        for j in idx:
            t = float(np.real(surfaces["riskfree"].times[j]))

            def slice_of(res):
                vals = res.fields[j].values[0]
                return vals if grid.dim == 1 else vals[:, center]

            v = slice_of(surfaces["riskfree"])
            vn = slice_of(surfaces["nonlinear"])
            vl = slice_of(surfaces["linear"])
            for kk in range(x.size):
                rows.append((float(x[kk]), t, float(v[kk].real), float(vn[kk].real),
                             float(vl[kk].real), float((vn[kk] - v[kk]).real)))
        files.append(write_csv(out_dir, "xva.csv",
                               ["X", "tau", "V", "V_hat_nonlinear", "V_hat_linear", "xva"], rows))
        final_v = surfaces["riskfree"].final.values[0]
        final_vn = surfaces["nonlinear"].final.values[0]
        if grid.dim == 2:
            final_v, final_vn = final_v[:, center], final_vn[:, center]
        files.append(write_svg(out_dir, "prices.svg",
                               [("V", x, final_v.real), ("V_hat", x, final_vn.real),
                                ("xva", x, (final_vn - final_v).real)],
                               "prices at final tau", "X", "value"))
        checks.append(("xva_at_atm", xva_atm, "reported", True))
        checks.append(("sup_diff_linear_nonlinear", gap, "reported", True))
        if params.s_F > 0.0 and params.lambda_B == 0.0 and params.lambda_C == 0.0:
            bound = params.epsilon * params.s_F * horizon / math.pi + 1e-8
            worst = float(np.max(np.real(surfaces["xva"])))
            checks.append(("xva_sign_bound", worst, f"<= {bound:.3e}", worst <= bound))

    if eps_list:
        def one_eps(eps):
            p_eps = replace(params, epsilon=float(eps))
            pay_eps = payoff
            if payoff.kind != "hermite_expansion":
                pay_eps = PayoffSpec(kind=payoff.kind, strike=payoff.strike, epsilon=float(eps))
            _, xva_atm, gap = _xva_point(p_eps, pay_eps, grid, horizon, config)
            return float(eps), xva_atm, gap

        rows = record("epsilon_sweep", lambda: [one_eps(e) for e in eps_list])
        if rows is not None:
            files.append(write_csv(out_dir, "xva_sweep.csv",
                                   ["epsilon", "xva_at_atm", "sup_diff_linear_nonlinear"], rows))
            files.append(write_svg(out_dir, "xva_sweep.svg",
                                   [("|xva| at the money", [r[0] for r in rows],
                                     [abs(r[1]) for r in rows])],
                                   "adjustment vs smoothing scale", "epsilon", "value", log_y=True))
    return files, checks


def _cmd_ellipticity(cfg, out_dir, rng, record):
    errors = []
    grid = _build_grid(cfg, errors)
    temporal = _build_temporal(cfg, 1.0, errors)
    op = _build_operator(cfg, grid, temporal, errors, literal_heston=True)
    block = _section(cfg, "ellipticity", errors, required=False)
    n_thetas = block.get("n_thetas", 9)
    if not (isinstance(n_thetas, int) and n_thetas >= 1):
        errors.append(f"ellipticity.n_thetas: must be a positive integer, got {n_thetas!r}")
        n_thetas = 9
    n_dirs = block.get("n_directions", 8)
    n_fields = block.get("n_fields", 12)
    t_points = [float(v) for v in block.get("t_points", [0.0])]
    if errors:
        raise _Invalid(errors)

    thetas = np.linspace(-op.temporal.angle, op.temporal.angle, n_thetas)
    if "z_points" in block:
        z_points = [np.asarray(z, dtype=np.complex128).reshape(op.dim) for z in block["z_points"]]
    else:
        nodes = grid.axis_nodes()[:: max(1, grid.points_per_axis // 8)]
        if op.dim == 1:
            z_points = [np.array([x], dtype=np.complex128) for x in nodes]
        else:
            z_points = [np.array([x, y], dtype=np.complex128) for x in nodes for y in nodes]
    fields = random_band_limited_fields(grid, op.components, n_fields, rng)

    def one_theta(theta):
        samples = ellipticity_samples(op, z_points, t_points, rng=np.random.default_rng(
            rng.integers(2 ** 63)), thetas=[theta], n_directions=n_dirs)
        c_hat = estimate_ellipticity_constant(op, samples)
        fit = verify_garding(op, fields, thetas=(theta,), t_points=t_points)
        return float(theta), c_hat, fit.c1, fit.c2

    rows = record("ellipticity_sweep", lambda: [one_theta(t) for t in thetas])
    files, checks = [], []
    if rows is not None:
        files.append(write_csv(out_dir, "ellipticity.csv",
                               ["theta", "c_hat", "garding_c1", "garding_c2"], rows))
        files.append(write_svg(out_dir, "ellipticity.svg",
                               [("c_hat", [r[0] for r in rows], [r[1] for r in rows]),
                                ("garding_c1", [r[0] for r in rows], [r[2] for r in rows])],
                               "coercivity across the sector", "theta", "constant"))
        mid = rows[len(rows) // 2]
        checks.append(("c_hat_at_zero", mid[1], "> 0", mid[1] > 0.0))
    return files, checks


def _cmd_maxreg(cfg, out_dir, rng, record):
    errors = []
    grid = _build_grid(cfg, errors)
    temporal = _build_temporal(cfg, 1.0, errors)
    op = _build_operator(cfg, grid, temporal, errors)
    block = _section(cfg, "maxreg", errors)
    horizons = block.get("horizons", [0.25, 0.5, 1.0])
    if not (isinstance(horizons, list) and horizons and all(
            isinstance(h, (int, float)) and h > 0 for h in horizons)):
        errors.append(f"maxreg.horizons: must be a nonempty list of positive numbers, got {horizons!r}")
    p = _number(block, "maxreg", "p", errors, default=2.0, strict_min=1.0)
    count = block.get("samples", 20)
    if not (isinstance(count, int) and count >= 3):
        errors.append(f"maxreg.samples: must be an integer >= 3, got {count!r}")
        count = 20
    config = _build_solver_config(cfg, errors) if "solver" in cfg else None
    if config is not None or "solver" not in cfg:
        _check_integrator(op, config.integrator if config is not None else "picard_voc", errors)
    if errors:
        raise _Invalid(errors)

    horizons = sorted(float(h) for h in horizons)
    support = float(block.get("support", horizons[0]))
    ensemble = default_maxreg_ensemble(grid, op.components, count, rng, support=support)
    estimates = record("maxreg_estimate",
                       lambda: estimate_max_reg_constant(op, grid, horizons, p, ensemble, config))
    files, checks = [], []
    if estimates is not None:
        rows = [(t, p, estimates[t]) for t in horizons]
        files.append(write_csv(out_dir, "maxreg.csv", ["T", "p", "M_hat"], rows))
        files.append(write_svg(out_dir, "maxreg.svg",
                               [("M_hat", horizons, [estimates[t] for t in horizons])],
                               "maximal regularity constant", "T", "M_hat"))
        vals = [estimates[t] for t in horizons]
        mono = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        checks.append(("maxreg_monotone_in_T", float(vals[-1]), "nondecreasing", mono))
    return files, checks


def _cmd_convergence(cfg, out_dir, rng, record):
    errors = []
    run = _section(cfg, "run", errors)
    horizon = _number(run, "run", "horizon", errors, required=True, strict_min=0.0)
    block = _section(cfg, "convergence", errors, required=False)
    dts = block.get("dts")
    if dts is None:
        base = _number(block, "convergence", "base_dt", errors, default=(horizon or 1.0) / 50.0,
                       strict_min=0.0)
        levels = block.get("levels", 4)
        if not (isinstance(levels, int) and levels >= 2):
            errors.append(f"convergence.levels: must be an integer >= 2, got {levels!r}")
            levels = 4
        dts = [base / 2 ** j for j in range(levels)]
    problem, grid = _build_problem(cfg, horizon or 1.0, errors)
    if problem is not None:
        _check_integrator(problem.op, "picard_voc", errors, key="the convergence sweep's first integrator")
    if errors:
        raise _Invalid(errors)

    def one_dt(dt):
        diffs = []
        for integ in ("picard_voc", "imex"):
            cfg_i = _build_solver_config(cfg, [], dt=dt, integrator=integ, snapshot_stride=10 ** 9)
            diffs.append(solve_real(problem, 0.0, horizon, cfg_i).final.values)
        return float(np.max(np.abs(diffs[0] - diffs[1])))

    gaps = record("dt_sweep", lambda: [one_dt(dt) for dt in dts])
    files, checks = [], []
    if gaps is not None:
        rows = []
        for j, dt in enumerate(dts):
            order = math.nan
            if j > 0 and gaps[j] > 0 and gaps[j - 1] > 0:
                order = math.log(gaps[j - 1] / gaps[j]) / math.log(dts[j - 1] / dts[j])
            rows.append((float(dt), gaps[j], order))
        files.append(write_csv(out_dir, "convergence.csv", ["dt", "sup_diff", "order"], rows))
        files.append(write_svg(out_dir, "convergence.svg",
                               [("cross-integrator gap", dts, gaps)],
                               "integrator agreement under dt refinement", "dt", "sup diff",
                               log_y=True))
        orders = [r[2] for r in rows[1:] if np.isfinite(r[2])]
        if orders:
            worst = min(orders)
            checks.append(("cross_integrator_order", worst, ">= 1.9", worst >= 1.9))
    return files, checks


_RUNNERS = {
    "solve": _cmd_solve,
    "verify-analyticity": _cmd_verify_analyticity,
    "xva": _cmd_xva,
    "ellipticity": _cmd_ellipticity,
    "maxreg": _cmd_maxreg,
    "convergence": _cmd_convergence,
}


# ---------------------------------------------------------------------------
# entry point

def _machine_error(kind: str, detail) -> str:
    return json.dumps({"error": kind, "detail": detail}, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parastrip",
        description="solve and verify analytic-in-space-and-time parabolic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--output", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and recorded in the manifest; every run is serial")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(_machine_error("unreadable config", str(exc)), file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print(_machine_error("invalid configuration", ["top level: must be a JSON object"]),
              file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    if seed < 0:
        print(_machine_error("invalid configuration", ["seed: must be a nonnegative integer"]),
              file=sys.stderr)
        return 2
    jobs = max(1, int(args.jobs))
    out_dir = Path(args.output or cfg.get("output_dir", "parastrip-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    job_status = []

    def record(name, fn):
        """Run one job; failures are recorded and the run continues."""
        try:
            out = fn()
        except Exception as exc:
            job_status.append({"name": name, "status": "failed", "error": f"{type(exc).__name__}: {exc}"})
            return None
        job_status.append({"name": name, "status": "ok"})
        return out

    try:
        result = _RUNNERS[args.command](cfg, out_dir, rng, record)
    except _Invalid as exc:
        print(_machine_error("invalid configuration", exc.violations), file=sys.stderr)
        return 2
    files, checks = result if isinstance(result, tuple) else (result, [])
    files = list(files)
    files.extend(emit_report(checks, out_dir))

    manifest = {
        "command": args.command,
        "config_hash": _config_digest(cfg),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "seed": seed,
        "jobs": jobs,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "parastrip": __version__,
        },
        "job_status": job_status,
        "files": sorted(set(files + ["manifest.json"])),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    failed_jobs = [j for j in job_status if j["status"] != "ok"]
    failed_checks = [c for c in checks if not c[3]]
    if failed_jobs:
        print(_machine_error("jobs failed", failed_jobs), file=sys.stderr)
        return 1
    if failed_checks:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
