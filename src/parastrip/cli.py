"""Configuration-driven experiment runner.

``parastrip <command> --config <path> [--output <dir>] [--seed <u64>]
[--jobs <k>]`` reads a single JSON tree, checks it against the config tables
of the chosen command (``_TOP`` and the tables it nests: one per section),
runs the jobs one after another, and writes canonical CSV tables,
optional SVG line charts, a pass/fail report, and a manifest indexing every
emitted file.  Identical config and seed give byte identical CSVs.
``--jobs`` is accepted and recorded in the manifest but ignored.
"""

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

# CPython's builtin sha256 gives hashlib's digest; hashlib itself loads OpenSSL (3.5 MB of RSS)
try:
    from _sha2 import sha256 as _sha256             # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256       # 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from .analyticity import _NO_SNAPSHOTS, _at_times, _distinct_splits, _NormTable, _study, _usable_strides
from .errors import ConfigurationError, ParastripError
from .grid import _EXP_OVERFLOW, ComplexField, HermiteData, StripSpec, make_grid, sample_on_shifted_grid
from .norms import _fit_blocks, lp_norm
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
    _check_support,
    _max_reg_time_grid,
    default_maxreg_ensemble,
    estimate_max_reg_constant,
    solve_real,
)
from .xva import (
    _HESTON_KEYS,
    PayoffSpec,
    XvaParams,
    _pricing_generator,
    bs_log_generator,
    evaluate_at,
    hermite_payoff_fit,
    heston_chart_generator,
    heston_generator,
    price_riskfree,
    price_xva_linear,
    price_xva_nonlinear,
)

FLOAT_FMT = "%.12e"
COMMANDS = ("solve", "verify-analyticity", "xva", "ellipticity", "maxreg", "convergence")


# ---------------------------------------------------------------------------
# emission helpers

def _row_format(kinds: tuple):
    """The %-template of a row of cells of types ``kinds``: bool -> true/false, int -> %d,
    float -> FLOAT_FMT, anything else -> %s.

    Returns the template and the positions of bool cells, which
    ``_format_row`` spells out first.
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


def _format_row(row: tuple, formats: dict) -> str:
    """``row``'s cells as ``_row_format`` spells them, comma-joined; ``formats`` caches its templates."""
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
    return template % row


def _fmt_cell(v) -> str:
    return _format_row((v,), {})


def write_csv(out_dir: Path, name: str, header, rows) -> str:
    """One %-format per row, its template chosen once per sequence of cell types."""
    formats = {}
    lines = [",".join(header)] + [_format_row(tuple(row), formats) for row in rows]
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
    files = [write_csv(out_dir, "report.csv", ["name", "value", "target", "status"],
                       [(n, v, t, "pass" if ok else "fail") for n, v, t, ok in checks])]
    lines = [f"[{'PASS' if ok else 'FAIL'}] {n}: {_fmt_cell(v)} (target {t})" for n, v, t, ok in checks]
    n_pass = sum(1 for check in checks if check[3])
    lines.append(f"{n_pass}/{len(checks)} checks passed" if checks else "no checks recorded")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    files.append("report.txt")
    return files



# ---------------------------------------------------------------------------
# config tables

REQUIRED = object()
_ALL = frozenset(COMMANDS)
_NOT_XVA = _ALL - {"xva"}
_SOLVING = frozenset({"solve", "verify-analyticity", "convergence"})


@dataclass(frozen=True)
class Key:
    """One config key: the type and bounds of its value, its default, and the commands that read it.

    ``kind`` is a type of ``_KINDS``, ``enum``, ``object`` or ``objects``; ``gt``, ``ge`` and
    ``le`` bound a number, an integer or each entry of a list.  REQUIRED makes a key
    mandatory; a None default leaves the value to the library or to other keys.  ``of``
    holds an enum's choices (a dict maps each to the keys it brings) or the table of an
    object or of each entry of a list.  Commands outside ``cmds`` accept the key unread.
    """

    name: str
    kind: str
    default: object = None
    gt: float = None
    ge: float = None
    le: float = None
    of: object = None
    cmds: frozenset = _ALL


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _finite_array(v):
    """``v`` as a float array when it nests lists of finite numbers evenly, else None."""
    try:
        array = np.asarray(v) if isinstance(v, list) else None
    except ValueError:
        return None
    ok = array is not None and array.size > 0 and array.dtype.kind in "if" and np.isfinite(array).all()
    return array.astype(np.float64) if ok else None


_KINDS = {  # kind: (what a value must be, its test, its conversion)
    "number": ("a finite number", _is_finite, float),
    "int": ("an integer", _is_int, int),
    "pow2": ("a power of two", lambda v: _is_int(v) and v > 0 and v & (v - 1) == 0, int),
    "odd": ("an odd integer", lambda v: _is_int(v) and v % 2 == 1, int),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "numbers": ("a nonempty list of finite numbers",
                lambda v: isinstance(v, list) and v and all(map(_is_finite, v)),
                lambda v: [float(x) for x in v]),
    "ints": ("an integer or a nonempty list of integers",
             lambda v: _is_int(v) or isinstance(v, list) and v and all(map(_is_int, v)),
             lambda v: [v] if _is_int(v) else list(v)),
    "array": ("a nonempty, evenly nested list of finite numbers",
              lambda v: _finite_array(v) is not None, _finite_array),
}


def _record_keys(record, **of) -> tuple:
    """A key per field of the dataclass ``record``, which checks the values: REQUIRED without a default,
    else None, which leaves the value to the record; a field named in ``of`` is an object of that table."""
    kinds = {float: "number", int: "int", str: "string", bool: "enum"}
    return tuple(Key(f.name, "object" if f.name in of else kinds[f.type], REQUIRED if f.default is MISSING else None,
                     of=of.get(f.name, (True, False) if f.type is bool else None)) for f in fields(record))


_STRIP = Key("strip_half_width", "number", math.inf, gt=0.0)
_HESTON = tuple(Key(name, "number", REQUIRED) for name in _HESTON_KEYS)
_MARKET = (Key("sigma", "number", 0.2), Key("q_S", "number", 0.0), Key("gamma_S", "number", 0.0))
_OPERATOR = (Key("kind", "enum", REQUIRED, of={
    "heat": (_STRIP, Key("diffusivity", "number", 1.0, gt=0.0)),
    "variable_heat": (_STRIP, Key("base", "number", 1.0, gt=0.0),
                      Key("variation", "number", 0.25, ge=0.0, le=0.95), Key("wavenumber", "int", 1, ge=1)),
    "bs": _MARKET,
    "heston": _MARKET + (Key("heston", "object", REQUIRED, of=_HESTON),),
    "heston_chart": _MARKET + (Key("heston", "object", REQUIRED, of=_HESTON), Key("v_center", "number")),
    "custom": (_STRIP, Key("order_half", "int", 1), Key("components", "int", 1),
               Key("terms", "objects", REQUIRED, of=(
                   Key("alpha", "ints", REQUIRED), Key("beta", "ints", REQUIRED),
                   Key("re", "number", 0.0), Key("im", "number", 0.0)))),
}),)
_INITIAL = (Key("kind", "enum", REQUIRED, of={
    "gaussian": (Key("amplitude", "number", 1.0), Key("width", "number", 1.0, ge=1e-150), Key("center", "numbers")),
    "hermite": (Key("coeffs", "array", REQUIRED), Key("basis", "string", "hermite")),
    "mode": (Key("index", "ints"), Key("amplitude", "number", 1.0)),
}),)
_REACTION = (Key("kind", "enum", "none", of={
    "none": (),
    "linear": (Key("rate", "number", 0.0), Key("rate_im", "number", 0.0)),
    "quadratic_surrogate": (Key("strength", "number", 1.0),),
}),)
_SOURCE = (Key("kind", "enum", "none", of={
    "none": (),
    "modulated": (Key("datum", "object", REQUIRED, of=_INITIAL), Key("rate", "number", 0.0)),
}),)
_SOLVER = _record_keys(SolverConfig)
_XVA_PARAMS = _record_keys(XvaParams, heston=_HESTON)
_SMOOTHED = (Key("strike", "number", REQUIRED), Key("epsilon", "number"), Key("admissible_half_width", "number"))
_PAYOFF = (Key("kind", "enum", "smoothed_call", of={  # PayoffSpec checks the values
    "smoothed_call": _SMOOTHED,
    "smoothed_put": _SMOOTHED,
    "hermite_expansion": (Key("from", "enum", "smoothed_call", of=("smoothed_call", "smoothed_put")),
                          Key("strike", "number", REQUIRED), Key("epsilon", "number"), Key("n_terms", "int", 40)),
}),)
_ANALYTICITY = (
    Key("y_half_width", "number", REQUIRED, gt=0.0), Key("n_shifts", "odd", 9, ge=5),
    Key("times", "numbers"), Key("strides", "ints", [1, 2, 4], ge=1), Key("d_mu", "numbers", [0.05, 0.025]),
    Key("rho", "number", gt=0.0), Key("mu_center_re", "number", 1.0), Key("mu_center_im", "number", 0.0),
    Key("path", "object", {}, of=(Key("sigma", "number"), Key("tau", "number"), Key("t_primes", "numbers"))),
    Key("hardy", "object", {}, of=(Key("p", "number", 4.0), Key("c0", "number", 1.0))),
)
_GRID = (Key("dim", "enum", 1, of=(1, 2)), Key("half_length", "number", REQUIRED, gt=0.0),
         Key("points_per_axis", "pow2", REQUIRED, ge=8))
_TOP = (
    Key("seed", "int", 0, ge=0),
    Key("output_dir", "string", "parastrip-out"),
    Key("grid", "object", REQUIRED, of=_GRID, cmds=_NOT_XVA),
    Key("grid", "object", {"half_length": 6.0, "points_per_axis": 256}, of=_GRID, cmds={"xva"}),
    Key("run", "object", REQUIRED, cmds=_SOLVING, of=(
        Key("horizon", "number", REQUIRED, gt=0.0), Key("t0", "number", 0.0, ge=0.0, cmds={"solve"}))),
    Key("temporal", "object", {}, cmds=_NOT_XVA, of=(
        Key("angle", "number", 0.25 * math.pi), Key("t_prime", "number", gt=0.0),
        Key("horizon", "number", gt=0.0))),
    Key("problem", "object", REQUIRED, cmds=_NOT_XVA, of=(
        Key("operator", "object", REQUIRED, of=_OPERATOR),
        Key("initial", "object", REQUIRED, of=_INITIAL, cmds=_SOLVING),
        Key("reaction", "object", {}, of=_REACTION, cmds=_SOLVING),
        Key("source", "object", {}, of=_SOURCE, cmds=_SOLVING))),
    Key("solver", "object", of=_SOLVER, cmds=_ALL - {"ellipticity"}),
    Key("analyticity", "object", REQUIRED, of=_ANALYTICITY, cmds={"verify-analyticity"}),
    Key("xva", "object", REQUIRED, cmds={"xva"}, of=(
        Key("horizon", "number", REQUIRED, gt=0.0), Key("params", "object", REQUIRED, of=_XVA_PARAMS),
        Key("payoff", "object", REQUIRED, of=_PAYOFF))),
    Key("sweep", "object", {}, of=(Key("epsilon", "numbers"),), cmds={"xva"}),
    Key("ellipticity", "object", {}, cmds={"ellipticity"}, of=(
        Key("n_thetas", "int", 9, ge=1), Key("n_directions", "int", 8, ge=1), Key("n_fields", "int", 12, ge=1),
        Key("t_points", "numbers", [0.0]), Key("z_points", "array"))),
    Key("maxreg", "object", REQUIRED, cmds={"maxreg"}, of=(
        Key("horizons", "numbers", [0.25, 0.5, 1.0], gt=0.0), Key("p", "number", 2.0, gt=1.0),
        Key("samples", "int", 20, ge=3), Key("support", "number", gt=0.0))),
    Key("convergence", "object", {}, cmds={"convergence"}, of=(
        Key("dts", "numbers", gt=0.0), Key("base_dt", "number", gt=0.0), Key("levels", "int", 4, ge=2))),
)


# ---------------------------------------------------------------------------
# the walk

class _Invalid(Exception):
    def __init__(self, violations):
        super().__init__("invalid configuration")
        self.violations = list(violations)


def _config_digest(cfg) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return _sha256(canon.encode()).hexdigest()


def _check(v, key: Key, name: str, command: str, errors: list):
    """``v`` as ``key`` reads it, or None with the violation recorded under ``name``."""
    if key.kind == "object":
        return _walk(v, key.of, name, command, errors)
    if key.kind == "objects":
        if isinstance(v, list) and v:
            return [_walk(entry, key.of, f"{name}[{i}]", command, errors) for i, entry in enumerate(v)]
        what = "a nonempty list of objects"
    elif key.kind == "enum":
        # by type too: JSON's true is not the choice 1, nor 1.0 the choice 1
        if any(v == choice and type(v) is type(choice) for choice in key.of):
            return v
        what = "one of " + ", ".join(json.dumps(choice) for choice in key.of)
    else:
        what, test, convert = _KINDS[key.kind]
        value = convert(v) if test(v) else None
        if value is not None and all((key.gt is None or x > key.gt) and (key.ge is None or x >= key.ge)
                                     and (key.le is None or x <= key.le)
                                     for x in (value if isinstance(value, list) else [value])):
            return value
    bounds = [f"{op} {bound:g}" for op, bound in ((">", key.gt), (">=", key.ge), ("<=", key.le))
              if bound is not None]
    errors.append(f"{name}: must be {' and '.join([what] + bounds)}, got {v!r}")
    return None


def _walk(block, table, label: str, command: str, errors: list):
    """The values of ``block`` under ``table`` as ``command`` reads them.

    Each key that ``command`` reads gets its checked value, its default, or
    None after a violation, which goes to ``errors`` as ``section.key: ...``;
    keys outside the table are violations too.
    """
    where = label or "top level"
    if not isinstance(block, dict):
        errors.append(f"{where}: must be an object, got {block!r}")
        return None
    out, keys, judged = {}, list(table), True
    for key in keys:  # a chosen enum value appends the keys it brings
        if command not in key.cmds:
            continue
        name = f"{label}.{key.name}" if label else key.name
        if key.name in block:
            value = _check(block[key.name], key, name, command, errors)
        elif key.default is REQUIRED:
            errors.append(f"{name}: required {'section' if key.kind == 'object' else 'value'} is missing")
            # a missing section's own required keys are named too
            value = _walk({}, key.of, name, command, errors) if key.kind == "object" else None
        elif key.kind == "object" and key.default is not None:
            value = _walk(key.default, key.of, name, command, errors)
        else:
            value = key.default
        out[key.name] = value
        if isinstance(key.of, dict):
            keys.extend(key.of.get(value, ()))
            judged = judged and value in key.of
    unknown = sorted(set(block) - {key.name for key in keys})
    if unknown and judged:  # with its kind unknown, a section's other keys cannot be judged
        errors.append(f"{where}: unknown keys {unknown}")
    return out


# ---------------------------------------------------------------------------
# builders: walked values in, library objects out

def _library(label: str, errors: list, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ParastripError it raises is recorded under ``label``."""
    try:
        return build(*args, **kwargs)
    except ParastripError as exc:
        errors.append(f"{label}: {exc}")
        return None


def _given(values: dict) -> dict:
    """The values the config sets; None leaves a value to the library's default."""
    return {k: v for k, v in values.items() if v is not None}


def _solver_config(solver, errors: list):
    return None if solver is None else _library("solver", errors, SolverConfig, **_given(solver))


def _build_temporal(temporal: dict, horizon: float, errors: list):
    t_prime = horizon if temporal["t_prime"] is None else temporal["t_prime"]
    total = 2.0 * horizon if temporal["horizon"] is None else temporal["horizon"]
    return _library("temporal", errors, TemporalDomain, angle=temporal["angle"],
                    t_prime=min(t_prime, total), horizon=max(total, horizon))


def _build_operator(op: dict, grid, temporal, errors: list, literal_heston: bool = False):
    """The configured operator; ``kind: heston`` only where ``literal_heston`` (ellipticity)."""
    kind = op["kind"]
    if kind == "heston" and not literal_heston:
        errors.append(
            "problem.operator.kind: heston reads the variance as clip(Re v), which is not "
            "holomorphic, and is accepted by ellipticity only; use heston_chart to solve"
        )
        return None

    def build():
        strip = StripSpec(op.get("strip_half_width", math.inf))
        if kind == "custom":
            terms = {(tuple(t["alpha"]), tuple(t["beta"])): complex(t["re"], t["im"]) for t in op["terms"]}
            return DivergenceOperator.from_terms(op["order_half"], op["components"], grid.dim,
                                                 terms, strip, temporal)
        if kind == "heat":
            coeff = op["diffusivity"]
        elif kind == "variable_heat":
            base, ripple, k0 = op["base"], op["variation"], op["wavenumber"] * math.pi / grid.half_length

            def coeff(z, t):
                return base * (1.0 + ripple * np.cos(k0 * np.asarray(z)[0]))
        else:
            params = XvaParams(sigma=op["sigma"], q_S=op["q_S"], gamma_S=op["gamma_S"], heston=op.get("heston"))
            if kind == "bs":
                return bs_log_generator(params, temporal)
            if kind == "heston":
                return heston_generator(params, temporal)
            return heston_chart_generator(params, grid, v_center=op["v_center"], temporal=temporal)[0]
        axes = [tuple(1 if i == ax else 0 for i in range(grid.dim)) for ax in range(grid.dim)]
        return DivergenceOperator.from_terms(1, 1, grid.dim, {(e, e): coeff for e in axes}, strip, temporal,
                                             autonomous=True)

    built = _library("problem.operator", errors, build) if temporal is not None else None
    if built is not None and built.dim != grid.dim:
        errors.append(f"problem.operator.kind: {kind} acts in {built.dim} dimension(s), "
                      f"but grid.dim is {grid.dim}")
        return None
    return built


def _build_initial(initial: dict, grid, errors: list, label: str = "problem.initial"):
    kind = initial["kind"]
    if kind == "hermite":
        return _library(label, errors, HermiteData, np.asarray(initial["coeffs"], dtype=np.complex128),
                        grid.dim, initial["basis"])
    key = "center" if kind == "gaussian" else "index"
    given = initial[key]
    if given is not None and len(given) != grid.dim:
        errors.append(f"{label}.{key}: needs {grid.dim} entries, got {given!r}")
        return None
    amp = initial["amplitude"]
    if kind == "gaussian":
        width = initial["width"]
        center = np.asarray([0.0] * grid.dim if given is None else given, dtype=np.float64)

        def datum(pts):
            pts = np.asarray(pts, dtype=np.complex128)
            quad = sum((pts[ax] - center[ax]) ** 2 for ax in range(grid.dim))
            return amp * np.exp(-quad / (2.0 * width ** 2))

        return datum
    ks = [j * math.pi / grid.half_length for j in ([1] * grid.dim if given is None else given)]

    def datum(pts):
        pts = np.asarray(pts, dtype=np.complex128)
        phase = sum(k * pts[ax] for ax, k in enumerate(ks))
        return amp * np.exp(1j * phase)

    return datum


def _build_reaction(reaction: dict, grid):
    kind = reaction["kind"]
    if kind == "linear":
        rate = complex(reaction["rate"], reaction["rate_im"])

        def react(z, t, X):
            return rate * X[0]
    elif kind == "quadratic_surrogate":
        strength = reaction["strength"]

        def react(z, t, X):
            # deliberately non-holomorphic (conjugate-quadratic); negative control
            return strength * X[0] * np.conj(X[0])
    else:
        return None
    return ReactionSpec(order_half=1, components=1, dim=grid.dim, eval=react)


def _build_source(source: dict, grid, errors: list):
    if source["kind"] == "none":
        return None
    datum, rate = _build_initial(source["datum"], grid, errors, "problem.source.datum"), source["rate"]

    def forcing(t, grid_, shift):
        return sample_on_shifted_grid(datum, grid_, shift).values * np.exp(-rate * t)

    return forcing


def _build_problem(v: dict, horizon: float, errors: list):
    grid, p = make_grid(**v["grid"]), v["problem"]
    op = _build_operator(p["operator"], grid, _build_temporal(v["temporal"], horizon, errors), errors)
    initial = _build_initial(p["initial"], grid, errors)
    source = _build_source(p["source"], grid, errors)
    if errors:
        return None, grid
    return _library("problem", errors, CauchyProblem, grid=grid, op=op, initial=initial,
                    reaction=_build_reaction(p["reaction"], grid), source=source), grid


# ---------------------------------------------------------------------------
# cross-field checks, run after the walk

def _check_integrator(op, integrator: str, errors: list, key: str = "solver.integrator"):
    """Reject a system under picard_voc, which handles scalar problems only."""
    if op is not None and op.components > 1 and integrator == "picard_voc":
        errors.append(
            f"problem.operator.components: {op.components} components need the imex integrator, "
            f"but {key} is picard_voc, which handles scalar problems only"
        )


def _solvable(v: dict, horizon, errors: list):
    """The problem, grid and solver config of solve and verify-analyticity, checked: a grid fine
    enough for the Besov norm tables; a system needs imex, and no initial datum (every kind is
    scalar) starts it."""
    problem, grid = _build_problem(v, horizon, errors)
    config = _solver_config(v["solver"] or {}, errors)
    _library("grid", errors, _fit_blocks, grid)
    op = problem.op if problem is not None else None
    _check_integrator(op, config.integrator if config is not None else None, errors)
    if op is not None and op.components > 1:
        errors.append(
            f"problem.operator.components: {op.components} components, but problem.initial.kind "
            f"{v['problem']['initial']['kind']!r} gives one, as every initial kind is scalar"
        )
    return problem, grid, config


def _orders(steps, errs) -> list:
    """Observed orders log(e_a / e_b) / log(h_a / h_b) of neighbouring steps h and their errors e;
    nan where an error is not positive or two steps are equal."""
    return [math.log(ea / eb) / math.log(ha / hb) if ea > 0 and eb > 0 and ha != hb else math.nan
            for (ha, ea), (hb, eb) in zip(zip(steps, errs), zip(steps[1:], errs[1:]))]


def _order_check(name: str, orders) -> list:
    """The report check that the worst finite order reaches 1.9; none without a finite order."""
    finite = [order for order in orders if math.isfinite(order)]
    return [(name, min(finite), ">= 1.9", min(finite) >= 1.9)] if finite else []


def _stride_indices(n: int, limit: int = 60):
    step = max(1, (n - 1) // limit or 1)
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


# ---------------------------------------------------------------------------
# commands: each takes the walked values, runs its checks, then its jobs

_NORMS = ["t", "l2", "lp", "besov", "strip_norm"]   # the header of every norms.csv


def _cmd_solve(v, out_dir, seed, record):
    errors = []
    horizon = v["run"]["horizon"]
    problem, grid, config = _solvable(v, horizon, errors)
    if errors:
        raise _Invalid(errors)

    result = record("solve", lambda: solve_real(problem, v["run"]["t0"], horizon, config))
    if result is None:
        return [], []
    coords = grid.meshgrid().reshape(grid.dim, -1).tolist()
    size = len(coords[0])
    head = ["t", "x1"] + (["x2"] if grid.dim == 2 else []) + ["component", "re_u", "im_u"]
    rows = []
    for j in _stride_indices(len(result.times)):
        t = float(np.real(result.times[j]))
        for comp, flat in enumerate(result.fields[j].values.reshape(-1, size)):
            rows.extend(zip([t] * size, *coords, [comp] * size, flat.real.tolist(), flat.imag.tolist()))
    files = [write_csv(out_dir, "trajectory.csv", head, rows)]

    def norm_table():
        norms, start = _NormTable(grid, config.p, problem.op.order_half), 0
        for block in result.blocks:
            norms.add(0, result.times[start:start + len(block)], block)
            start += len(block)
        return norms.rows()

    norm_rows = record("norms", norm_table)
    if norm_rows is not None:
        files.append(write_csv(out_dir, "norms.csv", _NORMS, norm_rows))
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
    l2 = float(lp_norm(result.final, 2.0))
    return files, [("solve_finite", l2, "finite", bool(np.isfinite(l2)))]


def _cmd_verify_analyticity(v, out_dir, seed, record):
    errors = []
    horizon, block = v["run"]["horizon"], v["analyticity"]
    y_max, n_shifts, strides, path = block["y_half_width"], block["n_shifts"], block["strides"], block["path"]
    times = [horizon] if block["times"] is None else block["times"]
    rho = 0.5 * horizon if block["rho"] is None else block["rho"]
    sigma = horizon if path["sigma"] is None else path["sigma"]
    tau = 0.1 * horizon if path["tau"] is None else path["tau"]
    t_primes = [0.4 * sigma, 0.6 * sigma] if path["t_primes"] is None else path["t_primes"]
    problem, grid, config = _solvable(v, horizon, errors)
    if problem is not None and not problem.data_strip.contains(1j * y_max):
        errors.append(
            f"analyticity.y_half_width: {y_max!r} must lie inside the coefficient strip, "
            f"problem.operator.strip_half_width = {problem.data_strip.half_width!r}"
        )
    initial = v["problem"]["initial"]
    # at x = center the shifted gaussian is exp(y^2 / (2 width^2)), and the family's norms
    # raise it to the power max(2, p): that must not overflow
    power = max(2.0, config.p) if config is not None else 2.0
    if initial["kind"] == "gaussian" and y_max >= math.sqrt(2.0 * _EXP_OVERFLOW / power) * initial["width"]:
        errors.append(
            f"problem.initial.width: {initial['width']!r} is too narrow for analyticity.y_half_width = "
            f"{y_max!r}: the shift family's norms take exp(y_half_width^2 / (2 width^2)) to the power "
            f"max(2, solver.p) = {power:g}, which must stay below exp({_EXP_OVERFLOW:g})"
        )
    # default splits that round to one value (a subnormal sigma) are the fault of the key that set sigma
    splits = ("analyticity.path.t_primes" if path["t_primes"] is not None
              else "run.horizon" if path["sigma"] is None else "analyticity.path.sigma")
    _library(splits, errors, _distinct_splits, t_primes)
    if None not in (n_shifts, strides):
        _library("analyticity.strides", errors, _usable_strides, n_shifts, strides)
    if errors:
        raise _Invalid(errors)

    out = _study(problem, config, np.linspace(-y_max, y_max, n_shifts), times, horizon, strides,
                 path=(sigma, tau, t_primes), hardy=(block["hardy"]["p"], block["hardy"]["c0"]), record=record,
                 cr_time=(complex(block["mu_center_re"], block["mu_center_im"]), block["d_mu"], rho))
    files, checks = [], []
    rows = out.get("cr_space")
    if rows is not None:
        files.append(write_csv(out_dir, "cr_space.csv", ["dy", "t", "residual"], rows))
        per_t = {}
        for dy_eff, t, res in rows:
            per_t.setdefault(t, []).append((dy_eff, res))
        # each stride against the next smaller one
        checks += _order_check("cr_space_order", [
            order for pairs in per_t.values() for order in _orders(*zip(*sorted(pairs, reverse=True)))])
        files.append(write_svg(out_dir, "cr_space.svg",
                               [(f"t={t:g}", [p[0] for p in sorted(pairs)], [p[1] for p in sorted(pairs)])
                                for t, pairs in per_t.items()],
                               "spatial CR residual", "dy", "residual", log_y=True))
    paths, parts = out.get("path_independence"), out.get("hardy")
    hardy = None if parts is None else [(0.0, tau, parts["du_dt"], parts["derivatives"], parts["total"])]
    for name, header, rows in (("norms", _NORMS, out.get("family_norms")),
                               ("cr_time", ["d_mu", "rho", "residual"], out.get("cr_time")),
                               ("path_independence", ["sigma", "tau", "t_prime_a", "t_prime_b", "spread"], paths),
                               ("hardy", ["y", "tau", "lhs_du_dt", "lhs_derivs", "total"], hardy)):
        if rows is not None:
            files.append(write_csv(out_dir, f"{name}.csv", header, rows))
    if paths is not None:
        spread = max(row[-1] for row in paths)
        checks.append(("path_spread", spread, "< 1e-6", spread < 1e-6))
    return files, checks


def _xva_point(params, payoff, grid, horizon, config, strided=True):
    """The three prices (as ``compute_xva_surfaces`` gives them), the adjustment at the money
    and the sup gap between the two adjusted finals.

    V stores every row: the linear price's source reads it at every time
    node.  The adjusted prices store only the rows at V's strided times,
    which ``xva.csv`` reads, with ``strided``, and otherwise only their finals.
    """
    riskfree = price_riskfree(params, payoff, grid, horizon, config)
    held = riskfree.times[_stride_indices(len(riskfree.times), limit=12)] if strided else []

    def keep(index, times, block):
        return _at_times(times, held)

    nonlinear = price_xva_nonlinear(params, payoff, grid, horizon, config, reference=riskfree, keep=keep)
    linear = price_xva_linear(params, payoff, riskfree, grid, horizon, config, keep=keep)
    for name, res in (("semilinear", nonlinear), ("linearised", linear)):
        # only a halved Picard window moves an adjusted price's time nodes off V's
        missing = [t for t in held if not _at_times(res.times, [t]).any()]
        if missing:
            raise ConfigurationError(
                f"solver.window: a halved Picard window put the {name} price's time nodes off V's "
                f"t = {float(missing[0].real)!r} (solver.dt {res.diagnostics['dt']!r}); choose a "
                "solver.window that is solver.dt times a power of two, or a smaller solver.dt so "
                "that no window halves")
    surfaces = {"riskfree": riskfree, "nonlinear": nonlinear, "linear": linear,
                "xva": nonlinear.final.values - riskfree.final.values}
    atm = [math.log(payoff.strike) if payoff.kind != "hermite_expansion" else 0.0]
    atm += [0.0] * (grid.dim - 1)
    xva_atm = float(np.real(evaluate_at(
        ComplexField(grid, surfaces["xva"]), atm))[0])
    gap = float(np.max(np.abs(nonlinear.final.values - linear.final.values)))
    return surfaces, xva_atm, gap


def _cmd_xva(v, out_dir, seed, record):
    errors = []
    grid, horizon, pay = make_grid(**v["grid"]), v["xva"]["horizon"], v["xva"]["payoff"]
    params = _library("xva.params", errors, XvaParams, **_given(v["xva"]["params"]))
    payoff, sweep = None, []
    if params is not None and _library("xva.params.heston", errors, _pricing_generator, params, grid) is not None:
        epsilon = params.epsilon if pay["epsilon"] is None else pay["epsilon"]
        if pay["kind"] != "hermite_expansion":
            payoff = _library("xva.payoff", errors, PayoffSpec, pay["kind"], pay["strike"], epsilon,
                              admissible_half_width=pay["admissible_half_width"])
        elif (base := _library("xva.payoff", errors, PayoffSpec, pay["from"], pay["strike"], epsilon)) is not None:
            payoff = _library("xva.payoff", errors, hermite_payoff_fit, base, grid.half_length,
                              n_terms=pay["n_terms"])
    for eps in v["sweep"]["epsilon"] or []:
        if payoff is not None:  # each point reprices with its own smoothing scale
            pay_eps = payoff if payoff.kind == "hermite_expansion" else _library(
                "sweep.epsilon", errors, PayoffSpec, payoff.kind, payoff.strike, eps)
            sweep.append((eps, _library("sweep.epsilon", errors, replace, params, epsilon=eps), pay_eps))
    config = _solver_config(v["solver"], errors)
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

        def slice_of(res, j):
            vals = res.fields[j].values[0]
            return vals if grid.dim == 1 else vals[:, center]

        # the adjusted prices hold the rows at V's strided times: the k-th of them is V's idx[k]
        for k, j in enumerate(idx):
            t = float(np.real(surfaces["riskfree"].times[j]))
            vr = slice_of(surfaces["riskfree"], j)
            vn = slice_of(surfaces["nonlinear"], k)
            vl = slice_of(surfaces["linear"], k)
            rows.extend(zip(x.tolist(), [t] * x.size, vr.real.tolist(), vn.real.tolist(),
                            vl.real.tolist(), (vn - vr).real.tolist()))
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

    if sweep:
        rows = record("epsilon_sweep", lambda: [
            (eps, *_xva_point(p_eps, pay_eps, grid, horizon, config, strided=False)[1:])
            for eps, p_eps, pay_eps in sweep])
        if rows is not None:
            files.append(write_csv(out_dir, "xva_sweep.csv",
                                   ["epsilon", "xva_at_atm", "sup_diff_linear_nonlinear"], rows))
            files.append(write_svg(out_dir, "xva_sweep.svg",
                                   [("|xva| at the money", [r[0] for r in rows],
                                     [abs(r[1]) for r in rows])],
                                   "adjustment vs smoothing scale", "epsilon", "value", log_y=True))
    return files, checks


def _cmd_ellipticity(v, out_dir, seed, record):
    errors = []
    grid, block = make_grid(**v["grid"]), v["ellipticity"]
    op = _build_operator(v["problem"]["operator"], grid, _build_temporal(v["temporal"], 1.0, errors), errors,
                         literal_heston=True)
    n_dirs, t_points, z_points = block["n_directions"], block["t_points"], block["z_points"]
    if z_points is not None:
        z_points = z_points.reshape(len(z_points), -1)
        if op is not None and z_points.shape[1] != op.dim:
            errors.append(f"ellipticity.z_points: each point needs {op.dim} coordinate(s), "
                          f"got {z_points.shape[1]}")
    if errors:
        raise _Invalid(errors)

    thetas = np.linspace(-op.temporal.angle, op.temporal.angle, block["n_thetas"])
    if z_points is not None:
        z_points = list(z_points.astype(np.complex128))
    else:
        nodes = grid.axis_nodes()[:: max(1, grid.points_per_axis // 8)]
        if op.dim == 1:
            z_points = [np.array([x], dtype=np.complex128) for x in nodes]
        else:
            z_points = [np.array([x, y], dtype=np.complex128) for x in nodes for y in nodes]
    rng = np.random.default_rng(seed)
    fields = random_band_limited_fields(grid, op.components, block["n_fields"], rng)

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


def _cmd_maxreg(v, out_dir, seed, record):
    errors = []
    grid, block = make_grid(**v["grid"]), v["maxreg"]
    op = _build_operator(v["problem"]["operator"], grid, _build_temporal(v["temporal"], 1.0, errors), errors)
    config = _solver_config(v["solver"], errors)
    horizons, p = sorted(block["horizons"]), block["p"]
    support = horizons[0] if block["support"] is None else block["support"]
    if config is not None or v["solver"] is None:
        _check_integrator(op, config.integrator if config is not None else "picard_voc", errors)
        _library("maxreg.horizons", errors, _max_reg_time_grid, horizons, config)
    _library("maxreg.support", errors, _check_support, support, horizons[0])
    _library("grid", errors, _fit_blocks, grid)
    if errors:
        raise _Invalid(errors)

    ensemble = default_maxreg_ensemble(grid, op.components, block["samples"], np.random.default_rng(seed),
                                       support=support)
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


def _cmd_convergence(v, out_dir, seed, record):
    errors = []
    horizon, block = v["run"]["horizon"], v["convergence"]
    base = horizon / 50.0 if block["base_dt"] is None else block["base_dt"]
    dts = [base / 2 ** j for j in range(block["levels"])] if block["dts"] is None else block["dts"]
    problem, grid = _build_problem(v, horizon, errors)
    _check_integrator(problem and problem.op, "picard_voc", errors, key="the convergence sweep's first integrator")
    # the sweep sets dt, integrator and snapshot_stride over the solver section
    config = _solver_config(v["solver"] or {}, errors)
    if errors:
        raise _Invalid(errors)

    def one_dt(dt):
        finals = [solve_real(problem, 0.0, horizon, replace(config, dt=dt, integrator=integ,
                                                            snapshot_stride=_NO_SNAPSHOTS)).final.values
                  for integ in ("picard_voc", "imex")]
        return float(np.max(np.abs(finals[0] - finals[1])))

    gaps = record("dt_sweep", lambda: [one_dt(dt) for dt in dts])
    files, checks = [], []
    if gaps is not None:
        orders = [math.nan] + _orders(dts, gaps)
        rows = [(float(dt), gap, order) for dt, gap, order in zip(dts, gaps, orders)]
        files.append(write_csv(out_dir, "convergence.csv", ["dt", "sup_diff", "order"], rows))
        files.append(write_svg(out_dir, "convergence.svg",
                               [("cross-integrator gap", dts, gaps)],
                               "integrator agreement under dt refinement", "dt", "sup diff",
                               log_y=True))
        checks += _order_check("cross_integrator_order", orders)
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


_PACKAGE = Path(__file__).resolve().parent


def _origin(exc: BaseException) -> str:
    """``parastrip/module.py:line`` of the innermost frame of the library in ``exc``'s traceback.

    A job's traceback starts in ``record``, so it always holds one.
    """
    origin, tb = None, exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename).resolve()
        if path.is_relative_to(_PACKAGE):
            origin = f"{path.relative_to(_PACKAGE.parent).as_posix()}:{tb.tb_lineno}"
        tb = tb.tb_next
    return origin


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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(_machine_error("unreadable config", str(exc)), file=sys.stderr)
        return 2
    errors = []
    v = _walk(cfg, _TOP, "", args.command, errors)
    if args.seed is not None and args.seed < 0:
        errors.append("--seed: must be a nonnegative integer")
    if errors:
        print(_machine_error("invalid configuration", errors), file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else v["seed"]
    jobs = max(1, int(args.jobs))
    out_dir = Path(args.output or v["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(_machine_error("unwritable output", f"{'--output' if args.output else 'output_dir'}: {exc}"),
              file=sys.stderr)
        return 2
    job_status = []

    def record(name, fn):
        """Run one job, timed; failures are recorded with their origin and the run continues."""
        started = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            job_status.append({"name": name, "status": "failed", "error": f"{type(exc).__name__}: {exc}",
                               "origin": _origin(exc), "duration_s": time.perf_counter() - started})
            return None
        job_status.append({"name": name, "status": "ok", "duration_s": time.perf_counter() - started})
        return out

    try:
        result = _RUNNERS[args.command](v, out_dir, seed, record)
    except _Invalid as exc:
        print(_machine_error("invalid configuration", exc.violations), file=sys.stderr)
        return 2
    files, checks = result
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
