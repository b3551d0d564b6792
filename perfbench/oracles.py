"""Independent closed forms and the correctness checks of each study.

Nothing here imports parastrip or the repository's tests: the references are
textbook identities written with the standard library, and the checks read
the files the command line writes.  Each check returns a list of failure
messages; an empty list means the study is correct.
"""

import csv
import json
import math
from pathlib import Path

HEAT_L2_RTOL = 1e-6
CR_SPACE_ORDER_MIN = 1.9
PATH_SPREAD_MAX = 1e-6
XVA_PRICE_RTOL = 0.01
HESTON_PRICE_RTOL = 0.02


def heat_l2_norm(t: float, y: float, width: float, amplitude: float) -> float:
    """L2 norm over x of the heat flow u_t = u_xx from a Gaussian, continued to x + iy.

    u(z, t) = A w / sqrt(s) exp(-z^2 / (2 s)) with s = w^2 + 2t, so
    |u(x + iy)|^2 = (A^2 w^2 / s) exp(-(x^2 - y^2) / s) integrates to
    A^2 w^2 sqrt(pi / s) exp(y^2 / s).
    """
    s = width * width + 2.0 * t
    return amplitude * width * (math.pi / s) ** 0.25 * math.exp(y * y / (2.0 * s))


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def lognormal_call(x: float, strike: float, sigma: float, tau: float, drift: float) -> float:
    """E[(exp(X_tau) - K)^+] for dX = drift dt + sigma dW, X_0 = x, no discounting."""
    sig_rt = sigma * math.sqrt(tau)
    forward = math.exp(x + drift * tau + 0.5 * sigma * sigma * tau)
    d1 = (math.log(forward / strike) + 0.5 * sig_rt * sig_rt) / sig_rt
    return forward * _normal_cdf(d1) - strike * _normal_cdf(d1 - sig_rt)


def read_cli_outputs(out_dir: Path, tables) -> dict:
    """Manifest, report rows and the named CSV tables of one command-line run.

    A missing or unreadable file reads as None, which the checks report.
    """
    out_dir = Path(out_dir)
    outputs = {}
    try:
        outputs["manifest"] = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        outputs["manifest"] = None
    for name in ("report.csv",) + tuple(tables):
        try:
            with open(out_dir / name, newline="") as fh:
                outputs[name] = list(csv.DictReader(fh))
        except OSError:
            outputs[name] = None
    return outputs


def _run_failures(exit_code: int, outputs: dict) -> list:
    """Exit code, manifest job status and report checks of a command-line run."""
    failures = []
    if exit_code != 0:
        failures.append(f"command exited with code {exit_code}")
    manifest = outputs.get("manifest")
    if not manifest or not manifest.get("job_status"):
        failures.append("manifest.json is missing or lists no jobs")
    else:
        for job in manifest["job_status"]:
            if job.get("status") != "ok":
                failures.append(f"job {job.get('name')} {job.get('status')}: {job.get('error')}")
    report = outputs.get("report.csv")
    if report is None:
        failures.append("report.csv is missing")
    else:
        for row in report:
            if row.get("status") != "pass":
                failures.append(f"report check {row.get('name')} = {row.get('value')} failed")
    return failures


def _report_value(outputs: dict, name: str):
    for row in outputs.get("report.csv") or ():
        if row.get("name") == name:
            return float(row["value"])
    return None


def check_analyticity(exit_code: int, outputs: dict, width: float, amplitude: float,
                      y_first: float) -> list:
    """verify-analyticity on the heat flow: clean run, CR order, path spread, exact L2 norms."""
    failures = _run_failures(exit_code, outputs)
    order = _report_value(outputs, "cr_space_order")
    if order is None or not order >= CR_SPACE_ORDER_MIN:
        failures.append(f"cr_space_order {order} is not >= {CR_SPACE_ORDER_MIN}")
    spread = _report_value(outputs, "path_spread")
    if spread is None or not spread < PATH_SPREAD_MAX:
        failures.append(f"path_spread {spread} is not < {PATH_SPREAD_MAX}")
    rows = outputs.get("norms.csv")
    if not rows:
        failures.append("norms.csv is missing or empty")
        return failures
    worst = 0.0
    for row in rows:
        want = heat_l2_norm(float(row["t"]), y_first, width, amplitude)
        worst = max(worst, abs(float(row["l2"]) - want) / want)
    if not worst <= HEAT_L2_RTOL:
        failures.append(f"norms.csv l2 is {worst:.3e} away from the continued heat kernel "
                        f"(relative), beyond {HEAT_L2_RTOL}")
    return failures


def check_xva(exit_code: int, outputs: dict, strike: float, sigma: float, horizon: float) -> list:
    """xva: clean run, V(X=0) at the final tau against the lognormal call, ATM adjustment sign."""
    failures = _run_failures(exit_code, outputs)
    rows = outputs.get("xva.csv")
    if not rows:
        failures.append("xva.csv is missing or empty")
        return failures
    final_tau = max(float(r["tau"]) for r in rows)
    at_zero = [r for r in rows if float(r["tau"]) == final_tau and abs(float(r["X"])) < 1e-12]
    if len(at_zero) != 1:
        failures.append("xva.csv has no single row at X = 0 and the final tau")
        return failures
    value = float(at_zero[0]["V"])
    want = lognormal_call(0.0, strike, sigma, horizon, 0.5 * sigma * sigma)
    if not abs(value - want) <= XVA_PRICE_RTOL * want:
        failures.append(f"V(0) = {value!r} is not within {XVA_PRICE_RTOL:.0%} of the "
                        f"lognormal call {want!r}")
    adjustment = _report_value(outputs, "xva_at_atm")
    v_atm = lognormal_call(math.log(strike), strike, sigma, horizon, 0.5 * sigma * sigma)
    if adjustment is None or not -v_atm < adjustment < 0.0:
        failures.append(f"ATM adjustment {adjustment} is not negative and smaller than V = {v_atm!r}")
    return failures


def check_heston(price: float, strike: float, theta: float, horizon: float) -> list:
    """Heston chart with tiny vol-of-vol against Black-Scholes with sigma^2 = theta, zero rate."""
    want = lognormal_call(0.0, strike, math.sqrt(theta), horizon, -0.5 * theta)
    if not abs(price - want) <= HESTON_PRICE_RTOL * want:
        return [f"price {price!r} is not within {HESTON_PRICE_RTOL:.0%} of Black-Scholes {want!r}"]
    return []
