"""The three benchmark studies: seeded inputs, set-up, the timed study, and checks.

Sizes (grids, time steps, counts, horizons) are fixed per workload.  The seed
perturbs data values only, inside fixed ranges; seed 0 gives the nominal
configuration.  Importing this module imports neither numpy nor parastrip, so
the launcher stays light; ``setup`` does the imports inside the study process.
"""

import json
import random
from pathlib import Path

import oracles

NAMES = ("analyticity_heat_1d", "xva_semilinear_1d", "heston_chart_2d")


def _draws(seed: int) -> dict:
    """Seeded data values; seed 0 is the nominal configuration."""
    if seed == 0:
        return {"width": 1.0, "strike": 1.0, "scale_B": 1.0, "scale_C": 1.0, "theta": 0.04}
    rng = random.Random(seed)
    return {
        "width": rng.uniform(0.9, 1.1),
        "strike": rng.uniform(0.95, 1.05),
        "scale_B": rng.uniform(0.8, 1.2),
        "scale_C": rng.uniform(0.8, 1.2),
        "theta": rng.uniform(0.035, 0.045),
    }


# ---------------------------------------------------------------------------
# analyticity_heat_1d: `parastrip verify-analyticity` on the 1-D heat flow

ANALYTICITY_HALF_LENGTH = 10.0
ANALYTICITY_POINTS = 256
ANALYTICITY_DT = 1e-3
ANALYTICITY_HORIZON = 0.5
ANALYTICITY_Y_MAX = 0.25
ANALYTICITY_SHIFTS = 9
ANALYTICITY_D_MU = (0.05, 0.025)
ANALYTICITY_RHO = 0.3
ANALYTICITY_PATH_SIGMA = 0.5
ANALYTICITY_T_PRIMES = (0.2, 0.3)


def analyticity_config(seed: int) -> dict:
    d = _draws(seed)
    return {
        "grid": {"dim": 1, "half_length": ANALYTICITY_HALF_LENGTH,
                 "points_per_axis": ANALYTICITY_POINTS},
        "run": {"horizon": ANALYTICITY_HORIZON},
        "problem": {
            "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": d["width"]},
        },
        "solver": {"dt": ANALYTICITY_DT, "snapshot_stride": 1},
        "analyticity": {
            "y_half_width": ANALYTICITY_Y_MAX,
            "n_shifts": ANALYTICITY_SHIFTS,
            "times": [0.25, 0.5],
            "strides": [1, 2],
            "d_mu": list(ANALYTICITY_D_MU),
            "rho": ANALYTICITY_RHO,
            "path": {"sigma": ANALYTICITY_PATH_SIGMA, "tau": 0.1,
                     "t_primes": list(ANALYTICITY_T_PRIMES)},
            "hardy": {"p": 4.0},
        },
    }


# ---------------------------------------------------------------------------
# xva_semilinear_1d: `parastrip xva` with default intensities and spread

XVA_POINTS = 256
XVA_HORIZON = 1.0
XVA_SIGMA = 0.2


def xva_config(seed: int) -> dict:
    d = _draws(seed)
    return {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": XVA_POINTS},
        "xva": {
            "horizon": XVA_HORIZON,
            "params": {
                "sigma": XVA_SIGMA, "epsilon": 1e-3,
                "lambda_B": 0.02 * d["scale_B"], "lambda_C": 0.05 * d["scale_C"],
                "R_B": 0.4, "R_C": 0.4, "s_F": 0.01,
            },
            "payoff": {"kind": "smoothed_call", "strike": d["strike"], "epsilon": 1e-3},
        },
    }


# ---------------------------------------------------------------------------
# heston_chart_2d: library `price_riskfree` on the variance chart

HESTON_POINTS = 64
HESTON_HORIZON = 1.0
HESTON_STEPS = 400          # the library's default imex step is horizon / 400


def heston_inputs(seed: int) -> dict:
    d = _draws(seed)
    return {
        "strike": d["strike"],
        "theta": d["theta"],
        "heston": {"kappa": 1.0, "theta": d["theta"], "sigma_v": 0.01, "rho": 0.0,
                   "v_min": 0.02, "v_max": 0.06},
    }


def inputs(name: str, seed: int) -> dict:
    """The seeded inputs of a workload, as recorded with every result."""
    return {"analyticity_heat_1d": analyticity_config, "xva_semilinear_1d": xva_config,
            "heston_chart_2d": heston_inputs}[name](seed)


# Work base of field_updates_per_s: time nodes marched x grid points x
# components, summed over every solve of the study.  Fixed by the sizes
# above, so it is the same for every seed; the traced run re-derives it from
# SolveResult.diagnostics (solver.time_nodes).
def _steps(span: float, dt: float) -> int:
    return int(round(span / dt))


FIELD_UPDATES = {
    "analyticity_heat_1d": ANALYTICITY_POINTS * (
        ANALYTICITY_SHIFTS * _steps(ANALYTICITY_HORIZON, ANALYTICITY_DT)
        + len(ANALYTICITY_D_MU) * 5 * _steps(ANALYTICITY_RHO, ANALYTICITY_DT)
        + len(ANALYTICITY_T_PRIMES) * _steps(ANALYTICITY_PATH_SIGMA, ANALYTICITY_DT)
    ),
    "xva_semilinear_1d": XVA_POINTS * 3 * 500,
    "heston_chart_2d": HESTON_POINTS ** 2 * HESTON_STEPS,
}


class Study:
    """One study: ``setup`` builds the inputs, ``run`` is timed, ``check`` is not."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")
        self.name, self.seed, self.out_dir = name, seed, Path(out_dir)
        self.outcome = None

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "heston_chart_2d":
            import parastrip as ps

            self._ps = ps
            self.inputs = heston_inputs(self.seed)
            self.params = ps.XvaParams(sigma=0.2, epsilon=1e-3, heston=self.inputs["heston"])
            self.grid = ps.make_grid(2, 6.0, HESTON_POINTS)
            payoff = ps.PayoffSpec(kind="smoothed_call", strike=self.inputs["strike"], epsilon=1e-3)
            self.payoff = ps.hermite_payoff_fit(payoff, 6.0)
            return
        import parastrip.cli

        self._main = parastrip.cli.main
        if self.name == "analyticity_heat_1d":
            self.command, self.cfg = "verify-analyticity", analyticity_config(self.seed)
        else:
            self.command, self.cfg = "xva", xva_config(self.seed)
        self.cfg_path = self.out_dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True) + "\n")

    def run(self):
        if self.name == "heston_chart_2d":
            ps = self._ps
            result = ps.price_riskfree(self.params, self.payoff, self.grid, HESTON_HORIZON)
            value = ps.evaluate_at(result.final, [0.0, self.inputs["theta"]])[0]
            self.outcome = {"price": float(value.real)}
            return
        argv = [self.command, "--config", str(self.cfg_path), "--output", str(self.out_dir),
                "--seed", str(self.seed), "--jobs", "1"]
        self.outcome = {"exit_code": int(self._main(argv))}

    def check(self) -> list:
        """Failures of the independent oracle checks; empty when the study is correct."""
        if self.name == "heston_chart_2d":
            return oracles.check_heston(self.outcome["price"], self.inputs["strike"],
                                        self.inputs["theta"], HESTON_HORIZON)
        if self.name == "analyticity_heat_1d":
            outputs = oracles.read_cli_outputs(self.out_dir, ("norms.csv",))
            init = self.cfg["problem"]["initial"]
            return oracles.check_analyticity(self.outcome["exit_code"], outputs,
                                             width=init["width"], amplitude=init["amplitude"],
                                             y_first=-ANALYTICITY_Y_MAX)
        outputs = oracles.read_cli_outputs(self.out_dir, ("xva.csv",))
        block = self.cfg["xva"]
        return oracles.check_xva(self.outcome["exit_code"], outputs,
                                 strike=block["payoff"]["strike"],
                                 sigma=block["params"]["sigma"], horizon=block["horizon"])

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.iterdir()
                   if p.is_file() and p.name != "config.json")
