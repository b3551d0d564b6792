"""Span tracer for the traced benchmark run; the untraced runs never import it.

``Tracer.install`` replaces each layer's public functions by a timing
wrapper, matched by function identity in every loaded ``parastrip`` module,
because modules import one another's functions by name (``solver`` holds its
own references to ``apply_operator``, ``derivative_multiplier``,
``nemytskii`` and scipy's ``gmres``).  It also wraps ``numpy.fft.fftn`` /
``ifftn`` and the method ``DivergenceOperator.coefficient_matrix``.

Each call records a span (name, start, end, parent span).  Spans stay in
memory and are written once, by ``write``.  The studies run on one thread
(``--jobs 1``), so a plain stack gives each span its parent.
"""

import functools
import importlib
import math
import sys
import time

import numpy as np

# span name -> the callables it times, as "module:attribute[.attribute]"
TARGETS = {
    "fft": ("numpy.fft:fftn", "numpy.fft:ifftn"),
    "multiplier": ("parastrip.grid:derivative_multiplier",),
    "sample": ("parastrip.grid:sample_on_shifted_grid",),
    "apply": ("parastrip.operators:apply_operator",),
    "coeff": ("parastrip.operators:DivergenceOperator.coefficient_matrix",),
    "nemytskii": ("parastrip.reaction:nemytskii",),
    "smoother": ("parastrip.reaction:f_plus", "parastrip.reaction:f_minus"),
    "solve": ("parastrip.solver:solve_real", "parastrip.solver:solve_complex_ray",
              "parastrip.solver:solve_along_path"),
    "gmres": ("scipy.sparse.linalg:gmres",),
    "besov": ("parastrip.norms:besov_norm",),
    "lp": ("parastrip.norms:lp_norm",),
    "family": ("parastrip.analyticity:solve_shift_family",),
    "cr_space": ("parastrip.analyticity:cr_residual_space",),
    "cr_time": ("parastrip.analyticity:cr_residual_time",),
    "hardy": ("parastrip.analyticity:hardy_integral",),
    "riskfree": ("parastrip.xva:price_riskfree",),
    "nonlinear": ("parastrip.xva:price_xva_nonlinear",),
    "linear": ("parastrip.xva:price_xva_linear",),
    "payoff_fit": ("parastrip.xva:hermite_payoff_fit",),
    "emit": ("parastrip.cli:write_csv", "parastrip.cli:write_svg", "parastrip.cli:emit_report"),
}

COMPLEX_BYTES = 16


def _resolve(path: str):
    """(owner, attribute, value) of "module:attr[.attr]", or None if it does not exist."""
    module_name, attrs = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attrs.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans = []            # (name id, start, end, parent index or -1)
        self.stack = []
        self.fft_elems = 0
        self.fft_flops = 0.0
        self.gmres_iters = 0
        self.solves = []           # diagnostics and field size of each outermost solve
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        import parastrip.cli  # noqa: F401  (loads every parastrip module)

        replacements = {}
        for nid, name in enumerate(self.names):
            for path in TARGETS[name]:
                found = _resolve(path)
                if found is None:
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(fn, nid)
                replacements[id(fn)] = (fn, wrapper)
                self._set(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "parastrip" or mod_name.startswith("parastrip.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, nid):
        name = self.names[nid]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((nid, 0.0, 0.0, parent))     # open span; closed below
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(out, parent)
            return out

        return wrapper

    # -- per-layer counters taken at the same boundaries --------------------

    def _before_fft(self, args, kwargs):
        a = np.asarray(args[0])
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        axes = range(a.ndim) if axes is None else axes
        n = int(np.prod([a.shape[ax] for ax in axes]))
        self.fft_elems += a.size
        if n > 1:
            self.fft_flops += 5.0 * a.size * math.log2(n)
        return args, kwargs

    def _before_gmres(self, args, kwargs):
        inner = kwargs.get("callback")
        if inner is not None:
            def counting(*cb_args):
                self.gmres_iters += 1
                return inner(*cb_args)

            kwargs = dict(kwargs, callback=counting)
        return args, kwargs

    def _after_solve(self, result, parent):
        solve_id = self.names.index("solve")
        while parent >= 0:
            if self.spans[parent][0] == solve_id:
                return          # nested in another solve: counted by the outer one
            parent = self.spans[parent][3]
        self.solves.append((result.diagnostics, result.fields[0].values.size))

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Write every span once, as arrays: names, start, end, parent."""
        arr = np.asarray(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(path, names=np.asarray(self.names), name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64))

    def layer_metrics(self, bytes_written: int) -> dict:
        """The per-layer metrics of one traced study, zero where a layer did no work."""
        n = len(self.spans)
        child = [0.0] * n
        nested_same = [False] * n
        for i, (nid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                p = parent
                while p >= 0 and not nested_same[i]:
                    nested_same[i] = self.spans[p][0] == nid
                    p = self.spans[p][3]
        calls = {name: 0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            own[name] += end - start - child[i]
            if not nested_same[i]:
                total[name] += end - start

        nodes = windows = sweeps = halvings = sweep_nodes = updates = 0
        for diag, size in self.solves:
            wins = diag.get("windows")
            if wins is None:
                wins = [w for seg in diag.get("segments", ()) for w in seg]
            for w in wins:
                k = w["sweeps"] or 1        # an imex march is one pass over its nodes
                nodes += w["steps"]
                windows += 1
                sweeps += k
                sweep_nodes += k * (w["steps"] + 1)
                updates += w["steps"] * size
            halvings += diag.get("window_halvings", 0)

        fft_s = total["fft"]
        return {
            "grid.fft_calls": calls["fft"],
            "grid.fft_s": fft_s,
            "grid.fft_elems_per_call": self.fft_elems / calls["fft"] if calls["fft"] else 0.0,
            "grid.fft_mflops_computed": self.fft_flops / fft_s / 1e6 if fft_s else 0.0,
            "grid.fft_bytes_computed": 2 * COMPLEX_BYTES * self.fft_elems,
            "grid.multiplier_calls": calls["multiplier"],
            "grid.multiplier_s": total["multiplier"],
            "grid.sample_s": total["sample"],
            "operators.apply_calls": calls["apply"],
            "operators.apply_s": total["apply"],
            "operators.apply_self_s": own["apply"],
            "operators.coeff_calls": calls["coeff"],
            "operators.coeff_s": total["coeff"],
            "reaction.nemytskii_calls": calls["nemytskii"],
            "reaction.nemytskii_s": total["nemytskii"],
            "reaction.smoother_calls": calls["smoother"],
            "reaction.smoother_s": total["smoother"],
            "solver.solves": len(self.solves),
            "solver.time_nodes": nodes,
            "solver.windows": windows,
            "solver.sweeps": sweeps,
            "solver.sweeps_per_window": sweeps / windows if windows else 0.0,
            "solver.window_halvings": halvings,
            "solver.apply_per_node_sweep": calls["apply"] / sweep_nodes if sweep_nodes else 0.0,
            "solver.gmres_calls": calls["gmres"],
            "solver.gmres_iters": self.gmres_iters,
            "solver.gmres_s": total["gmres"],
            "solver.self_s": own["solve"],
            "solver.field_updates": updates,
            "norms.besov_calls": calls["besov"],
            "norms.besov_s": total["besov"],
            "norms.lp_calls": calls["lp"],
            "norms.lp_s": total["lp"],
            "analyticity.family_s": total["family"],
            "analyticity.cr_space_s": total["cr_space"],
            "analyticity.cr_time_s": total["cr_time"],
            "analyticity.hardy_s": total["hardy"],
            "xva.riskfree_s": total["riskfree"],
            "xva.nonlinear_s": total["nonlinear"],
            "xva.linear_s": total["linear"],
            "xva.payoff_fit_s": total["payoff_fit"],
            "cli.emit_s": total["emit"],
            "cli.bytes_written": bytes_written,
        }
