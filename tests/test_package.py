"""The package's public names: each module lists its own, and the package re-exports them."""

import parastrip

PUBLIC = """
    CauchyProblem ComplexField ConfigurationError ConvergenceError DivergenceOperator
    DomainError GardingFit Grid HermiteData InstabilityError MaxRegSample NormParams
    OperatorPlan ParastripError PayoffSpec ReactionSpec ShiftFamily SolveResult SolverConfig
    StepConstants StripSpec TemporalDomain XvaParams __version__ analyticity_time_horizon
    apply_operator besov_norm bs_log_generator compute_xva_surfaces
    contraction_step_fraction cr_residual_space cr_residual_time default_maxreg_ensemble
    derivative_multiplier ellipticity_samples estimate_ellipticity_constant
    estimate_max_reg_constant eval_hermite evaluate_at f_minus f_plus
    hardy_integral hermite_payoff_fit heston_chart_generator heston_generator
    in_branch_domain jet_lipschitz_estimate leading_symbol littlewood_paley_blocks lp_norm
    make_grid multi_indices nemytskii path_independence_check price_riskfree
    price_xva_linear price_xva_nonlinear random_band_limited_fields sample_on_shifted_grid
    shift_consistency_check smoother_identity_check solve_along_path
    solve_complex_ray solve_real solve_shift_family spectral_derivative
    step_size_from_estimates strip_sup_over_time terminal_data verify_garding
    verify_price_analyticity
""".split()


def test_package_all_has_each_public_name_once_and_every_entry_resolves():
    names = parastrip.__all__
    assert len(names) == len(set(names)) == len(PUBLIC)
    assert sorted(names) == sorted(PUBLIC)
    for name in names:
        assert hasattr(parastrip, name), name


def test_each_module_lists_the_names_it_defines():
    modules = [parastrip.analyticity, parastrip.errors, parastrip.grid, parastrip.norms,
               parastrip.operators, parastrip.reaction, parastrip.solver, parastrip.xva]
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, (module.__name__, name)


def _unused_imports(source: str) -> list:
    """(line, name) of each name the module imports and never reads, ``# noqa: F401`` lines aside.

    A name counts as read when it appears as a name anywhere in the module
    (attribute bases included) or is listed in its ``__all__``.
    """
    import ast

    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                out.append((node.lineno, name))
    return out


def test_no_module_imports_a_name_it_never_uses():
    import pathlib

    unused = {}
    for path in sorted(pathlib.Path(parastrip.__file__).parent.glob("*.py")):
        found = _unused_imports(path.read_text())
        if found:
            unused[path.name] = found
    assert not unused, unused


def test_the_unused_import_check_sees_what_it_should():
    source = "\n".join([
        "import os", "import sys", "from math import pi, tau  # noqa: F401",
        "from typing import (Any,", "    Dict)  # noqa: F401", "from collections import OrderedDict as OD",
        "import numpy.linalg", "__all__ = ['sys']", "def f():", "    import json", "    return numpy.linalg",
    ])
    assert _unused_imports(source) == [(1, "os"), (6, "OD"), (10, "json")]


def _loaded_names(trees) -> set:
    """Every name the parsed modules ``trees`` load as a name or as an attribute."""
    import ast

    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private name that no module of ``sources`` reads.

    ``sources`` maps module names to their source.  The private names are
    the ``_``-prefixed, non-dunder module-level functions, classes and
    assigned constants, and the methods of module-level classes.  A name
    counts as read when some module loads it as a name or as an attribute;
    being imported, assigned or defined does not count.
    """
    import ast

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _loaded_names(trees.values())
    out = []
    for module, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node)
            if isinstance(node, ast.ClassDef):
                defined += [item for item in node.body if isinstance(item, ast.FunctionDef)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(module, node.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name) and private(t.id) and t.id not in read]
        out += [(module, node.lineno, node.name) for node in defined
                if private(node.name) and node.name not in read]
    return sorted(out)


def test_every_private_name_is_read_by_the_package():
    import pathlib

    sources = {path.stem: path.read_text()
               for path in sorted(pathlib.Path(parastrip.__file__).parent.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_unread_private_name_check_sees_what_it_should():
    a = "\n".join([
        "from b import _imported_only, _used", "_UNREAD = 1", "_READ = 2", "__dunder__ = 3", "def _lonely():",
        "    return _READ", "class _Kept:", "    def _spare(self):", "        pass",
        "    def _called(self):", "        return self.__class__", "    def __len__(self):", "        return 0",
    ])
    b = "\n".join([
        "import a", "def _used():", "    return a._Kept()._called()", "def _imported_only():", "    pass",
        "def public():", "    _used()",
    ])
    assert _unread_private_names({"a": a, "b": b}) == [
        ("a", 2, "_UNREAD"), ("a", 5, "_lonely"), ("a", 8, "_spare"), ("b", 4, "_imported_only")]


# The public names that no module of the package reads, each with the reason it stays.
ENTRY_POINTS = {
    "apply_operator": "test reference for OperatorPlan's stack core; perfbench target",
    "compute_xva_surfaces": "acceptance-pinned",
    "jet_lipschitz_estimate": "an input of StepConstants, for the paper's step bounds (ROADMAP item 8)",
    "littlewood_paley_blocks": "test reference for besov_norm's block sums",
    "nemytskii": "test reference for the solver's reaction stack core; perfbench target",
    "path_independence_check": "acceptance-pinned",
    "shift_consistency_check": "acceptance-pinned",
    "smoother_identity_check": "acceptance-pinned",
    "solve_complex_ray": "acceptance-pinned; perfbench target",
    "step_size_from_estimates": "acceptance-pinned; the paper's step bounds (ROADMAP item 8)",
    "strip_sup_over_time": "test reference: the sup over a family's members and rows",
    "verify_price_analyticity": "the pricing problem's analyticity report (ROADMAP item 10)",
}


def _unread_public_names(sources: dict) -> list:
    """(module, name) of each name listed in a module's ``__all__`` that no module of ``sources`` reads.

    ``sources`` maps module names to their source.  A module's public names
    are the strings of its module-level ``__all__`` list; a name counts as
    read as in ``_unread_private_names``, so being listed, imported or
    re-exported does not count.
    """
    import ast

    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _loaded_names(trees.values())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                out += [(module, elt.value) for elt in node.value.elts
                        if isinstance(elt, ast.Constant) and elt.value not in read]
    return sorted(out)


def test_every_public_name_is_read_by_the_package_or_is_an_entry_point():
    import pathlib

    sources = {path.stem: path.read_text()
               for path in sorted(pathlib.Path(parastrip.__file__).parent.glob("*.py"))}
    unread = {name for _, name in _unread_public_names(sources)}
    assert unread - set(ENTRY_POINTS) == set(), "public names nothing reads: read them, delete them or list them"
    assert set(ENTRY_POINTS) - unread == set(), "entry points the package now reads: take them off the list"
    assert set(ENTRY_POINTS) <= set(parastrip.__all__)


def test_the_unread_public_name_check_sees_what_it_should():
    a = "\n".join([
        "from b import helper", "__all__ = ['Kept', 'lonely', 'annotated']", "__version__ = '1'",
        "class Kept:", "    pass", "def lonely():", "    return helper()", "def annotated(x: 'str') -> int:",
        "    return 0",
    ])
    b = "\n".join([
        "import a", "from a import lonely", "__all__ = ['helper', 'spare', *a.__all__]",
        "def helper(k: a.Kept, n: annotated = None):", "    pass", "def spare():", "    pass",
    ])
    assert _unread_public_names({"a": a, "b": b}) == [("a", "lonely"), ("b", "spare")]


# Defaulted parameters of the public callables that no call in the package sets, each with
# the reason it stays.
SETTINGS = {
    "StepConstants(embedding=)": "an input of the paper's step bounds (ROADMAP item 8)",
    "StepConstants(perturbation_lipschitz=)": "an input of the paper's step bounds (ROADMAP item 8)",
    "StepConstants(zero_order=)": "an input of the paper's step bounds (ROADMAP item 8)",
    "cr_residual_time(shift=)": "the shifted time residual of the strip check (ROADMAP item 14)",
}


def _defaulted_parameters(namespace, exempt) -> list:
    """(label, callee, name, position, is a class's) of each parameter with a default of a public callable.

    The callables are the names of ``namespace.__all__`` not in ``exempt``
    and the public methods of its classes.  ``label`` reads ``f(name=)``,
    ``Class(name=)`` or ``Class.method(name=)``; ``callee`` is the name a
    call spells; ``position`` is the index among the positional
    parameters, None for a keyword-only one.
    """
    import inspect

    out = []
    for name in namespace.__all__:
        obj = getattr(namespace, name)
        if name in exempt or not callable(obj):
            continue
        targets = [(name, name, obj, 0)]
        if inspect.isclass(obj):
            targets += [(f"{name}.{attr}", attr, getattr(obj, attr),
                         0 if isinstance(raw, (staticmethod, classmethod)) else 1)
                        for attr, raw in vars(obj).items()
                        if not attr.startswith("_") and callable(getattr(obj, attr))]
        for label, callee, fn, bound in targets:
            try:
                params = list(inspect.signature(fn).parameters.values())[bound:]
            except ValueError:              # a builtin without a signature: nothing to set
                continue
            for i, param in enumerate(params):
                if param.default is not param.empty:
                    positional = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
                    out.append((f"{label}({param.name}=)", callee, param.name, i if positional else None,
                                inspect.isclass(fn)))
    return out


def _calls(sources: dict) -> list:
    """(callee, positional count, keyword names) of each call in the parsed ``sources``.

    ``_library(label, errors, F, *args, **kwargs)`` counts as the call
    ``F(*args, **kwargs)`` and ``cls(...)`` as a call of the class around
    it.  A starred positional argument counts as any number of them, and a
    ``**`` expansion puts None among the keyword names.
    """
    import ast
    import math

    out = []
    for source in sources.values():
        tree = ast.parse(source)
        # ast.walk is breadth-first, so an inner class overrides the outer one's entries
        owner = {id(inner): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", None) == "_library" and len(args) >= 3:
                func, args = args[2], args[3:]
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            if callee == "cls":
                callee = owner.get(id(node))
            count = math.inf if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
            out.append((callee, count, {keyword.arg for keyword in node.keywords}))
    return out


def _unset_settings(namespace, sources: dict, exempt) -> list:
    """Labels of the defaulted public parameters (``_defaulted_parameters``) that no call of ``sources`` sets.

    A call sets a parameter by keyword, by position or by a ``**``
    expansion; ``replace(obj, name=...)`` sets a class's parameter ``name``.
    """
    calls = _calls(sources)
    out = []
    for label, callee, name, position, of_class in _defaulted_parameters(namespace, exempt):
        if not any(c == callee and (name in kw or None in kw or position is not None and position < n)
                   or of_class and c == "replace" and name in kw for c, n, kw in calls):
            out.append(label)
    return sorted(out)


def test_every_setting_is_set_by_the_package_or_is_listed():
    import pathlib

    sources = {path.stem: path.read_text()
               for path in sorted(pathlib.Path(parastrip.__file__).parent.glob("*.py"))}
    unset = set(_unset_settings(parastrip, sources, ENTRY_POINTS))
    assert unset - set(SETTINGS) == set(), "settings nothing sets: set them, delete them or list them"
    assert set(SETTINGS) - unset == set(), "listed settings the package now sets: take them off the list"


def test_the_setting_check_sees_what_it_should():
    import types

    source = "\n".join([
        "from dataclasses import dataclass, replace", "__all__ = ['Spec', 'f', 'g', 'h', 'entry']",
        "@dataclass", "class Spec:", "    a: int", "    b: int = 0", "    c: int = 1", "    d: int = 2",
        "    @classmethod", "    def make(cls, x=1):", "        return cls(0, c=x)",
        "    def scaled(self, k=2, *, m=3):", "        return self.a * k * m",
        "def f(x, y=1, z=2):", "    pass", "def g(p=1, q=2):", "    pass", "def h(x, z=2):", "    pass",
        "def entry(w=1):", "    pass", "def _library(label, errors, build, *args, **kwargs):",
        "    return build(*args, **kwargs)",
        "def use(kw, args):", "    replace(Spec(1), b=2).scaled(3)", "    _library('f', [], f, 0, 1)",
        "    h(0, **kw)", "    g(*args)",
    ])
    namespace = {}
    exec(source, namespace)
    module = types.SimpleNamespace(**namespace)
    assert _unset_settings(module, {"m": source}, {"entry"}) == [
        "Spec(d=)", "Spec.make(x=)", "Spec.scaled(m=)", "f(z=)"]


def _removed_api(readme: str) -> list:
    """(name, param) of each bullet of README's "Removed API" section that starts with a backticked
    ``name:``, ``Class.attr:`` (param None) or ``f(param=):``, in order."""
    import re

    section = readme.split("\n## Removed API\n", 1)[1].split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        match = re.match(r"- `([A-Za-z_]\w*(?:\.\w+)?)(?:\((\w+)=\))?`:", line)
        if match:
            out.append(match.groups())
    return out


def test_removed_api_stays_removed():
    import inspect
    import pathlib

    removed = _removed_api((pathlib.Path(__file__).parents[1] / "README.md").read_text())
    assert removed
    for name, param in removed:
        owner, _, attr = name.rpartition(".")
        base = getattr(parastrip, owner) if owner else parastrip
        if param is None:
            assert not hasattr(base, attr), name
        else:
            assert param not in inspect.signature(getattr(base, attr)).parameters, (name, param)


def test_the_removed_api_reader_sees_what_it_should():
    readme = "\n".join([
        "## Usage", "- `kept`: not removed.", "## Removed API", "", "- `gone`: nothing read it.",
        "- `Spec.field`: a bullet", "  that wraps.", "- `f(width=)`: a constant now.",
        "- The `jobs` argument: prose.", "- `Result.rows[j] = r`: not a name.", "## Later", "- `after`: elsewhere.",
    ])
    assert _removed_api(readme) == [("gone", None), ("Spec.field", None), ("f", "width")]
