"""Source rules for the package: every construction invariant raises a typed
error with a witness (ConstructionError, FamilyValidationError, ...), so no
invariant may rest on an ``assert``, which ``python -O`` strips, or on a bare
``RuntimeError``/``Exception`` without a witness.  A check returns its
witness or None, never an ``(ok, witness)`` pair.  The package imports
no numpy: its degree-grid scans run on Python int bitmasks, and importing
numpy would cost more start-up than the scans it served.  Every function
name the benchmark traces names a function of the package, so that no
per-layer metric reads 0 because its function was removed.  The Koszul
and linear-quotients oracles name no function of the construction."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gmpi"
PERFBENCH = SRC.parent.parent / "perfbench"

# the length checks of the hot monomial kernels, debug-only on purpose
ALLOWED_ASSERTS = {("monomials.py", name, "len(a) == len(b)") for name in ("divides", "lcm", "mul")}
BARE_ERRORS = {"RuntimeError", "Exception"}
BANNED_MODULES = {"numpy"}


def _banned(module: str | None) -> bool:
    return module is not None and module.split(".")[0] in BANNED_MODULES


def violations(filename: str, source: str) -> list[tuple[str, int, str]]:
    """(file, line, what) of each ``assert`` outside ALLOWED_ASSERTS, each
    ``raise`` of a bare RuntimeError or Exception, each ``return`` of a
    tuple whose first element is True or False and each import of numpy."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Assert):
                if (filename, func, ast.unparse(child.test)) not in ALLOWED_ASSERTS:
                    out.append((filename, child.lineno, "assert"))
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in BARE_ERRORS:
                    out.append((filename, child.lineno, f"raise {exc.id}"))
            elif isinstance(child, ast.Return) and isinstance(child.value, ast.Tuple):
                first = child.value.elts[0] if child.value.elts else None
                if isinstance(first, ast.Constant) and isinstance(first.value, bool):
                    out.append((filename, child.lineno, "return (bool, ...)"))
            elif isinstance(child, ast.Import):
                out.extend((filename, child.lineno, f"import {a.name}")
                           for a in child.names if _banned(a.name))
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and _banned(child.module):
                out.append((filename, child.lineno, f"from {child.module}"))
            visit(child, func)

    visit(ast.parse(source, filename=filename), None)
    return out


def package_sources():
    return sorted(SRC.glob("*.py"))


def test_package_raises_typed_errors_and_asserts_nothing():
    found = [v for path in package_sources() for v in violations(path.name, path.read_text())]
    assert found == []


def test_the_allowed_asserts_are_still_there():
    # an allowance nothing uses any more is dropped, not kept
    source = (SRC / "monomials.py").read_text()
    tree = ast.parse(source)
    present = {("monomials.py", f.name, ast.unparse(a.test))
               for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for a in ast.walk(f) if isinstance(a, ast.Assert)}
    assert present == ALLOWED_ASSERTS


def test_the_rule_catches_each_forbidden_form():
    source = (
        "def f(a, b):\n"
        "    assert a\n"
        "    raise RuntimeError('x')\n"
        "def g():\n"
        "    raise Exception\n"
        "def divides(a, b):\n"
        "    assert len(a) == len(b)\n"
        "    raise ValueError('typed')\n"
        "def h(a):\n"
        "    if a:\n"
        "        return False, a\n"
        "    return (True, None)\n"
        "def k(a):\n"
        "    return a, True\n"
        "import numpy as np\n"
        "def m():\n"
        "    import os, numpy.linalg\n"
        "    from numpy import zeros\n"
        "    from .numpy import x\n"
        "import numpyish\n"
    )
    assert violations("builder.py", source) == [
        ("builder.py", 2, "assert"),
        ("builder.py", 3, "raise RuntimeError"),
        ("builder.py", 5, "raise Exception"),
        ("builder.py", 7, "assert"),   # allowed only in monomials.py
        ("builder.py", 11, "return (bool, ...)"),
        ("builder.py", 12, "return (bool, ...)"),
        ("builder.py", 15, "import numpy"),
        ("builder.py", 17, "import numpy.linalg"),
        ("builder.py", 18, "from numpy"),
    ]
    assert ("monomials.py", 7, "assert") not in violations("monomials.py", source)


def test_importing_the_cli_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    probe = ("import sys, gmpi.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# benchmark names of functions the package no longer has, each recorded by
# a FOUND line of CHANGES.md; only a change to the benchmark may drop them
DEAD_BENCHMARK_NAMES = {
    "builder.build_double_complex",       # the layer_metrics of perfbench/run.py
    "monomials.MonomialIdeal.contains",   # IDEAL_OPS of perfbench/run.py
}


def benchmark_names() -> set[str]:
    """The dotted function names (module.function or module.Class.method)
    that perfbench/run.py looks up in ``IDEAL_OPS`` and ``layer_metrics``,
    and perfbench/tracer.py in its ``_hooks`` and ``_originals``."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["IDEAL_OPS"]:
            names |= {e.value for e in node.value.elts}
        elif isinstance(node, ast.FunctionDef) and node.name == "layer_metrics":
            names |= {a.value for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id in ("calls", "self_s", "total_s", "st")
                      for a in call.args if isinstance(a, ast.Constant)}
    for node in ast.walk(ast.parse((PERFBENCH / "tracer.py").read_text())):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["self._hooks"]:
            names |= {k.value for k in node.value.keys}
        elif (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "self._originals"
              and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    return names


def package_attribute(name: str):
    """The object that a dotted benchmark name names in gmpi, or None."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gmpi.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def test_every_name_the_benchmark_traces_is_a_function_of_the_package():
    names = benchmark_names()
    # the lookups are found: a hook, an original, an ideal op, a layer metric
    assert {"linalg.rank", "complexes.grid_size", "monomials.intersect_many",
            "builder.build_star_complex"} <= names
    assert DEAD_BENCHMARK_NAMES <= names
    missing = sorted(n for n in names - DEAD_BENCHMARK_NAMES
                     if not inspect.isfunction(package_attribute(n)))
    assert missing == []


# The Koszul oracle with its lcm lattice, and the linear-quotients oracle,
# stay independent of the construction: besides verify's own helpers they
# may read ideal arithmetic of ``monomials``, ``linalg.rank``, the table and
# cap types of ``complexes`` and the standard library, but no function of
# ``builder`` or of the resolution code of ``complexes``.
INDEPENDENT_ORACLES = ("koszul_betti", "lcm_lattice", "linear_quotients_betti")
ALLOWED_MODULE_ATTRIBUTES = {"gmpi.linalg": {"rank"}}
ALLOWED_COMPLEXES_TYPES = {"BettiTable", "SizeCapError"}


def construction_names(module, roots) -> list[str]:
    """``function: name`` for each global name that a function of ``roots``
    in ``module``, or a function of ``module`` it calls, reads from the
    package beyond what the independence rule allows."""
    defs = {f.name: f for f in ast.parse(inspect.getsource(module)).body
            if isinstance(f, ast.FunctionDef)}
    bad, seen, todo = [], set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = defs[name]
        nodes = list(ast.walk(fn))
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for g in sorted({n.id for n in nodes if isinstance(n, ast.Name)} - local):
            if not hasattr(module, g):
                continue                          # a builtin
            obj = getattr(module, g)
            home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", "")
            if not home.startswith("gmpi."):
                continue                          # the standard library
            if inspect.ismodule(obj):
                used = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == g}
                bad += [f"{name}: {g}.{a}" for a in sorted(
                    used - ALLOWED_MODULE_ATTRIBUTES.get(home, set()))]
            elif home == module.__name__ and inspect.isfunction(obj):
                todo.append(g)
            elif not (home == "gmpi.monomials"
                      or (home == "gmpi.complexes" and g in ALLOWED_COMPLEXES_TYPES)):
                bad.append(f"{name}: {g}")
    return sorted(bad)


def test_the_independent_oracles_name_no_construction_code():
    from gmpi import verify
    assert construction_names(verify, INDEPENDENT_ORACLES) == []


def test_the_independence_rule_catches_the_resolution_code():
    # the Lyubeznik oracle resolves L with the resolution code of complexes
    from gmpi import verify
    assert construction_names(verify, ["oracle_betti"]) == [
        "oracle_betti: betti_table", "oracle_betti: quotient_resolution"]
    assert "run_suite: build_factors" in construction_names(verify, ["run_suite"])
