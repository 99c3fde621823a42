"""Every definition in the package has a caller outside the unit tests.

The module-level functions and classes of ``src/gmesim`` must each be used
somewhere else in the package, in the acceptance battery
(``tests/test_acceptance.py``) or in the benchmark harness
(``benchmarks/``); so must every method of those classes.  A helper that only
a unit test calls belongs in that test file.  Likewise an exception class that
derives from another package exception must be named in an ``except`` clause
there: a subclass that only ``pytest.raises`` tells apart is its base with a
message.  And every parameter with a default must be passed by some call
there: a knob that only unit tests set is a branch nothing else runs.  The
allowed references are read from those files with ``ast``; the one list kept
by hand names the few parameters only unit tests pass, with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted((ROOT / "src" / "gmesim").glob("*.py"))}
CONSUMERS = [ast.parse(p.read_text(), str(p)) for p in
             [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]]


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """Aliases of package modules, and names imported from them, in ``tree``."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = node.module or ""
        if (node.level == 1 and not src) or src == "gmesim":
            modules.update({a.asname or a.name: a.name for a in node.names if a.name in MODULES})
        mod = src if node.level else src.removeprefix("gmesim.")
        if mod in MODULES:
            names.update({a.asname or a.name: (mod, a.name) for a in node.names})
    return modules, names


def _references(tree: ast.Module, home: str | None) -> tuple[set, set]:
    """``(module, name)`` pairs that ``tree`` uses, and every attribute name it
    reads.  A bare name resolves to its import or else to ``home``; a
    definition's uses of its own name do not count."""
    modules, names = _imports(tree)
    pairs, attrs = set(), set()
    for stmt in tree.body:
        own = (home, stmt.name) if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            ref = None
            if isinstance(node, ast.Name):
                ref = names.get(node.id, (home, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    ref = (modules[node.value.id], node.attr)
            if ref is not None and ref != own:
                pairs.add(ref)
    return pairs, attrs


def test_every_definition_has_a_caller_outside_the_unit_tests():
    pairs, attrs = set(), set()
    for home, tree in [*MODULES.items(), *((None, t) for t in CONSUMERS)]:
        p, a = _references(tree, home)
        pairs |= p
        attrs |= a
    unused = []
    for mod, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (mod, node.name) not in pairs:
                unused.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{mod}.{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                           and m.name not in attrs]
    assert not unused, f"defined in src/gmesim but called only by unit tests: {unused}"


# Defaulted parameters that only the unit tests pass, each with its reason.
TEST_ONLY_PARAMETERS = {
    ("certify", "mle_batch", "max_iter"):
        "the unit tests stop the engine after k iterations to read each iterate",
}


def _defaulted_parameters(tree: ast.Module):
    """``(function name, parameter, position)`` of every parameter with a default of
    the functions and methods in ``tree``; ``position`` counts the arguments a call
    passes positionally (a method's ``self`` aside), None for a keyword-only one."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef)
               and "staticmethod" not in {_last_name(d) for d in f.decorator_list}}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        args = f.args
        positional = [*args.posonlyargs, *args.args][1 if id(f) in methods else 0:]
        for i, a in enumerate(positional[len(positional) - len(args.defaults):],
                              start=len(positional) - len(args.defaults)):
            yield f.name, a.arg, i
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f.name, a.arg, None


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    # A call counts for every function of its callee's name, whichever module
    # that is; *args and **kwargs count as passing everything they could.
    calls = {(_last_name(c.func), len(c.args), any(isinstance(a, ast.Starred) for a in c.args),
              frozenset(k.arg for k in c.keywords))
             for tree in [*MODULES.values(), *CONSUMERS] for c in ast.walk(tree)
             if isinstance(c, ast.Call)}
    params = [(mod, *p) for mod, tree in MODULES.items() for p in _defaulted_parameters(tree)]
    assert params, "no defaulted parameters found: the guard reads nothing"
    unpassed = [f"{mod}.{func}({param})" for mod, func, param, pos in params
                if (mod, func, param) not in TEST_ONLY_PARAMETERS
                and not any(name == func and (star or param in kw or None in kw
                                              or (pos is not None and pos < n_pos))
                            for name, n_pos, star, kw in calls)]
    assert not unpassed, f"defaulted parameters only unit tests pass: {unpassed}"
    stale = sorted(set(TEST_ONLY_PARAMETERS) - {p[:3] for p in params})
    assert not stale, f"exempted parameters that do not exist: {stale}"


def _last_name(node: ast.expr) -> str | None:
    """``X`` of a bare name ``X`` or of an attribute ``m.X``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_exception_subclass_is_caught_by_name_outside_the_unit_tests():
    classes = [node for tree in MODULES.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    errors = {"Exception"}
    for _ in classes:  # the base of a package exception may come later in the list
        errors |= {c.name for c in classes if {_last_name(b) for b in c.bases} & errors}
    subclasses = {c.name for c in classes
                  if {_last_name(b) for b in c.bases} & (errors - {"Exception"})}
    caught = set()
    for tree in [*MODULES.values(), *CONSUMERS]:
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught |= {_last_name(t) for t in types}
    assert subclasses, "no exception subclasses found: the guard reads nothing"
    uncaught = sorted(subclasses - caught)
    assert not uncaught, f"exception subclasses no except clause names: {uncaught}"
