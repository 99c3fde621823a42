"""Every definition in the package has a caller outside the unit tests.

The module-level functions and classes of ``src/gmesim`` must each be used
somewhere else in the package, in the acceptance battery
(``tests/test_acceptance.py``) or in the benchmark harness
(``benchmarks/``); so must every method of those classes.  A helper that only
a unit test calls belongs in that test file.  Every package exception class
must be named in an ``except`` clause of ``cli.main``: one that ``main`` does
not catch makes a raise on a command's path a traceback with exit status 1, and
a subclass that only ``pytest.raises`` tells apart is its base with a message.
And every parameter with a default must be passed by some call there: a knob
that only unit tests set is a branch nothing else runs.  The allowed
references are read from those files with ``ast``; the one list kept by hand
names the few parameters only unit tests pass, with the reason.

One function writes files: ``cli._write_text``, which rewrites an existing
output in place.  Any other writer in the package fails a guard here, so none
can bring back truncate-on-open.

One function checks a density matrix: ``cli.load_state_json``, where a state
from outside enters.  Every state the package builds is one by construction,
which the unit tests pin with the same ``qmath.check_density``.
"""

import ast
from pathlib import Path

import pytest

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


def test_every_exception_class_is_caught_by_name_in_cli_main():
    classes = [node for tree in MODULES.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    errors = {"Exception"}
    for _ in classes:  # the base of a package exception may come later in the list
        errors |= {c.name for c in classes if {_last_name(b) for b in c.bases} & errors}
    errors.discard("Exception")
    main = next(f for f in MODULES["cli"].body
                if isinstance(f, ast.FunctionDef) and f.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught |= {_last_name(t) for t in types}
    assert errors, "no exception classes found: the guard reads nothing"
    uncaught = sorted(errors - caught)
    assert not uncaught, f"exception classes cli.main's except clauses do not name: {uncaught}"


WRITER = ("cli", "_write_text")


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``os.open``, ``os.write``, ``write_text``,
    ``write_bytes``, or an ``open`` whose mode is not a literal read mode."""
    func, name = call.func, _last_name(call.func)
    value = getattr(func, "value", None)
    on = value.id if isinstance(value, ast.Name) else None
    if on == "os" and name in ("open", "write") or name in ("write_text", "write_bytes"):
        return True
    if name not in ("open", "fdopen"):
        return False
    # open(file, mode) and io.open take the file first; Path.open(mode) does not.
    first = 1 if isinstance(func, ast.Name) or on in ("io", "os", "builtins") else 0
    modes = [*call.args[first:first + 1], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


@pytest.mark.parametrize("code, writes", [
    ('open(p, "w")', True), ('open(p, mode="ab")', True), ('io.open(p, "r+")', True),
    ('p.open("x")', True), ("open(p, mode)", True), ("p.write_text(s)", True),
    ("p.write_bytes(b)", True), ("os.open(p, flags)", True), ("os.write(fd, b)", True),
    ("os.fdopen(fd, 'wb')", True), ('open(p, encoding="utf-8")', False), ('open(p, "rb")', False),
    ("p.open()", False), ("buf.write(s)", False), ("os.fstat(fd)", False),
])
def test_the_writer_guard_tells_writes_from_reads(code, writes):
    assert _writes(ast.parse(code).body[0].value) is writes


def test_only_cli_write_text_writes_a_file():
    writers = [(mod, getattr(stmt, "name", None), node.lineno)
               for mod, tree in MODULES.items() for stmt in tree.body
               for node in ast.walk(stmt) if isinstance(node, ast.Call) and _writes(node)]
    assert any(w[:2] == WRITER for w in writers), \
        "no write found in cli._write_text: the guard reads nothing"
    others = [f"{mod}.{name}:{line}" for mod, name, line in writers if (mod, name) != WRITER]
    assert not others, f"files written outside cli._write_text: {others}"


def test_only_the_state_file_reader_checks_a_density_matrix():
    calls = [(mod, getattr(stmt, "name", None), node.lineno)
             for mod, tree in MODULES.items() for stmt in tree.body
             for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and _last_name(node.func) == "check_density"]
    assert [c[:2] for c in calls] == [("cli", "load_state_json")], \
        f"check_density called outside cli.load_state_json: {calls}"
