import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]

# functions that compute statements of the paper, kept in the library
# although only the tests call them
PAPER_STATEMENTS = {
    "anharmonic_orbit",
    "class_count_with_trace",
    "congruence_level",
    "frobenius_trace",
    "geodesic_pullback_splitting",
    "slp_class_census",
}


def _is_self_read(node):
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"


def _reads(node):
    # how often each name is read in the subtree of node, as a variable or
    # an attribute of anything but self
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and not _is_self_read(sub)
    )


def _self_reads(node):
    # how often each name is read as an attribute of self in the subtree of node
    return Counter(sub.attr for sub in ast.walk(node) if _is_self_read(sub))


def _library():
    # the parsed modules of src/mti but its __init__, which imports its
    # exports only for importers, and the names read in all of them
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "mti").glob("*.py")
        if path.name != "__init__.py"
    ]
    return trees, sum(map(_reads, trees), Counter())


def _read_elsewhere(name, definition, reads):
    # whether the library reads the name outside the definition that binds it
    return reads[name] > _reads(definition)[name]


def _top_level_names(tree):
    # each function, class and assigned name at the top of a module, with
    # the statement that binds it
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                yield from ((node.id, top) for node in ast.walk(target) if isinstance(node, ast.Name))


def test_every_library_definition_is_run_by_the_cli_the_census_or_the_benchmark():
    # slow reference implementations live in tests/oracles.py; a top-level
    # function, class or assigned name of src/mti that no other code there
    # reads and perfbench's worker does not import is dead code, unless it
    # states the paper
    trees, reads = _library()
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    benchmarked = {
        alias.name
        for node in ast.walk(worker)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mti"
        for alias in node.names
    }
    unused = [
        name
        for tree in trees
        for name, top in _top_level_names(tree)
        if name not in benchmarked and not _read_elsewhere(name, top, reads)
    ]
    assert sorted(set(unused) - PAPER_STATEMENTS) == []


def test_every_library_method_is_run_by_the_library_or_the_benchmark():
    # a method or property of a src/mti class that nothing in src/mti
    # outside its own body reads, and that perfbench's worker does not
    # read, is run by tests only: it belongs in tests/oracles.py; the
    # dunders are read by the language, not by name. A read of self.<name>
    # counts only in the class it appears in; other reads are matched by
    # bare name, so one read under the same name on another class counts:
    # IntMatrix.from_rows hid the unused Sl2Matrix.from_rows
    trees, reads = _library()
    worker = _reads(ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8")))
    unused = [
        f"{top.name}.{meth.name}"
        for tree in trees
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for meth in top.body
        if isinstance(meth, ast.FunctionDef) and not (meth.name.startswith("__") and meth.name.endswith("__"))
        if meth.name not in worker and not _read_elsewhere(meth.name, meth, reads)
        if _self_reads(top)[meth.name] == _self_reads(meth)[meth.name]
    ]
    assert unused == []


def _unread_imports(tree):
    # the names a module binds by import and never reads; the names of
    # `from __future__ import ...` are compiler directives, not bindings
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    # src/mti/__init__.py imports its exports, which only its importers read
    paths = [p for p in sorted((ROOT / "src" / "mti").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unread = {
        path.relative_to(ROOT).as_posix(): names
        for path in paths
        if (names := _unread_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unread == {}
