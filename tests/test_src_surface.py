import ast
import pathlib

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


def _names(tree, skip=None):
    # every name read anywhere in the tree, as a variable or an attribute,
    # outside the top-level definition named skip
    out = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_library_definition_is_run_by_the_cli_the_census_or_the_benchmark():
    # slow reference implementations live in tests/oracles.py; a top-level
    # function or class of src/mti that no other definition there reads
    # and perfbench's worker does not import is dead code, unless it
    # states the paper
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "mti").glob("*.py")}
    del trees["__init__.py"]
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    benchmarked = {
        alias.name
        for node in ast.walk(worker)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mti"
        for alias in node.names
    }
    unused = []
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                readers = (_names(other, skip=top.name) for other in trees.values())
                if not any(top.name in names for names in readers) and top.name not in benchmarked:
                    unused.append(top.name)
    assert sorted(set(unused) - PAPER_STATEMENTS) == []


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
