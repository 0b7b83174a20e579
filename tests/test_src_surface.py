import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# functions that compute statements of the paper, kept in the library
# although only the tests call them
PAPER_STATEMENTS = {
    "anharmonic_orbit",
    "class_count_with_trace",
    "congruence_level",
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
