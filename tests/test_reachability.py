"""The package holds what its commands and the benchmark run.

Every function, class and method of ``src/radlab`` must be read somewhere
in ``src`` outside its own body, by name or as an attribute, unless a
benchmark file holds it.  Imports, ``__all__`` and dunders do not count as
a reader; the test's oracles live under ``tests/``.  And every name a
module of ``src``, ``tests`` or ``scripts`` imports must be read in it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radlab"

#: The definitions that nothing in ``src`` reads, each with the benchmark
#: file that holds it: the span tracer wraps the first two and reads
#: ``sweeps``, and the reference maker calls ``sample``.
RADBENCH_HELD = {
    "BootstrapSegment.sweeps": "radbench/spans.py",
    "RadialSolution.sample": "radbench/make_reference.py",
    "adaptive_quad": "radbench/spans.py",
    "phi_inverse": "radbench/spans.py",
}


def _definitions(node, prefix=""):
    """(qualified name, name, node) of every function and class under
    ``node``, nested ones included, dunders left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + child.name
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield qualified, child.name, child
            yield from _definitions(child, qualified + ".")
        else:
            yield from _definitions(child, prefix)


def unreached_definitions() -> list[str]:
    """The qualified names of the definitions in ``src/radlab`` that no
    code in it loads outside their own bodies, sorted."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    loads = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unreached = []
    for tree in trees:
        for qualified, name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(read == name and id(node) not in own for read, node in loads):
                unreached.append(qualified)
    return sorted(unreached)


def test_src_reaches_its_own_definitions():
    assert unreached_definitions() == sorted(RADBENCH_HELD)
    for qualified, path in RADBENCH_HELD.items():
        assert qualified.split(".")[-1] in (ROOT / path).read_text(), (qualified, path)


#: The imports that nothing in their module reads, each held by the
#: benchmark: the span tracer wraps these names in these modules.
RADBENCH_IMPORTS = {
    "src/radlab/solver.py": {"phi_inverse"},
    "src/radlab/criteria.py": {"adaptive_quad"},
}


def unused_imports() -> list[str]:
    """``path:line name`` of each name that a module of ``src``, ``tests``
    or ``scripts`` imports and never loads.  ``__future__`` features, the
    names of ``__all__`` and the names of ``RADBENCH_IMPORTS`` are left
    out."""
    paths = [*SRC.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")]
    unused = []
    for path in sorted(paths):
        text = path.read_text()
        tree = ast.parse(text)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and [
                getattr(target, "id", None) for target in node.targets
            ] == ["__all__"]:
                loaded.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            held = RADBENCH_IMPORTS.get(str(path.relative_to(ROOT)), set())
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded | held:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_every_import_is_read():
    assert unused_imports() == []
    spans = (ROOT / "radbench" / "spans.py").read_text()
    for path, names in RADBENCH_IMPORTS.items():
        for name in names:
            assert name in (ROOT / path).read_text() and name in spans, (path, name)


def test_verify_imports_nothing_from_the_solver():
    # The checks read a trajectory; none runs a march.
    tree = ast.parse((SRC / "verify.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "solver" in name.split(".")], imported
