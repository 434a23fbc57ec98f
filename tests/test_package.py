import ast
import importlib
import types
from pathlib import Path

import torsorcheck


def test_star_import_binds_no_module():
    namespace = {}
    exec("from torsorcheck import *", namespace)
    del namespace["__builtins__"]
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert sorted(namespace) == sorted(torsorcheck.__all__)


def test_all_lists_every_public_name_once():
    public = {n for n, v in vars(torsorcheck).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(torsorcheck.__all__) == len(set(torsorcheck.__all__))
    assert set(torsorcheck.__all__) == public
    assert all(hasattr(torsorcheck, name) for name in torsorcheck.__all__)


def test_submodules_still_import_by_name():
    from torsorcheck import connections, grids

    assert connections.CHERN_NORMALIZATION == torsorcheck.CHERN_NORMALIZATION
    assert grids.dbar_at_points is torsorcheck.dbar_at_points


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_an_unused_name():
    # a name counts as used when it is read, exported in __all__, or a dunder
    unused = {}
    for path in sorted(Path(torsorcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported_names(tree)
        names = sorted(n for n in _imported_names(tree) - used
                       if not (n.startswith("__") and n.endswith("__")))
        if names:
            unused[path.name] = names
    assert unused == {}


def _benchmark_layer_calls() -> list:
    """``LAYER_CALLS`` of the benchmark's tracer, read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYER_CALLS")


def test_benchmark_layer_calls_resolve():
    # the tracer looks a method up in its class's own vars and a function in its
    # module; a name it cannot find records no spans and yields no metric
    missing = []
    for module, path, _ in _benchmark_layer_calls():
        mod = importlib.import_module(f"torsorcheck.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # what the block's comments promise
    assert abs(namespace["cycles"][0, 1] - (-1)) <= 1e-12
    assert namespace["ok"] is True


def _unreferenced_definitions() -> list:
    """Top-level functions and classes, and methods, of ``src`` that no module of it names.

    A definition counts as referenced when some module other than
    ``__init__.py`` reads its name as a ``Name``, an ``Attribute`` or an
    ``ImportFrom``; dunder methods are called implicitly and are skipped.
    """
    defined, referenced = {}, set()
    for path in sorted(Path(torsorcheck.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    return sorted(qualified for qualified, name in defined.items() if name not in referenced)


def test_no_definition_lacks_a_reader_unless_pinned():
    # dead code cannot land silently: every definition that nothing in src reads is named here
    assert _unreferenced_definitions() == [
        # traced by the benchmark's LAYER_CALLS; deleted with the grid path once
        # the tracer drops them
        "bundles.TorusHomomorphism.apply",
        "grids.GridFunction.sample",
        "grids.dbar_fd",
        # the canonical isomorphism on non-constant sections is to give it a caller
        "torsors.TorsorMorphism.apply",
    ]
