"""Every name a module lists in __all__ exists in it, and every name a module
imports is used in it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import moefusion


def test_all_names_exist():
    checked = 0
    for info in pkgutil.iter_modules(moefusion.__path__):
        module = importlib.import_module(f"moefusion.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"moefusion.{info.name}.__all__ names {missing}"
        checked += 1
    assert checked, "no module lists __all__"


def _used_names(tree):
    """Names the module reads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    """__init__.py re-exports by design, and a name listed in __all__ counts as used."""
    unused = []
    for path in sorted(Path(moefusion.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {n}" for n in names if n not in used]
    assert not unused, f"imported but never used: {unused}"
