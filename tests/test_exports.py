"""Every name a module lists in __all__ exists in it, every name a module
imports is used in it, each submodule attribute of the package is its
module, every top-level definition is reachable from the program or the
benchmark, and every parameter with a default is passed by one of their
calls and left out by another."""

import ast
import importlib
import pkgutil
from collections import deque
from pathlib import Path

import moefusion

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    """A name listed in __all__ counts as used."""
    unused = []
    for path in sorted(Path(moefusion.__file__).parent.glob("*.py")):
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


def test_submodule_attributes_are_modules():
    shadowed = []
    for info in pkgutil.iter_modules(moefusion.__path__):
        module = importlib.import_module(f"moefusion.{info.name}")
        if getattr(moefusion, info.name) is not module:
            shadowed.append(info.name)
    assert not shadowed, f"package attributes that are not their submodule: {shadowed}"


class _Package:
    """The top-level definitions of src/moefusion's modules, the names each
    one references, and where each module's imported names come from."""

    def __init__(self):
        self.defs: dict[str, dict[str, ast.AST]] = {}
        self.imports: dict[str, dict[str, tuple[str, str | None]]] = {}
        self.import_time: list[tuple[str, ast.AST]] = []  # statements run on import
        for path in sorted(Path(moefusion.__file__).parent.glob("*.py")):
            mod = path.stem
            self.defs[mod], self.imports[mod] = {}, {}
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[mod][node.name] = node
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name) and not t.id.startswith("__"):
                            self.defs[mod][t.id] = node
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for a in node.names:
                        # `from . import m` binds a module, `from .m import x` a name
                        self.imports[mod][a.asname or a.name] = \
                            (node.module, a.name) if node.module else (a.name, None)
                elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                    self.import_time.append((mod, node))

    def resolve(self, mod: str, name: str) -> tuple[str, str] | None:
        """The definition that name, looked up in module mod, is."""
        if mod not in self.defs:
            return None
        if name in self.defs[mod]:
            return mod, name
        source, orig = self.imports[mod].get(name, (None, None))
        return self.resolve(source, orig) if orig else None

    def references(self, mod: str, node: ast.AST):
        modules = {k: m for k, (m, orig) in self.imports[mod].items() if orig is None}
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield self.resolve(mod, n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in modules:
                yield self.resolve(modules[n.value.id], n.attr)


def _bench_roots(pkg: _Package):
    """The definitions a bench file imports from moefusion, reads as an
    attribute of an imported moefusion module, or names in a string (the
    wrap map's attribute names) that such a module defines or imports."""
    for path in (BENCH / "run.py", BENCH / "worker.py", BENCH / "test_checks.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "moefusion":
                modules.update({a.asname or a.name: a.name for a in n.names})
            elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("moefusion."):
                mod = n.module.removeprefix("moefusion.")
                yield from (pkg.resolve(mod, a.name) for a in n.names)
            elif isinstance(n, ast.Import):
                modules.update({a.asname: a.name.removeprefix("moefusion.") for a in n.names
                                if a.name.startswith("moefusion.") and a.asname})
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in modules:
                yield pkg.resolve(modules[n.value.id], n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield from (pkg.resolve(m, n.value) for m in set(modules.values()))


def test_every_definition_is_reachable():
    """Walks name references out from cli.main, the statements a module runs
    on import and what the benchmark uses; a definition it does not reach
    serves only tests, and belongs in tests/."""
    pkg = _Package()
    todo = deque([("cli", "main"), *_bench_roots(pkg)])
    todo += (ref for mod, node in pkg.import_time for ref in pkg.references(mod, node))
    seen = set()
    while todo:
        ref = todo.popleft()
        if ref is None or ref in seen:
            continue
        seen.add(ref)
        todo += pkg.references(ref[0], pkg.defs[ref[0]][ref[1]])
    unreached = sorted(f"{mod}.{name}" for mod, names in pkg.defs.items()
                       for name in names if (mod, name) not in seen)
    assert not unreached, f"defined in src/moefusion but used only by tests: {unreached}"


def _calls(paths):
    """Every call in the files, as (callee's last name, call node)."""
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                yield (n.func.id if isinstance(n.func, ast.Name) else n.func.attr), n


def _defs(path):
    """(where, the name a call uses, positions a call skips, def) for every
    function and method of a module; a class's __init__ is called by the
    class's name, and a method's self is not passed at the call."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef):
            yield f"{path.stem}.{top.name}", top.name, 0, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    yield (f"{path.stem}.{top.name}.{node.name}",
                           top.name if node.name == "__init__" else node.name,
                           0 if static else 1, node)


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, or None if keyword-only; name) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None]


def _passes(call: ast.Call, skip: int, position: int | None, name: str) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):  # name= or **kw
        return True
    if position is None:
        return False
    given = [a for a in call.args if not isinstance(a, ast.Starred)]
    return len(given) + skip > position or len(given) < len(call.args)  # or *args


def _defaulted_params():
    """("module.function.param", whether each call of that function in the
    program or the benchmark passes it) for every parameter with a default
    in src/moefusion."""
    src = sorted(Path(moefusion.__file__).parent.glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for name, call in _calls(src + [BENCH / "run.py", BENCH / "worker.py",
                                    BENCH / "test_checks.py"]):
        calls.setdefault(name, []).append(call)
    for path in src:
        for where, name, skip, fn in _defs(path):
            for position, param in _defaulted(fn):
                yield f"{where}.{param}", [_passes(c, skip, position, param)
                                           for c in calls.get(name, [])]


def test_every_parameter_is_passed():
    """A parameter with a default that no call in the program or the
    benchmark passes has one value in use; its other values serve only
    tests."""
    unpassed = [p for p, passed in _defaulted_params() if not any(passed)]
    assert not unpassed, f"parameters that only tests pass: {sorted(unpassed)}"


def test_every_default_is_taken():
    """A default that every call in the program and the benchmark overrides
    states a value a second time; only tests take it."""
    untaken = [p for p, passed in _defaulted_params() if all(passed)]
    assert not untaken, f"defaults that only tests take: {sorted(untaken)}"
