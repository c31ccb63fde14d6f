"""Every name a module lists in __all__ exists in it."""

import importlib
import pkgutil

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
