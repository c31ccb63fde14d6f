"""The traced benchmark's wrap map names functions the program has.

bench/worker.py:install wraps program functions at the attributes where
their callers look them up. A rename there would otherwise surface only in a
traced benchmark run; installing and restoring the wrappers here fails first.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_functions_and_restore_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker imports its siblings by name
    spans, worker = _load(monkeypatch, "spans"), _load(monkeypatch, "worker")
    tracer = spans.Tracer()
    try:
        worker.install(tracer)
        installed = list(tracer._installed)
        assert installed
        for module, attr, fn in installed:
            assert callable(fn) and getattr(module, attr) is not fn
    finally:
        tracer.restore()
    for module, attr, fn in installed:
        assert getattr(module, attr) is fn
