"""The benchmark's traced entry points must exist in the package.

``perfbench/tracing.py`` rebinds every (module, function) pair of its
``layers`` table; a renamed or deleted function would otherwise surface only
as an AttributeError inside a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import skinspec
import skinspec.cli  # noqa: F401  (tracing.layers reads skinspec.cli)


def test_traced_layers_exist(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        name for name, module, fn, _, _ in tracing.layers(skinspec)
        if not callable(getattr(module, fn, None))
    ]
    assert not missing
