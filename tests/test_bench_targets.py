"""The benchmark tracer's targets still name functions of the package.

perfbench/tracer.py wraps the names in its TARGETS list; a renamed or
deleted function would otherwise fail only the slower benchmark tests.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if mod is not None and name.startswith("trifocal")
            for attr, value in vars(mod).items()}


def test_tracer_targets_resolve_and_uninstall_restores_them():
    tracer = _load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module("trifocal." + layer)
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install()
        assert {"%s.%s" % (m, path) for m, path, _ in tracer.TARGETS} == set(t.stats)
        assert _bindings() != before
    finally:
        t.uninstall()
    assert _bindings() == before
