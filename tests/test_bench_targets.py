"""The benchmark tracer's targets still name functions of the package.

perfbench/tracer.py wraps the names in its TARGETS list; a renamed or
deleted function would otherwise fail only the slower benchmark tests.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from trifocal import ideal

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


def test_discover_reaches_the_counted_linalg_targets(trifocal_nf):
    """perfbench/tests asserts these counters are above 0 on paper6; a
    discover(3) already calls each one."""
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        ideal.discover(3, trifocal_nf, seed=2024)
    finally:
        t.uninstall()
    for key in ("linalg.Echelon.add", "linalg.rref_mod_p", "linalg.kernel_basis_int"):
        assert t.stats[key].calls > 0, key
