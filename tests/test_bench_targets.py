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
    """perfbench/tests/test_perfbench.py::test_traced_counts_repeat_at_one_seed
    asserts these counters on paper6, and tier-1 does not run it; a
    discover(3) and its H(3) already reach each one."""
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        gens = ideal.discover(3, trifocal_nf, seed=2024).gens
        ideal.hilbert_quotient(gens, 3)
    finally:
        t.uninstall()
    calls = {key: stat.calls for key, stat in t.stats.items()}
    blocks = t.stats["ideal.slice_rows_by_weight"].counters
    assert calls["rep.module_span"] > 0 and blocks["blocks"] > 0 and blocks["rows"] > 0
    assert calls["ideal.trifocal_points"] // 2 > 0   # vanishing attempts: two batches of points each
    assert calls["linalg.Echelon.add"] > 0 and calls["linalg.rref_mod_p"] > 0
    assert 0 < t.stats["linalg.Echelon.add"].counters["accepted"] / calls["linalg.Echelon.add"] <= 1
    assert calls["linalg.rref_mod_p"] / calls["linalg.kernel_basis_int"] > 0   # primes per lift
