"""Outside-in span tracer for the trifocal package.

The tracer never edits the library.  It replaces a function object with a
timing wrapper in every ``trifocal.*`` module namespace that binds it, so
``from .poly import apply_shift`` copies are caught as well as intra-module
calls, and it replaces methods on their classes.  A span stack attributes
time: a span's self time is its duration minus the durations of the spans
it directly encloses, and a function that re-enters itself adds to
``total_s`` only at its outermost call.

Only call sites above the per-monomial level are wrapped; wrapping
``Poly.add_term``, ``mono_mul`` or ``var_ijk`` (millions of calls in a
degree-6 run) would swamp the numbers being measured.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter


def _count_len(field):
    def hook(stat, result):
        stat.add(field, len(result))
    return hook


def _count_blocks(stat, groups):
    sizes = [len(rows) for rows in groups.values()]
    stat.add("blocks", len(sizes))
    stat.add("rows", sum(sizes))
    stat.peak("max_block_rows", max(sizes, default=0))


def _count_accepts(stat, accepted):
    stat.add("accepted", 1 if accepted else 0)


# (module, attribute path, optional result hook).  A dotted path names a
# method on a class; a bare class name wraps its constructor.
TARGETS = (
    ("scalars", "rational_reconstruction", None),
    ("linalg", "rank", None),
    ("linalg", "det", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "kernel_basis_int", None),
    ("linalg", "rref_mod_p", None),
    ("linalg", "Echelon.add", _count_accepts),
    ("tensor", "frank", None),
    ("tensor", "prank", None),
    ("tensor", "act", None),
    ("tensor", "random_orbit_point", None),
    ("cameras", "CameraTriple", None),
    ("cameras", "trifocal_from_cameras", None),
    ("poly", "apply_shift", None),
    ("poly", "weight_space_basis", _count_len("monomials")),
    ("rep", "hw_space", None),
    ("rep", "module_span", None),
    ("ideal", "discover", None),
    ("ideal", "scan_degree", None),
    ("ideal", "vanishing_subspace", None),
    ("ideal", "trifocal_points", None),
    ("ideal", "evaluate_batch", None),
    ("ideal", "rows_in_weight_block", _count_len("rows")),
    ("ideal", "slice_rows_by_weight", _count_blocks),
    ("ideal", "ideal_dim_in_degree", None),
    ("ideal", "hilbert_quotient", None),
    ("ideal", "hilbert_with_witnesses", None),
    ("ideal", "graded_nonzerodivisor_check", None),
    ("orbits", "is_trifocal", None),
    ("orbits", "classify_component", None),
    ("orbits", "m3_vanishes", None),
)

LAYERS = ("scalars", "linalg", "tensor", "cameras", "poly", "rep", "ideal", "orbits")


class Stat:
    """Accumulated calls, times and counters of one traced name."""

    __slots__ = ("calls", "self_s", "total_s", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.counters = {}

    def add(self, field, n):
        self.counters[field] = self.counters.get(field, 0) + n

    def peak(self, field, n):
        self.counters[field] = max(self.counters.get(field, 0), n)


class Tracer:
    """Span stack plus per-name statistics; ``install`` patches the
    package, ``uninstall`` restores every binding it replaced."""

    def __init__(self):
        self.stats = {}
        self.stack = [[0.0]]   # child-time accumulators; [0] is the root
        self.calls = 0         # spans closed so far, stages included
        self._undo = []

    def _wrap(self, key, fn, hook=None):
        stat = self.stats.setdefault(key, Stat())
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat.depth -= 1
                stat.calls += 1
                self.calls += 1
                stat.self_s += dt - frame[0]
                if stat.depth == 0:
                    stat.total_s += dt
            if hook is not None:
                hook(stat, result)
            return result

        return traced

    @contextmanager
    def span(self, key):
        """A span opened by the benchmark itself (one workload stage)."""
        stat = self.stats.setdefault(key, Stat())
        frame = [0.0]
        self.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            dt = _clock() - t0
            self.stack.pop()
            self.stack[-1][0] += dt
            stat.calls += 1
            self.calls += 1
            stat.self_s += dt - frame[0]
            stat.total_s += dt

    def install(self, targets=TARGETS):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "trifocal" or name.startswith("trifocal."))]
        for modname, path, hook in targets:
            owner = sys.modules["trifocal." + modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            key = "%s.%s" % (modname, path)
            target = getattr(owner, attr)
            if isinstance(target, type):     # a bare class: time its constructor
                owner, attr = target, "__init__"
            if isinstance(owner, type):
                self._set(owner, attr, self._wrap(key, owner.__dict__[attr], hook))
                continue
            wrapper = self._wrap(key, target, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._set(mod, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def per_call_cost(calls=20000, repeats=5):
    """Seconds one wrapped call adds over a bare call, measured in this
    process with the same wrapper ``Tracer.install`` uses."""
    def bare(x):
        return x
    wrapped = Tracer()._wrap("calibration", bare)
    diffs = []
    for _ in range(repeats):
        t0 = _clock()
        for i in range(calls):
            bare(i)
        t1 = _clock()
        for i in range(calls):
            wrapped(i)
        t2 = _clock()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(diffs), 0.0)
