"""Benchmark of the trifocal package: run one workload, print one JSON line.

    python3 perfbench/run.py --workload paper6|membership --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and nothing else.  With ``--trace 0`` the last
line of stdout holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of an outside-in traced run (see ``tracer.py``).  The
line before it records the run's environment.  End-to-end times are
seconds at a fixed reference speed (see ``hostspeed.py``).  Workloads are
described in ``workloads.py``; metric names and bounds live in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from hostspeed import HostSpeed, bracketed
from tracer import LAYERS, Stat, Tracer, per_call_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "trifocal"
MODULES = ("scalars", "linalg", "tensor", "cameras", "poly", "rep", "ideal", "orbits", "cli")
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("paper6", "membership"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the benchmark's own tests (degree 3, 60 inputs)")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_package():
    """Import trifocal from this checkout's src/, or exit with an error and
    no result line."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit("perfbench: no package at %s; run from a trifocal source checkout" % PACKAGE)
    sys.path.insert(0, str(SRC))
    import trifocal
    if Path(trifocal.__file__).resolve().parent != PACKAGE:
        sys.exit("perfbench: imported trifocal from %s, not %s" % (trifocal.__file__, PACKAGE))


def build(args):
    import workloads
    if args.workload == "paper6":
        return workloads.Paper6(args.seed, **({"degree": 3, "points": 2} if args.smoke else {}))
    return workloads.Membership(args.seed, count=60 if args.smoke else None)


def setup_seconds(args):
    """Median, over fresh processes, of the seconds from ``import trifocal``
    to workload ready (the package's imports, normal form, catalog, input
    generation), at the reference speed.  The interpreter's start and numpy's
    import come before the window: neither is the package's code, and both
    drift with the host's loader and page cache, not with its Python speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(proc.stdout.splitlines()[-1]))
    return statistics.median(times)


def run_info():
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def source_lines():
    """Lines per module (0 once a module is gone) and in the whole package."""
    lines = {}
    for m in MODULES:
        path = PACKAGE / (m + ".py")
        lines[m] = len(path.read_text().splitlines()) if path.is_file() else 0
    lines["total"] = sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py"))
    return lines


class Stages:
    """Wall time, traced-call count and host-speed samples of each
    workload stage; with a ``host`` sampler the time excludes its samples."""

    def __init__(self, tracer=None, host=None):
        self.tracer = tracer
        self.host = host
        self.clock = host.now if host else time.perf_counter
        self.seconds = {}
        self.calls = {}
        self.samples = {}

    @contextmanager
    def __call__(self, name):
        tracer = self.tracer
        calls0 = tracer.calls if tracer else 0
        sample0 = len(self.host.rates) if self.host else 0
        t0 = self.clock()
        if tracer:
            with tracer.span("stage." + name):
                yield
        else:
            yield
        self.seconds[name] = self.clock() - t0
        self.calls[name] = tracer.calls - calls0 if tracer else 0
        if self.host:
            self.samples[name] = (sample0, len(self.host.rates))

    def scales(self):
        """Reference seconds per host second during each stage."""
        return {name: self.host.scale(*span) for name, span in self.samples.items()}


def end_to_end(workload, stages, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "work_s": (workload.work_s(stages.seconds, stages.scales()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# (traced name, fields reported): calls, self_s and total_s come from the
# span stack, the other fields from the tracer's result hooks
REPORTED = (
    ("rep.module_span", ("calls", "self_s", "total_s")),
    ("poly.apply_shift", ("calls", "self_s")),
    ("rep.hw_space", ("calls", "total_s")),
    ("poly.weight_space_basis", ("calls", "self_s", "monomials")),
    ("linalg.rref_mod_p", ("calls", "self_s")),
    ("linalg.kernel_basis_int", ("calls", "self_s")),
    ("scalars.rational_reconstruction", ("calls", "self_s")),
    ("ideal.vanishing_subspace", ("calls", "self_s")),
    ("linalg.kernel_basis", ("calls", "self_s")),
    ("ideal.rows_in_weight_block", ("calls", "self_s", "rows")),
    ("ideal.slice_rows_by_weight", ("calls", "self_s", "blocks", "rows", "max_block_rows")),
    ("ideal.ideal_dim_in_degree", ("self_s",)),
    ("ideal.hilbert_with_witnesses", ("self_s",)),
    ("ideal.scan_degree", ("self_s",)),
    ("linalg.Echelon.add", ("calls", "self_s")),
    ("ideal.evaluate_batch", ("calls", "self_s")),
    ("cameras.CameraTriple", ("calls", "self_s")),
    ("cameras.trifocal_from_cameras", ("calls", "self_s")),
    ("orbits.is_trifocal", ("calls", "self_s")),
    ("orbits.classify_component", ("calls", "self_s")),
    ("orbits.m3_vanishes", ("calls", "self_s")),
    ("tensor.prank", ("calls", "self_s")),
    ("tensor.frank", ("calls", "self_s")),
    ("tensor.act", ("calls", "self_s")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.det", ("calls", "self_s")),
)
STAGES = ("discover", "hilbert", "nzd", "nzd_p32003", "certify", "membership")


def per_layer(workload, stages, tracer, cost):
    empty = Stat()
    stats = tracer.stats
    out = {}
    for key, fields in REPORTED:
        s = stats.get(key, empty)
        for field in fields:
            if field in ("self_s", "total_s"):
                out[key + "." + field] = (getattr(s, field), "s")
            elif field == "calls":
                out[key + ".calls"] = (s.calls, "count")
            else:
                out[key + "." + field] = (s.counters.get(field, 0), "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["linalg.kernel_primes_per_lift"] = (ratio(
        stats.get("linalg.rref_mod_p", empty).calls,
        stats.get("linalg.kernel_basis_int", empty).calls), "ratio")
    # each vanishing attempt draws two batches of orbit points
    out["ideal.vanishing_subspace.attempts"] = (
        stats.get("ideal.trifocal_points", empty).calls // 2, "count")
    echelon = stats.get("linalg.Echelon.add", empty)
    out["linalg.Echelon.add.accept_ratio"] = (
        ratio(echelon.counters.get("accepted", 0), echelon.calls), "ratio")

    for layer in LAYERS:
        out["layer.%s.self_s" % layer] = (
            sum(s.self_s for k, s in stats.items() if k.startswith(layer + ".")), "s")
    out["bench.self_s"] = (sum(s.self_s for k, s in stats.items() if k.startswith("stage.")), "s")
    for name in STAGES:
        out["stage.%s_s" % name] = (stages.seconds.get(name, 0.0), "s")
    for q in (50, 99):
        out["stage.membership_p%d_ms" % q] = (
            workload.percentile_ms(q / 100) if hasattr(workload, "latencies") else 0.0, "ms")

    # tracer share of each stage and of the work: traced calls x per-call cost
    for name in STAGES:
        out["overhead.%s_s" % name] = (
            ratio(stages.calls.get(name, 0) * cost, stages.seconds.get(name, 0.0)), "frac")
    out["overhead.work_s"] = (ratio(sum(stages.calls.values()) * cost,
                                    sum(stages.seconds.values())), "frac")
    out["tracer.per_call_us"] = (cost * 1e6, "us")
    for module, n in source_lines().items():
        out["lines." + module] = (n, "lines")
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        import numpy  # noqa: F401  (before the window, see setup_seconds)
        print(repr(bracketed(lambda: (import_package(), build(args)))))
        return 0
    import_package()
    workload = build(args)
    import workloads
    checks = workloads.Checks()
    info = run_info()
    if args.trace:
        tracer = Tracer()
        tracer.install()
        stages = Stages(tracer)
        try:
            workload.run(stages, checks, args.seconds)
        finally:
            tracer.uninstall()
        metrics = per_layer(workload, stages, tracer, per_call_cost())
    else:
        setup_s = setup_seconds(args)
        with HostSpeed() as host:
            stages = Stages(host=host)
            workload.run(stages, checks, args.seconds, clock=host.now)
        metrics = end_to_end(workload, stages, setup_s)
        info["host_stages"] = {name: {"seconds": stages.seconds[name], "scale": scale}
                               for name, scale in stages.scales().items()}
        info["host_work_s"] = workload.work_s(stages.seconds)
    print("run-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
