"""The two benchmark workloads, their seeded inputs and their fixed points.

Both are one Python process with one client in a closed loop: the next
library call starts only after the previous one returned and its result
was checked.  Inputs come from the benchmark's own seeded generators; the
library receives only the generated tensors, cameras and seeds.

paper6
    What the acceptance suite and ``trifocal discover/hilbert/nzd`` do:
    ``discover(6)`` from cold caches at the seed both use, H(1..6) at
    p=101, the graded non-zero-divisor identities for f and g through
    degree 6 at p=101 and then p=32003, and exact evaluation of all 2071
    generators at 16 seeded orbit points.  One work unit is the whole
    pipeline.
membership
    A seeded stream of membership questions, about half camera triples,
    a quarter random integer tensors and a quarter images of catalog forms
    under invertible group elements.  It never reaches ``rep``, the mod-p
    kernels or the graded sweeps.  One work unit is 1000 inputs of the
    nominal mix.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time

# Library calls go through module attributes so that the outside-in tracer,
# which rebinds names inside the trifocal modules, sees them.
from trifocal import cameras, ideal, orbits, tensor
from trifocal.poly import f_determinant, witness_g

# --- the paper's fixed points ----------------------------------------------

HILBERT = {0: 1, 1: 27, 2: 378, 3: 3644, 4: 27135, 5: 166050, 6: 865860}
NEW_GENERATORS = {1: 0, 2: 0, 3: 10, 4: 0, 5: 81, 6: 1980}
MODULES = {
    3: {((1, 1, 1), (1, 1, 1), (3,)): 10},
    5: {((2, 2, 1), (2, 2, 1), (3, 1, 1)): 54,
        ((2, 2, 1), (2, 2, 1), (2, 2, 1)): 27},
    6: {((2, 2, 2), (3, 3), (3, 3)): 100,
        ((3, 3), (2, 2, 2), (3, 3)): 100,
        ((2, 2, 2), (3, 3), (4, 1, 1)): 100,
        ((3, 3), (2, 2, 2), (4, 1, 1)): 100,
        ((3, 3), (3, 2, 1), (3, 2, 1)): 640,
        ((3, 2, 1), (3, 3), (3, 2, 1)): 640,
        ((3, 3), (4, 1, 1), (2, 2, 2)): 100,
        ((4, 1, 1), (3, 3), (2, 2, 2)): 100,
        ((3, 3), (3, 3), (2, 2, 2)): 100},
}
PRIMES = (101, 32003)
# The seed `trifocal discover` and the acceptance suite use.  The benchmark
# seed does not reach discover(): for about one seed in ten the vanishing
# test accepts a certificate that does not vanish (see
# test_vanishing_false_positive), so discovery returns extra modules and at
# degree 6 runs for many minutes.  The seed picks the certify points.
DISCOVERY_SEED = 2024

# verdict of is_trifocal, the P-Rank its reason names, and the component;
# all three are invariant under the group action
TRIFOCAL = (True, "P-Rank (3, 3, 2)", "Trifocal")
RANDOM = (False, "no pencil drops rank", "NotInVM3")
CATALOG = {
    "skew": (False, "P-Rank (2, 2, 2)", "PRank222"),
    "sub233": (False, "P-Rank (3, 2, 2)", "Sub233"),
    "sub323": (False, "P-Rank (2, 3, 2)", "Sub323"),
    "sub332": (False, "P-Rank (2, 2, 3)", "NotInVM3"),
    "orbit17": (False, "P-Rank (2, 2, 2)", "Sub233"),
    "orbit18": (False, "P-Rank (2, 2, 2)", "Sub233"),
    "trifocal-slices": TRIFOCAL,
}
DEGENERATE = "degenerate camera triple"
# share of each input kind in the membership stream
MIX = {"camera": 0.5, "random": 0.25, "catalog": 0.25}


class Checks:
    """Correctness checks attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("check failed: %s" % what, file=sys.stderr)


# --- exact small determinants, independent of the library -------------------

def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det4(m):
    return sum((-1) ** j * m[0][j] * det3([[r[c] for c in range(4) if c != j] for r in m[1:]])
               for j in range(4))


def cofactors(rows):
    """Signed maximal minors of a 3x4 matrix: its kernel vector when the
    rank is 3, and zero exactly when the rank is below 3."""
    return [(-1) ** j * det3([[r[c] for c in range(4) if c != j] for r in rows])
            for j in range(4)]


def proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i in range(4) for j in range(i + 1, 4))


def group_element(rng, bound=5):
    while True:
        g = tuple([[rng.randint(-bound, bound) for _ in range(3)] for _ in range(3)]
                  for _ in range(3))
        if all(det3(m) != 0 for m in g):
            return g


def triple_verdict(cams):
    """The verdict a camera triple must get: a degenerate triple (a
    rank-deficient camera, two shared centres or a rank-deficient stacked
    4x9 matrix) is refused, a triple with three collinear centres has no
    fixed verdict (None), and any other triple gives a trifocal tensor."""
    centres = [cofactors(m) for m in cams]
    if any(not any(c) for c in centres):
        return DEGENERATE
    if any(proportional(u, v) for u, v in itertools.combinations(centres, 2)):
        return DEGENERATE
    rows = [row for m in cams for row in m]
    if not any(det4([[rows[c][r] for c in cols] for r in range(4)])
               for cols in itertools.combinations(range(9), 4)):
        return DEGENERATE
    return TRIFOCAL if any(cofactors(centres)) else None


def camera_triple(rng, bound=9):
    """Three random integer 3x4 cameras with a fixed verdict."""
    while True:
        cams = [[[rng.randint(-bound, bound) for _ in range(4)] for _ in range(3)]
                for _ in range(3)]
        want = triple_verdict(cams)
        if want is not None:
            return cams, want


# --- paper6 -------------------------------------------------------------------

def nzd_table(e, cap):
    """Expected (H(base+f), H(base+f)) pairs of the graded identity for a
    degree-e non-zero-divisor: H(base+f, d) = H(d) - H(d - e)."""
    table = {}
    for d in range(1, cap + 1):
        want = HILBERT[d] - (HILBERT[d - e] if d >= e else 0)
        table[d] = (want, want)
    return table


class Paper6:
    """discover(degree) -> H(1..degree) -> NZD f, g at both primes -> certify.

    The pipeline is fixed work and takes longer than any ``seconds``.  The
    named workload runs degree 6 with 16 certify points; ``degree`` and
    ``points`` are smaller only in the benchmark's own smoke tests."""

    stages = ("discover", "hilbert", "nzd", "nzd_p32003", "certify")

    def __init__(self, seed, degree=6, points=16):
        rng = random.Random(seed)
        self.degree = degree
        self.nf = orbits.trifocal_normal_form()
        self.points = [tensor.act(group_element(rng), self.nf) for _ in range(points)]
        self.witnesses = {"f": f_determinant(), "g": witness_g()}

    def work_s(self, stage_seconds, scales=None):
        """Seconds of the whole pipeline, each stage's seconds multiplied
        by its entry in ``scales`` (host-speed factors) when given."""
        scales = scales or {}
        return sum(stage_seconds[s] * scales.get(s, 1.0) for s in self.stages)

    def run(self, stage, checks, seconds, clock=time.perf_counter):
        d = self.degree
        with stage("discover"):
            disc = ideal.discover(d, self.nf, seed=DISCOVERY_SEED)
        checks.check(disc.counts() == {e: NEW_GENERATORS[e] for e in range(1, d + 1)},
                     "generator counts %r" % disc.counts())
        modules = {}
        for m in disc.modules():
            modules.setdefault(m.degree, {})[m.label] = m.dim
        want = {e: MODULES[e] for e in MODULES if e <= d}
        checks.check(modules == want, "module labels and dimensions %r" % modules)

        with stage("hilbert"):
            h = {e: ideal.hilbert_quotient(disc.gens, e, p=PRIMES[0]) for e in range(1, d + 1)}
        for e in range(1, d + 1):
            checks.check(h[e] == HILBERT[e], "H(%d) = %d" % (e, h[e]))

        for p, name in zip(PRIMES, ("nzd", "nzd_p32003")):
            with stage(name):
                reports = {w: ideal.graded_nonzerodivisor_check(disc.gens, f, cap=d, p=p)
                           for w, f in self.witnesses.items()}
            for w, rep in reports.items():
                e = self.witnesses[w].degree()
                checks.check(bool(rep) and rep.table == nzd_table(e, d),
                             "NZD %s at p=%d: %r" % (w, p, rep.table))

        gens = [f for m in disc.modules() for f in m.basis]
        checks.check(len(gens) == sum(NEW_GENERATORS[e] for e in range(1, d + 1)),
                     "%d generators" % len(gens))
        with stage("certify"):
            values = [ideal.evaluate_batch(gens, pt) for pt in self.points]
        for i, vals in enumerate(values):
            checks.check(all(v == 0 for v in vals), "generators vanish at point %d" % i)


# --- membership -----------------------------------------------------------------

def decide(item):
    """The library calls timed for one input: build the tensor, then the
    membership test and the component classification."""
    kind, data = item
    if kind == "camera":
        try:
            ct = cameras.CameraTriple(*(cameras.Camera(m) for m in data))
        except cameras.DegenerateConfigurationError:
            return DEGENERATE
        t = cameras.trifocal_from_cameras(ct)
    elif kind == "random":
        t = tensor.Tensor333(data)
    else:
        g, base = data
        t = tensor.act(g, base)
    ok, reason = orbits.is_trifocal(t)
    return ok, reason, orbits.classify_component(t)


def matches(got, want):
    if want == DEGENERATE or got == DEGENERATE:
        return got == want
    return got[0] == want[0] and want[1] in got[1] and got[2] == want[2]


class Membership:
    """Closed loop over a seeded input stream for ``seconds``; ``count``
    fixes the number of inputs instead, only in the smoke tests."""

    stages = ("membership",)

    def __init__(self, seed, count=None):
        self.seed = seed
        self.count = count
        self.bases = {name: nf.tensor for name, nf in orbits.catalog().items()
                      if name in CATALOG}
        self.latencies = {kind: [] for kind in MIX}

    def inputs(self):
        rng = random.Random(self.seed)
        names = sorted(CATALOG)
        while True:
            u = rng.random()
            if u < MIX["camera"]:
                cams, want = camera_triple(rng)
                yield ("camera", cams), want
            elif u < MIX["camera"] + MIX["random"]:
                t = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
                     for _ in range(3)]
                yield ("random", t), RANDOM
            else:
                name = rng.choice(names)
                yield ("catalog", (group_element(rng), self.bases[name])), CATALOG[name]

    def run(self, stage, checks, seconds, clock=time.perf_counter):
        stream = self.inputs()
        if self.count is not None:
            stream = itertools.islice(stream, self.count)
        with stage("membership"):
            end = clock() + seconds
            for item, want in stream:
                t0 = clock()
                got = decide(item)
                self.latencies[item[0]].append(clock() - t0)
                checks.check(matches(got, want), "%s input: got %r, want %r" % (item[0], got, want))
                if self.count is None and clock() >= end:
                    break

    def percentile_ms(self, q):
        """Nearest-rank percentile of all per-input latencies."""
        ordered = sorted(t for kind in self.latencies.values() for t in kind)
        return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def work_s(self, stage_seconds, scales=None):
        """Seconds per 1000 inputs of the nominal mix, from the mean
        latency of each input kind (fixed weights keep the figure steady
        against the seed's actual mix), multiplied by the stage's entry in
        ``scales`` (a host-speed factor) when given."""
        seen = {k: v for k, v in self.latencies.items() if v}
        per_1000 = 1000 * sum(MIX[k] * statistics.fmean(v) for k, v in seen.items()) \
            / sum(MIX[k] for k in seen)
        return per_1000 * (scales or {}).get("membership", 1.0)

