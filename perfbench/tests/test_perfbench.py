"""Tests of the benchmark itself, at smoke sizes (seconds, not minutes).

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio")


def run(workload, seed, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])
    return proc


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


@contextmanager
def untimed(name):
    yield


@pytest.mark.parametrize("workload", ["paper6", "membership"])
def test_traced_counts_repeat_at_one_seed(workload):
    first, second = run(workload, 5, 1), run(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    if workload == "paper6":
        c = counts(first)
        for key in ("rep.module_span.calls", "ideal.slice_rows_by_weight.blocks",
                    "ideal.slice_rows_by_weight.rows", "ideal.vanishing_subspace.attempts",
                    "linalg.Echelon.add.calls", "linalg.rref_mod_p.calls"):
            assert c[key] > 0, key
        assert 0 < c["linalg.Echelon.add.accept_ratio"] <= 1
        assert c["linalg.kernel_primes_per_lift"] > 0


@pytest.mark.parametrize("workload", ["paper6", "membership"])
def test_another_seed_gives_the_same_correctness(workload):
    a, b = run(workload, 1, 0), run(workload, 2, 0)
    for r in (a, b):
        assert r["correct"] and r["failed"] == 0
    assert a["attempted"] == b["attempted"]


@pytest.mark.parametrize("workload", ["paper6", "membership"])
def test_metric_names_and_units_match_benchmark_json(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = run(workload, 3, trace)["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC[section]}


def test_self_times_nest_inside_stages():
    m = {k: v["value"] for k, v in run("paper6", 4, 1)["metrics"].items()}
    assert m["rep.module_span.self_s"] <= m["rep.module_span.total_s"]
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    stages = sum(v for k, v in m.items() if k.startswith("stage.") and k.endswith("_s"))
    assert layers + m["bench.self_s"] == pytest.approx(stages, rel=1e-3, abs=1e-3)
    assert m["ideal.evaluate_batch.self_s"] > 0


def test_wrong_expected_value_is_counted_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.HILBERT, 2, workloads.HILBERT[2] + 1)
    checks = workloads.Checks()
    workloads.Paper6(7, degree=3, points=1).run(untimed, checks, 1)
    assert checks.failed > 0 and checks.failed < checks.attempted

    monkeypatch.setattr(workloads, "RANDOM", (False, "no pencil drops rank", "Trifocal"))
    checks = workloads.Checks()
    workloads.Membership(7, count=40).run(untimed, checks, 1)
    assert checks.failed > 0 and checks.failed < checks.attempted


def test_degenerate_triples_are_expected_to_be_refused():
    import random
    cams, want = workloads.camera_triple(random.Random(0))
    assert want == workloads.TRIFOCAL
    shared = [cams[0], cams[0], cams[2]]
    assert workloads.triple_verdict(shared) == workloads.DEGENERATE
    assert workloads.decide(("camera", shared)) == workloads.DEGENERATE


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("membership", 1, 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_samples_are_taken_out_of_the_clock():
    import signal
    import time
    from hostspeed import HostSpeed
    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed(period=0.01, repeats=5) as host:
        wall0, net0 = time.perf_counter(), host.now()
        while time.perf_counter() - wall0 < 0.3:
            pass
        wall1, net1, spent = time.perf_counter(), host.now(), host.spent
    assert len(host.rates) > 10 and spent > 0
    assert net1 - net0 < wall1 - wall0
    assert host.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.xfail(strict=True, reason="library defect: vanishing_subspace keeps a certificate "
                   "that does not vanish on the orbit, so discover(5, seed=18) finds a "
                   "spurious module")
def test_vanishing_false_positive():
    from trifocal import ideal, orbits, rep
    nf = orbits.trifocal_normal_form()
    label = ((4, 1), (2, 2, 1), (3, 1, 1))
    labels = [lab for lab in rep.all_labels(5) if rep.kronecker(*lab) > 0]
    seed = 18 + 1000 * 5 + 7919 * labels.index(label)   # as scan_degree seeds it
    report = ideal.vanishing_subspace(rep.hw_space(label), nf, seed)
    points = ideal.trifocal_points(nf, 777, 20)
    for cert in report.certificates:
        assert all(ideal.evaluate_batch([cert], pt) == [0] for pt in points)
