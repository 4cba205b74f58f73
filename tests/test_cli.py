import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import trifocal
from trifocal import cli, ideal
from trifocal.cli import main
from trifocal.orbits import catalog
from trifocal.scalars import parse_rational
from trifocal.tensor import tensor_from_json, tensor_to_json

from helpers import random_triple, scaled
from test_poly import JOINED


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_accepts_normal_form(tmp_path, capsys):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "trifocal: True" in out


def test_check_rejects_skew_with_reason(tmp_path, capsys):
    path = write(tmp_path, "f.json", tensor_to_json(catalog()["skew"].tensor))
    assert main(["check", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_trifocal"] is False
    assert "P-Rank" in payload["reason"]
    assert payload["schema"] == "trifocal-report/4"


def test_check_report_carries_no_config(tmp_path, capsys):
    # the rank test reads no prime or degree cap, so it reports none
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    assert main(["check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"schema": "trifocal-report/4", "is_trifocal": True,
                       "reason": payload["reason"]}


def test_commands_reject_options_they_do_not_read(tmp_path, capsys):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    for argv in (["catalog", "--json"], ["from-cameras", path, "--prime", "7"],
                 ["check", path, "--seed", "3"], ["check", path, "--progress"],
                 ["discover", "--degree", "3", "--seed", "3"], ["hilbert", "--seed", "3"],
                 ["nzd", "--seed", "3"], ["classify", path, "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_check_malformed_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    assert main(["check", path]) == 2
    path2 = write(tmp_path, "bad2.json", "[[1,2],[3,4]]")
    assert main(["check", path2]) == 2
    # a scalar where a nested array belongs
    path3 = write(tmp_path, "bad3.json", "[1,2,3]")
    assert main(["check", path3]) == 2
    path4 = write(tmp_path, "bad4.json",
                  json.dumps([[[1, 2, 3]] * 3] * 2 + [[[1, 2, 3], [1, 2, 3], 5]]))
    assert main(["check", path4]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_check_rejects_float_bool_and_bad_rational_entries(tmp_path, capsys):
    for bad in (2.5, True, "1/0"):
        entries = json.loads(tensor_to_json(catalog()["trifocal"].tensor))
        entries[0][1][2] = bad
        path = write(tmp_path, "t.json", json.dumps(entries))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_from_cameras_rejects_float_bool_and_bad_rational_entries(tmp_path, capsys):
    ct = random_triple(random.Random(74))
    for bad in (2.7, True, "1/0"):
        a1 = [list(r) for r in ct.a1.m]
        a1[1][3] = bad
        cams = write(tmp_path, "cams.json",
                     json.dumps({"A1": a1, "A2": ct.a2.m, "A3": ct.a3.m}))
        assert main(["from-cameras", cams]) == 2
        assert capsys.readouterr().err.startswith("error: ")


LOOSE_RATIONALS = ("3/", "1_000", " 3", "3\n", "٣", "3/4/5", "1/-2", "--3", "/4", "")


def test_parse_rational_reads_only_sign_digits_and_one_slash():
    for bad in LOOSE_RATIONALS + ("1/0", "+-3", "3 /4", "0x10", "1e3"):
        with pytest.raises(ValueError, match="bad rational entry"):
            parse_rational(bad)
    assert parse_rational("-6/4") == Fraction(-3, 2) and parse_rational("+7") == 7


def test_check_reads_only_sign_digits_and_one_slash(tmp_path, capsys):
    # int() would have read "3/" as 3 and "1_000" as 1000
    entries = json.loads(tensor_to_json(catalog()["trifocal"].tensor))
    plain = entries[0][1][2]
    for bad in LOOSE_RATIONALS:
        entries[0][1][2] = bad
        path = write(tmp_path, "t.json", json.dumps(entries))
        assert main(["check", path]) == 2, bad
        assert "bad rational entry" in capsys.readouterr().err
    entries[0][1][2] = "%+d/1" % plain
    assert main(["check", write(tmp_path, "t.json", json.dumps(entries))]) == 0


def test_from_cameras_reads_only_sign_digits_and_one_slash(tmp_path, capsys):
    ct = random_triple(random.Random(75))
    a1 = [list(r) for r in ct.a1.m]
    for bad in LOOSE_RATIONALS:
        a1[1][3] = bad
        cams = write(tmp_path, "cams.json", json.dumps({"A1": a1, "A2": ct.a2.m, "A3": ct.a3.m}))
        assert main(["from-cameras", cams]) == 2, bad
        assert "bad rational entry" in capsys.readouterr().err
    main(["from-cameras", write(tmp_path, "a.json", json.dumps(
        {"A1": ct.a1.m, "A2": ct.a2.m, "A3": ct.a3.m}))])
    plain = capsys.readouterr().out
    a1[1][3] = "%+d/1" % ct.a1.m[1][3]
    cams = write(tmp_path, "cams.json", json.dumps({"A1": a1, "A2": ct.a2.m, "A3": ct.a3.m}))
    assert main(["from-cameras", cams]) == 0
    assert capsys.readouterr().out == plain


def test_from_cameras_pipeline(tmp_path, capsys):
    rng = random.Random(71)
    ct = random_triple(rng)
    cams = write(tmp_path, "cams.json",
                 json.dumps({"A1": ct.a1.m, "A2": ct.a2.m, "A3": ct.a3.m}))
    assert main(["from-cameras", cams]) == 0
    blob = capsys.readouterr().out.strip()
    tensor_from_json(blob)  # parses
    tpath = write(tmp_path, "t.json", blob)
    assert main(["check", tpath]) == 0


def test_from_cameras_degenerate(tmp_path, capsys):
    rng = random.Random(72)
    ct = random_triple(rng)
    cams = write(tmp_path, "cams.json",
                 json.dumps({"A1": ct.a1.m, "A2": ct.a2.m, "A3": ct.a2.m}))
    assert main(["from-cameras", cams]) == 2


def test_from_cameras_scaled_camera_scales_tensor(tmp_path, capsys):
    rng = random.Random(73)
    ct = random_triple(rng)
    cams = write(tmp_path, "a.json",
                 json.dumps({"A1": ct.a1.m, "A2": ct.a2.m, "A3": ct.a3.m}))
    main(["from-cameras", cams])
    t = tensor_from_json(capsys.readouterr().out)
    doubled = write(tmp_path, "b.json",
                    json.dumps({"A1": [[2 * x for x in r] for r in ct.a1.m],
                                "A2": ct.a2.m, "A3": ct.a3.m}))
    main(["from-cameras", doubled])
    t2 = tensor_from_json(capsys.readouterr().out)
    assert t2 == scaled(t, 2)


def test_classify_report(tmp_path, capsys):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["component"] == "Trifocal"
    assert payload["signature"]["prank"] == [3, 3, 2]
    assert payload["is_trifocal"] is True


def test_classify_with_modules(tmp_path, capsys):
    path = write(tmp_path, "f.json", tensor_to_json(catalog()["skew"].tensor))
    assert main(["classify", path, "--with-modules", "--degree-cap", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["component"] == "PRank222"
    assert payload["signature"]["m5_vanishing"] is False


def test_classify_with_modules_below_degree_5_reports_no_m5(tmp_path, capsys):
    # the C-axis cubics already reject sub332; with no degree-5 module
    # evaluated there is no degree-5 verdict to report
    path = write(tmp_path, "s.json", tensor_to_json(catalog()["sub332"].tensor))
    assert main(["classify", path, "--with-modules", "--degree-cap", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "m5_vanishing" not in payload["signature"]
    assert payload["signature"]["m3_axis_vanishing"]["C"] is False
    assert payload["is_trifocal"] is False


def test_classify_with_modules_prints_both_verdicts(tmp_path, capsys, monkeypatch, discovery6):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    monkeypatch.setattr(cli, "_discover", lambda *args: discovery6)   # the shared degree-6 run
    assert main(["classify", path, "--with-modules"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "degree-5 modules vanishing: True" in out
    m6 = [line for line in out if line.startswith("degree-6 module ")]
    labels = {m.label for m in discovery6.modules() if m.degree == 6}
    assert len(m6) == len(labels) == 9 and all(line.endswith(": True") for line in m6)
    assert "degree-6 module ((3, 3), (3, 3), (2, 2, 2)) vanishing: True" in m6


def test_classify_with_modules_below_degree_6_reports_no_m6(tmp_path, capsys):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    assert main(["classify", path, "--with-modules", "--degree-cap", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:5] == ["degree-5 modules vanishing: True", "degree-6 modules vanishing: None"]
    assert main(["classify", path, "--with-modules", "--degree-cap", "5", "--json"]) == 0
    signature = json.loads(capsys.readouterr().out)["signature"]
    assert signature["m5_vanishing"] is True and "m6_vanishing" not in signature


def test_classify_with_modules_progress_reports_discovery(tmp_path, capsys):
    path = write(tmp_path, "nf.json", tensor_to_json(catalog()["trifocal"].tensor))
    assert main(["classify", path, "--with-modules", "--degree-cap", "3", "--progress"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("degree ") for line in err)
    assert any(line.startswith("degree 3: label ") for line in err)


def test_discover_progress_names_the_source_of_a_swapped_label(capsys):
    """A label whose factor-swapped partner was scanned before it is derived
    from it, and its progress line says from which label."""
    assert main(["discover", "--degree", "3", "--progress"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[8] == ("degree 3: label 4/11 ((2, 1), (3,), (2, 1)) vanishing 0 new 0"
                      " (swap of label 2)")
    assert [line.split(": label ")[1].split()[0] for line in err if "(swap of label" in line] == [
        "3/4", "4/11", "9/11", "10/11"]
    assert err[-1] == "degree 3: label 11/11 ((1, 1, 1), (1, 1, 1), (3,)) vanishing 1 new 1"


def test_discover_degree3(capsys):
    assert main(["discover", "--degree", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_generators_by_degree"] == {"1": 0, "2": 0, "3": 10}
    assert payload["modules"] == [
        {"degree": 3, "label": [[1, 1, 1], [1, 1, 1], [3]], "dimension": 10}]
    hits = [row for row in payload["labels"] if row["vanishing"]]
    assert hits == [{"degree": 3, "label": [[1, 1, 1], [1, 1, 1], [3]],
                     "kronecker": 1, "hw_dim": 1, "vanishing": 1, "new": 1}]


def test_discover_report_keys_and_schema(capsys):
    assert main(["discover", "--degree", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "trifocal-report/4"
    assert set(payload) == {"schema", "config", "new_generators_by_degree",
                            "modules", "labels"}
    assert payload["config"] == {"prime": 101, "degree_cap": 6}


def test_discover_deterministic(capsys):
    assert main(["discover", "--degree", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["discover", "--degree", "3", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_discover_other_prime(capsys):
    assert main(["discover", "--degree", "3", "--prime", "32003", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["new_generators_by_degree"]["3"] == 10
    assert payload["config"] == {"prime": 32003, "degree_cap": 6}


def test_discover_rejects_over_cap(capsys):
    assert main(["discover", "--degree", "7", "--degree-cap", "6"]) == 2
    assert main(["discover", "--degree", "9", "--degree-cap", "9"]) == 2


def test_discover_vanishing_failure_is_one_error_line(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArithmeticError("inconsistent vanishing kernel for label ((3,),)")
    monkeypatch.setattr(ideal, "vanishing_subspace", fail)
    assert main(["discover", "--degree", "3"]) == 1   # 2 is for malformed input
    assert capsys.readouterr().err == (
        "error: inconsistent vanishing kernel for label ((3,),)\n")


def test_discover_rejects_degree_below_one(capsys):
    for degree in ("0", "-2"):
        assert main(["discover", "--degree", degree]) == 2
        assert "--degree must be in 1..6" in capsys.readouterr().err


def test_degree_cap_below_one_checks_nothing_and_is_rejected(capsys):
    # a cap below 1 ranks no degree, so a verdict or table would be vacuous
    for argv in (["nzd", "--witness", "f"], ["hilbert"], ["discover", "--degree", "1"]):
        for cap in ("0", "-3"):
            assert main(argv + ["--degree-cap", cap]) == 2, (argv, cap)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--degree-cap must be in 1..7" in captured.err


def test_hilbert_low_cap(capsys):
    assert main(["hilbert", "--degree-cap", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert_quotient"] == {"1": 27, "2": 378, "3": 3644, "4": 27135}


def test_hilbert_progress_reports_each_degree(capsys):
    assert main(["hilbert", "--degree-cap", "3", "--progress"]) == 0
    err = capsys.readouterr().err.splitlines()
    group = "G = S3^3 and tau, |G| = 432"
    assert err == ["degree 1: ranked 0 of 0 nonempty weight blocks, %s; kept factors 0 bytes" % group,
                   "degree 2: ranked 0 of 0 nonempty weight blocks, %s; kept factors 0 bytes" % group,
                   "degree 3: ranked 3 of 10 nonempty weight blocks, %s; kept factors 702 bytes" % group]


def test_nzd_verdict_at_low_cap(capsys):
    assert main(["nzd", "--witness", "f", "--degree-cap", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["non_zero_divisor"] is True
    assert payload["witness_degree"] == 3
    assert payload["failing_degree"] is None
    assert payload["table"]["5"]["expected"] == payload["table"]["5"]["actual"]


def test_nzd_bad_witness_file(tmp_path, capsys):
    bad = write(tmp_path, "w.txt", "not ** a (poly")
    assert main(["nzd", "--witness", bad, "--degree-cap", "3"]) == 2


def test_nzd_refuses_tokens_joined_by_whitespace(tmp_path, capsys):
    # "1 2*a11" once read as 12*a11 and "a11^1 0" as a11^10
    for text in JOINED:
        bad = write(tmp_path, "w.txt", text + "\n")
        assert main(["nzd", "--witness", bad, "--degree-cap", "3"]) == 2, text
        assert capsys.readouterr().err.startswith("error: bad term at offset"), text


def test_nzd_rejects_zero_and_mixed_weight_witness_before_discovery(tmp_path, capsys,
                                                                   monkeypatch):
    def no_discovery(*args, **kwargs):
        raise AssertionError("discover ran before the witness was checked")
    monkeypatch.setattr("trifocal.cli.discover", no_discovery)
    zero = write(tmp_path, "zero.txt", "0\n")
    assert main(["nzd", "--witness", zero]) == 2
    assert "zero polynomial" in capsys.readouterr().err
    constant = write(tmp_path, "constant.txt", "5\n")
    assert main(["nzd", "--witness", constant]) == 2
    assert "nonzero constant 5" in capsys.readouterr().err
    mixed = write(tmp_path, "mixed.txt", "T_1_1_1 + T_2_2_2\n")
    assert main(["nzd", "--witness", mixed]) == 2
    assert "weight-homogeneous" in capsys.readouterr().err


def test_nzd_rational_witness_gives_the_integer_table(tmp_path, capsys):
    # 1/2 * T_1_1_1 generates what T_1_1_1 does; its coefficient was once
    # truncated to 0 mod p, which left the witness out of the ideal
    tables = []
    for name, text in (("w.txt", "T_1_1_1\n"), ("half.txt", "1/2*T_1_1_1\n")):
        path = write(tmp_path, name, text)
        assert main(["nzd", "--witness", path, "--degree-cap", "3", "--json"]) == 0
        tables.append(json.loads(capsys.readouterr().out)["table"])
    assert tables[0] == tables[1]
    assert tables[1]["3"] == {"expected": 3266, "actual": 3266}


def test_nzd_witness_above_the_cap_adds_no_rows_and_no_stabiliser(tmp_path, capsys):
    """a11^20000 reaches no degree of the sweep, so its stabiliser, once
    about 9 s of int64 keys that wrap above degree 12, is not computed."""
    path = write(tmp_path, "w.txt", "a11^20000\n")
    start = time.perf_counter()
    assert main(["nzd", "--witness", path, "--degree-cap", "3", "--json"]) == 0
    assert time.perf_counter() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_degree"] == 20000 and payload["non_zero_divisor"] is True
    assert {d: (r["expected"], r["actual"]) for d, r in payload["table"].items()} == {
        "1": (27, 27), "2": (378, 378), "3": (3644, 3644)}


@pytest.mark.parametrize("text", ["a11^1000000000\n", "3^1000000000*a11\n"],
                         ids=["variable", "number"])
def test_nzd_witness_with_a_huge_power_is_refused_before_it_is_expanded(tmp_path, capsys, text):
    """A few bytes once asked for a list of 10^9 variables or for 3^(10^9):
    parse_poly counts the powers against its budgets first."""
    path = write(tmp_path, "w.txt", text)
    start = time.perf_counter()
    assert main(["nzd", "--witness", path, "--degree-cap", "3"]) == 2
    assert time.perf_counter() - start < 1
    assert "error:" in capsys.readouterr().err


def test_nzd_invalid_prime(capsys):
    assert main(["nzd", "--witness", "f", "--prime", "100"]) == 2


def test_huge_prime_rejected_without_primality_test():
    # trial division would run for hours on the Mersenne prime 2^61 - 1;
    # a subprocess with a timeout turns that hang into a failure
    argv = ["hilbert", "--prime", str(2 ** 61 - 1)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trifocal.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from trifocal.cli import main; sys.exit(main(%r))" % argv],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert "at most %d" % (2 ** 31 - 1) in proc.stderr


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("trifocal", "orbit17", "orbit18", "skew", "sub233"):
        assert name in out
    assert main(["catalog", "nope"]) == 2


def test_catalog_emits_tensor(capsys):
    assert main(["catalog", "skew"]) == 0
    t = tensor_from_json(capsys.readouterr().out)
    assert t == catalog()["skew"].tensor
