"""Command-line front end.

Subcommands: check, from-cameras, discover, hilbert, nzd, classify,
catalog.  Each takes only the options it reads.  `check` is an exact rank
test and takes no prime; `discover`, `hilbert`, `nzd` and `classify` take
--prime, --degree-cap, --progress and --json, and their JSON reports embed
that configuration.  They take no seed: every discovered module is proved
at the normal form, whatever sample points proposed it.  Every JSON report
carries a schema tag.  Exit codes: 0 success (for `check`: the tensor is
trifocal), 1 negative verdict or a modular certificate that failed to
verify, 2 bad input or an exceeded degree cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ideal, orbits
from .cameras import trifocal_from_cameras, triple_from_json
from .ideal import (DegreeCapError, discover, graded_nonzerodivisor_check,
                    hilbert_quotient)
from .poly import f_determinant, parse_poly, witness_g
from .scalars import DEFAULT_PRIME
from .tensor import tensor_from_json, tensor_to_json

SCHEMA = "trifocal-report/4"
TOP_GENERATOR_DEGREE = 6   # every minimal generator has degree <= 6


def _config(args):
    """The configuration a report embeds, once the library accepts the prime."""
    ideal._check_prime(args.prime)
    if not 1 <= args.degree_cap <= ideal.HARD_DEGREE_CAP:
        raise ValueError("--degree-cap must be in 1..%d" % ideal.HARD_DEGREE_CAP)
    return {"prime": args.prime, "degree_cap": args.degree_cap}


def _progress(args):
    return (lambda msg: print(msg, file=sys.stderr)) if args.progress else None


def _discover(args, degree, progress):
    """discover() on the trifocal normal form through `degree`."""
    return discover(degree, orbits.trifocal_normal_form(), p=args.prime, progress=progress)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from exc


def cmd_check(args) -> int:
    t = tensor_from_json(_read_file(args.tensor))
    verdict, reason = orbits.is_trifocal(t, permutation_tolerant=args.permutation_tolerant)
    payload = {"schema": SCHEMA, "is_trifocal": verdict, "reason": reason}
    _emit(args, payload, ["trifocal: %s" % verdict, "reason: %s" % reason])
    return 0 if verdict else 1


def cmd_from_cameras(args) -> int:
    print(tensor_to_json(trifocal_from_cameras(triple_from_json(_read_file(args.cameras)))))
    return 0


def cmd_classify(args) -> int:
    cfg = _config(args)
    t = tensor_from_json(_read_file(args.tensor))
    modules = None
    if args.with_modules:
        modules = _discover(args, min(args.degree_cap, TOP_GENERATOR_DEGREE),
                            _progress(args)).modules()
    sig = orbits.signature(t, modules=modules)
    verdict, reason = orbits.is_trifocal(t, permutation_tolerant=args.permutation_tolerant)
    component = orbits.classify_component(t)
    payload = {"schema": SCHEMA, "config": cfg,
               "signature": sig.to_dict(), "component": component,
               "is_trifocal": verdict, "reason": reason}
    lines = ["frank: %r" % (sig.frank,), "prank: %r" % (sig.prank,),
             "cubic vanishing per axis: %r" % (sig.m3_axis_vanishing,)]
    if args.with_modules:   # None: no module of that degree was evaluated
        m6 = sig.m6_vanishing
        lines += ["degree-5 modules vanishing: %s" % sig.m5_vanishing] + (
            ["degree-6 module %s vanishing: %s" % kv for kv in m6.items()] if m6
            else ["degree-6 modules vanishing: None"])
    _emit(args, payload, lines + ["component: %s" % component,
                                  "trifocal: %s (%s)" % (verdict, reason)])
    return 0


def cmd_discover(args) -> int:
    cfg = _config(args)
    if not 1 <= args.degree <= args.degree_cap:
        raise DegreeCapError("--degree must be in 1..%d (--degree-cap)" % args.degree_cap)
    disc = _discover(args, args.degree, _progress(args))
    inventory, label_table = [], []
    for d in sorted(disc.scans):
        scan = disc.scans[d]
        for mod in scan.modules:
            inventory.append({"degree": d, "label": [list(p) for p in mod.label],
                              "dimension": mod.dim})
        for lab, kron, hw_dim, vanishing, new in scan.rows:
            label_table.append({"degree": d, "label": [list(p) for p in lab],
                                "kronecker": kron, "hw_dim": hw_dim,
                                "vanishing": vanishing, "new": new})
    payload = {"schema": SCHEMA, "config": cfg,
               "new_generators_by_degree": {str(d): n for d, n in disc.counts().items()},
               "modules": inventory,
               "labels": label_table}
    lines = ["new generators by degree: %s" % disc.counts()] + [
        "  degree %d  label %s  dim %d" % (m["degree"], m["label"], m["dimension"])
        for m in inventory] + ["labels with vanishing highest weight vectors:"] + [
        "  degree %d  label %s  kronecker %d  hw %d  vanishing %d  new %d" % (
            r["degree"], r["label"], r["kronecker"], r["hw_dim"], r["vanishing"], r["new"])
        for r in label_table if r["vanishing"]]
    _emit(args, payload, lines)
    return 0


def cmd_hilbert(args) -> int:
    cfg = _config(args)
    gens = _discover(args, min(args.degree_cap, TOP_GENERATOR_DEGREE), None).gens
    table = {d: hilbert_quotient(gens, d, p=args.prime, progress=_progress(args))
             for d in range(1, args.degree_cap + 1)}
    payload = {"schema": SCHEMA, "config": cfg,
               "hilbert_quotient": {str(d): v for d, v in table.items()}}
    _emit(args, payload, ["H(%d) = %d" % (d, v) for d, v in table.items()])
    return 0


def cmd_nzd(args) -> int:
    cfg = _config(args)
    w = {"f": f_determinant, "g": witness_g}.get(args.witness)
    w = w() if w else parse_poly(_read_file(args.witness))
    ideal.check_witness(w)  # before the discovery run, not after it
    gens = _discover(args, min(args.degree_cap, TOP_GENERATOR_DEGREE), None).gens
    report = graded_nonzerodivisor_check(gens, w, cap=args.degree_cap, p=args.prime,
                                         progress=_progress(args))
    payload = {"schema": SCHEMA, "config": cfg,
               "witness_degree": report.witness_degree,
               "non_zero_divisor": bool(report),
               "failing_degree": report.failing_degree,
               "table": {str(d): {"expected": e, "actual": a}
                          for d, (e, a) in report.table.items()}}
    lines = ["witness degree: %d" % report.witness_degree] + [
        "  degree %d: expected %d actual %d %s" % (d, e, a, "ok" if e == a else "MISMATCH")
        for d, (e, a) in report.table.items()] + ["non-zero-divisor (up to cap): %s" % bool(report)]
    _emit(args, payload, lines)
    return 0 if report else 1


def cmd_catalog(args) -> int:
    cat = orbits.catalog()
    if args.name is None:
        for name, nf in sorted(cat.items()):
            print("%-16s %s" % (name, nf.provenance))
        return 0
    if args.name not in cat:
        raise ValueError("unknown normal form %r (try `catalog` with no name)" % args.name)
    print(tensor_to_json(cat[args.name].tensor))
    return 0


def _add_run_options(sp):
    """The options of the commands that run the modular sweeps."""
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--degree-cap", type=int, default=ideal.DEFAULT_DEGREE_CAP, dest="degree_cap")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--progress", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(prog="trifocal",
                                 description="exact computations with trifocal tensors")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="rank-based trifocal membership test")
    sp.add_argument("tensor")
    sp.add_argument("--permutation-tolerant", action="store_true", dest="permutation_tolerant")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("from-cameras", help="tensor from a camera-triple JSON file")
    sp.add_argument("cameras")
    sp.set_defaults(func=cmd_from_cameras)

    sp = sub.add_parser("classify", help="signature and component of a tensor")
    sp.add_argument("tensor")
    sp.add_argument("--permutation-tolerant", action="store_true", dest="permutation_tolerant")
    sp.add_argument("--with-modules", action="store_true", dest="with_modules",
                    help="also evaluate the degree-5/6 generator modules (slow)")
    _add_run_options(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("discover", help="minimal-generator search by degree")
    sp.add_argument("--degree", type=int, required=True)
    _add_run_options(sp)
    sp.set_defaults(func=cmd_discover)

    sp = sub.add_parser("hilbert", help="quotient Hilbert function table")
    _add_run_options(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("nzd", help="graded non-zero-divisor check for a witness")
    sp.add_argument("--witness", default="f",
                    help="'f', 'g', or a path to a polynomial text file")
    _add_run_options(sp)
    sp.set_defaults(func=cmd_nzd)

    sp = sub.add_parser("catalog", help="list or emit named normal forms")
    sp.add_argument("name", nargs="?")
    sp.set_defaults(func=cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
