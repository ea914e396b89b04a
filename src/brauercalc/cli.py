"""Command-line surface.

Exit codes: 0 success, 1 usage or domain error, 2 expression syntax
error, 3 out-of-scope base/torsion request, 4 broken internal
invariant (always a bug).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import report as rpt
from .brauer import BrauerClass, residue_at
from .covers import (
    splitting_witness,
    unramified_cover_certificates,
    verify_splitting_witness,
)
from .distinguish import distinguish, enumerate_candidates
from .errors import ParseError, ScopeError
from .parser import class_text, parse_class, parse_constant
from .points import ClosedPoint
from .poly import Poly, RationalFunction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SCOPE = 3
EXIT_INTERNAL = 4


def _common_flags(sub):
    sub.add_argument(
        "--base",
        default="q",
        help="q for the rationals (default), fq:<q> for the finite field of order q",
    )
    sub.add_argument("--p", type=int, default=2, help="prime torsion (default 2)")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded in the report; all computations here are deterministic",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brauercalc",
        description="Residue calculus for p-torsion Brauer classes over k(t).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ram = subs.add_parser("ram", help="ramification divisor and reciprocity status")
    p_ram.add_argument("cls", metavar="CLASS")
    _common_flags(p_ram)
    p_ram.set_defaults(run=cmd_ram)

    p_eq = subs.add_parser("equal", help="exact equality with a certificate")
    p_eq.add_argument("left", metavar="CLASS_A")
    p_eq.add_argument("right", metavar="CLASS_B")
    _common_flags(p_eq)
    p_eq.set_defaults(run=cmd_equal)

    p_dist = subs.add_parser("distinguish", help="layered inequivalence verdict")
    p_dist.add_argument("left", metavar="CLASS_A")
    p_dist.add_argument("right", metavar="CLASS_B")
    _common_flags(p_dist)
    p_dist.add_argument(
        "--sweep", type=int, default=200, help="specialization sweep budget (default 200)"
    )
    p_dist.set_defaults(run=cmd_distinguish)

    p_enum = subs.add_parser(
        "enumerate", help="residue-compatible candidate classes (finite base only)"
    )
    p_enum.add_argument("cls", metavar="CLASS")
    _common_flags(p_enum)
    p_enum.set_defaults(run=cmd_enumerate)

    p_wit = subs.add_parser(
        "witness", help="splitting-cover datum for the residue at a rational point"
    )
    p_wit.add_argument("cls", metavar="CLASS")
    p_wit.add_argument("--at", required=True, help="rational value c; the point is t = c")
    p_wit.add_argument("--out", help="write the bare witness datum (JSON) to this file")
    _common_flags(p_wit)
    p_wit.set_defaults(run=cmd_witness)

    p_ver = subs.add_parser("verify-witness", help="re-check a stored witness datum")
    p_ver.add_argument("cls", metavar="CLASS")
    p_ver.add_argument("witness_file", metavar="WITNESS_FILE")
    _common_flags(p_ver)
    p_ver.set_defaults(run=cmd_verify_witness)

    parser.commands = subs.choices  # each command's subparser, by name
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def _parse_classes(args, *named):
    """The classes of the (key, text) pairs, parsed in order, and the report
    inputs: base, p and seed, then each class's canonical text under its key."""
    base = rpt.parse_base(args.base)
    inputs = {"base": rpt.base_text(base), "p": args.p, "seed": args.seed}
    classes = []
    for key, text in named:
        classes.append(parse_class(text, base, args.p))
        inputs[key] = class_text(classes[-1])
    return *classes, inputs


def cmd_ram(args):
    cls, inputs = _parse_classes(args, ("class", args.cls))
    return rpt.Report("ram", inputs, rpt.ram_outcome(cls))


def cmd_equal(args):
    left, right, inputs = _parse_classes(args, ("left", args.left), ("right", args.right))
    return rpt.Report("equal", inputs, rpt.equal_outcome(left, right))


def cmd_distinguish(args):
    left, right, inputs = _parse_classes(args, ("left", args.left), ("right", args.right))
    inputs["sweep"] = args.sweep
    verdict = distinguish(left, right, sweep=args.sweep)
    return rpt.Report("distinguish", inputs, rpt.distinguish_outcome(verdict))


def cmd_enumerate(args):
    cls, inputs = _parse_classes(args, ("class", args.cls))
    cand = enumerate_candidates(cls)
    return rpt.Report("enumerate", inputs, rpt.enumerate_outcome(cand))


def cmd_witness(args):
    cls, inputs = _parse_classes(args, ("class", args.cls))
    base = cls.base
    cval = parse_constant(args.at, base.field, "--at")
    x = ClosedPoint.rational(base, cval)
    rc = residue_at(cls, x)
    if rc.is_trivial():
        raise ValueError(f"the class is unramified at t = {args.at}; nothing to split")
    # over a base of non-prime order the canonical g^m may leave the prime
    # subfield, which the parser cannot read back; rc.value lies in it
    field = base.field
    rep = rc.value if field.finite and field.order != field.char else rc.canonical_value()
    lin = RationalFunction(Poly(base.field, [-cval, base.field.one]))
    datum = splitting_witness(base, cls.p, rep, lin)
    residual = cls - BrauerClass.make(base, cls.p, [datum.symbol])
    if not residue_at(residual, x).is_trivial():
        raise AssertionError("witness symbol failed to absorb the residue")
    obj = rpt.witness_to_obj(datum)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rpt.json_text(obj))
    inputs["at"] = args.at
    outcome = {
        "witness": obj,
        "residual_unramified_at_point": True,
        "written_to": args.out if args.out else None,
    }
    return rpt.Report("witness", inputs, outcome)


def cmd_verify_witness(args):
    cls, inputs = _parse_classes(args, ("class", args.cls))
    with open(args.witness_file, "rb") as fh:
        datum = rpt.witness_from_json(fh.read(), cls.base)
    if datum.m != cls.p:
        raise ValueError(f"witness degree m = {datum.m} does not match --p {cls.p}")
    if datum.kind == "splitting":
        wrep = verify_splitting_witness(cls, datum)
    elif datum.kind == "unramified":
        wrep = unramified_cover_certificates(cls, datum)
    else:
        raise ValueError(f"unknown witness kind {datum.kind!r}")
    inputs["witness_file"] = args.witness_file
    outcome = {"kind": datum.kind}
    outcome.update(rpt.witness_report_outcome(wrep))
    return rpt.Report("verify-witness", inputs, outcome)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        # command set as the whole parser sets it, so both routes give one Namespace
        args, rest = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                      if sub else (None, argv))
        if sub is None or rest:  # any other argv reads, or fails, as the whole parser reads it
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_OK
        return EXIT_USAGE
    try:
        report = args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 4 is the bug signal, never expected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    text = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
