"""Command line front end.

One subcommand per capability: saf, vanishing, nonlift, ay, induce,
lift, compose, invert.  Results go to stdout (human-readable by
default, canonical JSON with --json); timing goes to stderr so that
stdout is byte-identical across reruns.  Exit codes: 0 = computed
(whatever the verdict), 2 = invalid input, 3 = iteration cap exceeded.

One table, COMMANDS, gives each command's handler, help line and
arguments.  `_match` reads it to take an argv in the exact grammar: a
command name, then `--name=value`, `--name value` (a value that does not
start with '-'), a bare flag `--name` or a positional that does not start
with '-'; each option at most once, every positional and required option
given.  Any other argv goes to the argparse tree `build_parser` makes from
the table: help, --version, abbreviations, '--', repeated options and every
usage error (exit 2).  argparse is imported on that path only: its import
and parse cost more than a small command does.
"""

from __future__ import annotations

import contextlib
import functools
import re
import sys
import time
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

from . import __version__, gf2
from .arnoux_yoccoz import (
    AYSystem,
    _require_genus,
    ay_lift,
    ay_self_similarity_witness,
    ay_stretch_minpoly,
)
from .certificates import (
    OUTCOME_INCONCLUSIVE,
    _by_field_degree,
    _by_reciprocity,
    _nonlift,
    _validate_stretch,
    gf2_completion_bruteforce,
    nonlift_certificate,
    vanishing_verdicts,
)
from .errors import InputError, IterationCapError
from .field import AlgNum
from .ietfile import (
    coords_to_string,
    dumps_iet,
    dumps_report,
    parse_coords,
    parse_interval,
    read_iet,
)
from .polys import Poly

FLOAT_DIGITS = 20

# Options whose values are comma lists that may start with a minus sign.
# argparse reads a token such as '-1,-1,-1,1' as an option, so main()
# joins it to its option ('--minpoly=-1,-1,-1,1') before parsing.
SIGNED_VALUE_OPTIONS = ("--minpoly", "--sub", "--interval")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def algnum_decimal(value: AlgNum) -> str:
    """Decimal rendering with FLOAT_DIGITS significant digits (display only)."""
    approx = value.approx(Fraction(1, 10 ** (FLOAT_DIGITS + 5)))
    with localcontext() as context:
        context.prec = FLOAT_DIGITS
        return str(Decimal(approx.numerator) / Decimal(approx.denominator))


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _write(handle, text: str) -> None:
    """Write `text` to a file `_open_out` opened, and close it."""
    try:
        with handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {handle.name}: {exc}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write(_open_out(args.out), text)
    else:
        sys.stdout.write(text)


def cmd_saf(args) -> int:
    iet = read_iet(args.iet)
    wedge = iet.saf()
    verdict = "VANISHES" if wedge.is_zero() else "NONZERO"
    matrix = [[str(c) for c in row] for row in wedge.rows]
    if args.json:
        sys.stdout.write(dumps_report({
            "command": "saf",
            "inputs": {"iet": args.iet},
            "matrix": matrix,
            "verdict": verdict,
        }))
        return 0
    print(f"wedge matrix ({iet.field.degree} x {iet.field.degree}):")
    for row in matrix:
        print("  " + "  ".join(row))
    print(f"verdict: {verdict}")
    if args.float:
        print("total length ~ " + algnum_decimal(iet.total))
    return 0


def cmd_vanishing(args) -> int:
    m = Poly.from_string(args.minpoly)
    interval = parse_interval(args.interval) if args.interval else None
    by_rec, by_deg = vanishing_verdicts(m, interval)
    agree = by_rec.vanishes == by_deg.vanishes
    if args.json:
        sys.stdout.write(dumps_report({
            "command": "vanishing",
            "inputs": {"minpoly": m.to_string(), "interval": args.interval},
            "reciprocity": by_rec.to_dict(),
            "field_degree": by_deg.to_dict(),
            "agree": agree,
        }))
        return 0
    print(f"minimal polynomial: {m}")
    print(f"reciprocity method:  vanishes={by_rec.vanishes} "
          f"(reversal: {by_rec.detail})")
    print(f"field-degree method: vanishes={by_deg.vanishes} "
          f"(trace-field index {by_deg.index}, min poly of lambda+1/lambda: "
          f"{by_deg.detail})")
    print(f"methods agree: {agree}")
    for note in by_rec.notes:    # both verdicts carry the same notes
        print(f"note: {note}")
    return 0


def cmd_nonlift(args) -> int:
    m = Poly.from_string(args.minpoly)
    verdict = nonlift_certificate(m, args.genus)
    if args.oracle:
        # the oracle reruns the checks past validation on the verdict's record
        slow = _nonlift(verdict.stretch, args.genus, gf2_completion_bruteforce)
        agree = slow.outcome == verdict.outcome
    if args.json:
        report = {
            "command": "nonlift",
            "inputs": {"minpoly": m.to_string(), "genus": args.genus},
            "verdict": verdict.to_dict(),
        }
        if args.oracle:
            report["oracle"] = {"verdict": slow.to_dict(), "agree": agree}
        sys.stdout.write(dumps_report(report))
        return 0
    print(f"minimal polynomial: {m}")
    print(f"genus: {args.genus}")
    if verdict.reason:
        print(f"outcome: {verdict.outcome} ({verdict.reason})")
    else:
        print(f"outcome: {verdict.outcome} (variant={verdict.variant}, "
              f"witness={gf2.to_string(verdict.witness)})")
    if args.oracle:
        print(f"brute-force oracle agrees: {agree}")
    for note in verdict.notes:
        print(f"note: {note}")
    return 0


def cmd_ay(args) -> int:
    _require_genus(args.genus)
    # --out is opened before the work, so that a path that cannot be
    # written fails fast and leaves stdout empty
    out = _open_out(args.out) if args.out else None
    with out or contextlib.nullcontext():
        lift = _ay_check(args) if args.check else ay_lift(args.genus)
        if out is not None:
            _write(out, dumps_iet(lift))
        elif not args.check:
            sys.stdout.write(dumps_iet(lift))
    return 0


def _ay_check(args):
    """Print the report of `ay --check` and return the lift."""
    system = AYSystem.build(args.genus)
    lift = system.lift
    checks = {}
    checks["involution"] = system.is_involution
    checks["saf_vanishes"] = lift.saf().is_zero()
    witness = ay_self_similarity_witness(lift)
    checks["self_similar"] = witness is not None
    stretch = _validate_stretch(system.stretch_minpoly)
    by_rec, by_deg = _by_reciprocity(stretch), _by_field_degree(stretch)
    checks["criterion_vanishes"] = by_rec.vanishes
    checks["vanishing_methods_agree"] = by_deg.vanishes == by_rec.vanishes
    checks["saf_matches_criterion"] = by_rec.vanishes == checks["saf_vanishes"]
    cert = _nonlift(stretch, args.genus)
    checks["certificate_inconclusive"] = cert.outcome == OUTCOME_INCONCLUSIVE
    lo, hi = system.field.interval
    # --float refines the field, with or without --json, so the lift file
    # written after the report records the narrower root interval
    approx = f", alpha ~ {algnum_decimal(system.field.gen())}" if args.float else ""
    if args.json:
        sys.stdout.write(dumps_report({
            "command": "ay",
            "inputs": {"genus": args.genus},
            "alpha_interval": f"{lo},{hi}",
            "stretch_minpoly": system.stretch_minpoly.to_string(),
            "checks": checks,
            "self_similarity_offset": None if witness is None else
                coords_to_string(witness),
            "all_pass": all(checks.values()),
            "notes": list(stretch.notes),
        }))
    else:
        print(f"genus {args.genus}: alpha in ({lo}, {hi}){approx}")
        for name, value in checks.items():
            print(f"check {name}: {'pass' if value else 'FAIL'}")
        print(f"all checks pass: {all(checks.values())}")
        for note in stretch.notes:
            print(f"note: {note}")
    return lift


def cmd_induce(args) -> int:
    iet = read_iet(args.iet)
    sub = parse_coords(args.sub, iet.field)
    _emit(args, dumps_iet(iet.first_return(sub)))
    return 0


def cmd_lift(args) -> int:
    iet = read_iet(args.iet)
    half = iet.total * Fraction(1, 2)
    _emit(args, dumps_iet(iet.rotate(half)))
    return 0


def cmd_compose(args) -> int:
    fields = {}     # one field object per distinct field text
    outer = read_iet(args.iet, fields)
    inner = read_iet(args.iet2, fields)
    _emit(args, dumps_iet(outer.compose(inner)))
    return 0


def cmd_invert(args) -> int:
    iet = read_iet(args.iet)
    _emit(args, dumps_iet(iet.inverse()))
    return 0


# The command table: each command's handler, help line and arguments, in
# the order of `ietsaf --help`.  `_match` and `build_parser` both read it.
Arg = namedtuple("Arg", "name kind required help", defaults=(str, False, None))
POSITIONAL, FLAG = "positional", "flag"     # the other kinds: str and int values
_JSON, _FLOAT, _OUT = Arg("--json", FLAG), Arg("--float", FLAG), Arg("--out")
_IET = Arg("--iet", required=True)
COMMANDS = {
    "saf": (cmd_saf, "SAF invariant of an IET file",
            (Arg("iet", POSITIONAL, help="path to an IET file"), _JSON, _FLOAT)),
    "vanishing": (cmd_vanishing, "SAF vanishing from a minimal polynomial", (
        Arg("--minpoly", required=True,
            help="constant-first integer coefficients, e.g. '-1,-1,-1,1'"),
        Arg("--interval", help="optional isolating interval 'lo,hi'"), _JSON)),
    "nonlift": (cmd_nonlift, "nonorientable-lift exclusion certificate", (
        Arg("--minpoly", required=True), Arg("--genus", int, True),
        Arg("--oracle", FLAG, help="cross-check with the brute-force completion search"),
        _JSON)),
    "ay": (cmd_ay, "Arnoux-Yoccoz construction and checks", (
        Arg("--genus", int, True),
        Arg("--check", FLAG, help="run the verification suite instead of emitting the IET"),
        Arg("--out", help="write the lift IET file here"), _JSON, _FLOAT)),
    "induce": (cmd_induce, "first-return map on [0, b)", (
        _IET, Arg("--sub", required=True, help="coordinates of b in the file's field"), _OUT)),
    "lift": (cmd_lift, "compose with the half-circumference rotation", (_IET, _OUT)),
    "compose": (cmd_compose, "composition f(g(x)) of two IET files", (
        Arg("--iet", required=True, help="outer map f"),
        Arg("--iet2", required=True, help="inner map g"), _OUT)),
    "invert": (cmd_invert, "inverse of an IET file", (_IET, _OUT)),
}


def build_parser():
    """The argparse tree of COMMANDS, for the argvs `_match` does not take."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ietsaf",
        description="Exact SAF invariants, vanishing criteria, and "
                    "nonorientable-lift certificates for interval exchanges.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, spec) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for arg in spec:
            if arg.kind == POSITIONAL:
                p.add_argument(arg.name, help=arg.help)
            elif arg.kind == FLAG:
                p.add_argument(arg.name, action="store_true", help=arg.help)
            else:
                p.add_argument(arg.name, required=arg.required, type=arg.kind,
                               help=arg.help)
        p.set_defaults(func=func)
    return parser


def _match(argv):
    """The namespace argparse would give an argv in the exact grammar of
    the module docstring, or None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, spec = COMMANDS[argv[0]]
    options = {arg.name: arg for arg in spec if arg.kind != POSITIONAL}
    given, positionals, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        arg = options.get(name)
        if arg is None or name in given or (eq and arg.kind == FLAG):
            return None
        if arg.kind == FLAG:
            given[name] = True
            continue
        if not eq:
            value = next(tokens, "-")     # a missing value fails like a '-' one
            if value.startswith("-"):
                return None
        try:
            given[name] = arg.kind(value)       # int() as argparse's type=int
        except ValueError:
            return None
    names = [arg.name for arg in spec if arg.kind == POSITIONAL]
    if len(positionals) != len(names) or any(
            arg.required and arg.name not in given for arg in options.values()):
        return None
    given.update(zip(names, positionals))
    return SimpleNamespace(command=argv[0], func=func, **{
        arg.name.lstrip("-"): given.get(arg.name, False if arg.kind == FLAG else None)
        for arg in spec})


def _join_signed_values(argv) -> list:
    """Rewrite '--minpoly -1,2' as '--minpoly=-1,2' for SIGNED_VALUE_OPTIONS."""
    out = []
    for token in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and _SIGNED_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser():
    """The argument tree, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    argv = _join_signed_values(sys.argv[1:] if argv is None else argv)
    args = _match(argv) or _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IterationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
