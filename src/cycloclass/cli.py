"""Command-line interface.

Subcommands:
    hminus <u> [--time-limit SECONDS]   relative class number of Q(zeta_u);
                                        out of time while factoring, prints
                                        the exact value with a C<digits>
                                        cofactor and exits 1
    bound --disc D --m M                geometric class-number bound
    subfields <u>                       subfield lattice of Q(zeta_u)
    audit <file> [--format ...]         congruence audit of a JSONL table
    verify-paper [--format ...]         audit the bundled published records

Exit status: 0 on success, 1 when an audit finds violations or a computation
runs out of time or fails an internal consistency check, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from .arith import _decimal, probable_prime_only
from .abelian import normalize_conductor, subfields
from .bounds import class_number_bound, field_bound
from .classnum import IntegralityError, TimeLimitExceeded, relative_class_number
from .tables import (
    PROBABLE_PRIME_POLICIES,
    TableFormatError,
    audit_records,
    builtin_paper_dataset,
    parse_records,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def cmd_hminus(args) -> int:
    try:
        result = relative_class_number(args.u, time_limit=args.time_limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TimeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except IntegralityError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    u, value = result.modulus, _decimal(result.value)
    factored = " · ".join(result.factorization.terms())
    if result.value == 1 or factored == value:
        print(f"h-({u}) = {value}")
    else:
        print(f"h-({u}) = {value} = {factored}")
    if args.verbose:
        print(f"  Q = {result.q_factor}, roots of unity w = {result.roots_of_unity}")
        for o in result.orbit_norms:
            print(f"  orbit {o.orbit_id}: size {o.size}, norm {_decimal(o.norm)}")
        for p, e in result.factorization.factors:
            if probable_prime_only(p):
                print(f"  note: {_decimal(p)} is a probable prime (beyond deterministic range)")
    if result.note:
        print(f"note: h-({u}): {result.note}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        result = class_number_bound(args.disc, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"H = {result.display()}")
    if result.note:
        print(f"note: {result.note}")
    return EXIT_OK


def cmd_subfields(args) -> int:
    u = normalize_conductor(args.u)
    try:
        fields = subfields(u) if u > 2 else ()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [(F.degree, F.conductor, F.abs_discriminant, field_bound(F)) for F in fields]
    print(f"subfields of Q(zeta_{u})")
    print(f"{'degree':>7}  {'conductor':>9}  {'|disc|':>24}  H_F")
    # Q(zeta_1) = Q(zeta_2) = Q, whose one subfield is Q itself
    for degree, conductor, disc, bound in rows or [(1, 1, 1, class_number_bound(1, 1))]:
        disc_s = str(disc) if disc < 10**24 else f"~10^{Decimal(disc).adjusted()}"
        print(f"{degree:>7}  {conductor:>9}  {disc_s:>24}  {bound.display()}")
    return EXIT_OK


def _run_audit(records, args) -> int:
    report = audit_records(records, probable_primes=args.probable_primes)
    if args.format == "structured":
        sys.stdout.write(report.to_jsonl())
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.exit_ok else EXIT_FAIL


def cmd_audit(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        records = parse_records(text)
    except TableFormatError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not records:
        print(f"error: {args.file}: no records", file=sys.stderr)
        return EXIT_USAGE
    return _run_audit(records, args)


def cmd_verify_paper(args) -> int:
    return _run_audit(builtin_paper_dataset(), args)


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloclass",
        description="Exact relative class numbers of cyclotomic fields, "
        "geometric class-number bounds, and congruence audits of published "
        "class-number tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hminus", help="relative class number h- of Q(zeta_u)")
    p.add_argument("u", type=_positive_int, help="conductor of the cyclotomic field")
    p.add_argument(
        "--time-limit",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="abort if the orbit norms exceed this many seconds, or stop "
        "factoring and print the unsplit cofactor as C<digits> (default 60)",
    )
    p.add_argument("--verbose", action="store_true", help="print per-orbit norms")
    p.set_defaults(func=cmd_hminus)

    p = sub.add_parser("bound", help="geometric class-number bound H(|D|, m)")
    p.add_argument("--disc", type=_positive_int, required=True, metavar="D",
                   help="absolute value of the field discriminant")
    p.add_argument("--m", type=_positive_int, required=True, help="field degree")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("subfields", help="subfield lattice of Q(zeta_u)")
    p.add_argument("u", type=_positive_int)
    p.set_defaults(func=cmd_subfields)

    for name, helptext in (
        ("audit", "audit a JSONL table of class-number records"),
        ("verify-paper", "audit the bundled table of published records"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "audit":
            p.add_argument("file", help="path to a JSONL record table")
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="text report or structured JSONL (default text)")
        p.add_argument("--probable-primes", choices=PROBABLE_PRIME_POLICIES,
                       default="allow",
                       help="treat unproven large primes as primes (allow, default) "
                       "or mark their verdicts INCONCLUSIVE (reject)")
        p.set_defaults(func=cmd_audit if name == "audit" else cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep callers of
        # main() exception-free either way
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
