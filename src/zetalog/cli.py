"""Command-line front end.

Subcommands: expand, table, verify, express, survey, partitions.
Formats: text (default), json (single-line envelope), latex where it
makes sense.  Exit codes: 0 success, 1 usage or parse error (or, from
the console script, an output pipe closed early), 2 target not
expressible, 3 verification failure or precision budget exhausted.

JSON envelopes look like {"schema_version": 1, "command": ...,
"inputs": ..., "result": ..., "elapsed_ms": ...} with rationals as
exact "p/q" strings and high-precision values as decimal strings.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import expansion, numerics, partitions, solver

__all__ = ["main", "console_main"]

SCHEMA_VERSION = 1
WEIGHT_CAP = 40
DIGITS_CAP = 60
# solver.MODES and numerics.METHODS, spelt here so that building the parser
# compiles neither module (a tier-1 test keeps them equal)
MODES = ("optimistic", "strict")
METHODS = ("series", "quadrature", "both")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # "not expressible", so usage problems must leave with 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetalog", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p, *, latex: bool = True):
        choices = ["text", "json"] + (["latex"] if latex else [])
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("expand", help="expand Lz(a,b) into zeta monomials")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--reduce", action="store_true", help="fold even zetas into pi powers")
    add_format(p)

    p = sub.add_parser("table", help="all expansions of one weight")
    p.add_argument("N", type=int)
    p.add_argument("--reduce", action="store_true")
    add_format(p)

    p = sub.add_parser("verify", help="check an expansion numerically")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--method", choices=METHODS, default="both")

    p = sub.add_parser("express", help="certificate for an odd-zeta monomial")
    p.add_argument("monomial", help="e.g. z3, z3^2*z5")
    p.add_argument("--mode", choices=MODES, default="optimistic")
    p.add_argument("--weight", type=int, default=None)
    add_format(p)

    p = sub.add_parser("survey", help="equations/unknowns/rank per weight")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="optimistic")
    add_format(p)

    p = sub.add_parser("partitions", help="restricted partition listing")
    p.add_argument("N", type=int)
    p.add_argument("--min-part", type=int, default=1)
    p.add_argument("--parts", type=int, default=None)
    p.add_argument("--parity", choices=partitions.PARITY_CHOICES, default="any")
    add_format(p, latex=False)

    return parser


# parsed arguments that are not inputs: the subcommand and the output form
_NOT_INPUTS = ("command", "format")

# each handler prints its text or LaTeX output and returns (exit code, JSON
# result or None); main wraps a JSON result in the one envelope


def _check_pair(args) -> None:
    # expand and verify read one pair (a, b) under the weight cap
    if args.a < 1 or args.b < 1:
        raise ValueError(f"{args.command} needs a >= 1 and b >= 1")
    if args.a + args.b > WEIGHT_CAP:
        raise ValueError(f"a+b = {args.a + args.b} exceeds the weight cap {WEIGHT_CAP}")


def _cmd_expand(args):
    _check_pair(args)
    comb = expansion.expand_lz(args.a, args.b)
    obj = expansion.reduce_even(comb) if args.reduce else comb
    if args.format == "json":
        return 0, {"weight": obj.weight, "reduced": args.reduce, "terms": obj.payload()}
    print(f"Lz({args.a},{args.b})={obj.latex()}" if args.format == "latex" else obj.text())
    return 0, None


def _cmd_table(args):
    if not 2 <= args.N <= WEIGHT_CAP:
        raise ValueError(f"table needs 2 <= N <= {WEIGHT_CAP}, the weight cap")
    shown = {
        pair: (expansion.reduce_even(comb) if args.reduce else comb)
        for pair, comb in expansion.expand_weight(args.N).items()
    }
    if args.format == "json":
        entries = [{"a": a, "b": b, "terms": obj.payload()} for (a, b), obj in shown.items()]
        return 0, {"weight": args.N, "reduced": args.reduce, "entries": entries}
    for (a, b), obj in shown.items():
        if args.format == "latex":
            print(f"Lz({a},{b})={obj.latex()}")
        else:
            print(f"Lz({a},{b}) = {obj.text()}")
    return 0, None


def _cmd_verify(args):
    _check_pair(args)
    if args.digits > DIGITS_CAP:
        raise ValueError(f"digits must be at most {DIGITS_CAP}")
    report = numerics.verify_expansion(args.a, args.b, args.digits, args.method)
    from mpmath import mp  # loaded by verify_expansion; no exact command needs it

    shown = {**report.values, "deviation": report.max_deviation, "threshold": report.threshold}
    for name, value in shown.items():
        print(f"{name:>11}: {mp.nstr(value, args.digits)}")
    print("PASS" if report.passed else "FAIL")
    return (0 if report.passed else 3), None


def _cmd_express(args):
    target = expansion.ZetaMonomial.parse(args.monomial)
    weight = args.weight if args.weight is not None else target.weight
    if weight > WEIGHT_CAP:
        raise ValueError(f"weight {weight} exceeds the weight cap {WEIGHT_CAP}")
    outcome = solver.express(target, mode=args.mode, weight=args.weight)
    cert = outcome.certificate
    code = 0 if outcome.status == "expressible" else 2
    if args.format == "json":
        return code, {
            "status": outcome.status,
            "mode": outcome.mode,
            "weight": outcome.weight,
            "detail": outcome.detail,
            "certificate": cert.to_payload() if cert else None,
        }
    if args.format == "latex":
        print(cert.latex() if cert is not None else f"% {outcome.status}: {target.latex()}")
        return code, None
    print(f"status: {outcome.status}")
    if outcome.detail:
        print(f"detail: {outcome.detail}")
    if cert is not None:
        print(cert.text())
    return code, None


def _cmd_survey(args):
    lo, hi = vars(args)["from"], args.to
    if not 3 <= lo <= hi <= WEIGHT_CAP:
        raise ValueError(f"survey range must satisfy 3 <= from <= to <= {WEIGHT_CAP}, the weight cap")
    report = solver.survey(lo, hi, mode=args.mode)
    if args.format == "json":
        records = [
            {
                **r._asdict(),
                "expressible": [str(m) for m in r.expressible],
                "inexpressible": [str(m) for m in r.inexpressible],
            }
            for r in report.records
        ]
        return 0, {"mode": report.mode, "records": records}
    if args.format == "text":
        print("  N  eq unk rank counting    inexpressible")
    for r in report.records:
        if args.format == "latex":
            bad = ",".join(str(m) for m in r.inexpressible) or "-"
            print(f"{r.weight} & {r.equations} & {r.unknowns} & {r.rank} & {bad} \\\\")
        else:
            counting = f"{r.counting_equations}/{r.counting_unknowns}"
            bad = ", ".join(str(m) for m in r.inexpressible) or "-"
            print(
                f"{r.weight:>3} {r.equations:>3} {r.unknowns:>3} {r.rank:>4}"
                f" {counting:>8}    {bad}"
            )
    return 0, None


def _cmd_partitions(args):
    if not 1 <= args.N <= WEIGHT_CAP:
        raise ValueError(f"partitions needs 1 <= N <= {WEIGHT_CAP}, the weight cap")
    flt = partitions.PartitionFilter(
        min_part=args.min_part, exact_parts=args.parts, parity=args.parity
    )
    elems = partitions.enumerate_partitions(args.N, flt)
    if args.format == "json":
        return 0, {
            "n": args.N,
            "filter": {"min_part": args.min_part, "parts": args.parts, "parity": args.parity},
            "partitions": [list(x.part_list()) for x in elems],
            "count": len(elems),
        }
    for x in elems:
        print(x)
    print(f"count = {len(elems)}")
    return 0, None


_DISPATCH = {
    "expand": _cmd_expand,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "express": _cmd_express,
    "survey": _cmd_survey,
    "partitions": _cmd_partitions,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        code, result = _DISPATCH[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"zetalog {args.command}: {exc}\n")
        return 1
    # evaluated only for a non-ValueError, so a usage error compiles no numerics
    except numerics.PrecisionBudgetError as exc:
        sys.stderr.write(f"zetalog {args.command}: precision budget: {exc}\n")
        return 3
    except solver.CertificateCheckError as exc:
        sys.stderr.write(f"zetalog {args.command}: {exc}\n")
        return 3
    if result is not None:
        import json  # only a JSON envelope needs it; text and LaTeX ops skip its load

        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
            "result": result,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(envelope))
    return code


def console_main() -> None:
    try:
        code = main()
        if sys.stdout is not None:  # None in a process started without fd 1
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # flush at exit cannot raise again (the recipe in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # the command's objects live until exit anyway: frozen, they are skipped
    # by the full-heap collections of interpreter shutdown
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
