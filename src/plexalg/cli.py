"""Command-line front end.

Verbs: build, eval, check, decompose, represent, rebuild, embed-lex.
Exit codes: 0 success, 1 parse error, 2 precondition failure, 3 law
failure.  A law that found no instance to check prints VACUOUS instead
of PASS and still exits 0, since nothing was violated.  Identical
command lines produce byte-identical output; check --stats adds one line
per report on stderr (law, elapsed ms, samples, vacuous cells).
"""

from __future__ import annotations

import argparse
import sys

# a verb imports the peeling (decompose) and law (lawcheck) modules in its
# own body, so build and eval start without them
from . import chains, parsing
from .errors import (OnlyUnitIdempotent, ParseError, PlexError, UnknownLaw,
                     WrongBranch)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_LAW = 3

_TABLES = {"table1": 1, "table2": 2, "table3": 3, "table4": 4}

# laws that do not apply to a chain, reported as SKIP under --laws all
_SKIPS = {WrongBranch: "wrong branch",
          OnlyUnitIdempotent: "no idempotent above the unit"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to the parse-error code
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="plexalg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, help_, expr=False, laws=False, budget=None):
        v = sub.add_parser(name, help=help_)
        v.add_argument("-f", dest="spec", required=True, metavar="FILE",
                       help="path to a spec file")
        if expr:
            v.add_argument("-e", dest="expr", required=True, metavar="EXPR",
                           help="expression to evaluate")
        if laws:
            v.add_argument("--laws", default="all", metavar="ID",
                           help="law id, table1..table4, or 'all'")
            v.add_argument("--format", dest="fmt", default="text",
                           choices=("text", "tsv"))
            v.add_argument("--stats", action="store_true",
                           help="print each report's law, time, samples "
                           "and vacuous cells to stderr")
        if budget is not None:
            v.add_argument("--budget", type=int, default=budget)
            v.add_argument("--seed", type=int, default=0)
        return v

    verb("build", "parse a spec and print its canonical form")
    verb("eval", "evaluate an expression over an algebra", expr=True)
    verb("check", "run law suites", laws=True, budget=1000)
    verb("decompose", "peel one level and report the branch taken")
    verb("represent", "print the group-representation tree")
    verb("rebuild", "read a representation tree and print the algebra")
    verb("embed-lex", "print the lex-product target and verify the "
         "monoid embedding", budget=1000)
    return p


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        head = e.object[:e.start]
        raise ParseError(f"invalid UTF-8 in {path}: {e.reason}",
                         head.count(b"\n") + 1,
                         e.start - head.rfind(b"\n")) from None


def _load(path: str):
    return parsing.parse_algebra(_read(path))


# ---------------------------------------------------------------------------
# verb bodies


def _do_build(args) -> int:
    print(parsing.print_algebra(_load(args.spec)))
    return EXIT_OK


def _do_eval(args) -> int:
    a = _load(args.spec)
    op, *elems = parsing.parse_expr(a, args.expr)
    # the chains function is looked up per call, so a wrapper installed on
    # the module is seen
    value = getattr(chains, parsing.EXPR_OPS[op][0])(a, *elems)
    if op == "le":
        print("true" if value else "false")
    elif op == "idems":
        for e in value:
            print(parsing.print_elem(a, e))
    else:
        print(parsing.print_elem(a, value))
    return EXIT_OK


def _report_rows(report, fmt: str) -> list[str]:
    if fmt == "text":
        return [report.render()]
    return [
        f"{report.law}\t{report.verdict}\t{report.samples}\t{label}\t{count}"
        for label, count in report.counts
    ]


def _skip_rows(law: str, fmt: str, reason: str) -> list[str]:
    if fmt == "text":
        return [f"LAW {law} SKIP {reason}"]
    return [f"{law}\tSKIP\t0\t-\t0"]


def _run_one(args, a, law: str):
    from . import lawcheck

    budget, seed = args.budget, args.seed
    if law == "fle":
        report = lawcheck.check_fle_laws(a, budget=budget, seed=seed)
    elif law in _TABLES:
        report = lawcheck.check_table(a, _TABLES[law], budget=budget,
                                      seed=seed)
    else:
        report = lawcheck.check_named(a, law, budget=budget, seed=seed)
    if args.stats:
        print(f"stats law={report.law} elapsed_ms={report.elapsed * 1e3:.3f}"
              f" {report.tally}", file=sys.stderr)
    return report


def _do_check(args) -> int:
    from . import lawcheck

    a = _load(args.spec)
    fmt = args.fmt
    lines: list[str] = []
    if fmt == "tsv":
        lines.append("law\tstatus\tsamples\tcell\tcount")
    failed = False
    if args.laws == "all":
        # fixed ordering: structural laws first, then the named registry
        for law in ("fle",) + tuple(lawcheck.named_law_ids()):
            try:
                report = _run_one(args, a, law)
            except tuple(_SKIPS) as e:
                lines += _skip_rows(law, fmt, _SKIPS[type(e)])
                continue
            failed = failed or not report.passed
            lines += _report_rows(report, fmt)
    else:
        report = _run_one(args, a, args.laws)
        failed = not report.passed
        lines += _report_rows(report, fmt)
    print("\n".join(lines))
    return EXIT_LAW if failed else EXIT_OK


def _do_decompose(args) -> int:
    from . import decompose

    a = _load(args.spec)
    child = decompose.peel(a)
    print(f"u: {parsing.print_elem(a, child.u)}")
    print(f"branch: {child.branch}")
    print(f"child: {child.describe()}")
    return EXIT_OK


def _do_represent(args) -> int:
    from . import decompose

    tree = decompose.group_representation(_load(args.spec))
    print(parsing.print_reptree(tree))
    return EXIT_OK


def _do_rebuild(args) -> int:
    from . import decompose

    tree = parsing.parse_reptree(_read(args.spec))
    print(parsing.print_algebra(decompose.rebuild(tree)))
    return EXIT_OK


def _do_embed_lex(args) -> int:
    from . import decompose, lawcheck

    a = _load(args.spec)
    monoid, emb = decompose.lex_embedding(a)
    print(f"target: {monoid.describe()}")
    report = lawcheck.check_hom(emb, a, monoid, budget=args.budget,
                                seed=args.seed, with_comp=False,
                                law="embed-lex")
    print(report.render())
    return EXIT_OK if report.passed else EXIT_LAW


_VERBS = {
    "build": _do_build,
    "eval": _do_eval,
    "check": _do_check,
    "decompose": _do_decompose,
    "represent": _do_represent,
    "rebuild": _do_rebuild,
    "embed-lex": _do_embed_lex,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", 1) < 1:
            raise _UsageError(f"argument --budget: must be at least 1, "
                              f"got {args.budget}")
        return _VERBS[args.verb](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, UnknownLaw) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PlexError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
