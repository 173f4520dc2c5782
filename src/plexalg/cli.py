"""Command-line front end.

Verbs: build, eval, check, decompose, represent, rebuild, embed-lex.
Exit codes: 0 success, 1 parse error, 2 precondition failure, 3 law
failure.  A law that found no instance to check prints VACUOUS instead
of PASS and still exits 0, since nothing was violated.  Identical
command lines produce byte-identical output; check --stats adds one line
per report on stderr (law, elapsed ms, samples, vacuous cells).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# a verb imports the peeling (decompose) and law (lawcheck) modules in its
# own body, so build, eval and rebuild start without them
from . import chains, parsing
from .build import rebuild
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


class _Help(Exception):
    """-h or --help: carries the usage text to print."""


# ---------------------------------------------------------------------------
# the command line
#
# _VERBS, at the end of this module, is the one table: verb -> (body, help
# line, options).  An option is (flag, dest, default, value, help), where
# value is the metavar of an option that takes a string, int for an
# integer, a tuple of its choices, or None for a switch; a default of
# None makes the option required.  A command line in canonical form, the
# verb and then exact flags, each but a switch followed by a value that
# does not start with '-', is read directly; argparse, built from the same
# table, reads every other line, so each line means what argparse makes
# of it, and argparse is imported only when a line needs it.


def _canonical(argv):
    """The values of a canonical command line, or None for any other."""
    if not argv or argv[0] not in _VERBS:
        return None
    options = {opt[0]: opt for opt in _VERBS[argv[0]][2]}
    args = {"verb": argv[0]} | {opt[1]: opt[2] for opt in options.values()}
    i = 1
    while i < len(argv):
        if argv[i] not in options:
            return None
        _, dest, _, kind, _ = options[argv[i]]
        value, i = True, i + 1
        if kind is not None:
            if i == len(argv) or argv[i][:1] == "-":
                return None
            value, i = argv[i], i + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif isinstance(kind, tuple) and value not in kind:
                return None
        args[dest] = value
    # a required option has the default None, and a value read is never None
    return None if None in args.values() else args


def _argparse(argv):
    """The values of any command line as argparse reads it from _VERBS;
    raises _Help for -h or --help and _UsageError for a malformed line."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    class Help(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            raise _Help(_usage(self.const))

    def helped(p, verb=None):
        p.add_argument("-h", "--help", action=Help, nargs=0, const=verb,
                       default=argparse.SUPPRESS)
        return p

    top = helped(Parser(prog="plexalg", add_help=False))
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (_, _, options) in _VERBS.items():
        p = helped(sub.add_parser(verb, add_help=False), verb)
        for flag, dest, default, value, _ in options:
            kind = ({"action": "store_true"} if value is None
                    else {"type": int} if value is int
                    else {"choices": value} if isinstance(value, tuple)
                    else {})
            p.add_argument(flag, dest=dest, default=default,
                           required=default is None, **kind)
    return vars(top.parse_args(argv))


def _parse(argv):
    """The verb and option values of a command line; raises _Help for -h
    or --help and _UsageError for a malformed line."""
    args = _canonical(argv) or _argparse(argv)
    if args.get("budget", 1) < 1:
        raise _UsageError("argument --budget: must be at least 1, got %d"
                          % args["budget"])
    return SimpleNamespace(**args)


def _usage(verb=None) -> str:
    """The help text of the program, or of one verb."""
    if verb is None:
        rows = ["  %-11s%s" % (name, entry[1])
                for name, entry in _VERBS.items()]
        return "\n".join(["usage: plexalg VERB [OPTIONS]", "", "verbs:"]
                         + rows + ["", "plexalg VERB -h lists the options "
                                   "of a verb."])
    rows = [("-h, --help", "print this text and exit")]
    for flag, _, default, value, help_ in _VERBS[verb][2]:
        if isinstance(value, tuple):
            flag += " {%s}" % ",".join(value)
        elif value is not None:
            flag += " N" if value is int else " " + value
        if default is not None and value is not None:
            help_ += " (default: %s)" % default
        rows.append((flag, help_))
    return "\n".join(["usage: plexalg %s [OPTIONS]" % verb, "",
                      _VERBS[verb][1], "", "options:"]
                     + ["  %-21s%s" % row for row in rows])


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
    tree = parsing.parse_reptree(_read(args.spec))
    print(parsing.print_algebra(rebuild(tree)))
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


_FILE = ("-f", "spec", None, "FILE", "path to a spec file")
_BUDGET = ("--budget", "budget", 1000, int, "samples per law, at least 1")
_SEED = ("--seed", "seed", 0, int, "seed of the sample stream")

_VERBS = {
    "build": (_do_build, "parse a spec and print its canonical form",
              (_FILE,)),
    "eval": (_do_eval, "evaluate an expression over an algebra",
             (_FILE, ("-e", "expr", None, "EXPR", "expression to evaluate"))),
    "check": (_do_check, "run law suites", (
        _FILE,
        ("--laws", "laws", "all", "ID", "law id, table1..table4, or 'all'"),
        ("--format", "fmt", "text", ("text", "tsv"), "report format"),
        ("--stats", "stats", False, None, "print each report's law, time, "
         "samples and vacuous cells to stderr"),
        _BUDGET, _SEED)),
    "decompose": (_do_decompose, "peel one level and report the branch taken",
                  (_FILE,)),
    "represent": (_do_represent, "print the group-representation tree",
                  (_FILE,)),
    "rebuild": (_do_rebuild, "read a representation tree and print the "
                "algebra", (_FILE,)),
    "embed-lex": (_do_embed_lex, "print the lex-product target and verify "
                  "the monoid embedding", (_FILE, _BUDGET, _SEED)),
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return _VERBS[args.verb][0](args)
    except _Help as e:
        print(e)
        return EXIT_OK
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, UnknownLaw, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PlexError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
