"""Command-line behavior: verbs, exit codes, deterministic output."""

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import SPECS, SRC
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_decompose import _specs

from plexalg import chains, cli, lawcheck, parsing


@pytest.fixture()
def spec_file(tmp_path):
    def write(text, name="spec.alg"):
        p = tmp_path / name
        p.write_text(text + "\n", encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_prints_canonical_form(capsys, spec_file):
    path = spec_file("  II( Z ,   Q )")
    code, out, _ = run(capsys, "build", "-f", path)
    assert code == 0
    assert out == "II(Z, Q)\n"


def test_build_parse_error_exits_1(capsys, spec_file):
    code, _, err = run(capsys, "build", "-f", spec_file("II(Z"))
    assert code == 1
    assert "error" in err


def test_build_precondition_exits_2(capsys, spec_file):
    code, _, err = run(capsys, "build", "-f", spec_file("II(Q, Q)"))
    assert code == 2
    assert "DiscretenessViolated" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "build", "-f", "/nonexistent/x.alg")
    assert code == 1 and err


@pytest.mark.parametrize("verb", ["build", "rebuild"])
def test_non_utf8_input_is_an_error_line(capsys, tmp_path, verb):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfeII(Z, Q)\n")
    code, out, err = run(capsys, verb, "-f", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: 1:1: invalid UTF-8 in {path}: invalid start byte\n"


DEEP_SPEC = "I(" * 1000 + "Z" + ", full, Q)" * 1000
DEEP_TREE = "base: Z\nlevel 2: iota=II Z=" + "(" * 1000


@pytest.mark.parametrize("argv,text", [
    (("build",), DEEP_SPEC),
    (("eval", "-e", "unit"), DEEP_SPEC),
    (("represent",), DEEP_SPEC),
    (("rebuild",), DEEP_TREE),
], ids=["build", "eval", "represent", "rebuild"])
def test_over_deep_nesting_is_a_parse_error(capsys, spec_file, argv, text):
    code, out, err = run(capsys, argv[0], "-f", spec_file(text), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(": nesting too deep\n")


@pytest.mark.parametrize("verb,text,extra,err", [
    ("build", "I(Z, idx \u00b2, Q)", (), "1:10"),
    ("eval", "II(Z, Q)", ("-e", "comp (\u00b2)"), "1:7"),
    ("rebuild", "base: Z\nlevel \u00b2: iota=II Z=gr G=Q H=fullH", (), "2:7"),
])
def test_non_ascii_digit_is_one_error_line(spec_file, verb, text, extra, err):
    # a separate interpreter, so that the streams are the program's own
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "plexalg.cli", verb, "-f", spec_file(text),
         *extra], env=env, capture_output=True, encoding="utf-8")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {err}: stray character '\u00b2'\n"


def test_deep_spec_under_the_nesting_limit_builds(capsys, spec_file):
    # what each node costs is bounded in
    # test_chains.test_build_calls_per_node_grow_linearly_in_depth
    text = "I(" * 200 + "Z" + ", full, Q)" * 200
    code, out, _ = run(capsys, "build", "-f", spec_file(text))
    assert (code, out) == (0, text + "\n")


# depth 300 on the first factor and on the second: the chain operations
# compile, and the ladder is built, without a deep chain of lazy lookups,
# and every eval expression runs on both
DEPTH_300 = ["I(" * 300 + "Z" + ", full, Q)" * 300,
             "II(Z, " * 300 + "Q" + ")" * 300]
EVAL_EXPRS = ["mul unit unit", "res unit unit", "comp unit", "tau unit",
              "le unit unit", "down unit", "up unit", "unit", "idems"]


@pytest.mark.parametrize("text", DEPTH_300, ids=["first", "second"])
def test_depth_300_spec_evaluates_and_checks(capsys, spec_file, text):
    path = spec_file(text)
    for argv in ([("eval", "-f", path, "-e", e) for e in EVAL_EXPRS]
                 + [("check", "-f", path, "--laws", "fle", "--budget", "1")]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out, argv


# the rebuild round trip runs on the first spec only: the second's tree is
# about 330 KB, quadratic in the depth as its level constraints are, and
# rebuilding it verifies each new node's idempotents at full depth
# (build._smoke), so with the round trip this case took longer than the
# first spec's whole test
@pytest.mark.parametrize("text,round_trip", zip(DEPTH_300, (True, False)),
                         ids=["first", "second"])
def test_depth_300_spec_peels(capsys, spec_file, text, round_trip):
    # the per-algebra caches of the peel (branches, absorption tests) are
    # built without deep recursion
    path = spec_file(text)
    code, tree, err = run(capsys, "represent", "-f", path)
    assert (code, err) == (0, "") and tree
    code, out, err = run(capsys, "decompose", "-f", path)
    assert (code, err) == (0, "") and out
    if round_trip:
        code, out, err = run(capsys, "rebuild", "-f",
                             spec_file(tree, "tree.rep"))
        assert (code, err) == (0, "") and out
        code, again, err = run(capsys, "represent", "-f",
                               spec_file(out, "re.alg"))
        assert (code, err, again) == (0, "", tree)


def test_bad_usage_exits_1(capsys, spec_file):
    code, _, err = run(capsys, "check", "-f", spec_file("Z"), "--format", "xml")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("verb,budget", [("check", "0"), ("check", "-5"),
                                         ("embed-lex", "0")])
def test_budget_below_one_is_a_usage_error(capsys, spec_file, verb, budget):
    code, out, err = run(capsys, verb, "-f", spec_file("II(Z, Q)"),
                         "--budget", budget)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "error:" in lines[0], err


def test_eval_values(capsys, spec_file):
    a_path = spec_file("II(Z, Q)")
    b_path = spec_file("I(Q, idx 1, Q)", "b.alg")
    for argv, want in [
        (("eval", "-f", a_path, "-e", "comp (0, T)"), "(-1, T)\n"),
        (("eval", "-f", b_path, "-e", "mul (0,B) (0,B)"), "(0, B)\n"),
        (("eval", "-f", a_path, "-e", "tau unit"), "(0, 0)\n"),
        (("eval", "-f", a_path, "-e", "le (0, 1/2) (0, T)"), "true\n"),
        (("eval", "-f", a_path, "-e", "idems"), "(0, 0)\n(0, T)\n"),
        (("eval", "-f", a_path, "-e", "down (0, T)"), "(0, T)\n"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want


def test_eval_prints_a_result_longer_than_the_input_limit(capsys, spec_file):
    # each operand fits the 4,300-digit input limit, their exact sum does not
    a, b = int("7" * 3000), int("3" * 3001)
    code, out, err = run(capsys, "eval", "-f", spec_file("Q"),
                         "-e", f"mul 1/{a} 1/{b}")
    want = Fraction(1, a) + Fraction(1, b)
    assert (code, err) == (0, "")
    assert out == f"{Decimal(want.numerator)}/{Decimal(want.denominator)}\n"
    assert len(out) > 9000


def test_eval_invalid_element_exits_2(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, _, err = run(capsys, "eval", "-f", path, "-e", "comp (1/2, T)")
    assert code == 2
    assert "InvalidElement" in err


def test_eval_bad_expression_exits_1(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, _, _ = run(capsys, "eval", "-f", path, "-e", "mul (0, T)")
    assert code == 1


def test_parse_error_quotes_the_expected_token(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, _, err = run(capsys, "eval", "-f", path, "-e", "comp (0)")
    assert code == 1
    assert err == "error: 1:8: expected ',', got ')'\n"


# errors at the edges of the spec, element and tree readers and of the
# builders: one line on stderr, exit 1 for a text error, 2 for a refusal
@pytest.mark.parametrize("text,argv,code,err", [
    ("Q", ("eval", "-e", "comp 1/0"), 1, "1:9: zero denominator"),
    ("I(Lex(Z, Z), idx 2, Q)", ("build",), 1,
     "1:19: bare idx needs a rank-1 group part, got rank 2"),
    ("I(Z, ((full)), Q)", ("build",), 1,
     "1:14: nested subgroup tuples are not supported"),
    ("I(Lex(Z, Z), (full), Q)", ("build",), 1,
     "1:20: subgroup has 1 coordinates, group part has 2"),
    ("Lex(Z, Z)", ("eval", "-e", "comp (1, 2, 3)"), 1,
     "1:14: element has 3 coordinates, group has 2"),
    ("SLI(Z, full, II(Z, Q), fullH)", ("build",), 2,
     "PreconditionFailed: sublex constructions need a group leaf second "
     "factor"),
    ("base: Z\nlevel 2: iota=II Z=full G=Q H=fullH", ("rebuild",), 2,
     "PreconditionFailed: restriction levels take the whole child group"),
    ("base: Z\nlevel 2: iota=II Zz=gr G=Q H=fullH", ("rebuild",), 1,
     "2:18: expected Z="),
])
def test_boundary_errors_are_one_line(capsys, spec_file, text, argv, code,
                                      err):
    got = run(capsys, argv[0], "-f", spec_file(text), *argv[1:])
    assert got == (code, "", "error: %s\n" % err)


def test_check_single_law(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, out, _ = run(capsys, "check", "-f", path, "--laws", "eq2.2",
                       "--budget", "50", "--seed", "1")
    assert code == 0
    assert out == "LAW eq2.2 PASS samples=50 vacuous=none\n"


@pytest.mark.parametrize("fmt,want", [
    ("text", "LAW prop8.2.4 VACUOUS samples=0 vacuous=prop8.2.4\n"),
    ("tsv", "law\tstatus\tsamples\tcell\tcount\n"
            "prop8.2.4\tVACUOUS\t0\tprop8.2.4\t0\n"),
])
def test_check_fully_vacuous_law(capsys, spec_file, fmt, want):
    # the dense fixture has no pseudo-tops: nothing is checked, nothing
    # is violated, so the verdict is VACUOUS and the exit code 0
    path = spec_file("I(II(Z, Q), full, Q)")
    code, out, _ = run(capsys, "check", "-f", path, "--laws", "prop8.2.4",
                       "--budget", "40", "--format", fmt)
    assert code == 0
    assert out == want


def test_check_all_skips_wrong_branch(capsys, spec_file):
    path = spec_file("I(Q, idx 1, Q)")
    code, out, _ = run(capsys, "check", "-f", path, "--laws", "all",
                       "--budget", "60", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("LAW fle PASS")
    assert "LAW prop10.1.3 SKIP wrong branch" in lines
    assert [l.split()[1] for l in lines] == \
        ["fle"] + list(lawcheck.named_law_ids())


@pytest.mark.parametrize("fmt", ["text", "tsv"])
@pytest.mark.parametrize("spec", ["Z", "Lex(Z, Q)"])
def test_check_all_skips_laws_needing_a_second_idempotent(capsys, spec_file,
                                                          spec, fmt):
    # a group has only the unit idempotent: the laws at the least strictly
    # positive idempotent do not apply, fle and the arithmetic laws do
    code, out, _ = run(capsys, "check", "-f", spec_file(spec), "--laws",
                       "all", "--budget", "20", "--format", fmt)
    assert code == 0
    ids = ("fle",) + lawcheck.named_law_ids()
    at_u = ids[ids.index("prop7.2.eqs"):]
    if fmt == "text":
        lines = out.splitlines()
        assert [l.split()[1] for l in lines] == list(ids)
        assert lines[-len(at_u):] == [
            f"LAW {law} SKIP no idempotent above the unit" for law in at_u]
        assert all(" PASS " in l for l in lines[:-len(at_u)])
    else:
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        assert [r[:3] for r in rows[-len(at_u):]] == \
            [[law, "SKIP", "0"] for law in at_u]
        assert {r[1] for r in rows[:-len(at_u)]} == {"PASS"}


def test_check_explicit_wrong_branch_exits_2(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, _, err = run(capsys, "check", "-f", path, "--laws", "table1")
    assert code == 2
    assert "WrongBranch" in err


def test_check_unknown_law_exits_1(capsys, spec_file):
    code, _, _ = run(capsys, "check", "-f", spec_file("Z"), "--laws", "nope")
    assert code == 1


def test_check_law_failure_exits_3(capsys, spec_file, monkeypatch):
    bad = lawcheck.check_fle_laws(
        lawcheck.Mutant(parsing.parse_algebra("II(Z, Q)"), "mul"),
        budget=100, seed=1)
    assert not bad.passed
    monkeypatch.setattr(lawcheck, "check_fle_laws",
                        lambda a, budget, seed: bad)
    path = spec_file("II(Z, Q)")
    code, out, _ = run(capsys, "check", "-f", path, "--laws", "fle")
    assert code == 3
    assert "FAIL" in out


def test_check_tsv_format(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, out, _ = run(capsys, "check", "-f", path, "--laws", "table2",
                       "--budget", "30", "--seed", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "law\tstatus\tsamples\tcell\tcount"
    assert all(len(l.split("\t")) == 5 for l in lines[1:])
    assert lines[1].startswith("table2\tPASS\t")


def test_check_output_is_byte_identical(capsys, spec_file):
    path = spec_file("SLII(Z, Q, graphH(1/2))")
    argv = ("check", "-f", path, "--laws", "all", "--budget", "80",
            "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_decompose_reports_branch(capsys, spec_file):
    code, out, _ = run(capsys, "decompose", "-f", spec_file("II(Z, Q)"))
    assert code == 0
    assert out.splitlines() == [
        "u: (0, T)",
        "branch: NonIdemBranch",
        "child: local-unit restriction of II(Z, Q)",
    ]


def test_decompose_group_chain_exits_2(capsys, spec_file):
    code, _, err = run(capsys, "decompose", "-f", spec_file("Z"))
    assert code == 2
    assert "OnlyUnitIdempotent" in err


def test_represent_rebuild_round_trip(capsys, spec_file, tmp_path):
    path = spec_file("I(II(Z, Q), full, Q)")
    code, out, _ = run(capsys, "represent", "-f", path)
    assert code == 0
    tree_path = tmp_path / "tree.txt"
    tree_path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "rebuild", "-f", str(tree_path))
    assert code == 0
    assert out2 == "SLI(SLII(Z, Q, fullH), full, Q, fullH)\n"


def test_embed_lex_reports_target(capsys, spec_file):
    path = spec_file("II(Z, Q)")
    code, out, _ = run(capsys, "embed-lex", "-f", path, "--budget", "200",
                       "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target: Z lex Q^TB"
    assert lines[1].startswith("LAW embed-lex PASS")


# runs in a fresh interpreter: which of the peeling, sampling and law
# modules, and of the standard modules they may pull in, are loaded after
# the import and after each call
_FOOTPRINT = """
import contextlib, io, json, sys
from plexalg import cli

def loaded():
    return [m for m in ("plexalg.decompose", "plexalg.lawcheck",
                        "plexalg.sampling", "argparse", "dataclasses",
                        "inspect")
            if m in sys.modules]

steps = [["import", loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, loaded()])
print(json.dumps(steps))
"""


def test_verbs_import_only_the_modules_they_run(fresh_python, spec_file):
    # the values of the start-up path are declared without dataclasses,
    # whose import loads inspect, ast, dis and tokenize; the command line
    # in canonical form is read without argparse, and a line in any other
    # form loads it; rebuild runs before the peeling verbs, so that what it
    # loads shows
    spec = spec_file("II(Z, Q)")
    tree = spec_file("base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH", "tree")
    calls = [["build", "-f", spec], ["eval", "-f", spec, "-e", "idems"],
             ["rebuild", "-f", tree], ["represent", "-f", spec],
             ["decompose", "-f", spec],
             ["check", "-f", spec, "--laws", "fle", "--budget", "5"],
             ["build", "-f=" + spec]]
    steps = json.loads(fresh_python(_FOOTPRINT, json.dumps(calls)))
    *steps, check, fallback = steps
    assert steps == [
        ["import", []],
        ["build", 0, []],
        ["eval", 0, []],
        ["rebuild", 0, []],
        ["represent", 0, ["plexalg.decompose"]],
        ["decompose", 0, ["plexalg.decompose"]],
    ]
    # check may load them, through lawcheck and its draws, but not argparse
    assert check[:2] == ["check", 0] and "plexalg.lawcheck" in check[2]
    assert set(check[2]) <= {"plexalg.decompose", "plexalg.lawcheck",
                             "plexalg.sampling", "dataclasses", "inspect"}
    assert fallback[:2] == ["build", 0]
    assert set(fallback[2]) == set(check[2]) | {"argparse"}


# ---------------------------------------------------------------------------
# the command-line parser against argparse: the program reads a line in
# canonical form itself and hands any other line to an argparse parser
# built from its table of verbs.  The reference below is an argparse
# parser written out by hand, apart from that table, followed by the
# budget check.  A usage error's wording is that of the running
# interpreter's argparse, on both sides, so only the outcome is compared.


class _RefUsage(Exception):
    pass


class _RefParser(argparse.ArgumentParser):
    def error(self, message):
        raise _RefUsage(message)


def _reference_parser() -> _RefParser:
    p = _RefParser(prog="plexalg")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, expr=False, laws=False, budget=None):
        v = sub.add_parser(name)
        v.add_argument("-f", dest="spec", required=True, metavar="FILE")
        if expr:
            v.add_argument("-e", dest="expr", required=True, metavar="EXPR")
        if laws:
            v.add_argument("--laws", default="all", metavar="ID")
            v.add_argument("--format", dest="fmt", default="text",
                           choices=("text", "tsv"))
            v.add_argument("--stats", action="store_true")
        if budget is not None:
            v.add_argument("--budget", type=int, default=budget)
            v.add_argument("--seed", type=int, default=0)

    verb("build")
    verb("eval", expr=True)
    verb("check", laws=True, budget=1000)
    verb("decompose")
    verb("represent")
    verb("rebuild")
    verb("embed-lex", budget=1000)
    return p


def _reference(argv):
    """("ok", values), ("help",) or ("usage",), as argparse read argv."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            values = vars(_reference_parser().parse_args(argv))
    except _RefUsage:
        return ("usage",)
    except SystemExit as e:
        assert e.code == 0
        return ("help",)
    if values.get("budget", 1) < 1:
        return ("usage",)
    return ("ok", values)


def _parsed(argv):
    """The same outcome of the parser of the program."""
    try:
        return ("ok", vars(cli._parse(argv)))
    except cli._Help:
        return ("help",)
    except cli._UsageError:
        return ("usage",)


WELL_FORMED = [
    ["build", "-f", "s.alg"],
    ["build", "-fs.alg"],
    ["build", "-f=s.alg"],
    ["build", "-f", ""],
    ["build", "-f", "-3"],
    ["eval", "-f", "s.alg", "-e", "comp (0, T)"],
    ["eval", "-e", "idems", "-f", "s.alg"],
    ["eval", "-f", "s.alg", "-e", "-x y"],
    ["check", "-f", "s.alg"],
    ["check", "--laws", "eq2.2", "-f", "s.alg", "--budget", "50",
     "--seed", "1"],
    ["check", "-f", "s.alg", "--laws=all", "--format=tsv", "--stats"],
    ["check", "--stats", "--seed", "9", "--format", "tsv", "-f", "s.alg"],
    ["check", "-f", "s.alg", "--bud", "5", "--se", "-3", "--st", "--fo",
     "tsv", "--la", "fle"],
    ["check", "-f", "s.alg", "--bud=5", "--seed=-3"],
    ["check", "-f", "s.alg", "--seed", "-3"],
    ["check", "-f", "s.alg", "--budget", "5", "--budget", "7"],
    ["check", "-f", "a.alg", "-f", "b.alg", "--stats", "--stats"],
    ["check", "-f", "s.alg", "--format", "tsv", "--format", "text"],
    ["check", "-f", "s.alg", "--budget", " 12", "--seed", "+4"],
    ["decompose", "-f", "s.alg"],
    ["represent", "-f", "s.alg"],
    ["rebuild", "-f", "tree.txt"],
    ["embed-lex", "-f", "s.alg", "--budget", "200", "--seed", "3"],
    ["embed-lex", "--seed", "-1", "--budget=1", "-f", "s.alg"],
]

MALFORMED = [
    [],                                              # no verb
    ["bogus", "-f", "s.alg"],                        # an unknown verb
    ["-f", "s.alg", "build"],
    ["build", "-f", "s.alg", "--nope"],              # an unknown option
    ["build", "-f", "s.alg", "-x"],
    ["build", "-f", "s.alg", "extra"],
    ["check", "-f", "s.alg", "--s"],                 # an ambiguous prefix
    ["build"],                                       # a missing -f or -e
    ["eval", "-f", "s.alg"],
    ["build", "-f"],                                 # a missing value
    ["check", "-f", "s.alg", "--budget"],
    ["check", "-f", "s.alg", "--laws", "--stats"],
    ["check", "-f", "s.alg", "--budget", "x"],       # not an integer
    ["check", "-f", "s.alg", "--seed", "1.5"],
    ["embed-lex", "-f", "s.alg", "--budget", ""],
    ["check", "-f", "s.alg", "--format", "xml"],     # not a choice
    ["check", "-f", "s.alg", "--budget", "0"],       # a budget below 1
    ["embed-lex", "-f", "s.alg", "--budget=-5"],
    ["check", "-f", "s.alg", "--stats=yes"],         # a value for a switch
    ["build", "-f", "s.alg", "--"],
    ["--"],
]

HELP = [["-h"], ["--help"], ["--he"], ["build", "-h"],
        ["check", "-f", "s.alg", "--help"], ["eval", "-hf", "s.alg"],
        ["check", "--budget", "0", "-h"]]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_parser_reads_what_argparse_read(argv):
    want = _reference(argv)
    assert want[0] == "ok"
    assert _parsed(argv) == want


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_command_lines_are_one_usage_error(argv):
    assert _reference(argv) == ("usage",)
    code, out, err = _main(argv)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_prints_the_usage_and_exits_0(argv):
    assert _reference(argv) == ("help",)
    code, out, err = _main(argv)
    assert (code, err) == (cli.EXIT_OK, "")
    verb = argv[0] if argv[0] in cli._VERBS else "VERB"
    assert out.startswith(f"usage: plexalg {verb} ")
    # every verb, or every option of the verb, has its line
    names = ([name for name in cli._VERBS] if verb == "VERB"
             else [opt[0] for opt in cli._VERBS[verb][2]])
    rows = [line.split()[0] for line in out.splitlines()
            if line.startswith("  ")]
    assert rows == ["-h,"] * (verb != "VERB") + names


_TOKENS = ("build", "eval", "check", "embed-lex", "bogus", "-f", "-e",
           "-fs.alg", "-f=", "--laws", "--la", "--format", "--fo", "--f",
           "--stats", "--st", "--s", "--stats=1", "--budget", "--bud",
           "--budget=0", "--seed", "--se", "--seed=-2", "-h", "--help",
           "--he", "-hf", "-hx", "--", "-", "", "s.alg", "x y", "-x y", "5",
           "0", "-3", "-1.5", "1.5", "tsv", "xml", "fle", "-x", "--nope")


@settings(max_examples=400)
@given(argv=st.lists(st.sampled_from(_TOKENS), max_size=7))
def test_parser_agrees_with_argparse_on_any_tokens(argv):
    assert _parsed(argv) == _reference(argv)


# a canonical command line: a verb, then its exact flags in any order,
# each required one at least once, each but a switch with a value that
# does not start with '-'
_TEXT = st.one_of(st.sampled_from(["", " ", "s.alg", "x y", "a=b", "=",
                                   " 12", "+4", "all", "text", "tsv"]),
                  st.text(max_size=6).filter(lambda t: t[:1] != "-"))
_INT = st.one_of(st.integers(0, 10**6).map(str),
                 st.sampled_from([" 12", "+4", "0", "007"]))


@st.composite
def _canonical_lines(draw):
    verb = draw(st.sampled_from(list(cli._VERBS)))
    options = []
    for flag, _, default, value, _ in cli._VERBS[verb][2]:
        for _ in range(draw(st.integers(default is None, 2))):
            options.append([flag] if value is None else [flag, draw(
                _INT if value is int
                else st.sampled_from(value) if isinstance(value, tuple)
                else _TEXT)])
    return [verb] + [tok for opt in draw(st.permutations(options))
                     for tok in opt]


def _no_argparse(argv):
    raise AssertionError(f"{argv} is canonical but went to argparse")


@settings(max_examples=300)
@given(argv=_canonical_lines())
def test_canonical_lines_are_read_without_argparse(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_argparse", _no_argparse)
        got = _parsed(argv)
    assert got == _reference(argv)


def test_readme_usage_names_every_verb_and_flag():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    rows = [line.split() for line in block.splitlines() if line]
    usage = {row[1]: sorted(tok.strip("[]") for tok in row[2:]
                            if tok.lstrip("[").startswith("-"))
             for row in rows}
    assert len(usage) == len(rows) and all(r[0] == "plexalg" for r in rows)
    assert usage == {verb: sorted(opt[0] for opt in entry[2])
                     for verb, entry in cli._VERBS.items()}


STATS_LINE = re.compile(r"stats law=(\S+) elapsed_ms=\d+\.\d{3} "
                        r"(samples=\d+ vacuous=\S+)")


@pytest.mark.parametrize("laws", ["all", "prop8.2.2"])
def test_check_stats_go_to_stderr_only(capsys, spec_file, laws):
    argv = ("check", "-f", spec_file(SPECS["E"]), "--laws", laws,
            "--budget", "20")
    stats = []
    for fmt in ("text", "tsv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert err == ""
        code_s, out_s, err_s = run(capsys, *argv, "--format", fmt, "--stats")
        assert (code_s, out_s) == (code, out)
        stats.append([STATS_LINE.fullmatch(line).groups()
                      for line in err_s.splitlines()])
        if fmt == "text":  # one stats line per report, with its counts
            reports = [line.split(" ", 3)[1::2] for line in out.splitlines()
                       if line.startswith("LAW ") and " SKIP " not in line]
    assert stats[0] == stats[1] == [tuple(r) for r in reports]


def test_check_output_does_not_depend_on_the_hash_seed(spec_file):
    path = spec_file(SPECS["E"])
    outs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "plexalg.cli", "check", "-f", path,
             "--laws", "all"], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\nLAW ") > 20


# ---------------------------------------------------------------------------
# the error boundary: whatever the input, a verb ends in an exit code.
# check runs one law at a time, and prop9.2 is left out: it reads a window
# that is not bounded yet.


def _main(argv):
    """cli.main in-process: an exception that escapes it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exits_cleanly(code, out, err):
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_PRECONDITION,
                    cli.EXIT_LAW), (code, err)
    if code in (cli.EXIT_PARSE, cli.EXIT_PRECONDITION):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


_EDITS = ("", "(", ")", ",", " ", "\n", "-", "/", "Z", "Q", "1", "full",
          "triv", "idx 0", "idx 2", "fullH", "graphH(1/0)", "I", "SLII(",
          "99999", "\u00e9")


@st.composite
def _perturbed(draw, text):
    """text with a span of up to three characters replaced by an edit."""
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.sampled_from(_EDITS)) + text[j:]


_CHECK_IDS = (("fle",)
              + tuple(i for i in lawcheck.named_law_ids() if i != "prop9.2")
              + ("table1", "table2", "table3", "table4"))


def _write(d, name, text):
    path = os.path.join(d, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), data=st.data())
def test_verbs_end_in_an_exit_code_on_any_spec(spec, data):
    text = spec[0]
    if data.draw(st.booleans()):
        text = data.draw(_perturbed(text))
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "spec.alg", text)
        runs = {verb: _main([verb, "-f", path, *extra]) for verb, extra in (
            ("build", ()), ("represent", ()),
            ("embed-lex", ("--budget", "20")))}
        for got in runs.values():
            _assert_exits_cleanly(*got)
        # the tree represent printed, whole and perturbed
        code, tree, _ = runs["represent"]
        if code != cli.EXIT_OK:
            tree = text
        for t in (tree, data.draw(_perturbed(tree))):
            _assert_exits_cleanly(
                *_main(["rebuild", "-f", _write(d, "tree.txt", t)]))
        # an expression over sampled elements, whole or perturbed
        op = data.draw(st.sampled_from(sorted(parsing.EXPR_OPS)))
        operands = ["unit"] * parsing.EXPR_OPS[op][1]
        if runs["build"][0] == cli.EXIT_OK:
            a = parsing.parse_algebra(text)
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            operands = [parsing.print_elem(a, chains.sample_elem(a, rng))
                        for _ in operands]
        expr = " ".join([op] + operands)
        if data.draw(st.booleans()):
            expr = data.draw(_perturbed(expr))
        _assert_exits_cleanly(*_main(["eval", "-f", path, "-e", expr]))
        # one peel step, and one law at a small budget
        _assert_exits_cleanly(*_main(["decompose", "-f", path]))
        law = data.draw(st.sampled_from(_CHECK_IDS))
        _assert_exits_cleanly(*_main(["check", "-f", path, "--laws", law,
                                      "--budget", "5"]))


# specs and element templates whose rational slots take long operands
_LONG_SLOTS = (("Q", "{}"), ("Lex(Q, Q)", "({}, {})"), ("II(Z, Q)", "(0, {})"),
               ("I(Q, full, Q)", "({}, {})"), ("SLII(Z, Q, fullH)", "(0, {})"))


@st.composite
def _long_rat(draw):
    """A rational literal with up to 4,300 digits on each side, the most
    the parser reads; the denominator has at least 2,001."""
    num = draw(st.integers(-10 ** 4300 + 1, 10 ** 4300 - 1))
    return f"{num}/{draw(st.integers(10 ** 2000, 10 ** 4300 - 1))}"


@settings(max_examples=60)
@given(slots=st.sampled_from(_LONG_SLOTS), op=st.sampled_from(("mul", "res",
       "le", "comp", "tau", "down", "up")), data=st.data())
def test_eval_of_long_operands_ends_in_an_exit_code(slots, op, data):
    spec, template = slots
    operands = [template.format(*(data.draw(_long_rat())
                                  for _ in range(template.count("{}"))))
                for _ in range(parsing.EXPR_OPS[op][1])]
    with tempfile.TemporaryDirectory() as d:
        got = _main(["eval", "-f", _write(d, "spec.alg", spec),
                     "-e", " ".join([op] + operands)])
    _assert_exits_cleanly(*got)
