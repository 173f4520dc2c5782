"""Command-line behavior: verbs, exit codes, deterministic output."""

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


# runs in a fresh interpreter: which of the peeling and law modules are
# loaded after the import and after each call
_FOOTPRINT = """
import contextlib, io, json, sys
from plexalg import cli

def loaded():
    return [m for m in ("plexalg.decompose", "plexalg.lawcheck",
                        "dataclasses", "inspect")
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
    # whose import loads inspect, ast, dis and tokenize
    spec = spec_file("II(Z, Q)")
    tree = spec_file("base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH", "tree")
    calls = [["build", "-f", spec], ["eval", "-f", spec, "-e", "idems"],
             ["represent", "-f", spec], ["decompose", "-f", spec],
             ["rebuild", "-f", tree],
             ["check", "-f", spec, "--laws", "fle", "--budget", "5"]]
    steps = json.loads(fresh_python(_FOOTPRINT, json.dumps(calls)))
    *steps, check = steps
    assert steps == [
        ["import", []],
        ["build", 0, []],
        ["eval", 0, []],
        ["represent", 0, ["plexalg.decompose"]],
        ["decompose", 0, ["plexalg.decompose"]],
        ["rebuild", 0, ["plexalg.decompose"]],
    ]
    # check may load them, through lawcheck
    assert check[:2] == ["check", 0] and "plexalg.lawcheck" in check[2]


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
