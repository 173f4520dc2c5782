"""Law reports and CLI output against the recorded benchmark goldens.

perfbench/goldens/check-fixtures.json records, for each input set, the
outcome of every law and table on every benchmark fixture: a digest of
the report, or the error class it raised.  Replaying two input sets here
makes any change to what a law draws, checks or reports fail the test
suite, not only the benchmark.  perfbench/goldens/tower-depth.json pins
the same for the deep towers (depth 1-5): the `fle` report of one input
set and the `embed-lex` homomorphism report, so the sampler is pinned on
deep algebras too.

perfbench/goldens/cli-verbs.json records the exit code and standard
output of every short CLI call of every input set; they are replayed
in-process, so CLI output stays byte-identical.  The goldens files are
only read.
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_decompose import _tower

from plexalg import cli
from plexalg import decompose as dec
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.errors import PlexError

GOLDENS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
GOLDENS = json.loads((GOLDENS_DIR / "check-fixtures.json").read_text())
SLOT, SECOND_SLOT = 0, 9  # the input sets replayed
CLI_GOLDENS = json.loads((GOLDENS_DIR / "cli-verbs.json").read_text())
TOWER_GOLDENS = json.loads((GOLDENS_DIR / "tower-depth.json").read_text())
TOWER_SLOT = 3


def _digest(r) -> str:
    key = repr((r.law, r.samples, r.counts, r.violations))
    return "report:" + hashlib.sha256(key.encode()).hexdigest()[:24]


def _outcome(a, law, budget, seed) -> str:
    try:
        if law == "fle":
            r = lc.check_fle_laws(a, budget=budget, seed=seed)
        elif law.startswith("table"):
            r = lc.check_table(a, int(law[5:]), budget=budget, seed=seed)
        else:
            r = lc.check_named(a, law, budget=budget, seed=seed)
    except PlexError as e:
        return "raises:" + type(e).__name__
    return _digest(r)


def _assert_law_reports_match(fixture, slot):
    fi = list(GOLDENS["fixtures"]).index(fixture)
    a = ps.parse_algebra(GOLDENS["fixtures"][fixture])
    expected = GOLDENS["expected"][slot]
    got, want = {}, {}
    for li, law in enumerate(GOLDENS["laws"]):
        seed = (slot << 16) | (fi << 8) | li
        key = f"{fixture}/{law}"
        got[key] = _outcome(a, law, GOLDENS["budget"], seed)
        want[key] = expected[key]
    assert got == want


@pytest.mark.parametrize("fixture", list(GOLDENS["fixtures"]))
def test_law_reports_match_the_goldens(fixture):
    _assert_law_reports_match(fixture, SLOT)


@pytest.mark.parametrize("fixture", list(GOLDENS["fixtures"]))
def test_law_reports_of_a_second_input_set_match_the_goldens(fixture):
    _assert_law_reports_match(fixture, SECOND_SLOT)


@pytest.mark.parametrize("depth", TOWER_GOLDENS["depths"])
def test_tower_reports_match_the_goldens(depth):
    spec = TOWER_GOLDENS["specs"][str(depth)]
    assert spec == _tower(depth)
    a = ps.parse_algebra(spec)
    monoid, lex = dec.lex_embedding(a)
    got = {
        # the embed-lex seed does not depend on the input set
        "embed-lex": _digest(lc.check_hom(
            lex, a, monoid, budget=TOWER_GOLDENS["hom_budget"],
            seed=depth << 8, with_comp=False, law="embed-lex")),
        "fle": _digest(lc.check_fle_laws(
            a, budget=TOWER_GOLDENS["fle_budget"],
            seed=(TOWER_SLOT << 16) | (depth << 8) | 1)),
    }
    expected = TOWER_GOLDENS["expected"][TOWER_SLOT]
    assert got == {k: expected[f"d{depth}/{k}"] for k in got}


@pytest.mark.parametrize("slot", range(CLI_GOLDENS["slots"]))
def test_cli_output_matches_the_goldens(slot, tmp_path, capsys):
    for name, text in CLI_GOLDENS["files"].items():
        (tmp_path / name).write_text(text)
    for call in CLI_GOLDENS["calls"][slot]:
        args = [str(tmp_path / a[1:]) if a.startswith("@") else a
                for a in call["args"]]
        code = cli.main(args)
        out = capsys.readouterr().out.encode()
        assert (code, out) == (call["exit"], call["stdout"].encode()), \
            call["name"]
