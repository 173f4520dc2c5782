"""Law reports and CLI output against the recorded benchmark goldens.

perfbench/goldens/check-fixtures.json records, for each input set, the
outcome of every law and table on every benchmark fixture: a digest of
the report, or the error class it raised.  Replaying one input set here
makes any change to what a law draws, checks or reports fail the test
suite, not only the benchmark.

perfbench/goldens/cli-verbs.json records the exit code and standard
output of every short CLI call of every input set; they are replayed
in-process, so CLI output stays byte-identical.  The goldens files are
only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from plexalg import cli
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.errors import PlexError

GOLDENS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
GOLDENS = json.loads((GOLDENS_DIR / "check-fixtures.json").read_text())
SLOT = 0  # the input set replayed
CLI_GOLDENS = json.loads((GOLDENS_DIR / "cli-verbs.json").read_text())


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
    key = repr((r.law, r.samples, r.counts, r.violations))
    return "report:" + hashlib.sha256(key.encode()).hexdigest()[:24]


@pytest.mark.parametrize("fixture", list(GOLDENS["fixtures"]))
def test_law_reports_match_the_goldens(fixture):
    fi = list(GOLDENS["fixtures"]).index(fixture)
    a = ps.parse_algebra(GOLDENS["fixtures"][fixture])
    expected = GOLDENS["expected"][SLOT]
    got, want = {}, {}
    for li, law in enumerate(GOLDENS["laws"]):
        seed = (SLOT << 16) | (fi << 8) | li
        key = f"{fixture}/{law}"
        got[key] = _outcome(a, law, GOLDENS["budget"], seed)
        want[key] = expected[key]
    assert got == want


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
