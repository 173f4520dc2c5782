"""Failing reports pinned whole: verdict line, witness and violations.

tests/test_goldens.py pins digests of passing reports.  A failing report
also carries a witness, the first violation printed, so a change to the
order of the checks or to how a witness prints would not show there.
The reports here are those of the mutation self-test (criterion 10),
of the corrupted peel levels and of homomorphisms into a corrupted
target; each keeps its `render()` text, and its violations by count and
digest, exactly.  tests/witnesses.json holds what each report gave when
the pin was recorded; it is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_acceptance import MUTATIONS
from test_lawcheck import _check, _mul_corrupted

from plexalg import decompose as dec
from plexalg import lawcheck as lc
from plexalg import parsing as ps

# the specs and peel steps of test_checks_fail_on_a_corrupted_peel_level
CORRUPTED_LEVELS = (("I(II(Z, Q), full, Q)", dec.QuotientChain),
                    ("II(II(Z, Z), II(Z, Q))", dec.RestrictionChain))

# (source fixture, corrupted target, check_hom flags) of the identity map
HOMS = (("A", "mul", {}), ("B", "comp", {"injective": False}))


def _mutant_report(alg, law, name, target):
    # the budgets and seed of criterion 10
    mutant = lc.Mutant(alg[name], target)
    if law == "fle":
        return lc.check_fle_laws(mutant, budget=400, seed=1)
    if law.startswith("table"):
        return lc.check_table(mutant, int(law[-1]), budget=150, seed=1)
    return lc.check_named(mutant, law, budget=400, seed=1)


def _reports(alg):
    out = {}
    for law, name, target in MUTATIONS:
        out[f"mutant/{law}/{name}/{target}"] = \
            _mutant_report(alg, law, name, target)
    for spec, step in CORRUPTED_LEVELS:
        a = ps.parse_algebra(spec)
        level = _mul_corrupted(step)(a, dec.smallest_pos_idem(a))
        br = dec.branch(level.clean, dec.smallest_pos_idem(level.clean))
        tables = (1, 3) if br == dec.IDEM_BRANCH else (2, 4)
        for law in ["prop7.2.eqs"] + [f"table{t}" for t in tables]:
            out[f"level/{spec}/{law}"] = _check(level, law, budget=60, seed=1)
    for name, target, flags in HOMS:
        a = alg[name]
        out[f"hom/{name}/{target}"] = lc.check_hom(
            lambda x: x, a, lc.Mutant(a, target), budget=200, seed=3,
            law="id", **flags)
    return out


def _pin(r):
    key = repr(r.violations).encode()
    return {"render": r.render(), "violations": len(r.violations),
            "digest": hashlib.sha256(key).hexdigest()[:24]}


EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "witnesses.json").read_text())


@pytest.fixture(scope="module")
def reports(alg):
    return _reports(alg)


@pytest.mark.parametrize("key", list(EXPECTED))
def test_failing_report_keeps_its_witness_and_violations(reports, key):
    r = reports[key]
    assert r.verdict == "FAIL"
    assert _pin(r) == EXPECTED[key]


def test_every_pinned_report_is_checked(reports):
    assert set(reports) == set(EXPECTED)
