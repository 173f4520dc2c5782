"""The sampling harness itself: reports, determinism, and mutation tests."""

import dataclasses
import functools
import re

import pytest
from conftest import SPECS
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_decompose import REGRESSION_SPECS, _peel_levels, _specs, case_spec

from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.errors import (OnlyUnitIdempotent, PlexError, UnknownLaw,
                            WrongBranch)


def test_named_registry_order():
    ids = lc.named_law_ids()
    assert ids[0] == "eq2.2"
    assert ids[-1] == "remark11.4"
    assert len(ids) == len(set(ids)) == 22
    # prefix families stay grouped in registration order
    assert list(ids)[2:8] == [f"prop2.3.{k}" for k in range(1, 7)]


def test_fle_report_shape(alg):
    r = lc.check_fle_laws(alg["A"], budget=100, seed=0)
    assert r.passed
    assert r.render() == "LAW fle PASS samples=501 vacuous=none"
    assert dict(r.counts)["oddness"] == 1
    assert r.vacuous == ()


def test_reports_are_deterministic(alg):
    r1 = lc.check_fle_laws(alg["G"], budget=150, seed=11)
    r2 = lc.check_fle_laws(alg["G"], budget=150, seed=11)
    assert r1 == r2  # elapsed is excluded from comparison
    assert r1.render() == r2.render()
    r3 = lc.check_named(alg["B"], "prop7.2.eqs", budget=80, seed=5)
    r4 = lc.check_named(alg["B"], "prop7.2.eqs", budget=80, seed=5)
    assert r3 == r4


def test_unknown_law_and_table(alg):
    with pytest.raises(UnknownLaw):
        lc.check_named(alg["A"], "prop99", budget=10, seed=0)
    with pytest.raises(UnknownLaw):
        lc.check_table(alg["A"], 5, budget=10, seed=0)


def test_branch_gating(alg):
    with pytest.raises(WrongBranch):
        lc.check_named(alg["A"], "prop9.2", budget=10, seed=0)
    with pytest.raises(WrongBranch):
        lc.check_named(alg["B"], "prop10.1.3", budget=10, seed=0)
    with pytest.raises(WrongBranch):
        lc.check_table(alg["B"], 4, budget=10, seed=0)
    with pytest.raises(WrongBranch):
        lc.check_table(alg["A"], 1, budget=10, seed=0)


def test_vacuous_cells_reported(alg):
    # fixture A has no pseudo-extremal elements at all
    r = lc.check_named(alg["A"], "prop8.2.4", budget=60, seed=0)
    assert r.passed
    assert r.vacuous == ("prop8.2.4",)
    assert "vacuous=prop8.2.4" in r.render()


def test_fully_vacuous_report_is_not_a_pass(alg):
    r = lc.check_named(alg["A"], "prop8.2.4", budget=60, seed=0)
    assert r.samples == 0 and r.passed
    assert r.verdict == "VACUOUS"
    assert r.render() == "LAW prop8.2.4 VACUOUS samples=0 vacuous=prop8.2.4"
    partly = lc.check_table(alg["A"], 2, budget=20, seed=2)
    assert partly.vacuous and partly.verdict == "PASS"
    bad = lc.check_fle_laws(lc.Mutant(alg["A"], "mul"), budget=50, seed=1)
    assert bad.verdict == "FAIL"


def test_failing_report_carries_witness(alg):
    r = lc.check_fle_laws(lc.Mutant(alg["A"], "mul"), budget=200, seed=1)
    assert not r.passed
    assert r.violations
    assert "FAIL" in r.render() and "witness" in r.render()


def test_mutant_is_deterministic(alg):
    m = lc.Mutant(alg["B"], "comp")
    r1 = lc.check_fle_laws(m, budget=150, seed=3)
    r2 = lc.check_fle_laws(m, budget=150, seed=3)
    assert r1 == r2
    assert not r1.passed


@pytest.mark.parametrize("law,fix,target", [
    ("eq2.2", "A", "comp"),
    ("prop4.3", "B", "mul"),
    ("prop5.3", "G", "mul"),
])
def test_named_checks_catch_mutations(alg, law, fix, target):
    r = lc.check_named(lc.Mutant(alg[fix], target), law, budget=300, seed=1)
    assert not r.passed


def test_sample_stream_determinism(alg):
    s1 = lc.SampleStream(alg["E"], seed=4)
    s2 = lc.SampleStream(alg["E"], seed=4)
    assert [s1.draw() for _ in range(50)] == [s2.draw() for _ in range(50)]


def test_sample_stream_draw_where(alg):
    st = lc.SampleStream(alg["A"], seed=0)
    u = ps.parse_elem(alg["A"], "(0, T)")
    x = st.draw_where(lambda v: v != u)
    assert x is not None and x != u


def test_table_counts_every_cell(alg):
    r = lc.check_table(alg["A"], 2, budget=120, seed=2)
    assert r.passed
    counts = dict(r.counts)
    assert counts["top[v]*top[w]"] == 120
    assert len(counts) == 22
    # cells needing pseudo-extremals are vacuous on A and must say so
    assert "x*top[w]" in r.vacuous


def test_table_split_cells_need_family_variants(alg):
    r = lc.check_table(alg["V3b"], 3, budget=300, seed=2)
    assert r.passed
    counts = dict(r.counts)
    assert counts["xy-left"] > 0
    assert counts["xy-right"] > 0
    r2 = lc.check_table(alg["V3"], 3, budget=300, seed=2)
    assert r2.passed
    assert dict(r2.counts)["xy-left"] == 0  # index-2 sums stay even


def test_hom_checker_modes(alg):
    B = alg["B"]
    u = dec.smallest_pos_idem(B)
    bq = dec.BetaChain(B, u)
    fn = lambda x: dec.beta(B, u, x)
    strict = lc.check_hom(fn, B, bq, budget=400, seed=5, law="beta")
    assert not strict.passed  # quotients are not order embeddings
    lax = lc.check_hom(fn, B, bq, budget=400, seed=5, injective=False,
                       law="beta")
    assert lax.passed


def test_report_is_frozen(alg):
    r = lc.check_fle_laws(alg["Z"], budget=20, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.samples = 0


@pytest.mark.parametrize("spec", [
    "A", "B", "C", "G", "E", "V3", "V3b", "V4", "V4b",
    "I(I(II(Z, Q), full, Q), full, Q)",
])
def test_fle_laws_hold_on_every_peel_level(alg, spec):
    # each peeling step leaves an odd involutive chain with one positive
    # idempotent fewer, so the residuated-monoid axioms hold on it again
    view = dec.BaseChain(alg[spec] if spec in alg else ps.parse_algebra(spec))
    levels = _peel_levels(view)
    count = len(view.pos_idems())
    assert [len(v.pos_idems()) for v in levels] == \
        list(range(count - 1, 0, -1))
    for level in levels:
        r = lc.check_fle_laws(level, budget=40, seed=1)
        assert r.passed, r.render()
        assert r.vacuous == ()


ALL_LAWS = ("fle",) + lc.named_law_ids() + ("table1", "table2", "table3",
                                            "table4")

# the branch a law or table needs; the others run on either branch
NEEDS_BRANCH = {"prop9.2": dec.IDEM_BRANCH, "table1": dec.IDEM_BRANCH,
                "table3": dec.IDEM_BRANCH, "prop10.1.3": dec.NONIDEM_BRANCH,
                "table2": dec.NONIDEM_BRANCH, "table4": dec.NONIDEM_BRANCH}

# laws that sample pseudo-tops, which these chains lack or hold only rarely
PSEUDO_TOP_LAWS = ("prop8.2.1", "prop8.2.4", "prop8.2.5", "prop8.2.6")

# the two specs at the end have a restriction level with an idempotent
# above its unit, which neither the fixtures nor the towers have
EVERY_LEVEL_CASES = (sorted(SPECS) + [f"tower{d}" for d in range(1, 5)]
                     + ["II(II(Z, Z), II(Z, Q))",
                        "IV(I(Z, idx 2, Z), triv, Q)"])


def _check(view, law, budget, seed):
    if law == "fle":
        return lc.check_fle_laws(view, budget=budget, seed=seed)
    if law.startswith("table"):
        return lc.check_table(view, int(law[len("table"):]), budget=budget,
                              seed=seed)
    return lc.check_named(view, law, budget=budget, seed=seed)


@pytest.mark.parametrize("name", EVERY_LEVEL_CASES)
def test_every_law_holds_on_every_peel_level(name):
    # every peel level is again an odd involutive chain, so every named
    # law and product table holds on it, read through the view alone
    spec = case_spec(name)
    for level in _peel_levels(dec.BaseChain(ps.parse_algebra(spec))):
        group_level = len(level.pos_idems()) == 1
        br = None if group_level else \
            dec.branch(level, dec.smallest_pos_idem(level))
        for law in ALL_LAWS:
            # the tower-4 window is about 13.8M elements
            if law == "prop9.2" and name == "tower4":
                continue
            where = f"{law} on the {level.describe()}"
            try:
                r = _check(level, law, budget=10, seed=1)
            except OnlyUnitIdempotent:
                assert group_level, where
                continue
            except WrongBranch:
                assert NEEDS_BRANCH.get(law, br) != br, where
                continue
            assert law not in NEEDS_BRANCH or NEEDS_BRANCH[law] == br, where
            assert r.verdict != "FAIL", f"{where}: {r.render()}"
            if law not in PSEUDO_TOP_LAWS:
                assert r.samples > 0, f"{where}: {r.render()}"


@pytest.mark.parametrize("name", ["B", "E", "V3", "V4", "tower3",
                                  "II(II(Z, Z), II(Z, Q))"])
def test_window_of_a_peel_level_is_valid_and_ascending(name):
    spec = case_spec(name)
    for level in _peel_levels(dec.BaseChain(ps.parse_algebra(spec))):
        win = lc.window_elems(level, bound=1, max_den=2)
        assert win and all(level.validate(x) for x in win)
        assert all(level.lt(p, q) for p, q in zip(win, win[1:]))
        base = lc.window_elems(level.base, bound=1, max_den=2)
        if isinstance(level, dec.RestrictionChain):
            assert win == [x for x in base if level.contains(x)]
        else:
            assert set(win) == {level.to_class(x) for x in base}


@pytest.mark.parametrize("target", ["mul", "comp"])
@pytest.mark.parametrize("law,name", [
    ("prop8.2.1", "E"), ("prop8.2.3", "E"), ("prop9.2", "E"),
    ("remark11.4", "E"), ("table1", "E"), ("table2", "A"),
    ("prop10.1.3", "A"),
])
def test_mutant_draws_what_the_algebra_draws(alg, law, name, target):
    # predicates, classification and windows read the clean view, and
    # these laws pick no draw or cell by a corrupted value, so a mutated
    # run instantiates the same cells as the plain one
    plain = _check(alg[name], law, budget=60, seed=4)
    bad = _check(lc.Mutant(alg[name], target), law, budget=60, seed=4)
    assert (bad.samples, bad.counts) == (plain.samples, plain.counts)


def _mul_corrupted(step):
    """A peel-level class whose mul returns the unit on the calls Mutant
    corrupts; its clean view is the same level uncorrupted."""
    class Corrupted(step):
        def mul(self, p, q):
            if lc._tick((p, q), 3):
                return self.unit()
            return super().mul(p, q)

        @functools.cached_property
        def clean(self):
            return step(self.base, self.u)

    return Corrupted


# a raw repr quotes a marker or shows the kernel's (numerator,
# denominator) pair in a one-coordinate vector
_RAW_REPR = re.compile(r"'[TBM]'|\(-?\d+, \d+\),\)")


def _witness_values(witness):
    """Texts of the inputs, lhs and rhs of a witness."""
    ins, lhs, rhs = re.fullmatch(r"inputs=\((.*)\) lhs=(.*) rhs=(.*)",
                                 witness).groups()
    return ins.split("; ") + [lhs, rhs]


@pytest.mark.parametrize("spec,step", [
    ("I(II(Z, Q), full, Q)", dec.QuotientChain),
    ("II(II(Z, Z), II(Z, Q))", dec.RestrictionChain),
], ids=["quotient", "restriction"])
def test_checks_fail_on_a_corrupted_peel_level(spec, step):
    a = ps.parse_algebra(spec)
    level = _mul_corrupted(step)(a, dec.smallest_pos_idem(a))
    assert len(level.pos_idems()) > 1
    br = dec.branch(level.clean, dec.smallest_pos_idem(level.clean))
    tables = (1, 3) if br == dec.IDEM_BRANCH else (2, 4)
    laws = ["prop7.2.eqs"] + [f"table{t}" for t in tables]
    bad = [_check(level, law, budget=60, seed=1) for law in laws]
    assert [r.verdict for r in bad] == ["FAIL"] * 3, [r.render() for r in bad]
    # a peel level's elements are elements of the input algebra, so its
    # witnesses print as such and parse back
    for r in bad:
        assert not _RAW_REPR.search(r.witness), r.witness
    for text in _witness_values(bad[0].witness):
        assert level.clean.validate(ps.parse_elem(a, text)), bad[0].witness
    good = [_check(level.clean, law, budget=60, seed=1) for law in laws]
    assert [r.verdict for r in good] == ["PASS"] * 3, \
        [r.render() for r in good]


# discrete group parts: adjacent components touch, so a component bottom
# (k, B) is the upper end of a gap whose lower end is the top (k - 1, T)
DISCRETE_TYPE_I = ["I(Z, full, Z)", "I(Z, idx 2, Z)", "I(Z, full, Q)",
                   "I(Lex(Z, Z), full, Z)", "I(Z, full, Lex(Z, Q))",
                   "I(I(Z, full, Z), full, Q)"]


@pytest.mark.parametrize("spec", DISCRETE_TYPE_I)
def test_gap_partition_counts_touching_component_bottoms(spec):
    a = ps.parse_algebra(spec)
    r = lc.check_named(a, "prop8.2.2", budget=60, seed=0)
    assert r.verdict == "PASS", r.render()
    assert dict(r.counts)["gap-kinds"] > 0
    # the cover below such a bottom lies in the upper stabilizer part,
    # which the law checks by arithmetic, so a corrupted mul shows
    bad = lc.check_named(lc.Mutant(a, "mul"), "prop8.2.2", budget=200,
                         seed=0)
    assert bad.verdict == "FAIL"
    assert ", B); (" in bad.witness, bad.witness


@pytest.fixture(scope="module")
def peel_level(alg):
    E = alg["E"]
    return dec.QuotientChain(E, dec.smallest_pos_idem(E))


@pytest.mark.parametrize("law", ["eq2.2", "prop2.3.5"])
def test_arithmetic_laws_hold_on_a_peel_level(peel_level, law):
    # prop2.3.5 reads the positive idempotents through the view
    r = lc.check_named(peel_level, law, budget=40, seed=1)
    assert r.verdict == "PASS", r.render()
    assert r.vacuous == ()


# ---------------------------------------------------------------------------
# kinds ruled out by structure


def _kinds_in_window(c, u):
    """PSEUDO_TOP and NON_TOP, as far as they occur among x*u for x in a
    window of the view c."""
    kind = dec.classifier(c, u)
    found = set()
    for x in lc.window_elems(c, 2, 2):
        k = kind(c.mul(x, u))
        if k == dec.TOP_PS:
            found.add(ch.PSEUDO_TOP)
        elif k != dec.TOP_C:
            found.add(ch.NON_TOP)
    return found


def _assert_ruled_out_kinds_are_absent(a):
    c = ch.BaseChain(a)
    u = dec.smallest_pos_idem(c)
    found = _kinds_in_window(c, u)
    for kind in (ch.PSEUDO_TOP, ch.NON_TOP):
        assert not (c.lacks(u, kind) and kind in found), kind


ABSENCE_CASES = [SPECS[n] for n in sorted(SPECS)
                 if n not in ("Z", "Q", "LZZ", "LZQ")] + REGRESSION_SPECS


@pytest.mark.parametrize("spec", ABSENCE_CASES)
def test_ruled_out_kinds_are_absent(spec):
    _assert_ruled_out_kinds_are_absent(ps.parse_algebra(spec))


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs))
def test_ruled_out_kinds_are_absent_on_random_specs(spec):
    try:
        a = ps.parse_algebra(spec[0])
        dec.smallest_pos_idem(a)
    except PlexError:
        reject()
    _assert_ruled_out_kinds_are_absent(a)


def test_an_answer_of_always_absent_fails_the_soundness_check(monkeypatch):
    # caught on every case where the structure leaves a kind possible:
    # there the window holds one
    algs = [ps.parse_algebra(spec) for spec in ABSENCE_CASES]
    possible = [a for a in algs if len(ch._ruled_out(a)) < 2]
    monkeypatch.setattr(ch.BaseChain, "lacks", lambda self, u, kind: True)
    failed = 0
    for a in algs:
        try:
            _assert_ruled_out_kinds_are_absent(a)
        except AssertionError:
            failed += 1
    assert failed == len(possible) > 0


def test_structure_rules_out_the_kinds_the_fixtures_lack(alg):
    got = {name: sorted(ch._ruled_out(alg[name]))
           for name in ("A", "B", "C", "G", "E", "V3", "V3b", "V4", "V4b")}
    both = [ch.NON_TOP, ch.PSEUDO_TOP]
    assert got == {"A": both, "B": [ch.PSEUDO_TOP], "C": both, "G": both,
                   "E": [ch.PSEUDO_TOP], "V3": [], "V3b": [],
                   "V4": [ch.NON_TOP], "V4b": [ch.NON_TOP]}


def _outcome(a, law, seed):
    try:
        return _check(a, law, budget=30, seed=seed)
    except PlexError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", sorted(SPECS))
def test_reports_do_not_depend_on_structural_absence(name, monkeypatch):
    # a kind ruled out by structure is one no probe would have found, so
    # every report equals the one made by probing alone
    a = ps.parse_algebra(SPECS[name])
    seeds = (0, 7, 1 << 20)
    fast = {(law, s): _outcome(a, law, s) for law in ALL_LAWS for s in seeds}
    monkeypatch.setattr(ch.BaseChain, "lacks", ch.ChainView.lacks)
    probed = {(law, s): _outcome(a, law, s) for law in ALL_LAWS
              for s in seeds}
    assert fast == probed
