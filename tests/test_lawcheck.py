"""The sampling harness itself: reports, determinism, and mutation tests."""

import ast
import dataclasses
import functools
import inspect
import random
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


def _counted(monkeypatch, owner, name):
    """Count the calls of a method, wrapped on its class as a profiler
    wraps it."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kw):
        calls[0] += 1
        return fn(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_every_draw_passes_the_stream_draw_method(alg, monkeypatch):
    # a profiler counts draws by wrapping SampleStream.draw on the class
    calls = _counted(monkeypatch, lc.SampleStream, "draw")
    lc.check_fle_laws(alg["E"], budget=5, seed=1)
    assert calls[0] == 55  # 11 draws per iteration


def test_every_class_passes_the_to_class_method(alg, monkeypatch):
    # a profiler charges the peel maps to decompose by wrapping
    # QuotientChain.to_class on the class, before the step is built
    calls = _counted(monkeypatch, dec.QuotientChain, "to_class")
    lc.check_named(alg["E"], "prop9.2", budget=1)
    assert calls[0] >= len(lc.window_elems(alg["E"])) == 10108


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
    q = dec.QuotientChain(B, u)
    strict = lc.check_hom(q.to_class, B, q, budget=400, seed=5, law="gamma")
    assert not strict.passed  # quotients are not order embeddings
    lax = lc.check_hom(q.to_class, B, q, budget=400, seed=5, injective=False,
                       law="gamma")
    assert lax.passed


def test_hom_witness_prints_values_in_the_target(alg, monkeypatch):
    E = alg["E"]
    _, rebuilt, alpha = dec.representation_embedding(E)
    printed = []

    def print_elem(a, x):
        printed.append((a, x))
        return ps.print_elem(a, x)

    monkeypatch.setattr(lc, "print_elem", print_elem)
    r = lc.check_hom(alpha, E, lc.Mutant(rebuilt, "mul"), budget=200, seed=1)
    inputs, lhs, rhs = r.violations[0]
    assert printed == [(E, x) for x in inputs] + [(rebuilt, lhs),
                                                   (rebuilt, rhs)]
    assert f"lhs={ps.print_elem(rebuilt, lhs)} " in r.witness


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
            if lc._tick((p, q)):
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
# pseudo-tops ruled out by structure


def _kinds_in_window(c, u):
    """The classifier's kinds of x*u for x in a window of the view c."""
    kind = dec.classifier(c, u)
    return {kind(c.mul(x, u)) for x in lc.window_elems(c, 2, 2)}


def _assert_ruled_out_kinds_are_absent(a):
    c = ch.BaseChain(a)
    u = dec.smallest_pos_idem(c)
    found = _kinds_in_window(c, u)
    assert not (c.lacks_pseudo_tops(u) and dec.TOP_PS in found)


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
    # caught on every case where the structure leaves pseudo-tops
    # possible: there the window holds one
    algs = [ps.parse_algebra(spec) for spec in ABSENCE_CASES]
    possible = [a for a in algs if not ch._lacks_pseudo_tops(a)]
    monkeypatch.setattr(ch.BaseChain, "lacks_pseudo_tops",
                        lambda self, u: True)
    failed = 0
    for a in algs:
        try:
            _assert_ruled_out_kinds_are_absent(a)
        except AssertionError:
            failed += 1
    assert failed == len(possible) > 0


def test_structure_rules_out_the_kinds_the_fixtures_lack(alg):
    got = {name: ch._lacks_pseudo_tops(alg[name])
           for name in ("A", "B", "C", "G", "E", "V3", "V3b", "V4", "V4b")}
    assert got == {"A": True, "B": True, "C": True, "G": True, "E": True,
                   "V3": False, "V3b": False, "V4": False, "V4b": False}


def _outcome(a, law, seed):
    try:
        return _check(a, law, budget=30, seed=seed)
    except PlexError as exc:
        return type(exc).__name__


def _assert_outcomes_unchanged(name, monkeypatch, *methods):
    """Every law's outcome on a fixture, at three seeds, is the same with
    the BaseChain methods named put back to the ChainView defaults."""
    a = ps.parse_algebra(SPECS[name])
    seeds = (0, 7, 1 << 20)
    fast = {(law, s): _outcome(a, law, s) for law in ALL_LAWS for s in seeds}
    for method in methods:
        monkeypatch.setattr(ch.BaseChain, method, getattr(ch.ChainView, method))
    slow = {(law, s): _outcome(a, law, s) for law in ALL_LAWS for s in seeds}
    assert fast == slow


@pytest.mark.parametrize("name", sorted(SPECS))
def test_reports_do_not_depend_on_structural_absence(name, monkeypatch):
    # pseudo-tops ruled out by structure are ones no probe would have
    # found, so every report equals the one made by probing alone
    _assert_outcomes_unchanged(name, monkeypatch, "lacks_pseudo_tops")


# ---------------------------------------------------------------------------
# kinds of x*u read off the slots of x


def _assert_upper_tests_match_arithmetic(a, bound=2, max_den=2,
                                         upper_kind=None):
    """BaseChain's upper_kind (or the given stand-in for it) and lifts_to
    answer as the ChainView defaults on 2,000 draws and a window."""
    c = ch.BaseChain(a)
    u = dec.smallest_pos_idem(c)
    fast = (upper_kind or c.upper_kind)(u)
    slow = ch.ChainView.upper_kind(c, u)
    lifts, grp = c.lifts_to(u), c.invertible(u)
    draw = c.sampler(random.Random(0))
    xs = [draw() for _ in range(2000)] + lc.window_elems(c, bound, max_den)
    for v, x in zip(xs[-1:] + xs, xs):
        assert fast(x) == slow(x), x
        if grp(x):
            for t in (c.mul(x, u), c.mul(v, u), c.unit()):
                assert lifts(x, t) == (c.mul(x, u) == t), (x, t)


FIXTURES_AND_TOWERS = ([n for n in sorted(SPECS)
                        if n not in ("Z", "Q", "LZZ", "LZQ")]
                       + [f"tower{d}" for d in range(1, 6)])


@pytest.mark.parametrize("name", FIXTURES_AND_TOWERS + REGRESSION_SPECS)
def test_upper_tests_match_the_arithmetic(name):
    # the (2, 2) window of tower 5 holds about 370,000 elements
    bound, max_den = (1, 2) if name == "tower5" else (2, 2)
    _assert_upper_tests_match_arithmetic(ps.parse_algebra(case_spec(name)),
                                         bound, max_den)


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs))
def test_upper_tests_match_the_arithmetic_on_random_specs(spec):
    try:
        a = ps.parse_algebra(spec[0])
        dec.smallest_pos_idem(a)
    except PlexError:
        reject()
    _assert_upper_tests_match_arithmetic(a)


def _upper_rule(mid_test=True, tb_bottom=True):
    """BaseChain.upper_kind, with its mid test or its bottom-column test
    left out when asked."""
    def upper_kind(a):
        n, depth = ch._upper_node(a)
        free, mid_ok = n.x._ops.free, n._coords.mid

        def kind(x):
            for _ in range(depth):
                if not isinstance(x[1], tuple):
                    return dec.NON_TOP
                x = x[1][1]
            if (tb_bottom and x[1] == ch.BOT) or not free(x[0]):
                return dec.NON_TOP
            if not mid_test or mid_ok(x[0]):
                return dec.TOP_C
            return dec.TOP_PS
        return lambda u: kind
    return upper_kind


@pytest.mark.parametrize("wrong", [_upper_rule(mid_test=False),
                                   _upper_rule(tb_bottom=False)],
                         ids=["no-mid-test", "no-bottom-test"])
def test_the_oracle_catches_a_wrong_upper_kind(wrong):
    algs = [ps.parse_algebra(case_spec(n)) for n in FIXTURES_AND_TOWERS]
    failed = 0
    for a in algs:
        try:
            _assert_upper_tests_match_arithmetic(a, 1, 2, wrong(a))
        except AssertionError:
            failed += 1
    assert failed > 0
    # the rule itself passes, through the same stand-in
    for a in algs:
        _assert_upper_tests_match_arithmetic(a, 1, 2, _upper_rule()(a))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_reports_do_not_depend_on_the_upper_tests(name, monkeypatch):
    # each structural answer equals the arithmetic one, so every report
    # equals the one made by lifting and classifying
    _assert_outcomes_unchanged(name, monkeypatch, "upper_kind", "lifts_to")


def test_a_probe_on_an_algebra_lifts_only_what_it_keeps(alg, monkeypatch):
    # rejected candidates are read off their slots: the probe multiplies
    # once, to lift the pseudo-top it returns, and steps no cover
    kinds = lc._Kinds(dec.peel(alg["V3b"]), lc.SampleStream(alg["V3b"], 1))
    muls = _counted(monkeypatch, ch.BaseChain, "mul")
    downs = _counted(monkeypatch, ch.BaseChain, "x_down")
    draws = _counted(monkeypatch, lc.SampleStream, "draw")
    assert kinds.pseudo_top() is not None
    assert draws[0] > 1 and muls[0] == 1 and downs[0] == 0


# draws of one report at budget 50, seed 1: a faster probe must leave them
# where they were
DRAW_PINS = [("V3b", "table3", 2825), ("E", "prop8.2.5", 0),
             ("E", "prop7.2.eqs", 3154), ("V3b", "prop8.2.5", 1325),
             ("A", "table2", 935), ("C", "table4", 531),
             ("B", "table3", 1248)]


@pytest.mark.parametrize("name,law,draws", DRAW_PINS)
def test_draw_counts_are_pinned(alg, monkeypatch, name, law, draws):
    calls = _counted(monkeypatch, lc.SampleStream, "draw")
    _check(alg[name], law, budget=50, seed=1)
    assert calls[0] == draws


def test_no_witness_side_is_computed_twice():
    # a witness side that is a call computes again what the check already
    # computed: compute it once and pass the value
    tree = ast.parse(inspect.getsource(lc))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "check"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "run"]
    assert len(calls) > 40
    for node in calls:
        sides = node.args[2:4] + [kw.value for kw in node.keywords
                                  if kw.arg in ("lhs", "rhs")]
        assert not any(isinstance(v, ast.Call) for v in sides), node.lineno
