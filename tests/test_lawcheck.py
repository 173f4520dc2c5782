"""The sampling harness itself: reports, determinism, and mutation tests."""

import dataclasses

import pytest

from plexalg import decompose as dec
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.errors import PreconditionFailed, UnknownLaw, WrongBranch


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


def test_merge_reports(alg):
    a = alg["A"]
    r1 = lc.check_named(a, "eq2.2", budget=50, seed=0)
    r2 = lc.check_named(a, "eq2.2", budget=70, seed=1)
    m = lc.merge_reports(r1, r2)
    assert m.samples == r1.samples + r2.samples
    assert dict(m.counts)["eq2.2"] == 120
    assert m.passed


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
    bq = dec.beta_algebra(B, u)
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
    count = len(view.pos_idems())
    while count > 1:
        u = dec.smallest_pos_idem(view)
        if dec.branch(view, u) == dec.IDEM_BRANCH:
            view = dec.QuotientChain(view, u)
        else:
            view = dec.RestrictionChain(view, u)
        assert len(view.pos_idems()) == count - 1
        count -= 1
        r = lc.check_fle_laws(view, budget=40, seed=1)
        assert r.passed, r.render()
        assert r.vacuous == ()


@pytest.fixture(scope="module")
def peel_level(alg):
    E = alg["E"]
    return dec.QuotientChain(E, dec.smallest_pos_idem(E))


@pytest.mark.parametrize("check", [
    lambda v: lc.check_named(v, "prop7.2.eqs", budget=20, seed=1),
    lambda v: lc.check_named(v, "prop9.2", budget=20, seed=1),
    lambda v: lc.check_table(v, 2, budget=20, seed=1),
], ids=["prop7.2.eqs", "prop9.2", "table2"])
def test_laws_reading_the_algebra_refuse_a_peel_level(peel_level, check):
    with pytest.raises(PreconditionFailed, match="needs a view of an algebra"):
        check(peel_level)


@pytest.mark.parametrize("law", ["eq2.2", "prop2.3.5"])
def test_arithmetic_laws_hold_on_a_peel_level(peel_level, law):
    # prop2.3.5 reads the positive idempotents through the view
    r = lc.check_named(peel_level, law, budget=40, seed=1)
    assert r.verdict == "PASS", r.render()
    assert r.vacuous == ()
