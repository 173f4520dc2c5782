"""Acceptance gate: ten criteria, one pass/fail line each.

Run with -s (or read captured output) to see the lines; each test also
asserts, so the suite fails loudly when a criterion does.
"""

import random

import pytest

from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import groups as gr
from plexalg import kernel as kn
from plexalg import lawcheck as lc
from plexalg import parsing as ps

LAW_FIXTURES = ("Z", "Q", "LZZ", "LZQ", "A", "B", "C", "G", "E", "V3", "V4")

NAMED_SUITE = ("eq2.2", "eq2.3", "prop2.3.1", "prop2.3.2", "prop2.3.3",
               "prop2.3.4", "prop2.3.5", "prop2.3.6", "prop4.3", "prop5.3",
               "lemma5.4", "thm2.4")

TABLE_PLAN = (
    ("B", 1, 150), ("E", 1, 150),
    ("B", 3, 150), ("E", 3, 150), ("V3b", 3, 450),
    ("A", 2, 150), ("C", 2, 150), ("G", 2, 150),
    ("A", 4, 150), ("C", 4, 150), ("G", 4, 150), ("V4b", 4, 450),
)

REPTREES = {
    "A": "base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH",
    "B": "base: Q\nlevel 2: iota=I Z=idx 1 G=Q H=fullH",
    "C": "base: Z\nlevel 2: iota=II Z=gr G=1 H=fullH",
    "E": ("base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH\n"
          "level 3: iota=I Z=full G=Q H=fullH"),
}


def verdict(n, ok, label):
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_01_structural_laws(alg):
    reports = [lc.check_fle_laws(alg[name], budget=10_000, seed=17)
               for name in LAW_FIXTURES]
    ok = all(r.passed and not r.violations for r in reports)
    verdict(1, ok, "structural law suite, 10^4 triples per fixture, "
            "exact equality")


def test_criterion_02_named_laws(alg):
    failures = []
    for name in LAW_FIXTURES:
        for law in NAMED_SUITE:
            r = lc.check_named(alg[name], law, budget=1_000, seed=23)
            if not r.passed:
                failures.append((name, law))
    verdict(2, not failures, f"named law suite on all fixtures "
            f"(failures: {failures or 'none'})")


def test_criterion_03_worked_example_values(alg):
    A, B = alg["A"], alg["B"]
    got = [
        ps.print_elem(A, ch.comp(A, ps.parse_elem(A, "(0, T)"))),
        ps.print_elem(A, ch.mul(A, ps.parse_elem(A, "(-1, T)"),
                                ps.parse_elem(A, "(-1, T)"))),
        ps.print_elem(B, ch.comp(B, ps.parse_elem(B, "(0, T)"))),
        ps.print_elem(B, ch.mul(B, ps.parse_elem(B, "(0, B)"),
                                ps.parse_elem(B, "(0, B)"))),
    ]
    want = ["(-1, T)", "(-2, T)", "(0, B)", "(0, B)"]
    verdict(3, got == want, f"worked example values {got}")


def test_criterion_04_product_tables(alg):
    problems = []
    for name, table, budget in TABLE_PLAN:
        r = lc.check_table(alg[name], table, budget=budget, seed=7)
        if not r.passed:
            problems.append((name, table, "failed"))
            continue
        thin = [label for label, count in r.counts
                if 0 < count < 100]
        if thin:
            problems.append((name, table, f"thin cells {thin}"))
        if r.vacuous:
            print(f"  table {table} on {name}: vacuous cells "
                  f"{', '.join(r.vacuous)}")
    verdict(4, not problems, f"product tables on both branches "
            f"(problems: {problems or 'none'})")


def test_criterion_05_subtype_agreement(alg):
    pairs = ((alg["V3"], alg["B"]), (alg["V4"], alg["A"]))
    ok = True
    for sub, parent in pairs:
        rng = random.Random(11)
        for _ in range(1_000):
            x = ch.sample_elem(sub, rng)
            y = ch.sample_elem(sub, rng)
            ok = ok and ch.validate_elem(parent, x)
            ok = ok and ch.mul(sub, x, y) == ch.mul(parent, x, y)
            ok = ok and ch.comp(sub, x) == ch.comp(parent, x)
            ok = ok and ch.res(sub, x, y) == ch.res(parent, x, y)
            ok = ok and ch.cmp_elems(sub, x, y) == ch.cmp_elems(parent, x, y)
    verdict(5, ok, "restricted-column products agree with their parents "
            "on 10^3 samples per pair")


def test_criterion_06_tail_split():
    desc = gr.GroupDesc(("Z", "Z"))
    sp = gr.split_convex_tail(desc, 1)
    ok = sp.head == gr.Z_GROUP and sp.tail_hull == gr.Q_GROUP
    rng = random.Random(3)
    for _ in range(1_000):
        x = (kn.rmake(rng.randint(-60, 60)), kn.rmake(rng.randint(-60, 60)))
        y = (kn.rmake(rng.randint(-60, 60)), kn.rmake(rng.randint(-60, 60)))
        hx, tx = sp.embed(x)
        hy, ty = sp.embed(y)
        hs, ts = sp.embed(gr.g_add(desc, x, y))
        ok = ok and hs == gr.g_add(sp.head, hx, hy)
        ok = ok and ts == gr.g_add(sp.tail_hull, tx, ty)
        lex = gr.g_cmp(sp.head, hx, hy) or gr.g_cmp(sp.tail_hull, tx, ty)
        ok = ok and lex == gr.g_cmp(desc, x, y)
    window = [(kn.rmake(i), kn.rmake(j))
              for i in range(-3, 4) for j in range(-3, 4)]
    heads = {sp.head_part(v) for v in window}
    ok = ok and heads == {(kn.rmake(i),) for i in range(-3, 4)}
    verdict(6, ok, "convex tail split of Lex(Z, Z): addition, order, "
            "and head projection onto the quotient window")


def test_criterion_07_representation_round_trip(alg):
    ok = True
    notes = []
    for name, want in REPTREES.items():
        a = alg[name]
        tree, rebuilt, fn = dec.representation_embedding(a)
        if ps.print_reptree(tree) != want:
            ok = False
            notes.append(f"{name}: unexpected tree")
            continue
        # one positive idempotent disappears at each peeled level
        for depth in range(len(tree.levels) + 1):
            prefix = dec.RepTree(base=tree.base, levels=tree.levels[:depth])
            n = len(ch.positive_idempotents(dec.rebuild(prefix)))
            if n != depth + 1:
                ok = False
                notes.append(f"{name}: {n} idempotents at depth {depth}")
        r = lc.check_hom(fn, a, rebuilt, budget=1_000, seed=29, law="alpha")
        if not r.passed:
            ok = False
            notes.append(f"{name}: {r.render()}")
    verdict(7, ok, f"group representation trees and composed embeddings "
            f"({'; '.join(notes) if notes else 'A, B, C, E'})")


def test_criterion_08_closure_cross_check(alg):
    ok = True
    for name in ("A", "B"):
        a = alg[name]
        u = dec.smallest_pos_idem(a)
        phi = lambda v: dec.phi_nucleus(a, u, v)
        rng = random.Random(31)
        for _ in range(1_000):
            x = ch.sample_elem(a, rng)
            y = ch.sample_elem(a, rng)
            px = phi(x)
            ok = ok and ch.le(a, x, px) and phi(px) == px
            if ch.le(a, x, y):
                ok = ok and ch.le(a, px, phi(y))
        win = lc.window_elems(a)
        image = {phi(x) for x in win}
        if dec.branch(a, u) == dec.IDEM_BRANCH:
            q = dec.QuotientChain(a, u)
            ok = ok and all(phi(x) == q.class_max(q.to_class(x)) for x in win)
            ok = ok and image == {q.class_max(q.to_class(x)) for x in win}
        else:
            ok = ok and image == {x for x in win
                                  if ch.le(a, u, ch.tau(a, x))}
    verdict(8, ok, "closure is extensive, idempotent, monotone; window "
            "image matches the branch quotient on A and B")


def test_criterion_09_lex_embedding(alg):
    ok = True
    targets = {"A": "Z lex Q^TB", "E": "Z lex Q^TB lex Q^TB"}
    for name, want in targets.items():
        monoid, emb = dec.lex_embedding(alg[name])
        ok = ok and monoid.describe() == want
        r = lc.check_hom(emb, alg[name], monoid, budget=1_000, seed=37,
                         with_comp=False, law="embed-lex")
        ok = ok and r.passed
    verdict(9, ok, "monoid reduct embeds into the bound-adjoined lex "
            "product, product and order, 10^3 samples")


MUTATIONS = (
    ("fle", "A", "mul"),
    ("fle", "B", "comp"),
    ("eq2.2", "A", "comp"),
    ("prop2.3.2", "C", "comp"),
    ("prop4.3", "B", "mul"),
    ("thm2.4", "Q", "mul"),
    ("prop5.3", "G", "mul"),
    ("prop7.2.eqs", "E", "mul"),
    ("table2", "A", "mul"),
    ("table1", "B", "mul"),
)


def test_criterion_10_harness_self_test(alg):
    detected = 0
    missed = []
    for law, name, target in MUTATIONS:
        mutant = lc.Mutant(alg[name], target)
        if law == "fle":
            r = lc.check_fle_laws(mutant, budget=400, seed=1)
        elif law.startswith("table"):
            r = lc.check_table(mutant, int(law[-1]), budget=150, seed=1)
        else:
            r = lc.check_named(mutant, law, budget=400, seed=1)
        if r.passed:
            missed.append((law, name, target))
        else:
            detected += 1
    verdict(10, detected == len(MUTATIONS),
            f"{detected}/{len(MUTATIONS)} seeded mutations detected"
            + (f", missed {missed}" if missed else ""))
