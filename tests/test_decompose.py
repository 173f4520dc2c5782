"""Peeling at the least strictly positive idempotent.

Classification values, quotient and restriction behavior, representation
trees, and the closure that unifies the two branches; every expected
value here was worked out by hand on the fixture definitions.
"""

import collections
import functools
import inspect
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from conftest import SPECS
from plexalg import build as bd
from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import groups as gr
from plexalg import kernel as kn
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg import sampling
from plexalg.build import build_sublex
from plexalg.errors import (InvalidElement, OnlyUnitIdempotent, PlexError,
                            PreconditionFailed, StructuralMismatch,
                            WrongBranch)
from plexalg.groups import FULL, GroupDesc

BRANCHES = {
    "A": dec.NONIDEM_BRANCH,
    "B": dec.IDEM_BRANCH,
    "C": dec.NONIDEM_BRANCH,
    "G": dec.NONIDEM_BRANCH,
    "E": dec.IDEM_BRANCH,
    "V3": dec.IDEM_BRANCH,
    "V4": dec.NONIDEM_BRANCH,
}

SMALLEST_U = {
    "A": "(0, T)",
    "B": "(0, T)",
    "C": "(0, T)",
    "G": "(0, T)",
    "E": "((0, 0), T)",
    "V3": "(0, T)",
    "V4": "(0, T)",
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_branch_and_least_idempotent(alg, name):
    a = alg[name]
    u = dec.smallest_pos_idem(a)
    assert ps.print_elem(a, u) == SMALLEST_U[name]
    assert dec.branch(a, u) == BRANCHES[name]


def test_group_chain_has_no_second_idempotent(alg):
    for name in ("Z", "Q", "LZZ"):
        with pytest.raises(OnlyUnitIdempotent):
            dec.smallest_pos_idem(alg[name])


CLASSIFY = [
    ("A", "(2, T)", dec.TOP_C),
    ("A", "(0, 5)", dec.GROUP_BELOW),
    ("B", "(2, T)", dec.TOP_C),
    ("B", "(2, B)", dec.BOT_C),
    ("B", "(1/2, B)", dec.INTERIOR),
    ("B", "(0, 5)", dec.GROUP_BELOW),
    ("B", "(-3, T)", dec.TOP_C),
    ("V3", "(2, T)", dec.TOP_C),
    ("V3", "(1, T)", dec.TOP_PS),
    ("V3", "(2, B)", dec.BOT_C),
    ("V3", "(1, B)", dec.BOT_PS),
    ("V3", "(1/2, B)", dec.INTERIOR),
    ("V4", "(2, T)", dec.TOP_C),
    ("V4", "(1, T)", dec.TOP_PS),
    ("V4", "(0, 5)", dec.GROUP_BELOW),
]


@pytest.mark.parametrize("name,lit,kind", CLASSIFY)
def test_classification_values(alg, name, lit, kind):
    a = alg[name]
    u = dec.smallest_pos_idem(a)
    assert dec.classify(a, u, ps.parse_elem(a, lit)) == kind


def test_classification_consistent_with_tau(alg):
    for name in ("A", "B", "C", "G", "E", "V3", "V4"):
        a = alg[name]
        u = dec.smallest_pos_idem(a)
        kind_of = dec.classifier(dec.BaseChain(a), u)  # built once
        rng = random.Random(21)
        for _ in range(300):
            x = ch.sample_elem(a, rng)
            kind = kind_of(x)
            assert kind in dec.CLASS_KINDS
            below = ch.lt(a, ch.tau(a, x), u)
            assert below == (kind == dec.GROUP_BELOW)


def test_classify_needs_the_least_positive_idempotent(alg):
    E = alg["E"]
    top = ch.positive_idempotents(E)[2]
    with pytest.raises(PreconditionFailed):
        dec.classify(E, top, ch.unit(E))


def test_beta_collapses_components(alg):
    B = alg["B"]
    u = dec.smallest_pos_idem(B)
    same = [ps.parse_elem(B, t) for t in ("(3, -5/6)", "(3, 5)", "(3, 0)")]
    classes = {dec.beta(B, u, x) for x in same}
    assert len(classes) == 1
    other = dec.beta(B, u, ps.parse_elem(B, "(2, 0)"))
    assert other not in classes
    top = dec.beta(B, u, ps.parse_elem(B, "(3, T)"))
    assert top not in classes  # non-invertibles keep their identity


def test_beta_algebra_is_a_monoid_quotient(alg):
    # beta is a congruence: the class of a product or a complement depends
    # only on the classes of the operands
    B = alg["B"]
    u = dec.smallest_pos_idem(B)
    beta = functools.partial(dec.beta, B, u)
    rng = random.Random(2)
    for _ in range(200):
        x, y = ch.sample_elem(B, rng), ch.sample_elem(B, rng)
        assert beta(ch.mul(B, beta(x), beta(y))) == beta(ch.mul(B, x, y))
        assert beta(ch.comp(B, beta(x))) == beta(ch.comp(B, x))


def test_gamma_needs_idempotent_branch(alg):
    A = alg["A"]
    u = dec.smallest_pos_idem(A)
    with pytest.raises(WrongBranch):
        dec.QuotientChain(A, u)
    with pytest.raises(WrongBranch):
        dec.gamma(A, u, dec.beta(A, u, ch.unit(A)))


def test_restriction_needs_non_idempotent_branch(alg):
    B = alg["B"]
    u = dec.smallest_pos_idem(B)
    with pytest.raises(WrongBranch):
        dec.RestrictionChain(B, u)


# step selection and exception types: at every positive idempotent above
# the unit, the outcome of gamma, classify and both step constructors (a
# value, or the type of the PlexError raised), as recorded in
# peel_grid.json.  At a u that is not the least one, gamma checks the
# branch first and the steps check that u is the least first, so on a
# pair where both checks fail the order decides the exception type.


def _recorded(fn):
    """fn() as peel_grid.json records it: the value, or the name of the
    PlexError type raised."""
    got = _outcome(fn)
    return got.__name__ if isinstance(got, type) else got


def test_peel_steps_and_their_errors_are_the_recorded_ones():
    want = json.loads((Path(__file__).parent / "peel_grid.json").read_text())
    got = {}
    for name in (sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]
                 + REGRESSION_SPECS):
        a = ps.parse_algebra(case_spec(name))
        one = ch.unit(a)
        for i, u in enumerate(ch.positive_idempotents(a)[1:], start=1):
            got[f"{name} u{i}"] = [
                _recorded(lambda: ps.print_elem(a, dec.gamma(a, u, one))),
                _recorded(lambda: dec.classify(a, u, one)),
                _recorded(lambda: dec.QuotientChain(a, u).describe()),
                _recorded(lambda: dec.RestrictionChain(a, u).describe())]
        # on every level, peel builds the step that smallest_pos_idem and
        # branch pick
        view = dec.BaseChain(a)
        for level in _peel_levels(view):
            u = dec.smallest_pos_idem(view)
            idem = dec.branch(view, u) == dec.IDEM_BRANCH
            shape = dec.QuotientChain if idem else dec.RestrictionChain
            assert type(level) is shape, (name, level.describe())
            assert level.base is view and level.u == u
            view = level
    assert got == want


def test_gamma_classes_are_intervals(alg):
    for name in ("B", "V3"):
        a = alg[name]
        u = dec.smallest_pos_idem(a)
        q = dec.QuotientChain(a, u)
        for x in lc.window_elems(a, bound=2, max_den=2):
            c = q.to_class(x)
            assert ch.le(a, q.class_min(c), x)
            assert ch.le(a, x, q.class_max(c))


def test_gamma_glues_extremes_to_their_component(alg):
    B = alg["B"]
    u = dec.smallest_pos_idem(B)
    q = dec.QuotientChain(B, u)
    mid = ps.parse_elem(B, "(3, 1/2)")
    top = ps.parse_elem(B, "(3, T)")
    bot = ps.parse_elem(B, "(3, B)")
    assert q.to_class(mid) == q.to_class(top) == q.to_class(bot)
    assert q.class_max(q.to_class(mid)) == top
    assert q.class_min(q.to_class(mid)) == bot
    lone = ps.parse_elem(B, "(1/2, B)")
    assert q.to_class(lone) != q.to_class(mid)


def test_quotient_builds_each_canonical_member_once_per_head(alg,
                                                             monkeypatch):
    # prop9.2 on E maps a window of 10,108 elements onto 266 classes;
    # without the memo it builds a fill for every group element and
    # component extreme among them (10,360)
    E = alg["E"]
    heads = []
    real = dec._elem_from_prefix_raw  # the builder BaseChain.fill_prefix calls

    def recording(b, h):
        if b is E:
            heads.append(h)
        return real(b, h)

    monkeypatch.setattr(dec, "_elem_from_prefix_raw", recording)
    for _ in range(2):  # the memo dies with its step: no carry-over
        heads.clear()
        r = lc.check_named(E, "prop9.2", budget=50, seed=1)
        assert (r.samples, r.counts, r.violations) == (
            10373, (("intervals-disjoint", 265),
                    ("member-in-interval", 10108)), ())
        assert len(heads) == len(set(heads)) <= 266
        assert heads
    # the memoized members are those of the unmemoized gamma map
    u = dec.smallest_pos_idem(E)
    q = dec.QuotientChain(E, u)
    for x in lc.window_elems(E)[::37]:
        assert q.to_class(x) == dec.gamma(E, u, x), x


def test_restriction_behaves_like_a_unit_shift(alg):
    A = alg["A"]
    u = dec.smallest_pos_idem(A)
    rc = dec.RestrictionChain(A, u)
    assert rc.unit() == u
    draw = rc.sampler(random.Random(4))
    for _ in range(200):
        p, q = draw(), draw()
        assert rc.contains(p)
        assert rc.mul(p, rc.unit()) == p
        assert rc.comp(rc.comp(p)) == p
        assert rc.mul(p, q) == ch.mul(A, p, q)


def test_restriction_covers_on_v4(alg):
    V4 = alg["V4"]
    u = dec.smallest_pos_idem(V4)
    rc = dec.RestrictionChain(V4, u)
    x = ps.parse_elem(V4, "(1, T)")
    assert ps.print_elem(V4, rc.x_down(x)) == "(0, T)"
    assert ps.print_elem(V4, rc.x_up(x)) == "(2, T)"


REPTREES = {
    "A": "base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH",
    "B": "base: Q\nlevel 2: iota=I Z=idx 1 G=Q H=fullH",
    "C": "base: Z\nlevel 2: iota=II Z=gr G=1 H=fullH",
    "G": "base: Z\nlevel 2: iota=II Z=gr G=1 H=fullH",
    "E": ("base: Z\nlevel 2: iota=II Z=gr G=Q H=fullH\n"
          "level 3: iota=I Z=full G=Q H=fullH"),
}

REBUILT = {
    "A": "SLII(Z, Q, fullH)",
    "B": "SLI(Q, idx 1, Q, fullH)",
    "C": "SLII(Z, 1, fullH)",
    "G": "SLII(Z, 1, fullH)",
    "E": "SLI(SLII(Z, Q, fullH), full, Q, fullH)",
}


@pytest.mark.parametrize("name", sorted(REPTREES))
def test_representation_trees(alg, name):
    tree = dec.group_representation(alg[name])
    assert ps.print_reptree(tree) == REPTREES[name]
    assert ps.print_algebra(dec.rebuild(tree)) == REBUILT[name]
    again = dec.group_representation(ps.parse_algebra(SPECS[name]))
    assert again == tree and hash(again) == hash(tree)


def test_rebuild_rejects_malformed_levels():
    tree = dec.group_representation(ps.parse_algebra("I(Q, idx 1, Q)"))
    level = tree.levels[0]
    broken = dec.RepTree(base=tree.base,
                         levels=(dec.RepLevel("I", "gr", level.g, level.h),))
    with pytest.raises(PreconditionFailed):
        dec.rebuild(broken)


def test_alpha_embedding_is_an_isomorphism_onto_rebuilt(alg):
    for name in ("A", "B", "E"):
        a = alg[name]
        tree, rebuilt, fn = dec.representation_embedding(a)
        assert ps.print_reptree(tree) == REPTREES[name]
        report = lc.check_hom(fn, a, rebuilt, budget=300, seed=9, law="alpha")
        assert report.passed, report.render()


PHI = [
    ("A", "(0, 1/2)", "(0, T)"),
    ("A", "(1, T)", "(1, T)"),
    ("B", "(0, 1/2)", "(0, T)"),
    ("B", "(1, T)", "(1, T)"),
    ("B", "(1/2, B)", "(1/2, B)"),
]


@pytest.mark.parametrize("name,lit,want", PHI)
def test_phi_values(alg, name, lit, want):
    a = alg[name]
    u = dec.smallest_pos_idem(a)
    x = ps.parse_elem(a, lit)
    assert ps.print_elem(a, dec.phi_nucleus(a, u, x)) == want


def test_phi_nucleus_laws_sampled(alg):
    for name in ("A", "B", "C", "E", "V3", "V4"):
        a = alg[name]
        u = dec.smallest_pos_idem(a)
        phi = lambda v: dec.phi_nucleus(a, u, v)
        rng = random.Random(6)
        for _ in range(200):
            x, y = ch.sample_elem(a, rng), ch.sample_elem(a, rng)
            px, py = phi(x), phi(y)
            assert ch.le(a, x, px)
            assert phi(px) == px
            if ch.le(a, x, y):
                assert ch.le(a, px, py)
            assert ch.le(a, ch.mul(a, px, py), phi(ch.mul(a, x, y)))


def test_lex_embedding_targets(alg):
    targets = {"A": "Z lex Q^TB", "E": "Z lex Q^TB lex Q^TB",
               "B": "Q lex Q^TB", "C": "Z lex 1^TB"}
    for name, want in targets.items():
        monoid, emb = dec.lex_embedding(alg[name])
        assert monoid.describe() == want
        assert monoid.contains(emb(ch.unit(alg[name])))


def test_lex_monoid_marker_order(alg):
    monoid, emb = dec.lex_embedding(alg["A"])
    unit = monoid.unit()
    top = (unit[0], ch.TOP)
    bot = (unit[0], ch.BOT)
    assert monoid.cmp(bot, unit) == -1
    assert monoid.cmp(unit, top) == -1
    assert monoid.mul(top, bot) == bot  # bottom absorbs
    assert monoid.mul(top, top) == top


def test_only_the_embedding_into_the_rebuilt_algebra_builds_it(monkeypatch):
    # the tree and the lex map need no rebuilt algebra, so neither
    # group_representation nor lex_embedding stacks one
    a = ps.parse_algebra(_tower(3))
    built = []

    def counted(*args, **kw):
        built.append(args[0])
        return build_sublex(*args, **kw)

    monkeypatch.setattr(bd, "build_sublex", counted)  # rebuild's builder
    dec.group_representation(a)
    dec.lex_embedding(a)
    assert built == []
    tree, rebuilt, _ = dec.representation_embedding(a)
    assert built == ["SLII", "SLI", "SLI"]
    assert ps.print_algebra(rebuilt) == ps.print_algebra(dec.rebuild(tree))


# ---------------------------------------------------------------------------
# the one-pass peel against the view stack
#
# The oracle composes the per-level embeddings through stacked quotient and
# restriction views, the way the peel was first written: every view op
# re-classifies through the view below, so it costs about 10x per level.


def _rebuilt_coords(entries, ambient):
    """(ambient index, kind) of each coordinate the rebuilt tower below a
    view keeps, innermost group first, read off the view's own ladder."""
    if any(c != FULL for c in ch._dense(entries[-1].gconstr,
                                        entries[-1].prefix)):
        raise StructuralMismatch("innermost level with nontrivial constraints")
    coords = [(j, ambient[j]) for j in range(entries[-1].prefix)]
    for lev in range(len(entries) - 2, -1, -1):
        g = ch._dense(entries[lev].gconstr, entries[lev].prefix)
        for j in range(entries[lev + 1].prefix, entries[lev].prefix):
            if g[j] != gr.TRIV and g[j][0] != "graph":
                coords.append((j, "Q"))  # kernel directions live in their hull
    return tuple(coords)


def _view_walk(view):
    """(tree, rebuilt, element map) by stacking one view per step."""
    idems = view.pos_idems()
    if len(idems) != len(view.entries):
        raise StructuralMismatch(
            "idempotent count disagrees with the coordinate ladder")
    if len(idems) == 1:
        e0 = view.entries[0]
        if any(c != FULL for c in ch._dense(e0.gconstr, e0.prefix)):
            raise StructuralMismatch("group level with nontrivial constraints")
        desc = GroupDesc(tuple(view.ambient[: e0.prefix]))
        return dec.RepTree(base=desc, levels=()), ch.leaf(desc), view.partial_vec
    child = dec.peel(view)
    u, nu = child.u, child.nu
    idem_b = child.branch == dec.IDEM_BRANCH
    tree, child_alg, child_fn = _view_walk(child)
    coords = _rebuilt_coords(view.entries[1:], view.ambient)
    level, free = _oracle_level_record(view.ambient, view.entries[0],
                                       view.entries[1], coords, idem_b)
    if idem_b:
        target = build_sublex("SLI", child_alg, ch.leaf(level.g), level.h,
                              zsub=level.z)
    else:
        target = build_sublex("SLII", child_alg, ch.leaf(level.g), level.h)

    def fn(x):
        if view.lt(view.tau(x), u):
            vec = view.partial_vec(x)
            offset = tuple(vec[j] for j in free)
            c = child.to_class(x) if idem_b else view.mul(x, u)
            return (child_fn(c), ch.mid(offset))
        if idem_b:
            c = child.to_class(x)
            marker = ch.TOP if view.lt(view.mul(x, nu), x) else ch.BOT
            return (child_fn(c), marker)
        return (child_fn(x), ch.TOP)

    return (dec.RepTree(base=tree.base, levels=tree.levels + (level,)),
            target, fn)


def _assert_raises_like(exc, fn, *args):
    with pytest.raises(PlexError) as info:
        fn(*args)
    assert type(info.value) is type(exc)


def _tower(depth):
    spec = "II(Z, Q)"
    for _ in range(depth - 1):
        spec = f"I({spec}, full, Q)"
    return spec


@functools.cache
def _peels(spec):
    """Algebra, oracle peel and one-pass peels of a spec, built once."""
    a = ps.parse_algebra(spec)
    return (a, _view_walk(dec.BaseChain(a)), dec.representation_embedding(a),
            dec.lex_embedding(a))


def _assert_peels_agree(spec, rngs):
    a, (tree, rebuilt, alpha), (tree2, rebuilt2, alpha2), (monoid, lex) = \
        _peels(spec)
    assert tree2 == tree
    assert ps.print_reptree(tree2) == ps.print_reptree(tree)
    assert ps.print_algebra(rebuilt2) == ps.print_algebra(rebuilt)
    assert monoid.parts == tuple(level.g for level in tree.levels)
    for rng, marker_p in rngs:
        x = ch.sample_elem(a, rng, marker_p=marker_p)
        try:
            want = alpha(x)
        except PlexError as exc:
            _assert_raises_like(exc, alpha2, x)
            _assert_raises_like(exc, lex, x)
            continue
        assert alpha2(x) == want, ps.print_elem(a, x)
        flat = lex(x)
        assert monoid.contains(flat)
        assert dec._nest(flat) == want


def _element_draws(n):
    return st.lists(st.tuples(st.randoms(use_true_random=False),
                              st.sampled_from((0.25, 0.6))),
                    min_size=1, max_size=n)


ONE_PASS_CASES = (["A", "B", "C", "G", "E", "V3b", "V4b", "LZQ"]
                  + [f"tower{d}" for d in range(1, 5)])


@pytest.mark.parametrize("name", ONE_PASS_CASES)
@settings(max_examples=15)
@given(rngs=_element_draws(4))
def test_one_pass_peel_matches_view_stack(alg, name, rngs):
    if name.startswith("tower"):
        spec = _tower(int(name[len("tower"):]))
    else:
        spec = ps.print_algebra(alg[name])
    _assert_peels_agree(spec, rngs)


def _counted_chains_calls(monkeypatch):
    """Counter of the calls decompose makes into chains."""
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kw):
            calls[0] += 1
            return fn(*args, **kw)
        return wrapper

    for name, obj in list(vars(dec).items()):
        if inspect.isfunction(obj) and obj.__module__ == ch.__name__:
            monkeypatch.setattr(dec, name, counted(obj))
    return calls


def test_chains_calls_per_element_grow_linearly_in_depth(monkeypatch):
    per_elem = {}
    for d in (3, 5):
        a = ps.parse_algebra(_tower(d))
        _, _, alpha = dec.representation_embedding(a)
        rng = random.Random(17)
        xs = [ch.sample_elem(a, rng) for _ in range(24)]
        with monkeypatch.context() as mp:
            calls = _counted_chains_calls(mp)
            for x in xs:
                alpha(x)
        per_elem[d] = calls[0] / len(xs)
    assert per_elem[5] * 3 <= per_elem[3] * 5, per_elem


def _level_op_costs(a, draws=40):
    """Per peel level of a, the calls of a's compiled mul, comp and x_down
    that one mul, comp and x_down of the level make, averaged over draws
    of the level."""
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    ops, covers = a._ops, a._covers
    # the views bind a's closures when they are built: wrap them first
    vars(a)["_ops"] = ops._replace(mul=counted(ops.mul),
                                   comp=counted(ops.comp))
    vars(a)["_covers"] = covers._replace(down=counted(covers.down))
    costs = []
    for k, level in enumerate(_peel_levels(dec.BaseChain(a)), start=1):
        draw = level.sampler(random.Random(k))
        xs = [draw() for _ in range(draws + 1)]
        cost = {}
        for name, args in (("mul", zip(xs, xs[1:])),
                           ("comp", ((x,) for x in xs[1:])),
                           ("x_down", ((x,) for x in xs[1:]))):
            op = getattr(level, name)
            calls.clear()
            for arg in args:
                op(*arg)
            cost[name] = calls[0] / draws
        costs.append(cost)
    return costs


def test_level_operations_cost_at_most_linear_in_the_level():
    # each level builds its elements on the input algebra and maps them
    # onto its base once: level 5 of II(Z, Q) wrapped five times in
    # I(., full, Q) costs 28, 4 and 18 calls per mul, comp and x_down,
    # 2.2, 0.9 and 1.8 times level 3.  Linear growth gives 5/3 and
    # quadratic growth 25/9, so the bound 2.5 lets only the first pass
    costs = _level_op_costs(ps.parse_algebra(_tower(6)))
    for name in ("mul", "comp", "x_down"):
        assert costs[4][name] <= 2.5 * costs[2][name], (name, costs)


# random specs of depth 1-3, with their ambient rank alongside the text

_LEAVES = (("Z", 1), ("Q", 1), ("1", 0), ("Lex(Z, Z)", 2), ("Lex(Z, Q)", 2),
           ("Lex(Q, Z)", 2))
_SUBLEX_SECOND = (("Z", 1), ("Q", 1), ("1", 0), ("Lex(Z, Q)", 2))
_ENTRIES = ("full", "triv", "idx 1", "idx 2", "idx 3")


@st.composite
def _subgroups(draw, rank):
    if rank == 1:
        return draw(st.sampled_from(_ENTRIES))
    if rank == 0 or draw(st.booleans()):
        return draw(st.sampled_from(("full", "triv")))
    return "(%s)" % ", ".join(draw(st.sampled_from(_ENTRIES))
                              for _ in range(rank))


@st.composite
def _restrictions(draw, xrank, yrank):
    shape = draw(st.sampled_from(("fullH", "prodH", "graphH")))
    if shape == "fullH":
        return shape
    if shape == "prodH":
        return "prodH(%s, %s)" % (draw(_subgroups(xrank)),
                                  draw(_subgroups(yrank)))
    return "graphH(%d/%d)" % (draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


@st.composite
def _specs(draw, depth):
    if depth == 0:
        return draw(st.sampled_from(_LEAVES))
    x, xrank = draw(_specs(draw(st.integers(0, depth - 1))))
    kind = draw(st.sampled_from(("I", "II", "III", "IV", "SLI", "SLII")))
    if kind in ("SLI", "SLII"):
        y, yrank = draw(st.sampled_from(_SUBLEX_SECOND))
        h = draw(_restrictions(xrank, yrank))
        if kind == "SLI":
            return f"SLI({x}, {draw(_subgroups(xrank))}, {y}, {h})", xrank + yrank
        return f"SLII({x}, {y}, {h})", xrank + yrank
    y, yrank = draw(_specs(draw(st.integers(0, depth - 1))))
    subs = {"I": 1, "II": 0, "III": 2, "IV": 1}[kind]
    args = [x] + [draw(_subgroups(xrank)) for _ in range(subs)] + [y]
    return f"{kind}({', '.join(args)})", xrank + yrank


REGRESSION_SPECS = [
    # the discreteness probe once ignored the level constraints, so the
    # rebuild of this tower failed with "could not sample the group part"
    "IV(II(Lex(Z, Z), Z), triv, IV(Z, idx 1, Lex(Z, Q)))",
    # an integer direction that the rebuilt child keeps as its hull Q was
    # copied as "full" into the level's restriction or top-column subgroup,
    # so the rebuild raised SubgroupChainViolated
    "I(Q, idx 3, II(Z, Z))",
    "II(II(Lex(Z, Z), Lex(Z, Z)), Z)",
    "II(I(Q, full, Z), III(Z, idx 1, triv, 1))",
    "I(I(1, full, 1), full, III(Z, full, idx 3, 1))",
]


def _assert_random_spec_peels_agree(spec, rngs) -> str:
    """Outcome of the view-stack peel, after checking that the one-pass
    peel agrees with it."""
    try:
        a = ps.parse_algebra(spec)
    except PlexError:
        reject()
    try:
        _view_walk(dec.BaseChain(a))
    except PlexError as exc:
        for peel in (dec.group_representation, dec.representation_embedding,
                     dec.lex_embedding):
            _assert_raises_like(exc, peel, a)
        return f"the view stack raises {type(exc).__name__}"
    _assert_peels_agree(spec, rngs)
    return "the view stack peels"


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(3))
def test_one_pass_peel_matches_view_stack_on_random_specs(spec, rngs):
    event(_assert_random_spec_peels_agree(spec[0], rngs))


@pytest.mark.parametrize("spec", REGRESSION_SPECS)
def test_one_pass_peel_regressions(spec):
    a = ps.parse_algebra(spec)
    tree, rebuilt, _ = dec.representation_embedding(a)
    assert ps.print_algebra(dec.rebuild(tree)) == ps.print_algebra(rebuilt)
    rngs = [(random.Random(s), 0.4) for s in range(12)]
    assert _assert_random_spec_peels_agree(spec, rngs) == "the view stack peels"


# containment of ladder constraints: groups.sub_leq against the rule it
# replaced in the pseudo-top test, under which a graph entry is contained
# only in an identical entry


def _constr_within(desc_kinds, small, big) -> bool:
    for kind, sm, bg in zip(desc_kinds, small, big):
        if sm == bg:
            continue
        if sm[0] == "graph" or bg[0] == "graph" or \
                not gr.entry_leq(kind, sm, bg):
            return False
    return True


def _lacks_pseudo_tops_oracle(a) -> bool:
    if a.is_leaf:
        return False
    n = dec._upper_node(a)[0]
    s = n._structure
    x_amb, x_entries = ch.ladder(n.x)
    tops = s.zconstr if n.family == "tb" else x_entries[0].gconstr
    return _constr_within(x_amb, ch._dense(tops, len(x_amb)),
                          ch._dense(s.vconstr, len(x_amb)))


def _ladder_constraints(a) -> set:
    """(ambient kinds, vector) of every constraint vector of a's nodes and
    of their ladders, each over the ambient coordinates it names."""
    out, stack = set(), [a]
    while stack:
        n = stack.pop()
        s = n._structure
        amb, entries = ch.ladder(n)
        xlen = 0 if n.is_leaf else n.xlen
        vecs = [(s.vconstr, xlen), (s.zconstr, xlen)]
        for e, below in zip(entries, entries[1:] + (None,)):
            vecs += [(e.gconstr, e.prefix),
                     (e.zconstr, below and below.prefix)]
        out.update((amb[:k], v) for v, k in vecs if v is not None)
        if not n.is_leaf:
            stack += [n.x, n.y]
    return out


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 6)]
                         + REGRESSION_SPECS)
def test_sub_leq_answers_as_the_pseudo_top_rule_did(name):
    a = ps.parse_algebra(case_spec(name))
    assert dec._lacks_pseudo_tops(a) == _lacks_pseudo_tops_oracle(a)
    vecs = _ladder_constraints(a)
    for amb, small in vecs:
        for amb_big, big in vecs:
            if amb_big == amb:
                assert gr.sub_leq(GroupDesc(amb), small, big) == \
                    _constr_within(amb, ch._dense(small, len(amb)),
                                   ch._dense(big, len(amb))), (small, big)


# the representation as a normal form: represent∘rebuild fixes every tree


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 6)]
                         + REGRESSION_SPECS)
def test_represent_rebuild_fixed_point(name):
    t = dec.group_representation(ps.parse_algebra(case_spec(name)))
    rebuilt = dec.rebuild(t)
    again = dec.group_representation(rebuilt)
    assert again == t
    assert ps.print_algebra(dec.rebuild(again)) == ps.print_algebra(rebuilt)


# ---------------------------------------------------------------------------
# the lex map's local unit, read by absorption, against the tau lookup
#
# The oracle is the lex map as it read the local unit before: tau(x),
# computed with three chain operations, looked up among the positive
# idempotents.


def _tau_lex(a):
    """The lex coordinates of elements of a, with the local unit found by
    computing tau."""
    ambient, entries = ch.ladder(a)
    idems = ch.positive_idempotents(a)
    head = entries[-1].prefix
    coords = list(zip(range(head), ambient[:head]))
    steps = []
    for k in range(len(idems) - 2, -1, -1):
        u = idems[k + 1]
        idem_b = dec.branch(a, u) == dec.IDEM_BRANCH
        _, free = _oracle_level_record(ambient, entries[k], entries[k + 1],
                                       coords, idem_b)
        steps.append((k, idem_b, ch.absorber(a, ch.comp(a, u)), free))
        coords += [(j, "Q") for j in free]
    unit_step = {e: j for j, e in enumerate(idems)}

    def lex(x):
        j = unit_step.get(ch.tau(a, x))
        if j is None:
            raise StructuralMismatch("local unit is not a positive idempotent")
        vec = ch.partial_vec(a, x)
        out = [vec[:head]]
        for k, idem, absorbs, free in steps:
            if k >= j:
                out.append(tuple(vec[i] for i in free))
            elif idem and absorbs(x):
                out.append(ch.BOT)
            else:
                out.append(ch.TOP)
        return tuple(out)

    return lex


def _lex_probes(a, seed) -> list:
    """Samples at marker_p 0.25 and 0.6, their products with every positive
    idempotent (which reach the high local units that samples of a deep
    tower seldom do), and the window of bound 2 and denominators up to 2
    where the ambient rank is 3 or less."""
    rng = random.Random(seed)
    xs = [ch.sample_elem(a, rng, marker_p=p) for p in (0.25, 0.6)
          for _ in range(40)]
    xs += [ch.mul(a, x, e) for x in xs[::8]
           for e in ch.positive_idempotents(a)]
    if len(ch.ladder(a)[0]) <= 3:
        xs += lc.window_elems(a, 2, 2)
    return xs


def _assert_lex_matches_tau_lookup(a, seed) -> set:
    """The local-unit steps met, after checking that the lex map agrees
    with the oracle on the probes of _lex_probes."""
    _, lex = dec.lex_embedding(a)
    want = _tau_lex(a)
    met = set()
    for x in _lex_probes(a, seed):
        flat = lex(x)
        assert flat == want(x), ps.print_elem(a, x)
        met.add(sum(s in (ch.TOP, ch.BOT) for s in flat))
    return met


# accepted specs on which a law fails: prop8.2.2 on the input for the first
# two, prop9.2 and remark11.4 on the first peel level for the other two
LAW_FAILURE_SPECS = [
    "III(Z, full, triv, Z)", "III(Z, full, idx 2, Q)",
    "I(Lex(Z, Q), (full, idx 1), I(Q, idx 3, I(1, triv, Q)))",
    "I(II(Z, Lex(Z, Z)), triv, SLI(1, full, Lex(Z, Q), fullH))"]


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 6)]
                         + REGRESSION_SPECS + LAW_FAILURE_SPECS)
def test_lex_map_matches_the_tau_lookup(name):
    a = ps.parse_algebra(case_spec(name))
    met = _assert_lex_matches_tau_lookup(a, 5)
    assert met == set(range(len(ch.positive_idempotents(a)))), met


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), seed=st.integers(0, 2**16))
def test_lex_map_matches_the_tau_lookup_on_random_specs(spec, seed):
    try:
        a = ps.parse_algebra(spec[0])
        dec.lex_embedding(a)
    except PlexError:
        reject()
    _assert_lex_matches_tau_lookup(a, seed)


@pytest.mark.parametrize("name",
                         ["tower5", "E", "V4b", "I(Q, idx 3, II(Z, Z))"])
def test_lex_map_reads_the_local_unit_by_absorption(monkeypatch, name):
    # the tree builds no absorption test; a map builds each once, when it
    # first reads it, computes no tau, and makes at most ceil(log2 n)
    # absorption tests for n positive idempotents
    a = ps.parse_algebra(case_spec(name))
    idems = ch.positive_idempotents(a)
    built, tested = collections.Counter(), collections.Counter()
    absorber = ch.absorber

    def counted(b, e):
        pred = absorber(b, e)
        if b is not a:  # the recursion over the factors of a
            return pred
        built[e] += 1

        def test(x):
            tested[e] += 1
            return pred(x)
        return test

    def forbidden(*args):
        raise AssertionError("the lex map computed a residual")

    for owner in (ch, dec):
        monkeypatch.setattr(owner, "absorber", counted)
    dec.group_representation(a)
    _, lex = dec.lex_embedding(a)
    assert not built
    monkeypatch.setattr(ch, "tau", forbidden)
    monkeypatch.setattr(ch, "res", forbidden)
    rng = random.Random(31)
    steps = set()
    for p in (0.25, 0.6):
        for _ in range(100):
            tested.clear()
            flat = lex(ch.sample_elem(a, rng, marker_p=p))
            assert sum(tested[e] for e in idems) <= \
                math.ceil(math.log2(len(idems)))
            steps.add(sum(s in (ch.TOP, ch.BOT) for s in flat))
    assert steps == set(range(len(idems))), steps  # every local unit
    assert set(built) >= set(idems[1:])
    assert set(built.values()) == {1}, built


def test_lex_map_compiles_only_the_tests_it_reads(monkeypatch):
    # on the 300-deep I-tower the unit is invertible at every step, so its
    # map reads only the binary search's tests, at most ceil(log2 301) = 9,
    # and no marker test; compiling every test up front took 600
    a = ps.parse_algebra("I(" * 300 + "Z" + ", full, Q)" * 300)
    built = []
    absorber = ch.absorber

    def counted(b, e):
        if b is a:  # not the recursion over the factors of a
            built.append(e)
        return absorber(b, e)

    monkeypatch.setattr(ch, "absorber", counted)
    _, lex = dec.lex_embedding(a)
    assert not built
    flat = lex(ch.unit(a))
    assert ch.TOP not in flat and ch.BOT not in flat
    assert 0 < len(built) <= 9, len(built)


# ---------------------------------------------------------------------------
# the one-pass walk against the walk it replaced
#
# The oracle is _walk as it was before a step's branch and absorption tests
# were read off the algebra: branch(a, u), a full-depth complement and
# product, at every step, a level record that compares the rebuilt
# coordinates below the step as subgroups, and the tests compiled again on
# each walk's first map.


def _oracle_level_record(ambient, e0, e1, coords, idem_branch: bool):
    g0 = ch._dense(e0.gconstr, e0.prefix)
    free = tuple(j for j in range(e1.prefix, e0.prefix)
                 if g0[j] != gr.TRIV and g0[j][0] != "graph")
    if free:
        gdesc = gr.divisible_hull(GroupDesc(tuple(ambient[j] for j in free)))
    else:
        gdesc = gr.TRIV_GROUP
    ypart = tuple(dec._in_hull(g0[j], ambient[j], "Q") for j in free)
    child_desc = GroupDesc(tuple(k for _, k in coords))
    zpart = tuple(dec._in_hull(g0[j], ambient[j], k) for j, k in coords)
    if idem_branch:
        if e0.zconstr is None:
            raise StructuralMismatch("quotient step without top-column data")
        zsrc = ch._dense(e0.zconstr, e1.prefix)
        z = tuple(dec._in_hull(zsrc[j], ambient[j], k) for j, k in coords)
        full_ok = (_constr_within(child_desc.kinds, zpart, z)
                   and _constr_within(child_desc.kinds, z, zpart))
    else:
        if e0.zconstr is not None:
            raise StructuralMismatch("restriction step with top-column data")
        z = "gr"
        full_ok = _constr_within(child_desc.kinds, (FULL,) * len(zpart),
                                 zpart)
    if full_ok and all(c == FULL for c in ypart):
        h = ch.FullH()
    else:
        h = ch.ProdH(zpart, ypart)
    level = bd.RepLevel(iota="I" if idem_branch else "II", z=z, g=gdesc, h=h)
    return level, free


def _oracle_walk(a):
    ambient, entries = ch.ladder(a)
    idems = ch.positive_idempotents(a)
    if len(idems) != len(entries):
        raise StructuralMismatch(
            "idempotent count disagrees with the coordinate ladder")
    if any(c != FULL for c in ch._dense(entries[-1].gconstr,
                                        entries[-1].prefix)):
        raise StructuralMismatch("group level with nontrivial constraints")
    head = entries[-1].prefix
    base = GroupDesc(tuple(ambient[:head]))
    coords = list(zip(range(head), base.kinds))
    levels, steps = [], []
    for k in range(len(idems) - 2, -1, -1):
        u = idems[k + 1]
        idem_b = dec.branch(a, u) == dec.IDEM_BRANCH
        level, free = _oracle_level_record(ambient, entries[k],
                                           entries[k + 1], coords, idem_b)
        levels.append(level)
        steps.append((k, idem_b, u, free))
        coords += [(j, "Q") for j in free]
    ups = marked = None

    def lex(x):
        nonlocal ups, marked
        if ups is None:
            ups = [ch.absorber(a, e) for e in idems[1:]]
            marked = [(k, ch.absorber(a, ch.comp(a, u)) if idem_b
                       else ch._never, free)
                      for k, idem_b, u, free in steps]
        lo, hi = 0, len(ups)
        while lo < hi:
            m = (lo + hi + 1) >> 1
            if ups[m - 1](x):
                lo = m
            else:
                hi = m - 1
        vec = ch.partial_vec(a, x)
        out = [vec[:head]]
        for k, absorbs, free in marked:
            if k >= lo:
                out.append(tuple(vec[i] for i in free))
            elif absorbs(x):
                out.append(ch.BOT)
            else:
                out.append(ch.TOP)
        return tuple(out)

    return dec.RepTree(base=base, levels=tuple(levels)), lex


def _assert_walk_matches_oracle(a, seed):
    """The branch read off the structure is branch(a, u) at every positive
    idempotent u, and the walk gives the oracle's tree and lex map (on the
    probes of _lex_probes), or raises as it does."""
    idems = ch.positive_idempotents(a)
    assert a._idem_branches == tuple(dec.branch(a, u) == dec.IDEM_BRANCH
                                     for u in idems)
    try:
        want_tree, want_lex = _oracle_walk(a)
    except PlexError as exc:
        _assert_raises_like(exc, dec._walk, a)
        return
    tree, lex = dec._walk(a)
    assert tree == want_tree
    assert dec.group_representation(a) == tree
    for x in _lex_probes(a, seed):
        assert lex(x) == want_lex(x), ps.print_elem(a, x)


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 6)]
                         + REGRESSION_SPECS + LAW_FAILURE_SPECS)
def test_walk_matches_the_walk_it_replaced(name):
    _assert_walk_matches_oracle(ps.parse_algebra(case_spec(name)), 7)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), seed=st.integers(0, 2**16))
def test_walk_matches_the_walk_it_replaced_on_random_specs(spec, seed):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_walk_matches_oracle(a, seed)


def _represent_calls(monkeypatch, depth) -> dict:
    """Calls of the compiled mul, comp and cmp of every node, and of
    groups.entry_leq, that one group_representation of the depth-d tower
    makes, on an algebra parsed just before."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def compile_counted(a, _real=ch._compile_ops):
        ops = _real(a)
        return ops._replace(**{n: counting("ops", getattr(ops, n))
                               for n in ("mul", "comp", "cmp")})

    with monkeypatch.context() as mp:
        mp.setattr(ch, "_compile_ops", compile_counted)
        mp.setattr(gr, "entry_leq", counting("entry_leq", gr.entry_leq))
        a = ps.parse_algebra(_tower(depth))
        calls.clear()
        dec.group_representation(a)
        got = dict(calls)
        # the counters are live: a branch test walks every level of u, and
        # a containment test reads each entry a vector holds
        dec.branch(a, ch.positive_idempotents(a)[1])
        gr.sub_leq(GroupDesc(("Z",)), ((0, gr.idx(2)),), ())
    assert calls["ops"] - got.get("ops", 0) >= depth, calls
    assert calls["entry_leq"] == got.get("entry_leq", 0) + 1, calls
    return got


def test_represent_calls_grow_at_most_linearly_in_depth(monkeypatch):
    # the walk reads each step's branch off the structure and compares the
    # rebuilt coordinates as subgroups only where their entries differ; a
    # branch test per step, or a containment test over the coordinates
    # below each step, grows four times per doubling
    calls = {d: _represent_calls(monkeypatch, d) for d in (50, 100, 200)}
    for d in (50, 100):
        for name in ("ops", "entry_leq"):
            assert calls[2 * d].get(name, 0) <= 2.5 * calls[d].get(name, 0), \
                calls


def test_represent_reads_constraints_linearly_on_the_i_tower(monkeypatch):
    # a level record reads the pairs its ladder entry holds and expands the
    # running zpart only where it prints it; reading the constraint of
    # every rebuilt coordinate below each step read about d**2
    for d in (50, 100, 200):
        a = ps.parse_algebra("I(" * d + "Z" + ", full, Q)" * d)
        reads = collections.Counter()

        def counted(*args, _real=dec._in_hull):
            reads["constraint"] += 1
            return _real(*args)

        with monkeypatch.context() as mp:
            mp.setattr(dec, "_in_hull", counted)
            tree = dec.group_representation(a)
        assert len(tree.levels) == d
        assert reads["constraint"] <= 2 * d, (d, reads)


# ---------------------------------------------------------------------------
# the structural classifier against the arithmetic one
#
# The oracle is the classification as first written: tau(x) < u for
# invertibility and not x * comp(u) < x for absorption, recomputed on every
# call.


def _arith_classify(view, u, nu, x):
    if view.lt(view.tau(x), u):
        return dec.GROUP_BELOW
    k = _arith_top_kind(view, u, nu, x)
    if k is not None:
        return k
    k = _arith_top_kind(view, u, nu, view.comp(x))
    if k == dec.TOP_C:
        return dec.BOT_C
    if k == dec.TOP_PS:
        return dec.BOT_PS
    return dec.G2 if view.lt(view.x_down(x), x) else dec.INTERIOR


def _arith_top_kind(view, u, nu, x):
    d = view.mul(x, nu)
    if not view.lt(d, x):
        return None
    below = view.x_down(x)
    if below == x:
        return dec.TOP_C
    if view.lt(view.tau(below), u):
        if view.mul(below, u) != x:
            raise StructuralMismatch("invertible cover does not generate")
        return dec.TOP_C
    if below == d:
        return dec.TOP_PS
    raise StructuralMismatch("foreign cover")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PlexError as exc:
        return type(exc)


def _assert_classifier_matches_oracle(a, rngs, mutants=False):
    view = dec.BaseChain(a)
    u = dec.smallest_pos_idem(a)
    nu = view.comp(u)
    views = [view]
    if mutants:
        views += [lc.Mutant(a, "mul"), lc.Mutant(a, "comp")]
    kinds = [dec.classifier(v, u) for v in views]
    invertible, absorbs = view.invertible(u), view.absorber(nu)
    for rng, marker_p in rngs:
        x = ch.sample_elem(a, rng, marker_p=marker_p)
        for y in (x, ch.comp(a, x)):
            assert invertible(y) == ch.lt(a, ch.tau(a, y), u)
            assert absorbs(y) == (not ch.lt(a, ch.mul(a, y, nu), y))
            for v, kind in zip(views, kinds):
                want = _outcome(_arith_classify, v, u, v.comp(u), y)
                assert _outcome(kind, y) == want, (ps.print_elem(a, y), v)


# fixtures with a second factor that is itself a chain: their elements
# can carry a marker below a middle column
NESTED_SECOND_FACTOR = ["II(Z, II(Z, Q))", "I(Q, full, I(Q, idx 1, Q))",
                        "I(Q, idx 1, II(Z, Q))", "IV(Z, idx 2, II(Z, Q))"]
PEELABLE_CASES = (sorted(n for n in SPECS if n not in ("Z", "Q", "LZZ", "LZQ"))
                  + [f"tower{d}" for d in range(1, 6)] + NESTED_SECOND_FACTOR)


def case_spec(name):
    if name.startswith("tower"):
        return _tower(int(name[len("tower"):]))
    return SPECS.get(name, name)


@pytest.mark.parametrize("name", PEELABLE_CASES)
def test_classifier_matches_arithmetic(name):
    spec = case_spec(name)
    rngs = [(random.Random(s), p) for s in range(40) for p in (0.25, 0.6)]
    _assert_classifier_matches_oracle(ps.parse_algebra(spec), rngs,
                                      mutants=True)


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(4))
def test_classifier_matches_arithmetic_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
        dec.smallest_pos_idem(a)
    except PlexError:
        reject()
    _assert_classifier_matches_oracle(a, rngs)


def test_classifier_computes_no_tau_and_does_not_revalidate(monkeypatch):
    a = ps.parse_algebra(_tower(5))
    u = dec.smallest_pos_idem(a)
    rng = random.Random(29)
    xs = [ch.sample_elem(a, rng, marker_p=p) for p in (0.25, 0.6)
          for _ in range(100)]
    kind = dec.classifier(dec.BaseChain(a), u)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for owner, name in ((ch, "tau"), (ch, "res"),
                        (dec.ChainView, "tau"), (dec.ChainView, "res"),
                        (ch, "g_member"), (gr, "g_member")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    kinds = collections.Counter(kind(x) for x in xs)
    assert not calls, calls
    assert len(kinds) > 2, kinds


# ---------------------------------------------------------------------------
# covers: the cover above and the cover below undo each other, on algebras
# and on every peel level


def _peel_levels(view):
    """The peel levels below a view, outermost first: each step quotients
    or restricts at the least strictly positive idempotent, as the branch
    says (dec.peel), until only the unit idempotent is left."""
    levels = []
    while len(view.pos_idems()) > 1:
        view = dec.peel(view)
        levels.append(view)
    return levels


def _assert_covers_mutual(view, xs):
    for p in xs:
        q = view.x_up(p)
        assert q == p or (view.lt(p, q) and view.x_down(q) == p), (p, q)
        d = view.x_down(p)
        assert d == p or (view.lt(d, p) and view.x_up(d) == p), (p, d)


def _assert_covers_mutual_everywhere(a, rngs):
    xs = [ch.sample_elem(a, rng, marker_p=p) for rng, p in rngs]
    view = dec.BaseChain(a)
    _assert_covers_mutual(view, xs)
    for level in _peel_levels(view):
        # carry the samples down: a quotient takes their classes, a
        # restriction projects them by * u
        if isinstance(level, dec.QuotientChain):
            xs = [level.to_class(x) for x in xs]
        else:
            xs = [level.base.mul(x, level.u) for x in xs]
        _assert_covers_mutual(level, xs)


# a second factor of rank 0 whose middle columns sit over part of the
# first factor's group only: a canonical class member over the rest of it
# is a marker element (these peels once raised InvalidElement)
PARTIAL_MIDDLE_RANK0 = ["I(I(Z, full, Z), (triv, full), 1)",
                        "III(I(Q, full, 1), full, idx 2, 1)"]

COVER_CASES = (sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]
               + PARTIAL_MIDDLE_RANK0)


@pytest.mark.parametrize("name", COVER_CASES)
def test_covers_are_mutual(name):
    a = ps.parse_algebra(case_spec(name))
    rngs = [(random.Random(s), p) for s in range(30) for p in (0.25, 0.6)]
    _assert_covers_mutual_everywhere(a, rngs)


@settings(max_examples=120,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(8))
def test_covers_are_mutual_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_covers_mutual_everywhere(a, rngs)


# ---------------------------------------------------------------------------
# restriction membership: contains(x) reads the view's invertibility test,
# against the first formula, u <= tau(x) on the base


def _contains_mismatches(spec):
    """Restriction levels of a spec's peel, and the sampled base elements
    on which contains disagrees with u <= tau(x)."""
    levels, bad = 0, []
    for level in _peel_levels(dec.BaseChain(ps.parse_algebra(spec))):
        if not isinstance(level, dec.RestrictionChain):
            continue
        levels += 1
        base, u = level.base, level.u
        draw = base.sampler(random.Random(levels))
        xs = [draw() for _ in range(60)]
        for x in xs + [base.mul(x, u) for x in xs] + [base.unit(), u]:
            if level.contains(x) != base.le(u, base.tau(x)):
                bad.append((level.describe(), x))
    return levels, bad


# the last regression spec peels by quotients alone
CONTAINS_CASES = (["A", "C", "E", "G", "V4", "V4b"]
                  + [f"tower{d}" for d in range(1, 6)] + REGRESSION_SPECS[:4])


@pytest.mark.parametrize("name", CONTAINS_CASES)
def test_restriction_contains_matches_the_local_unit_formula(name):
    levels, bad = _contains_mismatches(case_spec(name))
    assert levels > 0
    assert bad == []


def test_contains_oracle_catches_a_negated_contains(monkeypatch):
    monkeypatch.setattr(dec.RestrictionChain, "contains",
                        lambda self, x: self.grp(x))
    for name in ("A", "E", REGRESSION_SPECS[0]):
        levels, bad = _contains_mismatches(case_spec(name))
        assert levels > 0 and bad, name


# ---------------------------------------------------------------------------
# one element representation: every element of every peel level is an
# element of the input algebra, and a quotient names each class by its
# canonical member


def _assert_levels_keep_input_elements(a, rngs):
    for level in _peel_levels(dec.BaseChain(a)):
        xs = [level.sampler(rng)() for rng in rngs]
        win = lc.window_elems(level, 1, 2)
        elems = xs + win + [level.unit()] + list(level.pos_idems())
        elems += [f(x) for x in xs + win for f in (level.x_down, level.x_up)]
        for e in elems:
            assert ch.validate_elem(a, e) and level.validate(e), \
                (level.describe(), e)
        if not isinstance(level, dec.QuotientChain):
            continue
        below = ([level.base.sampler(rng)() for rng in rngs]
                 + lc.window_elems(level.base, 1, 2))
        for x in below:
            c = level.to_class(x)
            assert level.to_class(c) == c, (level.describe(), x)
            lo, hi = level.class_min(c), level.class_max(c)
            assert level.le(lo, c) and level.le(c, hi), (level.describe(), c)
            assert level.to_class(lo) == level.to_class(hi) == c, \
                (level.describe(), c)


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 5)]
                         + PARTIAL_MIDDLE_RANK0)
def test_peel_levels_keep_input_elements(name):
    a = ps.parse_algebra(case_spec(name))
    _assert_levels_keep_input_elements(a, [random.Random(s) for s in range(20)])


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(4))
def test_peel_levels_keep_input_elements_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_levels_keep_input_elements(a, [rng for rng, _ in rngs])


# ---------------------------------------------------------------------------
# the step contract: a step is its base seen through project, and the one
# definition of unit, sampler and validate on dec._Step gives what each
# shape once defined for itself; pos_idems is checked with the table reads
# below


def _shape_reference(level):
    """(unit, projection of a draw, validate) as the quotient and the
    restriction each once defined them."""
    base, u = level.base, level.u
    if isinstance(level, dec.QuotientChain):
        to = level.to_class
        return (to(base.unit()), to,
                lambda c: base.validate(c) and to(c) == c)
    return (u, lambda x: base.mul(x, u),
            lambda p: base.validate(p) and level.contains(p))


def _step_contract_breaches(spec):
    """(level, what, element) wherever a peel level of spec breaks the
    step contract."""
    bad = []
    for level in _peel_levels(dec.BaseChain(ps.parse_algebra(spec))):
        name = level.describe()
        unit, projected, validate = _shape_reference(level)
        if level.unit() != unit:
            bad.append((name, "unit", unit))
        draw, ref = level.sampler(random.Random(7)), level.base.sampler(
            random.Random(7))
        for _ in range(50):
            x, want = draw(), projected(ref())
            if x != want:
                bad.append((name, "sampler", want))
        bad += [(name, "validate rejects", x)
                for x in lc.window_elems(level, 1, 2) if not level.validate(x)]
        for x in lc.window_elems(level.base, 1, 2):
            p = level.project(x)
            if level.validate(x) != validate(x) or (
                    p != x and level.validate(x)):
                bad.append((name, "validate accepts", x))
            if isinstance(level, dec.RestrictionChain) and \
                    not level.contains(p):
                bad.append((name, "project leaves", x))
    return bad


STEP_CASES = (sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]
              + REGRESSION_SPECS)


@pytest.mark.parametrize("name", STEP_CASES)
def test_steps_are_their_base_seen_through_project(name):
    assert _step_contract_breaches(case_spec(name)) == []


def test_step_contract_catches_a_validate_that_ignores_project(monkeypatch):
    monkeypatch.setattr(dec._Step, "validate",
                        lambda self, x: self.base.validate(x))
    for name in ("A", "E"):
        assert any(what == "validate accepts" for _, what, _ in
                   _step_contract_breaches(case_spec(name))), name


# a step reads u, its shape and the positive idempotents above u off the
# input algebra's tables, and a restriction maps x * u straight onto
# itself; the arithmetic these replaced stays here as the oracle


def _table_read_breaches(a, rngs):
    """(level, what) wherever a peel level's reads disagree with the
    arithmetic: u against the input algebra's list, the shape against
    branch on the base, pos_idems against the base's list projected, and
    a restriction's projection against the base's projection of x * u,
    on sampled and window elements of a."""
    idems = ch.positive_idempotents(a)
    xs = ([ch.sample_elem(a, rng, marker_p=p) for rng, p in rngs]
          + lc.window_elems(a, 1, 1))
    bad, want_idems = [], idems
    for k, level in enumerate(_peel_levels(dec.BaseChain(a)), start=1):
        base, u, name = level.base, level.u, level.describe()
        if level.k != k or u != idems[k]:
            bad.append((name, "u"))
        idem = dec.branch(base, u) == dec.IDEM_BRANCH
        if type(level) is not (dec.QuotientChain if idem
                               else dec.RestrictionChain):
            bad.append((name, "shape"))
        want_idems = tuple(level.project(e) for e in want_idems[1:])
        if level.pos_idems() != want_idems:
            bad.append((name, "pos_idems"))
        if not idem:
            bad += [(name, "project", x) for x in xs if level.project(x)
                    != base.project(ch.mul(a, x, u))]
    return bad


@pytest.mark.parametrize("name", STEP_CASES + LAW_FAILURE_SPECS)
def test_steps_read_what_the_arithmetic_gives(name):
    rngs = [(random.Random(s), p) for s in range(10) for p in (0.25, 0.6)]
    a = ps.parse_algebra(case_spec(name))
    assert _table_read_breaches(a, rngs) == []


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(4))
def test_steps_read_what_the_arithmetic_gives_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    assert _table_read_breaches(a, rngs) == []


def test_classify_checks_the_element_on_a_peel_level(alg, el):
    # E's quotient glues this element to another class member: it is an
    # element of the base but not of the quotient
    q = dec.peel(alg["E"])
    x = el(alg["E"], "((-1, -1), B)")
    assert q.base.validate(x) and not q.validate(x)
    with pytest.raises(InvalidElement):
        dec.classify(q, dec.smallest_pos_idem(q), x)


def test_gamma_of_beta_is_the_quotient_member(alg):
    seen = []
    for name, a in sorted(alg.items()):
        if len(ch.positive_idempotents(a)) == 1:
            continue
        u = dec.smallest_pos_idem(a)
        if dec.branch(a, u) != dec.IDEM_BRANCH:
            continue
        seen.append(name)
        q = dec.QuotientChain(a, u)
        for x in lc.window_elems(a, 2, 2):
            assert dec.gamma(a, u, dec.beta(a, u, x)) == q.to_class(x), \
                (name, ps.print_elem(a, x))
    assert seen == ["B", "E", "V3", "V3b"]


# ---------------------------------------------------------------------------
# the whole pipeline on random specs: build, laws, represent, rebuild,
# the alpha map and the lex embedding


def _assert_pipeline(spec, seed):
    try:
        a = ps.parse_algebra(spec)
    except PlexError:
        reject()
    r = lc.check_fle_laws(a, budget=10, seed=seed)
    assert r.passed, r.render()
    tree = dec.group_representation(a)
    tree2, rebuilt, alpha = dec.representation_embedding(a)
    assert tree2 == tree
    again = dec.rebuild(tree)
    assert ps.print_algebra(again) == ps.print_algebra(rebuilt)
    assert dec.group_representation(again) == tree  # represent∘rebuild
    r = lc.check_hom(alpha, a, rebuilt, budget=10, seed=seed, law="alpha")
    assert r.passed, r.render()
    monoid, lex = dec.lex_embedding(a)
    r = lc.check_hom(lex, a, monoid, budget=10, seed=seed, law="lex")
    assert r.passed, r.render()
    monoid2, lex2 = dec.lex_embedding(rebuilt)
    assert (monoid2.describe(), monoid2.parts) == \
        (monoid.describe(), monoid.parts)
    rng = random.Random(seed)
    for p in (0.25, 0.6):
        for _ in range(6):
            x = ch.sample_elem(a, rng, marker_p=p)
            assert lex2(alpha(x)) == lex(x), ps.print_elem(a, x)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=st.integers(1, 3).flatmap(_specs), seed=st.integers(0, 999))
def test_pipeline_on_random_specs(spec, seed):
    _assert_pipeline(spec[0], seed)


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(spec=_specs(4), seed=st.integers(0, 999))
def test_pipeline_on_random_depth4_specs(spec, seed):
    _assert_pipeline(spec[0], seed)


# ---------------------------------------------------------------------------
# a sample stream binds its view's sampler once: the bound draw must
# consume the generator and return the elements that one call per draw
# did, on an algebra, a mutated algebra and every peel level

SAMPLER_CASES = (sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]
                 + REGRESSION_SPECS)


def _ref_sample(view, rng):
    """One draw of a view, as its sample(rng) method first made it."""
    if isinstance(view, dec.QuotientChain):
        return view.to_class(_ref_sample(view.base, rng))
    if isinstance(view, dec.RestrictionChain):
        return view.base.mul(_ref_sample(view.base, rng), view.u)
    return ch.sample_elem(view.a, rng)


def _assert_sampler_matches_oracle(view, seed=0, n=500):
    got, want = random.Random(seed), random.Random(seed)
    draw = view.sampler(got)
    for i in range(n):
        assert draw() == _ref_sample(view, want), (view.describe(), i)
    assert got.getstate() == want.getstate(), view.describe()


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_bound_sampler_draws_what_one_call_per_draw_drew(name):
    a = ps.parse_algebra(case_spec(name))
    views = [dec.BaseChain(a), lc.Mutant(a, "mul")]
    views += _peel_levels(views[0])
    for seed, view in enumerate(views):
        _assert_sampler_matches_oracle(view, seed)


def test_sampler_oracle_catches_a_moved_draw(alg, monkeypatch):
    E = alg["E"]
    q = dec.QuotientChain(E, dec.smallest_pos_idem(E))
    _assert_sampler_matches_oracle(q)
    with monkeypatch.context() as m:
        # the base draws with another marker probability
        m.setattr(dec.BaseChain, "sampler",
                  lambda self, rng: functools.partial(
                      sampling._sampler(self.a, 6, 8, 0.3), rng.random,
                      rng.getrandbits))
        with pytest.raises(AssertionError):
            _assert_sampler_matches_oracle(dec.BaseChain(E))
    with monkeypatch.context() as m:
        # the quotient hands out base elements, not their class members
        m.setattr(dec.QuotientChain, "sampler",
                  lambda self, rng: self.base.sampler(rng))
        with pytest.raises(AssertionError):
            _assert_sampler_matches_oracle(q)


# ---------------------------------------------------------------------------
# a quotient maps an invertible element straight to the member of its
# head: to_class must agree with the gamma map through the full classifier

def _gamma_of_elem(view, kind_of, fill, x):
    """Canonical member of the gamma class of x: the coset representative
    of the component x belongs to or closes, the upper end of the gap
    pair x closes, and x itself otherwise.  fill is the canonical fill on
    view: the representative is the fill of the head of an invertible x,
    and of the whole prefix of a component top, which is as long."""
    head = lambda y: view.partial_vec(y)[: view.entries[1].prefix]
    kind = kind_of(x)
    if kind == dec.GROUP_BELOW:
        return fill(head(x))
    if kind == dec.TOP_C:
        return fill(view.partial_vec(x))
    if kind == dec.BOT_C:
        top_rep = fill(view.partial_vec(view.comp(x)))
        return fill(head(view.comp(top_rep)))
    if kind == dec.BOT_PS:
        return view.x_up(x)
    return x


def _assert_to_class_is_gamma(q, xs):
    kind = dec.classifier(q.base, q.u)
    for x in xs:
        assert q.to_class(x) == _gamma_of_elem(q.base, kind, q._fill, x), \
            (q.describe(), x)


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_to_class_matches_the_gamma_map(name):
    a = ps.parse_algebra(case_spec(name))
    # the (2, 2) window below tower 5's first quotient holds 369,050
    # elements, and its deeper windows take seconds each to peel
    bound, max_den = (1, 2) if name == "tower5" else (2, 2)
    for q in _peel_levels(dec.BaseChain(a)):
        if isinstance(q, dec.QuotientChain):
            _assert_to_class_is_gamma(q, lc.window_elems(q.base, bound,
                                                         max_den))


class _ShortHead(dec.QuotientChain):
    """A fast path that reads one head coordinate too few (and pads the
    head with a zero, as the fill refuses a short head)."""

    def to_class(self, x):
        if self.grp(x):
            head = self.base.partial_vec(x)[:self._head_len - 1]
            return self._fill(head + (kn.ZERO,))
        return super().to_class(x)


def test_to_class_oracle_on_the_full_window_of_e(alg):
    E = alg["E"]
    u = dec.smallest_pos_idem(E)
    xs = lc.window_elems(E)
    assert len(xs) == 10108
    _assert_to_class_is_gamma(dec.QuotientChain(E, u), xs)
    with pytest.raises(AssertionError):
        _assert_to_class_is_gamma(_ShortHead(E, u), xs)
