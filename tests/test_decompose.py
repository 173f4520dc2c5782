"""Peeling at the least strictly positive idempotent.

Classification values, quotient and restriction behavior, representation
trees, and the closure that unifies the two branches; every expected
value here was worked out by hand on the fixture definitions.
"""

import collections
import functools
import inspect
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from conftest import SPECS
from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import groups as gr
from plexalg import kernel as kn
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.build import build_sublex
from plexalg.errors import (OnlyUnitIdempotent, PlexError, PreconditionFailed,
                            StructuralMismatch, WrongBranch)
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
    real = ch._elem_from_prefix_raw

    def recording(b, h):
        if b is E:
            heads.append(h)
        return real(b, h)

    monkeypatch.setattr(ch, "_elem_from_prefix_raw", recording)
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

    monkeypatch.setattr(dec, "build_sublex", counted)
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


def _view_walk(view):
    """(tree, rebuilt, element map) by stacking one view per step."""
    idems = view.pos_idems()
    if len(idems) != len(view.entries):
        raise StructuralMismatch(
            "idempotent count disagrees with the coordinate ladder")
    if len(idems) == 1:
        e0 = view.entries[0]
        if any(c != FULL for c in e0.gconstr):
            raise StructuralMismatch("group level with nontrivial constraints")
        desc = GroupDesc(tuple(view.ambient[: e0.prefix]))
        return dec.RepTree(base=desc, levels=()), ch.leaf(desc), view.partial_vec
    child = dec.peel(view)
    u, nu = child.u, child.nu
    idem_b = child.branch == dec.IDEM_BRANCH
    tree, child_alg, child_fn = _view_walk(child)
    level, free = dec._level_record(view.ambient, view.entries, idem_b)
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

    for owner, name in ((ch, "tau"), (ch, "res"), (ch.ChainView, "tau"),
                        (ch.ChainView, "res"), (ch, "g_member"),
                        (gr, "g_member")):
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
        m.setattr(ch.BaseChain, "sampler", lambda self, rng: functools.partial(
            ch._sampler(self.a, 6, 8, 0.3), rng.random, rng.getrandbits))
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
