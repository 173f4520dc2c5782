"""Element operations on built chains, against hand-computed values."""

import random
from functools import cmp_to_key, partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import SPECS
from plexalg import build
from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import groups as gr
from plexalg import kernel as kn
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg.errors import (DiscretenessViolated, InvalidElement, PlexError,
                            StructuralMismatch)
from test_decompose import (PEELABLE_CASES, REGRESSION_SPECS, _element_draws,
                            _specs, _tower, case_spec)


def val(a, text):
    return ps.print_elem(a, text) if isinstance(text, tuple) else text


def check_op(a, got, want):
    assert ps.print_elem(a, got) == want


# one row per hand-derived value: (fixture, op, args, result)
ORACLES = [
    ("A", "mul", ["(0, T)", "(0, T)"], "(0, T)"),
    ("A", "comp", ["(0, T)"], "(-1, T)"),
    ("A", "mul", ["(-1, T)", "(-1, T)"], "(-2, T)"),
    ("A", "mul", ["(0, 1/2)", "(0, 1/3)"], "(0, 5/6)"),
    ("A", "mul", ["(1, T)", "(0, 7)"], "(1, T)"),
    ("A", "res", ["(0, T)", "(0, T)"], "(0, T)"),
    ("A", "res", ["(0, 2)", "(0, 1)"], "(0, -1)"),
    ("A", "comp", ["(3, 1/4)"], "(-3, -1/4)"),
    ("A", "tau", ["(0, 1/2)"], "(0, 0)"),
    ("A", "tau", ["(2, T)"], "(0, T)"),
    ("B", "comp", ["(0, T)"], "(0, B)"),
    ("B", "mul", ["(0, B)", "(0, B)"], "(0, B)"),
    ("B", "mul", ["(1, T)", "(1, T)"], "(2, T)"),
    ("B", "mul", ["(1, T)", "(1, B)"], "(2, B)"),
    ("B", "mul", ["(1/2, B)", "(1/2, B)"], "(1, B)"),
    ("B", "mul", ["(1/2, B)", "(0, 5)"], "(1/2, B)"),
    ("B", "comp", ["(1/2, B)"], "(-1/2, B)"),
    ("B", "tau", ["(1/2, B)"], "(0, T)"),
    ("B", "tau", ["(0, 5)"], "(0, 0)"),
    ("B", "res", ["(2, T)", "(0, T)"], "(-2, T)"),
    ("C", "comp", ["(0, T)"], "(-1, T)"),
    ("C", "mul", ["(1, T)", "(2, T)"], "(3, T)"),
    ("G", "mul", ["(2, 1)", "(2, 1)"], "(4, 2)"),
    ("G", "tau", ["(2, 1)"], "(0, 0)"),
    ("V4", "mul", ["(1, T)", "(1, T)"], "(2, T)"),
]

OPS = {"mul": ch.mul, "res": ch.res, "comp": ch.comp, "tau": ch.tau}


@pytest.mark.parametrize("fix,op,args,want", ORACLES)
def test_operation_values(alg, fix, op, args, want):
    a = alg[fix]
    elems = [ps.parse_elem(a, t) for t in args]
    check_op(a, OPS[op](a, *elems), want)


def test_units(alg):
    for name in ("A", "B", "C", "G"):
        a = alg[name]
        assert ps.print_elem(a, ch.unit(a)) == "(0, 0)"
        assert ch.fconst(a) == ch.unit(a)  # odd: t = f
    assert ps.print_elem(alg["Z"], ch.unit(alg["Z"])) == "0"


def test_covers(alg):
    A, B, C, V4 = alg["A"], alg["B"], alg["C"], alg["V4"]
    # A and B are order-dense at their extremal points
    for a, lit in ((A, "(0, T)"), (B, "(0, T)"), (B, "(0, B)")):
        x = ps.parse_elem(a, lit)
        assert ch.x_up(a, x) == x
        assert ch.x_down(a, x) == x
    # C's unit is covered by the least positive idempotent
    t = ch.unit(C)
    assert ps.print_elem(C, ch.x_up(C, t)) == "(0, T)"
    assert ch.x_down(C, ch.x_up(C, t)) == t
    # V4 tops over odd heads sit right above the previous top
    x = ps.parse_elem(V4, "(1, T)")
    assert ps.print_elem(V4, ch.x_down(V4, x)) == "(0, T)"
    assert ch.x_up(V4, ps.parse_elem(V4, "(0, T)")) == x


def test_positive_idempotents(alg):
    assert [ps.print_elem(alg["A"], e)
            for e in ch.positive_idempotents(alg["A"])] == ["(0, 0)", "(0, T)"]
    assert [ps.print_elem(alg["E"], e)
            for e in ch.positive_idempotents(alg["E"])] == [
                "((0, 0), 0)", "((0, 0), T)", "((0, T), B)"]
    assert len(ch.positive_idempotents(alg["Z"])) == 1


def test_graph_constraint_membership(alg):
    G = alg["G"]
    assert ch.validate_elem(G, ps.parse_elem(G, "(2, 1)"))
    with pytest.raises(InvalidElement):
        ps.parse_elem(G, "(1, 1)")  # y must be half the head


def test_order_consistency(alg):
    a = alg["V3"]
    rng = random.Random(5)
    for _ in range(300):
        x, y = ch.sample_elem(a, rng), ch.sample_elem(a, rng)
        c = ch.cmp_elems(a, x, y)
        assert ch.le(a, x, y) == (c <= 0)
        assert ch.lt(a, x, y) == (c < 0)
        assert ch.cmp_elems(a, y, x) == -c


def test_residual_is_derived_from_mul_comp(alg):
    for name in ("A", "B", "C", "G", "E"):
        a = alg[name]
        rng = random.Random(8)
        for _ in range(200):
            x, y = ch.sample_elem(a, rng), ch.sample_elem(a, rng)
            assert ch.res(a, x, y) == ch.comp(a, ch.mul(a, x, ch.comp(a, y)))


def test_sampling_valid_and_deterministic(alg):
    for name in ("A", "B", "C", "G", "E", "V3", "V4", "LZQ"):
        a = alg[name]
        xs = [ch.sample_elem(a, random.Random(42)) for _ in range(3)]
        assert xs[0] == xs[1] == xs[2]
        rng = random.Random(42)
        for _ in range(200):
            assert ch.validate_elem(a, ch.sample_elem(a, rng))


def test_window_elems_sorted_and_valid(alg):
    for name in ("A", "B", "V3", "LZZ"):
        a = alg[name]
        win = lc.window_elems(a, bound=2, max_den=2)
        assert all(ch.validate_elem(a, x) for x in win)
        assert all(ch.lt(a, p, q) for p, q in zip(win, win[1:]))


def test_window_respects_subgroup_markers(alg):
    B = alg["B"]
    win = lc.window_elems(B, bound=2, max_den=2)
    for x in win:
        head, second = x
        if second == ch.TOP:
            assert head[0][1] == 1  # tops only over integer heads


# ---------------------------------------------------------------------------
# trusted predicates on the hot path against the full checks


def _subelements(a, x):
    """(algebra, element) for x and every element nested in it."""
    yield a, x
    if a.is_leaf:
        return
    first, second = x
    yield from _subelements(a.x, first)
    if ch.is_mid(second):
        yield from _subelements(a.y, second[1])


def _full_zset_member(a, first):
    return ch.in_group_part(a.x, first) and (
        a.family == "t"
        or ch.constr_ok(a._structure.zconstr, ch.to_gvec(a.x, first)))


def _full_mid_capable(a, first):
    return ch.in_group_part(a.x, first) and ch.constr_ok(
        a._structure.vconstr, ch.to_gvec(a.x, first))


def _assert_trusted_checks_agree(a, x):
    assert ch.validate_elem(a, x)
    for b, y in _subelements(a, x):
        assert ch._marker_free(b, y) == ch.in_group_part(b, y)
        if not b.is_leaf:
            first = y[0]
            assert ch.zset_member(b, first) == _full_zset_member(b, first)
            assert ch.mid_capable(b, first) == _full_mid_capable(b, first)
    for op in (ch.comp, ch.x_up, ch.x_down):
        assert ch.validate_elem(a, op(a, x)), op.__name__
    assert ch.comp(a, ch.comp(a, x)) == x


def _assert_absorber_matches_product(a, xs):
    idems = list(ch.positive_idempotents(a))
    es = idems + [ch.comp(a, u) for u in idems] + xs[:3]
    for e in es:
        absorbs = ch.absorber(a, e)
        for x in xs + es:
            assert absorbs(x) == (ch.mul(a, x, e) == x), (e, x)


def _assert_agree_on_samples(a, rngs):
    xs = []
    for rng, marker_p in rngs:
        x = ch.sample_elem(a, rng, marker_p=marker_p)
        _assert_trusted_checks_agree(a, x)
        for y in (ch.x_up(a, x), ch.x_down(a, x), ch.comp(a, x)):
            _assert_trusted_checks_agree(a, y)
        xs.append(x)
    _assert_absorber_matches_product(a, xs[:24])


DIFF_CASES = sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]


@pytest.mark.parametrize("name", DIFF_CASES)
def test_trusted_membership_matches_full_checks(name):
    spec = _tower(int(name[5:])) if name.startswith("tower") else SPECS[name]
    a = ps.parse_algebra(spec)
    rngs = [(random.Random(s), p) for s in range(40) for p in (0.25, 0.6)]
    _assert_agree_on_samples(a, rngs)


@settings(max_examples=60)
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(3))
def test_trusted_membership_matches_full_checks_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_agree_on_samples(a, rngs)


def test_chain_operations_do_not_revalidate(monkeypatch):
    a = ps.parse_algebra(_tower(5))
    rng = random.Random(23)
    xs = [ch.sample_elem(a, rng) for _ in range(200)]
    calls = [0]
    g_member = gr.g_member

    def counted(desc, elem):
        calls[0] += 1
        return g_member(desc, elem)

    monkeypatch.setattr(ch, "g_member", counted)
    monkeypatch.setattr(gr, "g_member", counted)
    for op in (ch.comp, ch.x_up, ch.x_down):
        for x in xs:
            op(a, x)
        assert calls[0] == 0, op.__name__


# ---------------------------------------------------------------------------
# canonical fills and windows, built valid without the validators


def _canonical_fills(a, xs):
    """(prefix, element) of every canonical fill the peel step builds for
    the elements xs and their complements: coset representatives of the
    invertible ones and, in the idempotent branch, their gamma classes."""
    u = dec.smallest_pos_idem(a)
    kind = dec.classifier(dec.BaseChain(a), u)
    q = (dec.QuotientChain(a, u) if dec.branch(a, u) == dec.IDEM_BRANCH
         else None)
    fills = []
    raw = ch._elem_from_prefix_raw

    def recording(b, h):
        el = raw(b, h)
        if b is a:
            fills.append((h, el))
        return el

    with mock.patch.object(ch, "_elem_from_prefix_raw", recording):
        for x in xs:
            for y in (x, ch.comp(a, x)):
                if kind(y) == dec.GROUP_BELOW:
                    dec.coset_rep(a, u, y)
                if q is not None:
                    q.to_class(y)
    return fills


def _assert_fills_match_validated_builder(a, xs):
    fills = _canonical_fills(a, xs)
    for h, el in fills:
        # the validating builder raises where h names no element
        assert ch.elem_from_prefix(a, h) == el, h
        assert ch.validate_elem(a, el)
    return fills


@pytest.mark.parametrize("name", PEELABLE_CASES)
def test_canonical_fills_are_valid_without_validation(name):
    a = ps.parse_algebra(case_spec(name))
    xs = [ch.sample_elem(a, random.Random(s), marker_p=p)
          for s in range(40) for p in (0.25, 0.6)]
    assert _assert_fills_match_validated_builder(a, xs)


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs), rngs=_element_draws(4))
def test_canonical_fills_are_valid_on_random_specs(spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
        dec.smallest_pos_idem(a)
    except PlexError:
        reject()
    xs = [ch.sample_elem(a, rng, marker_p=p) for rng, p in rngs]
    _assert_fills_match_validated_builder(a, xs)


def test_validated_prefix_builder_rejects(alg):
    G, B = alg["G"], alg["B"]
    half, one = kn.rmake(1, 2), kn.rmake(1)
    with pytest.raises(InvalidElement):
        ch.elem_from_prefix(G, (one, one))  # the graph wants half the head
    with pytest.raises(InvalidElement):
        ch.elem_from_prefix(alg["A"], (half,))  # the head lies in Z
    with pytest.raises(InvalidElement):
        ch.elem_from_prefix(B, (one, one, one))
    assert ch.elem_from_prefix(G, (kn.rmake(2), one)) == \
        ch._elem_from_prefix_raw(G, (kn.rmake(2), one))


# a second factor of rank 0 adds no coordinate, so a prefix as long as
# the first factor's is already full-length
RANK0_SECOND = ["I(Q, idx 3, 1)", "III(Z, idx 1, idx 3, 1)",
                "I(Z, full, I(SLI(1, full, 1, fullH), full, 1))"]


@pytest.mark.parametrize("spec", RANK0_SECOND)
def test_full_length_prefix_names_a_group_element(spec):
    a = ps.parse_algebra(spec)
    h = (kn.rmake(3),)
    el = ch.elem_from_prefix(a, h)
    assert ch.partial_vec(a, el) == h
    assert ch._marker_free(a, el), ps.print_elem(a, el)
    # the laws that read canonical coset representatives hold
    for law in ("prop9.2", "remark11.4"):
        r = lc.check_named(a, law, budget=30, seed=0)
        assert r.verdict != "FAIL", r.render()


def test_full_length_prefix_without_a_middle_column_names_a_marker():
    # the middle columns of I(X, (triv, full), 1) sit over the first
    # coordinates (0, y) only
    a = ps.parse_algebra("I(I(Z, full, Z), (triv, full), 1)")
    off = (kn.rmake(-1), kn.rmake(2))
    el = ch.elem_from_prefix(a, off)
    assert ps.print_elem(a, el) == "((-1, 2), B)"
    assert ch.partial_vec(a, el) == off
    on = ch.elem_from_prefix(a, (kn.rmake(0), kn.rmake(2)))
    assert ch._marker_free(a, on), ps.print_elem(a, on)


def _window_oracle(a, bound, max_den):
    """The window as first written: every candidate, markers included,
    filtered by validate_elem and sorted by cmp_elems."""
    def raw(b):
        if b.is_leaf:
            ints = [kn.rmake(k, 1) for k in range(-bound, bound + 1)]
            rats = lc._window_rats(bound, max_den)
            pools = [ints if k == "Z" else rats for k in b.group.kinds]
            return [v for v in product(*pools) if ch.validate_elem(b, v)]
        out = []
        for h in raw(b.x):
            for m in ((h, ch.TOP), (h, ch.BOT)):
                if ch.validate_elem(b, m):
                    out.append(m)
            for y in raw(b.y):
                m = (h, ch.mid(y))
                if ch.validate_elem(b, m):
                    out.append(m)
        return out

    return sorted(raw(a), key=cmp_to_key(lambda p, q: ch.cmp_elems(a, p, q)))


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("bound,max_den", [(1, 1), (2, 2), (3, 4)])
def test_window_matches_filter_and_sort(name, bound, max_den):
    a = ps.parse_algebra(SPECS[name])
    assert lc.window_elems(a, bound, max_den) == \
        _window_oracle(a, bound, max_den)


@settings(max_examples=60)
@given(spec=st.integers(1, 3).flatmap(_specs))
def test_window_matches_filter_and_sort_on_random_specs(spec):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    assert lc.window_elems(a, 1, 1) == _window_oracle(a, 1, 1)


# ---------------------------------------------------------------------------
# the compiled sampler against the recursive definition
#
# Reports are reproducible from their seed, so the compiled sampler must
# draw the same elements and leave the generator in the same state as the
# recursive definition below, which draws through randint.


def _ref_rat(rng, kind, magnitude, denominator):
    n = rng.randint(-magnitude, magnitude)
    if kind == "Z":
        return kn.rmake(n)
    return kn.rmake(n, rng.randint(1, denominator))


def _ref_gvec(a, constraints, rng, magnitude, denominator):
    amb = a._structure.ambient
    vec = []
    for j, con in enumerate(constraints):
        if con == gr.TRIV:
            vec.append(kn.ZERO)
        elif con == gr.FULL:
            vec.append(_ref_rat(rng, amb[j], magnitude, denominator))
        elif con[0] == "idx":
            vec.append(kn.rmake(con[1] * rng.randint(-magnitude, magnitude)))
        else:  # graph
            vec.append(kn.rmul(con[1], vec[con[2]]))
    return tuple(vec)


def _ref_elem(a, rng, magnitude=6, denominator=8, marker_p=0.25):
    if a.is_leaf:
        return tuple(_ref_rat(rng, k, magnitude, denominator)
                     for k in a.group.kinds)
    s = a._structure
    if rng.random() < marker_p:
        if a.family == "tb" and rng.random() < 0.5:
            return (_ref_elem(a.x, rng, magnitude, denominator, marker_p),
                    ch.BOT)
        if a.family == "tb":
            vec = _ref_gvec(a.x, s.zconstr, rng, magnitude, denominator)
            return (ch._from_gvec_raw(a.x, vec), ch.TOP)
        return (_ref_elem(a.x, rng, magnitude, denominator, marker_p), ch.TOP)
    if a.is_sublex:
        return ch._from_gvec_raw(a, _ref_gvec(a, s.entries[0].gconstr, rng,
                                              magnitude, denominator))
    first = ch._from_gvec_raw(
        a.x, _ref_gvec(a.x, s.vconstr, rng, magnitude, denominator))
    return (first, ch.mid(_ref_elem(a.y, rng, magnitude, denominator,
                                    marker_p)))


def _ref_group(a, rng, magnitude, denominator):
    """The discreteness probe's draw: a vector of the group part, named
    by the validating prefix builder."""
    vec = _ref_gvec(a, a._structure.entries[0].gconstr, rng, magnitude,
                    denominator)
    return ch.elem_from_prefix(a, vec)


# (magnitude, denominator, marker_p): the defaults, the marker rate the
# property tests use, and non-default ranges
SAMPLER_PARAMS = [(6, 8, 0.25), (6, 8, 0.6), (4, 5, 0.25), (1, 1, 0.6),
                  (9, 16, 0.4)]


def _assert_sampler_matches_definition(a, draws, seed):
    for magnitude, denominator, marker_p in SAMPLER_PARAMS:
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            x = ch.sample_elem(a, got, magnitude, denominator, marker_p)
            assert x == _ref_elem(a, want, magnitude, denominator, marker_p)
        assert got.getstate() == want.getstate()


@pytest.mark.parametrize("name", DIFF_CASES)
def test_sampler_matches_the_recursive_definition(name):
    spec = _tower(int(name[5:])) if name.startswith("tower") else SPECS[name]
    _assert_sampler_matches_definition(ps.parse_algebra(spec), 1000, 5)


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs), seed=st.integers(0, 999))
def test_sampler_matches_the_recursive_definition_on_random_specs(spec, seed):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_sampler_matches_definition(a, 200, seed)


# ---------------------------------------------------------------------------
# builder acceptance against the discreteness probe
#
# The builders decide discreteness of a child's group part from its
# structure alone.  They once re-checked it on 100 group elements drawn at
# seed 0 with coordinates and denominators up to 3: every draw naming an
# element needed both covers, inside the group part.  That probe stays
# here as the oracle for the structural verdict.


def _probe_check_discrete(x, kind):
    """The builders' discreteness check with the sampled probe behind
    the structural test."""
    if not ch.discretely_embedded(x):
        raise DiscretenessViolated(
            f"kind {kind} needs the group part of the child discretely embedded")
    if ch.gr_ambient(x).rank == 0:
        raise DiscretenessViolated("trivial group part is not discretely embedded")
    rng = random.Random(0)
    checked = 0
    for _ in range(100):
        try:
            el = _ref_group(x, rng, 3, 3)
        except InvalidElement:
            continue
        for nb in (ch.x_down(x, el), ch.x_up(x, el)):
            if nb == el or not ch.in_group_part(x, nb):
                raise DiscretenessViolated(
                    "sampled group element has no cover inside the group part")
        checked += 1
    if checked == 0:
        raise DiscretenessViolated("could not sample the group part")


def _verdict(spec):
    try:
        ps.parse_algebra(spec)
    except PlexError as exc:
        return type(exc).__name__, str(exc)
    return "accepted"


def _verdicts_disagreeing_with_the_probe(specs):
    out = []
    for spec in specs:
        got = _verdict(spec)
        with mock.patch.object(build, "_check_discrete", _probe_check_discrete):
            want = _verdict(spec)
        if got != want:
            out.append((spec, got, want))
    return out


# 't' nodes over children that exercise each clause of the structural test
DISCRETENESS_CASES = [
    "II(Lex(Q, Z), Q)", "II(Lex(Z, Q), Q)", "II(1, Z)",
    "II(II(Z, Q), Z)", "IV(I(Q, full, Z), idx 2, Q)",
    "II(SLII(Z, Z, fullH), Z)", "II(SLII(Z, Q, fullH), Z)",
    "SLII(SLI(Z, idx 2, Z, prodH(full, idx 3)), Q, fullH)",
    "II(SLII(Z, Q, graphH(1/2)), Z)", "IV(SLII(Z, Q, prodH(full, triv)), triv, Z)",
]
ACCEPTANCE_CASES = ([case_spec(n) for n in DIFF_CASES] + REGRESSION_SPECS
                    + DISCRETENESS_CASES)


def test_builder_verdict_matches_the_probe():
    assert _verdicts_disagreeing_with_the_probe(ACCEPTANCE_CASES) == []


@given(spec=st.integers(1, 4).flatmap(_specs))
def test_builder_verdict_matches_the_probe_on_random_specs(spec):
    assert _verdicts_disagreeing_with_the_probe([spec[0]]) == []


def _leaves_always_discrete(real, a):
    return a.is_leaf and bool(a.group.kinds) or real(a)


def _discreteness_from_x(real, a):
    return real(a.x) if a.family == "t" and not a.is_sublex else real(a)


def _sublex_always_discrete(real, a):
    return a.is_sublex or real(a)


@pytest.mark.parametrize("wrong", [_leaves_always_discrete,
                                   _discreteness_from_x,
                                   _sublex_always_discrete])
def test_probe_oracle_catches_a_wrong_structural_test(wrong):
    # the builders and the oracle's structural stage both read the wrong
    # test, so only the probe can tell
    bad = partial(wrong, ch.discretely_embedded)
    with mock.patch.object(ch, "discretely_embedded", bad), \
            mock.patch.object(build, "discretely_embedded", bad):
        assert _verdicts_disagreeing_with_the_probe(ACCEPTANCE_CASES)


# ---------------------------------------------------------------------------
# positive idempotents: verified once per node, cached on the algebra


def _counted_calls(monkeypatch, names=("mul", "cmp_elems")):
    """Counter of calls to the named chains functions, recursive calls
    included."""
    calls = [0]
    for name in names:
        def wrapper(*args, _fn=getattr(ch, name)):
            calls[0] += 1
            return _fn(*args)
        monkeypatch.setattr(ch, name, wrapper)
    return calls


def _deep_tb(depth):
    return "I(" * depth + "Z" + ", full, Q)" * depth


def test_build_calls_per_node_grow_linearly_in_depth(monkeypatch):
    per_node = {}
    for d in (20, 40):
        with monkeypatch.context() as mp:
            calls = _counted_calls(mp)
            ps.parse_algebra(_deep_tb(d))
        per_node[d] = calls[0] / d
    assert per_node[40] * 20 <= per_node[20] * 40, per_node


@pytest.mark.parametrize("kind,x,y,sub", [
    ("I", "II(Z, Q)", "Lex(Z, Q)", (gr.FULL, gr.idx(3))),
    ("II", "I(Z, full, Z)", "II(Z, Q)", None),
    ("IV", "II(Z, Z)", "Q", (gr.idx(2), gr.FULL)),
])
def test_idempotent_verification_bites_on_the_new_node(monkeypatch, kind, x,
                                                      y, sub):
    x, y = ps.parse_algebra(x), ps.parse_algebra(y)
    args = {"I": {"zsub": sub}, "IV": {"vsub": sub}}.get(kind, {})
    node = build.build_type(kind, x, y, **args)
    # all but the unit, whose wrong square the local-unit law catches first
    wrong = set(ch.positive_idempotents(node)[1:])
    real = ch.mul

    def mul(a, p, q):
        if p == q and p in wrong and a == node:
            return ch.unit(a)
        return real(a, p, q)

    monkeypatch.setattr(ch, "mul", mul)
    with pytest.raises(StructuralMismatch, match="bad idempotent"):
        build.build_type(kind, x, y, **args)


def test_positive_idempotents_are_verified_once(monkeypatch):
    e = ps.parse_algebra(SPECS["E"])
    a = ch.Algebra(kind="I", x=e, y=e, zsub=(gr.FULL,) * 3)  # not yet built
    with monkeypatch.context() as mp:
        calls = _counted_calls(mp)
        first = ch.positive_idempotents(a)
    assert calls[0] > 0
    calls = _counted_calls(monkeypatch)
    assert ch.positive_idempotents(a) is first
    assert calls[0] == 0
