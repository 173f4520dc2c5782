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
                            _peel_levels, _specs, _tower, case_spec)


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
    # on a group leaf the cover above adds 1 to a trailing Z coordinate
    # and does not exist otherwise
    for spec in ("Z", "Q", "Lex(Z, Q)", "Lex(Q, Z)", "Lex(Z, Z)", "1"):
        a = ps.parse_algebra(spec)
        kinds = a.group.kinds
        for n in (-3, 0, 2):
            p = tuple(kn.rmake(n) if k == "Z" else kn.rmake(n, 2)
                      for k in kinds)
            want = p[:-1] + (kn.rmake(n + 1),) if kinds[-1:] == ("Z",) else p
            assert ch.x_up(a, p) == want, (spec, p)
            assert ch.x_down(a, want) == p


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


def _ref_in_group_part(a, x) -> bool:
    """x lies in the group part (invertible elements) of a: the full
    check of an arbitrary value, against which the trusted tests are
    compared."""
    if a.is_leaf:
        return gr.g_member(a.group, x)
    if not (isinstance(x, tuple) and len(x) == 2 and ch.is_mid(x[1])):
        return False
    first, second = x
    if not (_ref_in_group_part(a.x, first)
            and _ref_in_group_part(a.y, second[1])):
        return False
    return ch._checks_ok(a._structure.gconstr, _ref_to_gvec(a, x))


def _full_zset_member(a, first):
    return _ref_in_group_part(a.x, first) and (
        a.family == "t"
        or ch._checks_ok(a._structure.zconstr, _ref_to_gvec(a.x, first)))


def _full_mid_capable(a, first):
    return _ref_in_group_part(a.x, first) and ch._checks_ok(
        a._structure.vconstr, _ref_to_gvec(a.x, first))


def _assert_trusted_checks_agree(a, x):
    assert ch.validate_elem(a, x)
    for b, y in _subelements(a, x):
        assert b._ops.free(y) == _ref_in_group_part(b, y)
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
# a graph over a first factor that is an inner node: the graph's source is
# X's last coordinate, nested below the first slot
GRAPH_OVER_NODE = ["SLI(I(Z, full, 1), full, Q, graphH(1/2))"]


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
    raw = dec._elem_from_prefix_raw  # the builder BaseChain.fill_prefix calls

    def recording(b, h):
        el = raw(b, h)
        if b is a:
            fills.append((h, el))
        return el

    with mock.patch.object(dec, "_elem_from_prefix_raw", recording):
        for x in xs:
            for y in (x, ch.comp(a, x)):
                if kind(y) == dec.GROUP_BELOW:
                    dec._rep_of(dec.BaseChain(a), y)
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
    assert a._ops.free(el), ps.print_elem(a, el)
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
    assert a._ops.free(on), ps.print_elem(a, on)


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
    for j, con in enumerate(ch._dense(constraints, len(amb))):
        if con == gr.TRIV:
            vec.append(kn.ZERO)
        elif con == gr.FULL:
            vec.append(_ref_rat(rng, amb[j], magnitude, denominator))
        elif con[0] == "idx":
            vec.append(kn.rmake(con[1] * rng.randint(-magnitude, magnitude)))
        else:  # graph
            vec.append(kn.rmul(con[1], vec[j - 1]))
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
            return (a.x._coords.from_gvec(vec), ch.TOP)
        return (_ref_elem(a.x, rng, magnitude, denominator, marker_p), ch.TOP)
    if a.is_sublex:
        return a._coords.from_gvec(_ref_gvec(a, s.gconstr, rng,
                                             magnitude, denominator))
    first = a.x._coords.from_gvec(
        _ref_gvec(a.x, s.vconstr, rng, magnitude, denominator))
    return (first, ch.mid(_ref_elem(a.y, rng, magnitude, denominator,
                                    marker_p)))


def _ref_group(a, rng, magnitude, denominator):
    """The discreteness probe's draw: a vector of the group part, named
    by the validating prefix builder."""
    vec = _ref_gvec(a, a._structure.gconstr, rng, magnitude,
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


@pytest.mark.parametrize("name", DIFF_CASES + GRAPH_OVER_NODE)
def test_sampler_matches_the_recursive_definition(name):
    _assert_sampler_matches_definition(ps.parse_algebra(case_spec(name)),
                                       1000, 5)


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
            if nb == el or not _ref_in_group_part(x, nb):
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
    "II(II(Z, Q), Z)", "IV(I(Q, full, Z), (full, idx 2), Q)",
    "II(SLII(Z, Z, fullH), Z)", "II(SLII(Z, Q, fullH), Z)",
    "SLII(SLI(Z, idx 2, Z, prodH(idx 2, idx 3)), Q, fullH)",
    "II(SLII(Z, Q, graphH(1/2)), Z)", "IV(SLII(Z, Q, prodH(full, triv)), triv, Z)",
    # a pinned last coordinate over a full Q one: no slice step, so the
    # group part is not discrete
    "II(SLII(Z, Lex(Q, Z), prodH(full, (full, triv))), Z)",
]
ACCEPTANCE_CASES = ([case_spec(n) for n in DIFF_CASES] + REGRESSION_SPECS
                    + DISCRETENESS_CASES)


def test_builder_verdict_matches_the_probe():
    assert _verdicts_disagreeing_with_the_probe(ACCEPTANCE_CASES) == []


@pytest.mark.parametrize("spec", DISCRETENESS_CASES)
def test_discreteness_cases_reach_the_discreteness_clause(spec):
    # a case refused for any other reason never exercises its clause
    verdict = _verdict(spec)
    assert verdict == "accepted" or verdict[0] == "DiscretenessViolated", \
        verdict


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
# algebras and sublex restrictions are immutable values


@pytest.mark.parametrize("name", sorted(SPECS))
def test_parses_of_one_spec_are_equal_values(alg, name):
    a = ps.parse_algebra(SPECS[name])
    assert a is not alg[name]
    assert a == alg[name] and hash(a) == hash(alg[name])
    assert [b for b in alg.values() if b == a] == [alg[name]]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_algebra_attributes_cannot_be_assigned_or_deleted(alg, name):
    a = alg[name]
    for attr in ("kind", "group", "x", "y", "zsub", "vsub", "h", "_ops",
                 "is_leaf", "fresh"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == ps.parse_algebra(SPECS[name])


def test_ops_are_compiled_once_per_node(monkeypatch):
    compiled = []

    def compile_ops(a, _real=ch._compile_ops):
        compiled.append(a)
        return _real(a)

    monkeypatch.setattr(ch, "_compile_ops", compile_ops)
    a = ps.parse_algebra(SPECS["E"])
    nodes = [a, a.x, a.x.x, a.x.y, a.y]
    for n in nodes:
        assert n._ops is n._ops
    assert sorted(map(id, compiled)) == sorted(map(id, nodes))


def test_sublex_restrictions_of_different_shapes_are_unequal():
    c = kn.rmake(1, 2)
    hs = [ch.FullH(), ch.ProdH((gr.FULL,), (gr.TRIV,)), ch.GraphH(c)]
    assert [[g == h for g in hs] for h in hs] == \
        [[True, False, False], [False, True, False], [False, False, True]]
    assert ch.ProdH((gr.FULL,), (gr.TRIV,)) == ch.ProdH((gr.FULL,), (gr.TRIV,))
    assert ch.GraphH(c) != ch.GraphH(kn.rmake(1, 3))


# ---------------------------------------------------------------------------
# positive idempotents: verified once per node, cached on the algebra


def _counted_calls(monkeypatch, names=("mul", "cmp")):
    """Counter of calls to the named compiled operations of every node
    compiled while it is in place.  A node's closures call its children's
    closures directly, so the calls a product or comparison makes on each
    level below count too."""
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    def compile_counted(a, _real=ch._compile_ops):
        ops = _real(a)
        return ops._replace(**{n: counting(getattr(ops, n)) for n in names})

    monkeypatch.setattr(ch, "_compile_ops", compile_counted)
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


def _deep_ii(depth):
    return "II(Z, " * depth + "Q" + ")" * depth


_ENTRY_TAGS = (gr.FULL[0], gr.TRIV[0], "idx", "graph")


def _constraint_entries(obj, skip=frozenset()):
    """(constraint entries held by the tuples reachable from obj, the ids
    of those tuples), passing over the tuples whose ids are in skip.  An
    entry counts once per tuple that holds it, dense or as an (index,
    entry) pair."""
    count, seen, todo = 0, set(), [obj]
    while todo:
        o = todo.pop()
        if not isinstance(o, tuple) or id(o) in seen or id(o) in skip:
            continue
        seen.add(id(o))
        for c in o:
            if isinstance(c, tuple) and c and c[0] in _ENTRY_TAGS:
                count += 1
            else:
                todo.append(c)
    return count, seen


@pytest.mark.parametrize("spec", [_deep_tb, _deep_ii],
                         ids=["I-tower", "II-chain"])
def test_structure_entries_written_per_node_grow_with_its_coordinates(
        monkeypatch, spec):
    # a node shares its children's constraint vectors wherever it cuts
    # nothing, and the ladder is read off them for the node asked only;
    # copying every level's vector into each node wrote about h**2 entries
    # for a node h deep in the II-chain
    for d in (50, 100, 200):
        written = []

        def build_counted(node, _real=ch._build_structure):
            s = _real(node)
            old = set()
            if not node.is_leaf:
                for c in (node.x, node.y):
                    old |= _constraint_entries(c._structure)[1]
            written.append((_constraint_entries(s, old)[0], len(s.ambient)))
            return s

        with monkeypatch.context() as mp:
            mp.setattr(ch, "_build_structure", build_counted)
            ch.ladder(ps.parse_algebra(spec(d)))
        assert len(written) == 2 * d + 1
        assert all(n <= 4 * k for n, k in written), (d, max(written))


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
    calls = _counted_calls(monkeypatch)
    first = ch.positive_idempotents(a)
    made = calls[0]
    assert made > 0
    assert ch.positive_idempotents(a) is first
    assert calls[0] == made


# ---------------------------------------------------------------------------
# the unit, cached on each node, against the recursion it replaced


def _ref_unit(a):
    if a.is_leaf:
        return kn.vzero(a.group.rank)
    return (_ref_unit(a.x), ch.mid(_ref_unit(a.y)))


def _assert_unit_matches_the_recursion(a):
    assert ch.unit(a) == _ref_unit(a)
    assert ch.positive_idempotents(a)[0] == ch.unit(a)


@pytest.mark.parametrize("name", DIFF_CASES)
def test_cached_unit_matches_the_recursive_definition(name):
    _assert_unit_matches_the_recursion(ps.parse_algebra(case_spec(name)))


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs))
def test_cached_unit_matches_the_recursive_definition_on_random_specs(spec):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_unit_matches_the_recursion(a)


# ---------------------------------------------------------------------------
# the sparse ladder against the dense one it replaced
#
# The oracle builds every node's ladder as first written: dense vectors,
# each node copying its children's, level by level.


def _ref_ladder(a):
    """(ambient, [(prefix, gconstr, zconstr)], vconstr, zconstr), dense."""
    if a.is_leaf:
        k = a.group.rank
        return a.group.kinds, [(k, (gr.FULL,) * k, None)], None, None
    x_amb, x_entries = _ref_ladder(a.x)[:2]
    y_amb, y_entries = _ref_ladder(a.y)[:2]
    xlen, xg = x_entries[0][:2]

    def merge(u, v):
        return tuple(ch.merge_constr(p, q) for p, q in zip(u, v))

    family, cut = ch.NODE_KINDS[a.kind]
    zc = merge(xg, a.zsub) if family == "tb" else None
    vc = xg if zc is None else zc
    if cut == "vsub":
        vc = merge(vc, a.vsub)
    elif isinstance(a.h, ch.ProdH):
        vc = merge(vc, a.h.zpart)
    y_head = y_entries[0][1]
    if isinstance(a.h, ch.ProdH):
        y_head = merge(y_head, a.h.ypart)
    elif isinstance(a.h, ch.GraphH):
        y_head = (("graph", a.h.c),)
    entries = []
    for j, (prefix, g, z) in enumerate(y_entries):
        g = vc + (y_head if j == 0 else g)
        if j < len(y_entries) - 1:
            z = None if z is None else vc + z
        else:
            z = zc
        entries.append((xlen + prefix, g, z))
    return x_amb + y_amb, entries + x_entries, vc, zc


def _assert_ladder_matches_the_dense_one(a):
    amb, entries, vc, zc = _ref_ladder(a)
    got_amb, got = ch.ladder(a)
    assert got_amb == amb
    assert [(e.prefix, ch._dense(e.gconstr, e.prefix),
             None if e.zconstr is None else ch._dense(e.zconstr, below.prefix))
            for e, below in zip(got, got[1:] + (None,))] == entries
    s = a._structure
    assert ch._dense(s.gconstr, len(amb)) == entries[0][1]
    if not a.is_leaf:
        assert ch._dense(s.vconstr, a.xlen) == vc
        assert (s.zconstr is None and zc is None
                or ch._dense(s.zconstr, a.xlen) == zc)


@pytest.mark.parametrize("name",
                         DIFF_CASES + REGRESSION_SPECS + GRAPH_OVER_NODE)
def test_ladder_matches_the_dense_definition(name):
    _assert_ladder_matches_the_dense_one(ps.parse_algebra(case_spec(name)))


@settings(max_examples=80)
@given(spec=st.integers(1, 3).flatmap(_specs))
def test_ladder_matches_the_dense_definition_on_random_specs(spec):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_ladder_matches_the_dense_one(a)


# ---------------------------------------------------------------------------
# compiled operations against the recursive definitions
#
# The oracle is mul, comp, cmp_elems and the marker test as first written:
# one recursion over the algebra tree that reads each node's family on
# every call.  Its covers and coordinate maps follow below.


def _ref_marker_free(a, x):
    if a.is_leaf:
        return True
    first, second = x
    return (isinstance(second, tuple) and _ref_marker_free(a.x, first)
            and _ref_marker_free(a.y, second[1]))


def _ref_cmp(a, p, q):
    if a.is_leaf:
        return kn.vcmp(p, q)
    c = _ref_cmp(a.x, p[0], q[0])
    if c != 0:
        return c
    sp, sq = p[1], q[1]
    rp = 0 if sp == ch.BOT else 2 if sp == ch.TOP else 1
    rq = 0 if sq == ch.BOT else 2 if sq == ch.TOP else 1
    if rp != rq:
        return -1 if rp < rq else 1
    if rp == 1:
        return _ref_cmp(a.y, sp[1], sq[1])
    return 0


def _ref_mul(a, p, q):
    if a.is_leaf:
        return kn.vadd(p, q)
    first = _ref_mul(a.x, p[0], q[0])
    sp, sq = p[1], q[1]
    if a.family == "tb":
        if sp == ch.BOT or sq == ch.BOT:
            return (first, ch.BOT)
        if sp == ch.TOP or sq == ch.TOP:
            return (first, ch.TOP)
    else:
        if sp == ch.TOP or sq == ch.TOP:
            return (first, ch.TOP)
    return (first, ch.mid(_ref_mul(a.y, sp[1], sq[1])))


def _ref_comp(a, p):
    if a.is_leaf:
        return kn.vneg(p)
    first, second = p
    nf = _ref_comp(a.x, first)
    if a.family == "tb":
        if second == ch.TOP:
            return (nf, ch.BOT)
        if second == ch.BOT:
            top = _ref_zset_member(a, first)
            return (nf, ch.TOP if top else ch.BOT)
        return (nf, ch.mid(_ref_comp(a.y, second[1])))
    if second == ch.TOP:
        if _ref_marker_free(a.x, first):
            below = _ref_x_down(a.x, nf)
            if below == nf:
                raise StructuralMismatch("group part of the child is not discrete")
            return (below, ch.TOP)
        return (nf, ch.TOP)
    return (nf, ch.mid(_ref_comp(a.y, second[1])))


def _result(fn, *args):
    """fn's value, or the class of the StructuralMismatch it raises."""
    try:
        return fn(*args)
    except StructuralMismatch as exc:
        return type(exc)


def _op_pool(a, rngs):
    """Samples of a with their covers and complements, the positive
    idempotents and their complements, and the valid elements that put
    one sample's second slot over another's first: pairs drawn from it
    share first coordinates and meet every column kind."""
    pool = list(ch.positive_idempotents(a))
    pool += [ch.comp(a, e) for e in pool]
    xs = [ch.sample_elem(a, rng, marker_p=p) for rng, p in rngs]
    for x in xs:
        pool += [x, ch.x_down(a, x), ch.x_up(a, x), ch.comp(a, x)]
    if not a.is_leaf:
        swaps = ((x[0], y[1]) for x, y in product(xs, xs))
        pool += [z for z in swaps if ch.validate_elem(a, z)]
    return pool


def _assert_ops_match_reference(a, pool):
    for x in pool:
        assert a._ops.free(x) == _ref_marker_free(a, x), x
        assert _result(ch.comp, a, x) == _result(_ref_comp, a, x), x
    for x, y in product(pool, pool):
        assert ch.mul(a, x, y) == _ref_mul(a, x, y), (x, y)
        assert ch.cmp_elems(a, x, y) == _ref_cmp(a, x, y), (x, y)


def _op_rngs(n):
    return [(random.Random(s), p) for s in range(n) for p in (0.25, 0.6)]


OP_CASES = DIFF_CASES + REGRESSION_SPECS


@pytest.mark.parametrize("name", OP_CASES)
def test_compiled_operations_match_the_recursive_definitions(name):
    a = ps.parse_algebra(case_spec(name))
    _assert_ops_match_reference(a, _op_pool(a, _op_rngs(6)))


@settings(max_examples=60)
@given(spec=st.integers(1, 4).flatmap(_specs), rngs=_element_draws(4))
def test_compiled_operations_match_the_recursive_definitions_on_random_specs(
        spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_ops_match_reference(a, _op_pool(a, rngs))


# 't' nodes over a child whose group part is not discretely embedded: the
# builders refuse them, so they are assembled by hand
NOT_DISCRETE = [("II", "Q", "Q"), ("II", "Lex(Z, Q)", "Z"),
                ("II", "I(Q, full, Q)", "Q")]


@pytest.mark.parametrize("kind,x,y", NOT_DISCRETE)
def test_compiled_comp_raises_where_the_definition_raises(kind, x, y):
    a = ch.Algebra(kind=kind, x=ps.parse_algebra(x), y=ps.parse_algebra(y))
    pool = [ch.sample_elem(a, rng, marker_p=p) for rng, p in _op_rngs(20)]
    raised = [x for x in pool if _result(_ref_comp, a, x) is StructuralMismatch]
    assert raised
    _assert_ops_match_reference(a, pool)


def _with_ops(a, group="_ops", **closures):
    """A fresh node equal to a whose compiled closures in group (_ops,
    _coords or _covers) are replaced."""
    m = ch.Algebra(a.kind, a.group, a.x, a.y, a.zsub, a.vsub, a.h)
    vars(m)[group] = getattr(a, group)._replace(**closures)
    return m


def _tb_mul_top_first(a):
    """A 'tb' product that tests TOP before BOT."""
    mx, my = a.x._ops.mul, a.y._ops.mul

    def mul(p, q):
        first = mx(p[0], q[0])
        sp, sq = p[1], q[1]
        if sp == ch.TOP or sq == ch.TOP:
            return (first, ch.TOP)
        if sp == ch.BOT or sq == ch.BOT:
            return (first, ch.BOT)
        return (first, ch.mid(my(sp[1], sq[1])))

    return {"mul": mul}


def _tb_comp_swapped(a):
    """A 'tb' complement that sends BOT to BOT and TOP up the Z test."""
    real = a._ops.comp

    def comp(p):
        first, second = p
        if second == ch.TOP:
            return (real(p)[0], ch.TOP if ch.zset_member(a, first) else ch.BOT)
        if second == ch.BOT:
            return (real(p)[0], ch.BOT)
        return real(p)

    return {"comp": comp}


def _cmp_without_y(a):
    """An equal-head order that ties any two middle columns over one first
    coordinate without comparing their Y parts."""
    real = a._ops.cmp

    def cmp(p, q):
        if p[0] == q[0] and ch.is_mid(p[1]) and ch.is_mid(q[1]):
            return 0
        return real(p, q)

    return {"cmp": cmp}


@pytest.mark.parametrize("name", ["B", "E", "V3b", "tower3"])
@pytest.mark.parametrize("mutant", [_tb_mul_top_first, _tb_comp_swapped,
                                    _cmp_without_y])
def test_reference_catches_a_wrong_closure(name, mutant):
    a = ps.parse_algebra(case_spec(name))
    assert a.family == "tb"
    pool = _op_pool(a, _op_rngs(6))
    _assert_ops_match_reference(a, pool)
    with pytest.raises(AssertionError):
        _assert_ops_match_reference(_with_ops(a, **mutant(a)), pool)


@pytest.mark.parametrize("name", sorted(SPECS)
                         + [f"tower{d}" for d in range(1, 6)])
def test_a_view_calls_the_compiled_closures(name):
    # a primitive called through a view is its algebra's closure, one call,
    # and every peel level below the view orders by that same closure
    a = ps.parse_algebra(case_spec(name))
    view = dec.BaseChain(a)
    assert view.mul is a._ops.mul
    assert view.comp is a._ops.comp
    assert view.cmp is a._ops.cmp
    for level in _peel_levels(view):
        assert level.cmp is view.cmp


# ---------------------------------------------------------------------------
# compiled covers and coordinate maps against the recursive definitions
#
# x_down, to_gvec, partial_vec, from_gvec and _elem_from_prefix_raw as
# first written: each call recurses through the tree, reads every node's
# kind and recomputes the column tests and slice bounds from the ladder.


def _ref_to_gvec(a, x):
    if a.is_leaf:
        return x
    first, second = x
    return _ref_to_gvec(a.x, first) + _ref_to_gvec(a.y, second[1])


def _ref_from_gvec(a, vec):
    if a.is_leaf:
        if len(vec) != a.group.rank:
            raise InvalidElement("vector arity %d, expected %d"
                                 % (len(vec), a.group.rank))
        return vec
    xlen = a.xlen
    return (_ref_from_gvec(a.x, vec[:xlen]),
            ch.mid(_ref_from_gvec(a.y, vec[xlen:])))


def _ref_partial_vec(a, x):
    if a.is_leaf:
        return x
    first, second = x
    if ch.is_mid(second):
        return _ref_to_gvec(a.x, first) + _ref_partial_vec(a.y, second[1])
    return _ref_partial_vec(a.x, first)


def _ref_zset_member(a, first):
    return _ref_marker_free(a.x, first) and (
        a.family == "t"
        or ch._checks_ok(a._structure.zconstr, _ref_to_gvec(a.x, first)))


def _ref_mid_capable(a, first):
    return _ref_marker_free(a.x, first) and ch._checks_ok(
        a._structure.vconstr, _ref_to_gvec(a.x, first))


def _ref_elem_from_prefix(a, h):
    if a.is_leaf:
        if len(h) != a.group.rank:
            raise InvalidElement("prefix arity %d, expected %d"
                                 % (len(h), a.group.rank))
        return h
    xlen = a.xlen
    if len(h) > xlen:
        return (_ref_from_gvec(a.x, h[:xlen]),
                ch.mid(_ref_elem_from_prefix(a.y, h[xlen:])))
    first = (_ref_elem_from_prefix(a.x, h) if len(h) < xlen
             else _ref_from_gvec(a.x, h))
    if len(h) == xlen == len(a._structure.ambient) and \
            _ref_mid_capable(a, first):
        return (first, ch.mid(_ref_elem_from_prefix(a.y, ())))
    return (first, ch.BOT if a.family == "tb" else ch.TOP)


def _ref_slice_pinned_value(a, first):
    cons = ch._y_constraints(a)
    if any(c != gr.TRIV and c[0] != "graph" for c in cons):
        return None
    vec = _ref_to_gvec(a.x, first)
    return tuple(kn.ZERO if c == gr.TRIV else kn.rmul(c[1], vec[-1])
                 for c in cons)


def _ref_slice_step_down(a, first, yv):
    if not a.is_sublex:
        below = _ref_x_down(a.y, yv)
        return None if below == yv else below
    step = ch._slice_step(a)
    if step is None:
        return None
    i, m = step
    out = list(yv)
    out[i] = kn.rsub(out[i], m)
    return tuple(out)


def _ref_universe_min(a):
    if a.is_leaf:
        return () if a.group.rank == 0 else None
    xmin = _ref_universe_min(a.x)
    if xmin is None:
        return None
    if a.family == "tb":
        return (xmin, ch.BOT)
    if _ref_mid_capable(a, xmin):
        m = _ref_slice_min(a, xmin)
        return None if m is None else (xmin, ch.mid(m))
    return (xmin, ch.TOP)


def _ref_slice_min(a, first):
    if not a.is_sublex:
        return _ref_universe_min(a.y)
    return _ref_slice_pinned_value(a, first)


def _ref_slice_max(a, first):
    if not a.is_sublex:
        m = _ref_universe_min(a.y)
        return None if m is None else _ref_comp(a.y, m)
    return _ref_slice_pinned_value(a, first)


def _ref_x_down(a, p):
    if a.is_leaf:
        k = a.group.kinds
        if k and k[-1] == "Z":
            return p[:-1] + (kn.rsub(p[-1], kn.ONE),)
        return p
    first, second = p
    if ch.is_mid(second):
        yv = second[1]
        below = _ref_slice_step_down(a, first, yv)
        if below is not None:
            return (first, ch.mid(below))
        if _ref_slice_min(a, first) == yv:
            if a.family == "tb":
                return (first, ch.BOT)
            xd = _ref_x_down(a.x, first)
            return (xd, ch.TOP) if xd != first else p
        return p
    if second == ch.TOP:
        if _ref_mid_capable(a, first):
            m = _ref_slice_max(a, first)
            return p if m is None else (first, ch.mid(m))
        if a.family == "tb":
            return (first, ch.BOT)
        xd = _ref_x_down(a.x, first)
        return (xd, ch.TOP) if xd != first else p
    xd = _ref_x_down(a.x, first)
    if xd == first:
        return p
    return (xd, ch.TOP) if _ref_zset_member(a, xd) else (xd, ch.BOT)


def _outcome(fn, *args):
    """fn's value, or the class and message of the PlexError it raises."""
    try:
        return fn(*args)
    except PlexError as exc:
        return type(exc), str(exc)


def _assert_covers_match_reference(a, pool):
    assert ch.universe_min(a) == _ref_universe_min(a)
    vecs = set()
    for x in pool:
        below = ch.x_down(a, x)
        # the reference steps a slice as chains._slice_step says, so only
        # membership catches a step along a pinned coordinate
        assert below == _ref_x_down(a, x) and ch.validate_elem(a, below), x
        assert ch.partial_vec(a, x) == _ref_partial_vec(a, x), x
        vecs.add(ch.partial_vec(a, x))
        if a._ops.free(x):
            v = ch.to_gvec(a, x)
            assert v == _ref_to_gvec(a, x), x
            assert a._coords.from_gvec(v) == _ref_from_gvec(a, v) == x
            # one coordinate too many or too few: the leaves' arity errors
            for w in (v + (kn.ZERO,), v[:-1]):
                assert _outcome(a._coords.from_gvec, w) == \
                    _outcome(_ref_from_gvec, a, w), w
    # every prefix length, and one coordinate beyond the ambient
    for v in vecs:
        for h in [v[:n] for n in range(len(v) + 1)] + [v + (kn.ZERO,)]:
            assert _outcome(ch._elem_from_prefix_raw, a, h) == \
                _outcome(_ref_elem_from_prefix, a, h), h
    # the equal-head compare: pairs that share their first coordinate
    if not a.is_leaf:
        shared = [(p, q) for p, q in product(pool, pool) if p[0] == q[0]]
        assert any(p != q for p, q in shared)
        for p, q in shared:
            assert ch.cmp_elems(a, p, q) == _ref_cmp(a, p, q), (p, q)


COVER_CASES = OP_CASES + RANK0_SECOND + GRAPH_OVER_NODE + [
    "I(Z, idx 2, Q)", "SLI(Z, idx 2, Z, prodH(idx 2, idx 3))",
    "SLII(Z, Z, fullH)", "II(Z, I(1, full, 1))",
    # the slice steps along the indexed coordinate, not the pinned last one
    "SLI(Z, full, Lex(Z, Z), prodH(full, (idx 2, triv)))"]


@pytest.mark.parametrize("name", COVER_CASES)
def test_compiled_covers_match_the_recursive_definitions(name):
    a = ps.parse_algebra(case_spec(name))
    _assert_covers_match_reference(a, _op_pool(a, _op_rngs(6)))


@settings(max_examples=60)
@given(spec=st.integers(1, 4).flatmap(_specs), rngs=_element_draws(4))
def test_compiled_covers_match_the_recursive_definitions_on_random_specs(
        spec, rngs):
    try:
        a = ps.parse_algebra(spec[0])
    except PlexError:
        reject()
    _assert_covers_match_reference(a, _op_pool(a, rngs))


def _nodes(a):
    stack = [a]
    while stack:
        n = stack.pop()
        yield n
        if not n.is_leaf:
            stack += [n.x, n.y]


def test_building_compiles_no_covers_or_coordinate_maps():
    # they compile on first use: builders and rebuild make fresh nodes on
    # every call, and most of those never step a cover
    built = [ps.parse_algebra(case_spec(name)) for name in COVER_CASES]
    built += [dec.rebuild(dec.group_representation(ps.parse_algebra(_tower(d))))
              for d in range(1, 6)]
    for a in built:
        assert not [n for n in _nodes(a)
                    if "_coords" in vars(n) or "_covers" in vars(n)], a
    a = built[0]
    ch.x_down(a, ch.unit(a))
    assert all("_covers" in vars(n) for n in _nodes(a))


@pytest.mark.parametrize("spec,text", [("II(Z, Z)", "(0, 0)"),
                                       ("SLII(Z, Z, fullH)", "(0, 0)"),
                                       ("I(Z, idx 2, Q)", "(0, B)")])
def test_compiled_covers_reach_the_kernel_at_call_time(monkeypatch, spec,
                                                       text):
    a = ps.parse_algebra(spec)
    x = ps.parse_elem(a, text)
    want = ch.x_down(a, x)  # the closures exist before the kernel is patched
    calls = [0]
    rsub = kn.rsub

    def counted(*args):
        calls[0] += 1
        return rsub(*args)

    monkeypatch.setattr(kn, "rsub", counted)
    assert ch.x_down(a, x) == want != x
    assert calls[0] == 1


def _tb_bottom_skips_z(a):
    """A 'tb' cover below a bottom column that always lands on a top
    column, without the Z-set test."""
    real = a._covers.down

    def down(p):
        got = real(p)
        if p[1] == ch.BOT and got != p:
            return (got[0], ch.TOP)
        return got

    return "_covers", {"down": down}


def _slice_step_up(a):
    """A sublex cover that steps its slice up instead of down."""
    real = a._covers.down
    i, m = ch._slice_step(a)

    def down(p):
        first, second = p
        if not ch.is_mid(second):
            return real(p)
        out = list(second[1])
        out[i] = kn.radd(out[i], m)
        return (first, ch.mid(tuple(out)))

    return "_covers", {"down": down}


def _head_compare_ties(a):
    return "_ops", _cmp_without_y(a)


@pytest.mark.parametrize("spec,mutant", [
    ("I(Z, idx 2, Q)", _tb_bottom_skips_z),
    ("III(Z, idx 2, idx 4, Q)", _tb_bottom_skips_z),
    ("SLI(Z, idx 2, Z, prodH(idx 2, idx 3))", _slice_step_up),
    ("SLII(Z, Z, fullH)", _slice_step_up),
    ("II(Z, Q)", _head_compare_ties),
    ("I(II(Z, Q), full, Q)", _head_compare_ties),
])
def test_cover_reference_catches_a_wrong_closure(spec, mutant):
    a = ps.parse_algebra(spec)
    pool = _op_pool(a, _op_rngs(6))
    _assert_covers_match_reference(a, pool)
    group, closures = mutant(a)
    with pytest.raises(AssertionError):
        _assert_covers_match_reference(_with_ops(a, group, **closures), pool)


def test_deep_hand_built_algebra_caches_bottom_up():
    # no builder touched the nodes below, so every per-node cache (the
    # closures, the ladder, the idempotents) is first filled from the root
    a = ps.parse_algebra("Q")
    z = ps.parse_algebra("Z")
    for _ in range(400):
        a = ch.Algebra(kind="II", x=z, y=a)
    u = ch.unit(a)
    assert ch.mul(a, u, u) == ch.comp(a, u) == u
    assert ch.cmp_elems(a, u, u) == 0 and a._ops.free(u)
    assert ch.ladder(a)[1][0].prefix == 401
    assert len(ch.positive_idempotents(a)) == 401


KERNEL_OPS = ("vadd", "vneg", "vcmp", "radd", "rneg", "rcmp")


@pytest.mark.parametrize("spec", ["I(II(Z, Q), full, Q)",
                                  "II(Lex(Q, Z), Lex(Z, Q))", "Lex(Z, Q)",
                                  "Q"])
def test_compiled_operations_reach_the_kernel_at_call_time(monkeypatch, spec):
    a = ps.parse_algebra(spec)
    rng = random.Random(5)
    xs = [ch.sample_elem(a, rng, marker_p=0.4) for _ in range(20)]
    ch.mul(a, xs[0], xs[1])  # the closures exist before the kernel is patched
    calls = {name: 0 for name in KERNEL_OPS}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in KERNEL_OPS:
        monkeypatch.setattr(kn, name, counted(name, getattr(kn, name)))
    for op, names, args in ((ch.mul, ("vadd", "radd"), 2),
                            (ch.cmp_elems, ("vcmp", "rcmp"), 2),
                            (ch.comp, ("vneg", "rneg"), 1)):
        for x, y in zip(xs, reversed(xs)):
            before = sum(calls[n] for n in names)
            op(a, *(x, y)[:args])
            assert sum(calls[n] for n in names) > before, op.__name__
