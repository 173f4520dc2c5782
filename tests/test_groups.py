"""Ordered abelian groups, subgroup specs, and convex tail splits."""

import random

import pytest
from hypothesis import given, strategies as st

from plexalg import chains as ch
from plexalg import groups as gr
from plexalg import kernel as kn
from plexalg.errors import InvalidSubgroup

LZZ = gr.GroupDesc(("Z", "Z"))
LZQ = gr.GroupDesc(("Z", "Q"))

ints = st.integers(-10**6, 10**6)
zz_elems = st.tuples(ints, ints).map(
    lambda p: (kn.rmake(p[0]), kn.rmake(p[1])))


def test_descriptors():
    assert gr.Z_GROUP.rank == 1
    assert gr.TRIV_GROUP.rank == 0
    assert gr.lex_group([gr.Z_GROUP, gr.TRIV_GROUP, gr.Q_GROUP]) == LZQ
    with pytest.raises(InvalidSubgroup):
        gr.GroupDesc(("R",))


def test_descriptors_are_immutable_values():
    assert gr.GroupDesc(("Z", "Q")) == LZQ
    assert hash(gr.GroupDesc(("Z", "Q"))) == hash(LZQ)
    assert LZQ != LZZ and LZQ != ("Z", "Q") and gr.TRIV_GROUP != ()
    for attr in ("kinds", "rank", "fresh"):
        with pytest.raises(AttributeError):
            setattr(LZQ, attr, ())
        with pytest.raises(AttributeError):
            delattr(LZQ, attr)
    assert LZQ.kinds == ("Z", "Q")
    assert repr(gr.split_convex_tail(LZQ, 1)) == (
        "TailSplit(desc=GroupDesc(kinds=('Z', 'Q')), k=1, "
        "head=GroupDesc(kinds=('Z',)), tail_hull=GroupDesc(kinds=('Q',)))")


def test_membership():
    assert gr.g_member(LZQ, (kn.rmake(2), kn.rmake(1, 3)))
    assert not gr.g_member(LZQ, (kn.rmake(1, 2), kn.rmake(0)))  # Z coord
    assert not gr.g_member(LZQ, ((2, 2), kn.rmake(0)))  # unnormalized
    assert not gr.g_member(LZQ, (kn.rmake(0),))  # wrong rank
    assert gr.g_member(gr.TRIV_GROUP, ())


def test_membership_needs_int_coordinates():
    # True == 1, but a bool is no kernel integer: neither the group nor an
    # algebra over it takes the coordinate
    assert not gr.g_member(gr.Z_GROUP, ((True, 1),))
    assert not gr.g_member(gr.Q_GROUP, ((1, True),))
    assert not ch.validate_elem(ch.leaf(gr.Z_GROUP), ((True, 1),))


@given(zz_elems, zz_elems, zz_elems)
def test_group_laws(a, b, c):
    add = lambda x, y: gr.g_add(LZZ, x, y)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, gr.g_zero(LZZ)) == a


@given(zz_elems, zz_elems, zz_elems)
def test_order_translation_invariant(a, b, c):
    s = gr.g_cmp(LZZ, a, b)
    assert gr.g_cmp(LZZ, gr.g_add(LZZ, a, c), gr.g_add(LZZ, b, c)) == s
    assert gr.g_cmp(LZZ, b, a) == -s


def test_subgroup_specs():
    sub = (gr.idx(2), gr.FULL)
    gr.sub_validate(LZQ, sub)
    assert gr.coord_in_sub(gr.idx(2), kn.rmake(4))
    assert not gr.coord_in_sub(gr.idx(2), kn.rmake(3))
    assert gr.coord_in_sub(gr.FULL, kn.rmake(1, 3))
    assert gr.coord_in_sub(gr.TRIV, kn.rmake(0))
    with pytest.raises(InvalidSubgroup):
        gr.idx(0)
    with pytest.raises(InvalidSubgroup):
        gr.sub_validate(LZQ, (gr.FULL,))  # rank mismatch
    with pytest.raises(InvalidSubgroup):
        gr.sub_validate(LZQ, (("idx", -1), gr.FULL))


def test_subgroup_containment():
    # 4Z <= 2Z <= Z = full on an integer coordinate
    assert gr.entry_leq("Z", gr.idx(4), gr.idx(2))
    assert not gr.entry_leq("Z", gr.idx(2), gr.idx(4))
    assert gr.entry_leq("Z", gr.idx(2), gr.FULL)
    assert gr.entry_leq("Z", gr.FULL, gr.idx(1))
    assert gr.entry_leq("Q", gr.idx(3), gr.FULL)
    assert not gr.entry_leq("Q", gr.FULL, gr.idx(1))
    assert gr.entry_leq("Q", gr.TRIV, gr.idx(5))
    # a constraint vector holds the entries that are not full, by index
    assert gr.sub_is_full(LZZ, ((0, gr.idx(1)),))


GRAPH = ("graph", kn.rmake(1, 2), 0)


def test_a_graph_entry_is_contained_only_in_itself():
    for kind in ("Z", "Q"):
        assert gr.entry_leq(kind, GRAPH, ("graph", kn.rmake(1, 2), 0))
        for other in (("graph", kn.rmake(1, 3), 0),
                      ("graph", kn.rmake(1, 2), 1),
                      gr.FULL, gr.TRIV, gr.idx(1), gr.idx(3)):
            assert not gr.entry_leq(kind, GRAPH, other), other
            assert not gr.entry_leq(kind, other, GRAPH), other
    assert gr.sub_leq(LZQ, ((0, gr.idx(2)), (1, GRAPH)), ((1, GRAPH),))
    assert not gr.sub_leq(LZQ, ((0, gr.idx(2)), (1, GRAPH)), ())
    assert not gr.sub_leq(LZQ, ((1, gr.TRIV),), ((1, GRAPH),))
    assert not gr.sub_is_full(LZQ, ((1, gr.idx(1)),))


def test_divisible_hull():
    assert gr.divisible_hull(LZZ) == gr.GroupDesc(("Q", "Q"))
    assert gr.divisible_hull(gr.TRIV_GROUP) == gr.TRIV_GROUP


def test_tail_bounds():
    with pytest.raises(InvalidSubgroup):
        gr.check_tail(LZZ, 3)
    with pytest.raises(InvalidSubgroup):
        gr.check_tail(LZZ, -1)
    assert gr.quotient_by_tail(LZZ, 0) == LZZ
    assert gr.tail_group(LZQ, 1) == gr.Q_GROUP


def test_tail_split_pieces():
    sp = gr.split_convex_tail(LZZ, 1)
    assert sp.head == gr.Z_GROUP
    assert sp.tail_hull == gr.Q_GROUP  # divisible hull of the Z tail


def test_tail_split_add_and_order():
    sp = gr.split_convex_tail(LZZ, 1)
    rng = random.Random(3)
    for _ in range(1000):
        x = (kn.rmake(rng.randint(-50, 50)), kn.rmake(rng.randint(-50, 50)))
        y = (kn.rmake(rng.randint(-50, 50)), kn.rmake(rng.randint(-50, 50)))
        hx, tx = sp.embed(x)
        hy, ty = sp.embed(y)
        hs, ts = sp.embed(gr.g_add(LZZ, x, y))
        assert hs == gr.g_add(sp.head, hx, hy)
        assert ts == gr.g_add(sp.tail_hull, tx, ty)
        want = gr.g_cmp(LZZ, x, y)
        got = gr.g_cmp(sp.head, hx, hy) or gr.g_cmp(sp.tail_hull, tx, ty)
        assert got == want


def test_tail_split_projection_window():
    sp = gr.split_convex_tail(LZZ, 1)
    window = [(kn.rmake(i), kn.rmake(j))
              for i in range(-3, 4) for j in range(-3, 4)]
    heads = {sp.head_part(v) for v in window}
    assert heads == {(kn.rmake(i),) for i in range(-3, 4)}
