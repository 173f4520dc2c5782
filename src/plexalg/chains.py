"""Totally ordered involutive residuated chains built from group blocks.

An algebra is a tree: leaves are ordered abelian groups (plexalg.groups),
inner nodes enlarge a child chain X with a second factor Y in one of two
shapes, then restrict which columns exist:

* family 'tb' (kinds I, III, SLI): every first coordinate gets a bottom
  marker; first coordinates inside a subgroup Z of the group part of X
  also get a top marker; those inside V <= Z (for SLI: the first-side
  projection of H) carry middle columns holding a copy of Y.
* family 't' (kinds II, IV, SLII): every first coordinate gets a top
  marker; middle columns as above.  This shape additionally needs the
  group part of X discretely embedded in X.

Elements are nested pairs (first, second) with second one of 'T', 'B' or
('M', y).  No element carries a reference to its algebra; every operation
takes the algebra as explicit first argument.  Comparison is
lexicographic with B < M(...) < T in the second slot.

Validation happens at the boundary only: parsing (elem_check),
sampling (sample_elem), building (build), validate_elem and
elem_from_prefix check every coordinate and column constraint.  The
operations (mul, comp, cmp_elems, x_up, x_down, ...) and the trusted
predicates take valid elements and do not re-check them:

* the marker test _marker_free: on a valid element, membership in the
  group part (invertibility) is just the absence of any T/B marker;
* zset_member and mid_capable: the marker test plus one constraint check;
* absorber(a, e): the test x -> x*e == x, read off x's marker slots;
* _elem_from_prefix_raw and _from_gvec_raw: elem_from_prefix and its
  full-length case without checks, for prefixes known to name an element.

in_group_part stays the full check for raw values.  The complement is an
order-reversing involution, so the upper side derives from the lower one,
as res and tau do: x_up (above the group leaves) and ChainView.x_up are
comp(x_down(comp(p))), and universe_max is comp(universe_min).

The module also computes, per algebra, a structural "ladder": one flat
coordinate view of the group part per reduction level, recording how many
ambient coordinates that level keeps and which per-coordinate constraints
cut the level's group out of them.  The decomposition layer consumes
algebras only through the generic operations plus this ladder, never by
inspecting the construction tree of the input.  H is read only to build
the ladder: sublex slices read the Y part of the outermost entry.

Consumers reach the operations through one view protocol, at the end of
this module: ChainView derives le, lt, res, tau, fconst and x_up from
the primitives a subclass provides, and BaseChain binds them to an algebra.
Law suites, homomorphism checks and peeling steps all use it, so each
runs unchanged on an algebra, a peel level or a mutated algebra (whose
`clean` view is the uncorrupted one).  The
view's invertibility and absorption tests and its fill_prefix builder
are arithmetic by default; BaseChain answers them with the trusted
predicates above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import lcm

from . import kernel as kn
from .errors import InvalidElement, InvalidSubgroup, StructuralMismatch
from .groups import (FULL, TRIV, GroupDesc, coord_in_sub, entry_leq, g_member,
                     idx)

TOP = "T"
BOT = "B"

NODE_KINDS = ("I", "II", "III", "IV", "SLI", "SLII")
TB_KINDS = ("I", "III", "SLI")
SUBLEX_KINDS = ("SLI", "SLII")


def mid(y):
    return ("M", y)


def is_mid(second) -> bool:
    return isinstance(second, tuple) and second[0] == "M"


# ---------------------------------------------------------------------------
# second-factor restrictions for sublex nodes


@dataclass(frozen=True)
class FullH:
    """No restriction: middle columns hold the whole second group."""


@dataclass(frozen=True)
class ProdH:
    """Coordinatewise restriction: first side in zpart, second in ypart."""

    zpart: tuple
    ypart: tuple


@dataclass(frozen=True)
class GraphH:
    """Graph restriction {(n, n*c)}: one integer first coordinate, the
    single second coordinate determined by it."""

    c: tuple  # rational pair


# ---------------------------------------------------------------------------
# per-coordinate constraints (ladder entries and merged node data)
#
# ('full',)          whole coordinate
# ('triv',)          pinned to 0
# ('idx', m)         multiples of m
# ('graph', c, src)  value = c * value of ambient coordinate src


def merge_constr(a, b):
    if a == FULL:
        return b
    if b == FULL:
        return a
    if a[0] == "graph" or b[0] == "graph":
        raise InvalidSubgroup("cannot restrict a graph-linked coordinate")
    if a == TRIV or b == TRIV:
        return TRIV
    return idx(lcm(a[1], b[1]))


def merge_constr_vec(a, b):
    if len(a) != len(b):
        raise InvalidSubgroup("subgroup arity %d, expected %d" % (len(b), len(a)))
    return tuple(merge_constr(x, y) for x, y in zip(a, b))


def constr_ok(constraints, vec) -> bool:
    """Check a raw coordinate vector against per-coordinate constraints."""
    for i, con in enumerate(constraints):
        v = vec[i]
        if con == FULL:
            continue
        if con == TRIV:
            if v != kn.ZERO:
                return False
        elif con[0] == "idx":
            if not coord_in_sub(con, v):
                return False
        else:  # graph
            if v != kn.rmul(con[1], vec[con[2]]):
                return False
    return True


@dataclass(frozen=True)
class LevelView:
    """Group view of one reduction level.

    prefix    number of ambient coordinates the level keeps
    gconstr   constraints cutting the level's group out of them
    zconstr   constraints of the level's distinguished subgroup over the
              next level's prefix, or None for the whole next group
    """

    prefix: int
    gconstr: tuple
    zconstr: tuple | None


# ---------------------------------------------------------------------------
# the algebra tree


@dataclass(frozen=True)
class Algebra:
    kind: str  # 'grp' or one of NODE_KINDS
    group: GroupDesc | None = None
    x: "Algebra | None" = None
    y: "Algebra | None" = None
    zsub: tuple | None = None  # 'tb' nodes: Z over the ambient of X's group part
    vsub: tuple | None = None  # III/IV: V over the same ambient
    h: FullH | ProdH | GraphH | None = None  # sublex nodes

    # node kinds are read on every recursion step: compute them once
    @cached_property
    def is_leaf(self) -> bool:
        return self.kind == "grp"

    @cached_property
    def family(self) -> str | None:
        if self.is_leaf:
            return None
        return "tb" if self.kind in TB_KINDS else "t"

    @cached_property
    def is_sublex(self) -> bool:
        return self.kind in SUBLEX_KINDS

    @cached_property
    def xlen(self) -> int:
        return ladder(self.x)[1][0].prefix

    @cached_property
    def _structure(self):
        return _build_structure(self)

    @cached_property
    def _samplers(self) -> dict:
        """Compiled samplers by (magnitude, denominator, marker_p)."""
        return {}

    @cached_property
    def _pos_idems(self) -> tuple:
        return _lift_idems(self)

    def __repr__(self):  # pragma: no cover - debugging aid
        from .parsing import print_algebra

        return print_algebra(self)


def leaf(desc: GroupDesc) -> Algebra:
    return Algebra(kind="grp", group=desc)


@dataclass(frozen=True)
class _NodeStructure:
    ambient: tuple  # coordinate kinds of the full group part
    entries: tuple  # LevelView tuple, outermost level first
    vconstr: tuple | None  # merged middle-column constraint over X's ambient
    zconstr: tuple | None  # merged top-column constraint ('tb' only)


def _h_first_side(node: Algebra, base):
    """Constraints the sublex restriction puts on first coordinates."""
    h = node.h
    if isinstance(h, ProdH):
        return merge_constr_vec(base, h.zpart)
    return base  # FullH and GraphH restrict nothing on the first side


def _build_structure(node: Algebra) -> _NodeStructure:
    if node.is_leaf:
        desc = node.group
        entry = LevelView(desc.rank, (FULL,) * desc.rank, None)
        return _NodeStructure(desc.kinds, (entry,), None, None)

    x_amb, x_entries = ladder(node.x)
    y_amb, y_entries = ladder(node.y)
    xlen = x_entries[0].prefix
    xg = x_entries[0].gconstr

    if node.kind == "I":
        zc = merge_constr_vec(xg, node.zsub)
        vc = zc
    elif node.kind == "III":
        zc = merge_constr_vec(xg, node.zsub)
        vc = merge_constr_vec(zc, node.vsub)
    elif node.kind == "SLI":
        zc = merge_constr_vec(xg, node.zsub)
        vc = _h_first_side(node, zc)
    elif node.kind == "II":
        zc = None
        vc = xg
    elif node.kind == "IV":
        zc = None
        vc = merge_constr_vec(xg, node.vsub)
    else:  # SLII
        zc = None
        vc = _h_first_side(node, xg)

    def lift(con):
        # reindex a constraint from Y-local to node coordinates
        if con[0] == "graph":
            return (con[0], con[1], con[2] + xlen)
        return con

    def lift_vec(v):
        return tuple(lift(c) for c in v)

    y_head = lift_vec(y_entries[0].gconstr)
    if isinstance(node.h, ProdH):
        y_head = merge_constr_vec(y_head, node.h.ypart)
    elif isinstance(node.h, GraphH):
        y_head = (("graph", node.h.c, xlen - 1),)  # already node coordinates

    entries = []
    last = len(y_entries) - 1
    for j, ent in enumerate(y_entries):
        g = vc + (y_head if j == 0 else lift_vec(ent.gconstr))
        if j < last:
            z = None if ent.zconstr is None else vc + lift_vec(ent.zconstr)
        else:
            z = zc  # this level's own reduction step belongs to the node
        entries.append(LevelView(xlen + ent.prefix, g, z))
    entries.extend(x_entries)
    return _NodeStructure(x_amb + y_amb, tuple(entries), vc, zc)


def ladder(a: Algebra):
    """(ambient coordinate kinds, LevelView tuple) of the group part."""
    s = a._structure
    return s.ambient, s.entries


def gr_ambient(a: Algebra) -> GroupDesc:
    return GroupDesc(a._structure.ambient)


# ---------------------------------------------------------------------------
# membership


def validate_elem(a: Algebra, x) -> bool:
    """Structural membership of x in the universe of a (full check)."""
    if a.is_leaf:
        return g_member(a.group, x)
    if not (isinstance(x, tuple) and len(x) == 2):
        return False
    first, second = x
    if second == BOT:
        return a.family == "tb" and validate_elem(a.x, first)
    if second == TOP:
        if not validate_elem(a.x, first):
            return False
        return a.family == "t" or zset_member(a, first)
    if not is_mid(second):
        return False
    return (validate_elem(a.x, first) and mid_capable(a, first)
            and slice_member(a, first, second[1]))


def elem_check(a: Algebra, x):
    if not validate_elem(a, x):
        from .parsing import print_algebra

        raise InvalidElement("element does not live in %s" % print_algebra(a))
    return x


def in_group_part(a: Algebra, x) -> bool:
    """x lies in the group part (invertible elements) of a.

    Full check of an arbitrary value, for raw vectors and values of
    unknown origin; a valid element needs only _marker_free."""
    if a.is_leaf:
        return g_member(a.group, x)
    if not (isinstance(x, tuple) and len(x) == 2 and is_mid(x[1])):
        return False
    first, second = x
    if not (in_group_part(a.x, first) and in_group_part(a.y, second[1])):
        return False
    vec = to_gvec(a, x)
    return constr_ok(a._structure.entries[0].gconstr, vec)


def _marker_free(a: Algebra, x) -> bool:
    """No T/B marker anywhere in x.

    Precondition: x is a valid element of a.  Then this is membership in
    the group part, because validate_elem has already checked every
    coordinate and every column constraint of a marker-free element."""
    if a.is_leaf:
        return True
    first, second = x
    return (isinstance(second, tuple) and _marker_free(a.x, first)
            and _marker_free(a.y, second[1]))


def zset_member(a: Algebra, first) -> bool:
    """first coordinate admits a top column ('tb': the Z subgroup).

    Precondition: first is a valid element of a.x."""
    if not _marker_free(a.x, first):
        return False
    if a.family == "t":
        return True
    return constr_ok(a._structure.zconstr, to_gvec(a.x, first))


def mid_capable(a: Algebra, first) -> bool:
    """first coordinate admits middle columns (the V side, or H's shadow).

    Precondition: first is a valid element of a.x."""
    return (_marker_free(a.x, first)
            and constr_ok(a._structure.vconstr, to_gvec(a.x, first)))


# ---------------------------------------------------------------------------
# raw coordinate vectors of group-part elements


def to_gvec(a: Algebra, x) -> tuple:
    """Flat rational vector of a group-part element."""
    if a.is_leaf:
        return x
    first, second = x
    return to_gvec(a.x, first) + to_gvec(a.y, second[1])


def _from_gvec_raw(a: Algebra, vec: tuple):
    if a.is_leaf:
        if len(vec) != a.group.rank:
            raise InvalidElement("vector arity %d, expected %d" % (len(vec), a.group.rank))
        return vec
    xlen = a.xlen
    return (_from_gvec_raw(a.x, vec[:xlen]), mid(_from_gvec_raw(a.y, vec[xlen:])))


def partial_vec(a: Algebra, x) -> tuple:
    """Raw group coordinates of x down to its first marker.

    Group-part elements yield their full vector; an element whose second
    slot is a marker at depth k yields the length-k prefix that fixes its
    reduction class at every level above the marker.
    """
    if a.is_leaf:
        return x
    first, second = x
    if is_mid(second):
        return to_gvec(a.x, first) + partial_vec(a.y, second[1])
    return partial_vec(a.x, first)


def elem_from_prefix(a: Algebra, h: tuple):
    """Canonical element with group prefix h, markers below (validated).

    A full-length h gives a group-part element, except where a second
    factor of rank 0 has no middle column over it.  Such a prefix, and a
    shorter one, is completed with the family's default marker: bottom
    for 'tb' nodes, top for 't' nodes.  Coordinates determined by a graph
    restriction and pinned coordinates must match, else InvalidElement.
    """
    el = _elem_from_prefix_raw(a, h)
    if not validate_elem(a, el):
        raise InvalidElement("prefix does not name an element")
    return el


def _elem_from_prefix_raw(a: Algebra, h: tuple):
    """elem_from_prefix without the membership checks, for a prefix known
    to name an element (only the arity is checked)."""
    if a.is_leaf:
        if len(h) != a.group.rank:
            raise InvalidElement("prefix arity %d, expected %d" % (len(h), a.group.rank))
        return h
    xlen = a.xlen
    if len(h) > xlen:
        return (_from_gvec_raw(a.x, h[:xlen]),
                mid(_elem_from_prefix_raw(a.y, h[xlen:])))
    first = (_elem_from_prefix_raw(a.x, h) if len(h) < xlen
             else _from_gvec_raw(a.x, h))
    # a prefix as long as the group part is full-length when Y has rank 0,
    # and names a group element where a middle column sits over first
    if len(h) == xlen == len(a._structure.ambient) and mid_capable(a, first):
        return (first, mid(_elem_from_prefix_raw(a.y, ())))
    return (first, BOT if a.family == "tb" else TOP)


# ---------------------------------------------------------------------------
# order


def cmp_elems(a: Algebra, p, q) -> int:
    if a.is_leaf:
        return kn.vcmp(p, q)
    c = cmp_elems(a.x, p[0], q[0])
    if c != 0:
        return c
    sp, sq = p[1], q[1]
    rp = 0 if sp == BOT else 2 if sp == TOP else 1
    rq = 0 if sq == BOT else 2 if sq == TOP else 1
    if rp != rq:
        return -1 if rp < rq else 1
    if rp == 1:
        return cmp_elems(a.y, sp[1], sq[1])
    return 0


def le(a: Algebra, p, q) -> bool:
    return cmp_elems(a, p, q) <= 0


def lt(a: Algebra, p, q) -> bool:
    return cmp_elems(a, p, q) < 0


# ---------------------------------------------------------------------------
# monoid, involution, residual


def unit(a: Algebra):
    if a.is_leaf:
        return kn.vzero(a.group.rank)
    return (unit(a.x), mid(unit(a.y)))


def fconst(a: Algebra):
    """Falsity constant; equals the unit in these odd chains."""
    return unit(a)


def mul(a: Algebra, p, q):
    if a.is_leaf:
        return kn.vadd(p, q)
    first = mul(a.x, p[0], q[0])
    sp, sq = p[1], q[1]
    if a.family == "tb":
        if sp == BOT or sq == BOT:
            return (first, BOT)
        if sp == TOP or sq == TOP:
            return (first, TOP)
    else:
        if sp == TOP or sq == TOP:
            return (first, TOP)
    return (first, mid(mul(a.y, sp[1], sq[1])))


def comp(a: Algebra, p):
    if a.is_leaf:
        return kn.vneg(p)
    first, second = p
    nf = comp(a.x, first)
    if a.family == "tb":
        # p is valid, so a top or middle column already lies over Z
        if second == TOP:
            return (nf, BOT)
        if second == BOT:
            return (nf, TOP if zset_member(a, first) else BOT)
        return (nf, mid(comp(a.y, second[1])))
    if second == TOP:
        if _marker_free(a.x, first):
            below = x_down(a.x, nf)
            if below == nf:
                raise StructuralMismatch("group part of the child is not discrete")
            return (below, TOP)
        return (nf, TOP)
    return (nf, mid(comp(a.y, second[1])))


def _always(x) -> bool:
    return True


def _never(x) -> bool:
    return False


def absorber(a: Algebra, e):
    """Predicate x -> mul(a, x, e) == x on valid elements x, for a fixed e.

    The recursion over e runs once, here: a component of e that is the
    unit of its factor leaves every x unchanged, so the predicate reads
    only the slots of x where e differs from the unit, and never builds
    the product."""
    if a.is_leaf:
        return _always if all(c == kn.ZERO for c in e) else _never
    first = absorber(a.x, e[0])
    if first is _never:
        return _never
    se = e[1]
    if se == BOT:  # the product's column is bottom
        second = lambda s: s == BOT
    elif se == TOP:  # a marker column stays, a middle one turns top
        second = lambda s: not is_mid(s)
    else:
        inner = absorber(a.y, se[1])
        if inner is _always:
            second = _always
        elif inner is _never:
            second = lambda s: not is_mid(s)
        else:
            second = lambda s: not is_mid(s) or inner(s[1])
    if first is _always:
        return _always if second is _always else lambda x: second(x[1])
    if second is _always:
        return lambda x: first(x[0])
    return lambda x: second(x[1]) and first(x[0])


def res(a: Algebra, p, q):
    """Residual, computed through the involution."""
    return comp(a, mul(a, p, comp(a, q)))


def tau(a: Algebra, p):
    """Local unit res(x, x); detects how far x is from invertible."""
    return res(a, p, p)


# ---------------------------------------------------------------------------
# middle-column slices
#
# The middle columns over a fixed first coordinate form one "slice":
# the whole universe of Y for plain nodes, a coset pattern cut out by H
# for sublex nodes, whose Y is a group leaf.  Cover steps inside a slice
# drive cover steps of the algebra.


def _y_constraints(a: Algebra):
    """Constraints of a sublex node's slices on its Y leaf: the Y part of
    the outermost ladder entry.  A graph entry points at an ambient index
    of the first side."""
    return a._structure.entries[0].gconstr[a.xlen:]


def slice_member(a: Algebra, first, yv) -> bool:
    """yv lies in the slice over first.

    Precondition: first is a valid element of a.x that admits middle
    columns."""
    if not a.is_sublex:
        return validate_elem(a.y, yv)
    return (g_member(a.y.group, yv) and constr_ok(
        a._structure.entries[0].gconstr, to_gvec(a.x, first) + yv))


def slice_step_down(a: Algebra, first, yv):
    """Predecessor of yv inside the slice over first, or None."""
    if not a.is_sublex:
        below = x_down(a.y, yv)
        return None if below == yv else below
    step = _slice_step(a)
    if step is None:
        return None
    i, m = step
    out = list(yv)
    out[i] = kn.rsub(out[i], m)
    return tuple(out)


def _slice_step(a: Algebra):
    """(coordinate, step) generating covers of a sublex slice, or None."""
    cons = _y_constraints(a)
    kinds = a.y.group.kinds
    for i in range(len(cons) - 1, -1, -1):
        con = cons[i]
        if con == TRIV or con[0] == "graph":
            continue
        if con[0] == "idx":
            return (i, kn.rmake(con[1]))
        return (i, kn.rmake(1)) if kinds[i] == "Z" else None
    return None


def slice_min(a: Algebra, first):
    """Least element of the slice over first, or None."""
    if not a.is_sublex:
        return universe_min(a.y)
    return _slice_pinned_value(a, first)


def slice_max(a: Algebra, first):
    if not a.is_sublex:
        return universe_max(a.y)
    return _slice_pinned_value(a, first)


def _slice_pinned_value(a: Algebra, first):
    """A sublex slice is bounded only when every coordinate is pinned:
    to 0, or by a graph to the first side."""
    cons = _y_constraints(a)
    if any(c != TRIV and c[0] != "graph" for c in cons):
        return None
    return tuple(kn.ZERO if c == TRIV
                 else kn.rmul(c[1], to_gvec(a.x, first)[c[2]]) for c in cons)


# ---------------------------------------------------------------------------
# covers and universe bounds


def universe_min(a: Algebra):
    """Least element of the universe, or None when unbounded below."""
    if a.is_leaf:
        return () if a.group.rank == 0 else None
    xmin = universe_min(a.x)
    if xmin is None:
        return None
    if a.family == "tb":
        return (xmin, BOT)
    if mid_capable(a, xmin):
        m = slice_min(a, xmin)
        return None if m is None else (xmin, mid(m))
    return (xmin, TOP)


def universe_max(a: Algebra):
    """Greatest element of the universe, or None when unbounded above:
    the complement of the least one."""
    m = universe_min(a)
    return None if m is None else comp(a, m)


def _column_max(a: Algebra, first):
    """Greatest element of the marker column over first ('tb' only)."""
    return (first, TOP) if zset_member(a, first) else (first, BOT)


def x_down(a: Algebra, p):
    """Greatest element strictly below p, or p itself when none exists."""
    if a.is_leaf:
        k = a.group.kinds
        if k and k[-1] == "Z":
            return p[:-1] + (kn.rsub(p[-1], kn.ONE),)
        return p
    first, second = p
    if is_mid(second):
        yv = second[1]
        below = slice_step_down(a, first, yv)
        if below is not None:
            return (first, mid(below))
        if slice_min(a, first) == yv:
            if a.family == "tb":
                return (first, BOT)
            xd = x_down(a.x, first)
            return (xd, TOP) if xd != first else p
        return p
    if second == TOP:
        if mid_capable(a, first):
            m = slice_max(a, first)
            return p if m is None else (first, mid(m))
        if a.family == "tb":
            return (first, BOT)
        xd = x_down(a.x, first)
        return (xd, TOP) if xd != first else p
    # second == BOT
    xd = x_down(a.x, first)
    return _column_max(a, xd) if xd != first else p


def x_up(a: Algebra, p):
    """Least element strictly above p, or p itself when none exists.

    The complement reverses the order, so above the group leaves this is
    the cover below, mirrored: comp(x_down(comp(p)))."""
    if a.is_leaf:
        k = a.group.kinds
        if k and k[-1] == "Z":
            return p[:-1] + (kn.radd(p[-1], kn.ONE),)
        return p
    return comp(a, x_down(a, comp(a, p)))


# ---------------------------------------------------------------------------
# idempotents


def positive_idempotents(a: Algebra) -> tuple:
    """All idempotents >= unit, ascending: one per tree level plus one
    per group leaf.  Verified once per algebra and cached on it."""
    return a._pos_idems


def _lift_idems(a: Algebra) -> tuple:
    """The positive idempotents of a, lifted from the cached (so already
    verified) lists of its factors; only what the node adds is verified.

    The list is built in pieces: Y's idempotents as middle columns over
    the unit of X, then for 't' X's idempotents as top columns, for 'tb'
    the top column over the unit of X and X's other idempotents as
    bottom columns.  mul takes one branch of the node on a whole piece
    and hands the rest to the factor, whose list is idempotent and
    ascending, so one product per piece verifies the node's branch, and
    one comparison per junction the order.  The first element is the
    unit, lifted from the factors' units."""
    if a.is_leaf:
        return (unit(a),)
    xs = a.x._pos_idems
    tx = xs[0]  # the unit of X
    pieces = [tuple((tx, mid(e)) for e in a.y._pos_idems)]
    if a.family == "t":
        pieces.append(tuple((e, TOP) for e in xs))
    else:
        pieces += [((tx, TOP),), tuple((e, BOT) for e in xs[1:])]
    out = ()
    for piece in filter(None, pieces):
        e = piece[0]
        if mul(a, e, e) != e:
            raise StructuralMismatch("bad idempotent candidate")
        if out and not lt(a, out[-1], e):
            raise StructuralMismatch("idempotents out of order")
        out += piece
    return out


# ---------------------------------------------------------------------------
# random elements
#
# The draw stream is part of the reproducibility contract: a seed fixes
# every report, so a sampler may get faster but must consume the
# generator exactly as this definition does.  Per level, one rng.random()
# roll decides the column: below marker_p a marker column (for 'tb' nodes
# a second roll picks bottom below 0.5, else a top column over the top
# set), otherwise a middle column: a sublex node draws a group element of
# its own, any other node a group element of X over the middle-column
# set and then an element of Y.  A group element draws its coordinates
# in order: pinned ones draw nothing, a full integer coordinate draws
# randint(-magnitude, magnitude), a full rational one that numerator and
# then randint(1, denominator), an index-m one m times an integer draw,
# and a graph-tied one is computed from the coordinate it follows.
#
# The definition is compiled once per algebra and parameters into nested
# closures (_sampler), which build the nested element directly and look
# coordinates up in tables shared by the whole process.  An integer draw
# calls getrandbits with the rejection loop of CPython's randint, so the
# generator advances draw for draw as randint would advance it.


@lru_cache(maxsize=None)
def _int_table(magnitude: int, step: int, wrap: bool) -> tuple:
    """step * n for n = -magnitude..magnitude, by n + magnitude; as
    1-tuples when wrap is set (the element of a rank-one group leaf)."""
    if magnitude < 0:
        raise ValueError("empty range for a sampled coordinate")
    vals = (kn.rmake(step * n) for n in range(-magnitude, magnitude + 1))
    return tuple((v,) if wrap else v for v in vals)


@lru_cache(maxsize=None)
def _rat_table(magnitude: int, denominator: int, wrap: bool) -> tuple:
    """n / d for n = -magnitude..magnitude and d = 1..denominator, by
    (n + magnitude, d - 1); as 1-tuples when wrap is set."""
    if magnitude < 0 or denominator < 1:
        raise ValueError("empty range for a sampled coordinate")
    return tuple(tuple((kn.rmake(n, d),) if wrap else kn.rmake(n, d)
                       for d in range(1, denominator + 1))
                 for n in range(-magnitude, magnitude + 1))


def _coord_sampler(kind: str, con, magnitude: int, denominator: int,
                   wrap: bool = False):
    """(random, getrandbits) -> one coordinate under a pinned, full or
    index constraint, or its 1-tuple when wrap is set."""
    if con == TRIV:
        zero = (kn.ZERO,) if wrap else kn.ZERO
        return lambda rnd, bits: zero
    n = 2 * magnitude + 1
    k = n.bit_length()
    if con == FULL and kind == "Q":
        table = _rat_table(magnitude, denominator, wrap)
        kd = denominator.bit_length()

        def rat(rnd, bits):
            r = bits(k)
            while r >= n:
                r = bits(k)
            s = bits(kd)
            while s >= denominator:
                s = bits(kd)
            return table[r][s]

        return rat
    table = _int_table(magnitude, 1 if con == FULL else con[1], wrap)

    def integer(rnd, bits):
        r = bits(k)
        while r >= n:
            r = bits(k)
        return table[r]

    return integer


def _coord_getter(a: Algebra, i: int):
    """Nested group element of a -> its raw coordinate i."""
    if a.is_leaf:
        return lambda g: g[i]
    xlen = a.xlen
    if i < xlen:
        inner = _coord_getter(a.x, i)
        return lambda g: inner(g[0])
    inner = _coord_getter(a.y, i - xlen)
    return lambda g: inner(g[1][1])


def _group_sampler(a: Algebra, constraints, magnitude: int, denominator: int,
                   offset: int = 0):
    """(random, getrandbits) -> group element of a whose raw vector
    satisfies constraints (over the ambient of a), nested as
    _from_gvec_raw nests it.  A graph constraint names its source
    coordinate in the frame of the outermost call, where the coordinates
    of a start at offset."""
    if a.is_leaf:
        kinds = a.group.kinds
        if len(kinds) == 1:
            return _coord_sampler(kinds[0], constraints[0], magnitude,
                                  denominator, wrap=True)
        coords = [_coord_sampler(k, con, magnitude, denominator)
                  for k, con in zip(kinds, constraints)]
        return lambda rnd, bits: tuple([f(rnd, bits) for f in coords])
    xlen = a.xlen
    fx = _group_sampler(a.x, constraints[:xlen], magnitude, denominator,
                        offset)
    ycons = constraints[xlen:]
    if ycons and ycons[0][0] == "graph":
        # a graph restriction: Y is one rational, c times a coordinate of X
        _, c, src = ycons[0]
        of_x = _coord_getter(a.x, src - offset)

        def graph(rnd, bits):
            g = fx(rnd, bits)
            return (g, ("M", (kn.rmul(c, of_x(g)),)))

        return graph
    fy = _group_sampler(a.y, ycons, magnitude, denominator, offset + xlen)
    return lambda rnd, bits: (fx(rnd, bits), ("M", fy(rnd, bits)))


def _sampler(a: Algebra, magnitude: int, denominator: int, marker_p: float):
    """(random, getrandbits) -> element: sample_elem compiled for a and
    the parameters, cached on a."""
    key = (magnitude, denominator, marker_p)
    draw = a._samplers.get(key)
    if draw is None:
        draw = a._samplers[key] = _compile_sampler(a, magnitude, denominator,
                                                   marker_p)
    return draw


def _compile_sampler(a: Algebra, magnitude: int, denominator: int,
                     marker_p: float):
    if a.is_leaf:
        return _group_sampler(a, (FULL,) * a.group.rank, magnitude,
                              denominator)
    s = a._structure
    fx = _sampler(a.x, magnitude, denominator, marker_p)
    if a.is_sublex:  # a middle column of a sublex node is a group element
        fm = _group_sampler(a, s.entries[0].gconstr, magnitude, denominator)
        fy = None
    else:
        fm = _group_sampler(a.x, s.vconstr, magnitude, denominator)
        fy = _sampler(a.y, magnitude, denominator, marker_p)
    # a top column of a 'tb' node needs its first coordinate in the top set
    fz = (_group_sampler(a.x, s.zconstr, magnitude, denominator)
          if a.family == "tb" else None)

    def draw(rnd, bits):
        if rnd() < marker_p:
            if fz is None:
                return (fx(rnd, bits), TOP)
            if rnd() < 0.5:
                return (fx(rnd, bits), BOT)
            return (fz(rnd, bits), TOP)
        if fy is None:
            return fm(rnd, bits)
        return (fm(rnd, bits), ("M", fy(rnd, bits)))

    return draw


def sample_elem(a: Algebra, rng, magnitude: int = 6, denominator: int = 8,
                marker_p: float = 0.25):
    """Random valid element; markers injected with probability marker_p
    per level, group-part directions otherwise (see the notes above)."""
    draw = (a._samplers.get((magnitude, denominator, marker_p))
            or _sampler(a, magnitude, denominator, marker_p))
    return draw(rng.random, rng.getrandbits)


# ---------------------------------------------------------------------------
# discreteness of the group part (build precondition for 't' nodes)


def discretely_embedded(a: Algebra) -> bool:
    """True when every group-part element has covers inside the group part.

    Exact, by structure: a group leaf is discrete iff it ends in Z (the
    covers step its last coordinate), a non-sublex node iff its Y is (a
    group element's covers move only its middle column inside Y), and a
    sublex node iff its slices have a step (the covers move along one).
    """
    if a.is_leaf:
        k = a.group.kinds
        return bool(k) and k[-1] == "Z"
    if not a.is_sublex:
        return discretely_embedded(a.y)
    return _slice_step(a) is not None


# ---------------------------------------------------------------------------
# kinds around the least strictly positive idempotent
#
# Let u be the least strictly positive idempotent and call x*u the upper
# part.  Follow the second factors from the root down to the node n whose
# Y is a group leaf: u is n's top column over the unit, seen through the
# middle columns of the nodes above, which hold whole copies of their Y.
# The marker columns of those nodes absorb u and its complement, so they
# are neither tops nor pseudo-tops; they are non-tops (Prop 8.2).  At n
# the upper part is its top columns and, for 'tb', its bottom columns,
# which are non-tops.  A top column over an invertible f closes a
# component when f carries middle columns and is a pseudo-top when it
# does not; over a non-invertible f (family 't' only) it absorbs the
# complement of u and is a non-top.

PSEUDO_TOP = "pseudo-top"  # classified TOP_PS by plexalg.decompose
NON_TOP = "non-top"  # classified neither TOP_C nor TOP_PS


def _constr_within(desc_kinds, small, big) -> bool:
    """Every vector satisfying small satisfies big (graph entries must
    agree exactly)."""
    for kind, sm, bg in zip(desc_kinds, small, big):
        if sm == bg:
            continue
        if sm[0] == "graph" or bg[0] == "graph" or \
                not entry_leq(kind, sm, bg):
            return False
    return True


def _ruled_out(a: Algebra) -> frozenset:
    """Kinds of the upper part around u that the structure of a rules out
    (see above): pseudo-tops when every first coordinate carrying a top
    column also carries middle columns, non-tops when n is the root, of
    family 't', with a group leaf as X."""
    if a.is_leaf:
        return frozenset()
    n = a
    while not n.y.is_leaf:
        n = n.y
    s = n._structure
    x_amb, x_entries = ladder(n.x)
    tops = s.zconstr if n.family == "tb" else x_entries[0].gconstr
    out = set()
    if _constr_within(x_amb, tops, s.vconstr):
        out.add(PSEUDO_TOP)
    if n is a and n.family == "t" and n.x.is_leaf:
        out.add(NON_TOP)
    return frozenset(out)


# ---------------------------------------------------------------------------
# the view protocol
#
# BaseChain wraps an algebra; a peel step of plexalg.decompose wraps
# another view, so a step runs on its own output; lawcheck.Mutant is a
# BaseChain with corrupted primitives.


class ChainView:
    """Shared derived operations; subclasses provide the primitives."""

    def le(self, p, q) -> bool:
        return self.cmp(p, q) <= 0

    def lt(self, p, q) -> bool:
        return self.cmp(p, q) < 0

    def res(self, p, q):
        return self.comp(self.mul(p, self.comp(q)))

    def tau(self, p):
        return self.res(p, p)

    def fconst(self):
        """Falsity constant; equals the unit in these odd chains."""
        return self.unit()

    def x_up(self, p):
        """Cover above, mirrored from the cover below by the complement."""
        return self.comp(self.x_down(self.comp(p)))

    # tests and a builder for elements the caller drew or computed itself;
    # BaseChain answers them structurally, other views by arithmetic

    def invertible(self, u):
        """Test x -> tau(x) < u, which for u the least strictly positive
        idempotent says that x is invertible."""
        return lambda x: self.lt(self.tau(x), u)

    def absorber(self, e):
        """Test x -> not x*e < x, which for e at most the unit says that
        x*e == x."""
        return lambda x: not self.lt(self.mul(x, e), x)

    def fill_prefix(self, h: tuple):
        """elem_from_prefix for a prefix known to name an element."""
        return self.elem_from_prefix(h)

    def lacks(self, u, kind: str) -> bool:
        """One-sided presence test: True when no element x*u of the upper
        part around u, the least strictly positive idempotent, is of kind
        (PSEUDO_TOP or NON_TOP); False when the kind exists or the view
        cannot tell.  Only BaseChain answers from structure."""
        return False

    @property
    def clean(self) -> "ChainView":
        """The uncorrupted view, which sampling predicates, classification
        and windows read: the view itself, except for a view that corrupts
        its own primitives on purpose."""
        return self

    @property
    def prefix(self) -> int:
        return self.entries[0].prefix


class BaseChain(ChainView):
    """View of a concrete algebra."""

    def __init__(self, a: Algebra):
        self.a = a
        self.ambient, self.entries = ladder(a)

    def describe(self) -> str:
        return repr(self.a)

    def mul(self, p, q):
        return mul(self.a, p, q)

    def comp(self, p):
        return comp(self.a, p)

    def cmp(self, p, q) -> int:
        return cmp_elems(self.a, p, q)

    def unit(self):
        return unit(self.a)

    def x_down(self, p):
        return x_down(self.a, p)

    def x_up(self, p):
        return x_up(self.a, p)

    def pos_idems(self) -> tuple:
        return positive_idempotents(self.a)

    def partial_vec(self, p) -> tuple:
        return partial_vec(self.a, p)

    def elem_from_prefix(self, h: tuple):
        return elem_from_prefix(self.a, h)

    def invertible(self, u):
        # tau(x) is a positive idempotent, so it is below the least strictly
        # positive one exactly when it is the unit: x is marker-free
        return partial(_marker_free, self.a)

    def absorber(self, e):
        return absorber(self.a, e)

    def fill_prefix(self, h: tuple):
        return _elem_from_prefix_raw(self.a, h)

    def validate(self, p) -> bool:
        return validate_elem(self.a, p)

    def lacks(self, u, kind: str) -> bool:
        return kind in _ruled_out(self.a)

    def sample(self, rng):
        return sample_elem(self.a, rng)


def _as_view(a):
    """A BaseChain for an Algebra; anything else is taken as a view."""
    return BaseChain(a) if isinstance(a, Algebra) else a
