"""Totally ordered involutive residuated chains built from group blocks.

An algebra is a tree: leaves are ordered abelian groups (plexalg.groups),
inner nodes enlarge a child chain X with a second factor Y, then restrict
which columns exist.  The six node kinds are the cells of a grid,
NODE_KINDS: a family, which fixes the top set, times a middle cut.

* family 'tb' (kinds I, III, SLI): every first coordinate gets a bottom
  marker; those inside a subgroup Z of the group part G(X) of X, the top
  set, also get a top marker.
* family 't' (kinds II, IV, SLII): every first coordinate gets a top
  marker, so the top set is G(X).  This family additionally needs G(X)
  discretely embedded in X.
* the middle cut: the first coordinates of the top set that carry middle
  columns, holding a copy of Y, are all of them (I, II), those inside a
  subgroup V (III, IV) or those inside the first side of a restriction
  H of the sublex product (SLI, SLII), which may also cut the copies of Y.

Elements are nested pairs (first, second) with second one of 'T', 'B' or
('M', y).  No element carries a reference to its algebra; every operation
takes the algebra as explicit first argument.  Comparison is
lexicographic with B < M(...) < T in the second slot.

The operations mul, comp, cmp_elems and the marker test (_Ops.free) are
compiled once per node into closures over its children's closures and
cached on the node, so a call reads no node kind.  Compilation runs
bottom-up, in one iterative pass over the nodes not yet compiled, as do
the structure (constraint vectors and unit), the positive idempotents
and, aligned with them, whether each one's complement is idempotent
(_cache_below): a lazy lookup at every level would stack several frames
per level and overflow on nestings the parser accepts.  The coordinate
maps (to_gvec, partial_vec, _Coords.from_gvec, _elem_from_prefix_raw)
with the column tests (mid_capable, zset_member), and the cover x_down
with the least element (universe_min), are compiled the same way, with
the node's constraints, slice step and slice bounds folded in, but only
on first use: builders and rebuild make fresh nodes on every call, most
of which never step a cover.  A module function is the one entry point
to its closure; the marker test and from_gvec have none, and are read
off the node.

Validation happens at the boundary only: parsing (elem_check),
sampling (sample_elem), building (build), validate_elem and
elem_from_prefix check every coordinate and column constraint.  The
operations (mul, comp, cmp_elems, x_up, x_down, ...) and the trusted
predicates take valid elements and do not re-check them:

* the marker test _Ops.free: on a valid element, membership in the
  group part (invertibility) is just the absence of any T/B marker;
* zset_member and mid_capable: the marker test plus one constraint check;
* absorber(a, e): the test x -> x*e == x, read off x's marker slots;
  compiled by one recursion over e, and at a positive idempotent or its
  complement once per algebra, on first use (Algebra._idem_tests);
* _elem_from_prefix_raw and _Coords.from_gvec: elem_from_prefix and its
  full-length case without checks (but the arity), for prefixes known to
  name an element;
* cmp_elems on two elements with equal first coordinates: elements are
  canonical and rationals normalized, so equal is equal in the order,
  and only the second slots are compared.

The complement is an order-reversing involution, so the upper side
derives from the lower one, as res and tau do: x_up (as ChainView.x_up
in plexalg.decompose) is comp(x_down(comp(p))), and universe_max is
comp(universe_min).

The module also computes, per algebra, a structural "ladder": one flat
coordinate view of the group part per reduction level, recording how many
ambient coordinates that level keeps and which per-coordinate constraints
cut the level's group out of them.  A node holds the constraint vectors
(entries not full) of its group part and columns, sharing its children's
where it cuts nothing; the ladder is read off them for the node asked
only.  The decomposition layer consumes algebras only through the
generic operations plus this ladder, never by inspecting the
construction tree of the input.  H is read only to build the ladder:
sublex slices read the Y part of the outermost entry.

sample_elem draws through the samplers of plexalg.sampling, and
consumers reach the operations through the view protocol of
plexalg.decompose; neither is loaded before its first use.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, NamedTuple

from . import kernel as kn
from .errors import InvalidElement, InvalidSubgroup, StructuralMismatch
from .groups import FULL, TRIV, GroupDesc, coord_in_sub, g_member, idx

TOP = "T"
BOT = "B"

# every node kind as (family, middle cut): the family fixes the top set,
# Z cut from the group part of X for 'tb' and all of it for 't', and the
# middle columns lie over the top set, cut by nothing, by V or by the
# first side of H
NODE_KINDS = {"I": ("tb", "none"), "II": ("t", "none"),
              "III": ("tb", "vsub"), "IV": ("t", "vsub"),
              "SLI": ("tb", "h"), "SLII": ("t", "h")}


def mid(y):
    return ("M", y)


def is_mid(second) -> bool:
    return isinstance(second, tuple) and second[0] == "M"


# ---------------------------------------------------------------------------
# second-factor restrictions for sublex nodes
#
# Named tuples of three different lengths, so no two restrictions of
# different shapes ever compare equal.


class FullH(NamedTuple):
    """No restriction: middle columns hold the whole second group."""


class ProdH(NamedTuple):
    """Coordinatewise restriction: first side in zpart, second in ypart."""

    zpart: tuple
    ypart: tuple


class GraphH(NamedTuple):
    """Graph restriction {(n, n*c)}: one integer first coordinate, the
    single second coordinate determined by it."""

    c: object  # a kernel rational


# ---------------------------------------------------------------------------
# per-coordinate constraints (ladder entries and merged node data): the
# subgroup entries of plexalg.groups, full, triv, ('idx', m) and
# ('graph', c, src), value = c * value of ambient coordinate src; a
# constraint vector holds its non-full ones as (index, entry), by index.


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
    """Both vectors' cuts; one that cuts nothing leaves the other, shared."""
    if not a or not b:
        return a or b
    out = dict(a)
    out.update((i, merge_constr(out.get(i, FULL), con)) for i, con in b)
    return tuple(sorted(out.items()))


def _shift(vec, off: int) -> tuple:
    """vec moved off coordinates up, graph sources with it."""
    if not vec or not off:
        return vec
    return tuple((i + off, ("graph", con[1], con[2] + off)
                  if con[0] == "graph" else con) for i, con in vec)


def _checks(sub, rank: int) -> tuple:
    """The constraint vector of a dense subgroup spec over rank coordinates."""
    if len(sub) != rank:
        raise InvalidSubgroup("subgroup arity %d, expected %d" % (len(sub), rank))
    if sub.count(FULL) == rank:  # the usual spec, read at C speed
        return ()
    return tuple((i, con) for i, con in enumerate(sub) if con != FULL)


def _dense(vec, rank: int) -> tuple:
    """vec with one entry per coordinate, as specs are; a later pair wins."""
    out = [FULL] * rank
    for i, con in vec:
        out[i] = con
    return tuple(out)


def _checks_ok(checks, vec) -> bool:
    """A raw coordinate vector satisfies the constraint vector checks."""
    for i, con in checks:
        v = vec[i]
        if con[0] == "graph":
            if v != kn.rmul(con[1], vec[con[2]]):
                return False
        elif not coord_in_sub(con, v):
            return False
    return True


class LevelView(NamedTuple):
    """Group view of one reduction level.

    prefix    number of ambient coordinates the level keeps
    gconstr   constraint vector cutting the level's group out of them
    zconstr   constraint vector of the level's distinguished subgroup over
              the next level's prefix, or None for the whole next group
    """

    prefix: int
    gconstr: tuple
    zconstr: tuple | None


# ---------------------------------------------------------------------------
# the algebra tree


class _cached:
    """functools.cached_property as Python 3.12 has it, with no lock: fn(node)
    on the first read, kept in the node's dict.  With below, every node
    below that lacks the value computes it first (_cache_below)."""

    def __init__(self, fn, below=False):
        self.fn, self.below = fn, below

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        if self.below:
            _cache_below(obj, self.name)
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Algebra:
    """A node of the tree: immutable, equal and hashed by its fields.

    kind   'grp' or one of NODE_KINDS
    group  leaves: the GroupDesc
    x, y   inner nodes: the two children
    zsub   'tb' nodes: Z over the ambient of X's group part
    vsub   III/IV: V over the same ambient
    h      sublex nodes: FullH, ProdH or GraphH

    The kind flags are set with the fields; then only the cached
    attributes below write to a node, through the local _cached, as
    functools.cached_property locks every first read on Python 3.10-3.11.
    Nodes are immutable, so a race only computes an equal value twice."""

    def __init__(self, kind: str, group: GroupDesc | None = None,
                 x: Algebra | None = None, y: Algebra | None = None,
                 zsub: tuple | None = None, vsub: tuple | None = None,
                 h: FullH | ProdH | GraphH | None = None):
        family, cut = NODE_KINDS.get(kind, (None, None))
        self.__dict__.update(kind=kind, group=group, x=x, y=y, zsub=zsub,
                             vsub=vsub, h=h, is_leaf=kind == "grp",
                             family=family, is_sublex=cut == "h")

    def _key(self) -> tuple:
        return (self.kind, self.group, self.x, self.y, self.zsub, self.vsub,
                self.h)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # each builder is looked up on the call, so a patched one is seen
    xlen = _cached(lambda a: len(a.x._structure.ambient))
    _structure = _cached(lambda a: _build_structure(a), below=True)
    _ladder = _cached(lambda a: _flat_ladder(a))
    _pos_idems = _cached(lambda a: _lift_idems(a), below=True)
    _idem_branches = _cached(lambda a: _lift_branches(a), below=True)
    _ops = _cached(lambda a: _compile_ops(a), below=True)
    # compiled samplers (plexalg.sampling) by (magnitude, denominator, marker_p)
    _samplers = _cached(lambda a: {})
    # filled test by test on first use, each compiled by one recursion over
    # its idempotent (absorber), so no node below needs a table of its own
    _idem_tests = _cached(lambda a: _IdemTests(a))
    # compiled on first use, not on build: builders and rebuild make fresh
    # nodes on every call, and most of them never map a coordinate or step
    # a cover
    _coords = _cached(lambda a: _compile_coords(a), below=True)
    _covers = _cached(lambda a: _compile_covers(a), below=True)

    def __repr__(self):  # pragma: no cover - debugging aid
        from .parsing import print_algebra

        return print_algebra(self)


def leaf(desc: GroupDesc) -> Algebra:
    return Algebra(kind="grp", group=desc)


def _cache_below(a: Algebra, attr: str):
    """Compute the cached attribute attr on every inner node below a that
    lacks it, children first, in one iterative pass, so each computation
    finds its children's cached: a lazy lookup at every level would stack
    several frames per level and overflow on nestings the parser accepts.
    A leaf's value reads no node, so it is computed where first read, and
    a node whose children hold attr or are leaves returns at once: a fresh
    node over built children pays for its own level only."""
    if a.is_leaf or ((a.x.is_leaf or attr in vars(a.x))
                     and (a.y.is_leaf or attr in vars(a.y))):
        return
    below, stack = [], [a]
    while stack:
        n = stack.pop()
        fresh = [c for c in (n.x, n.y) if not c.is_leaf and attr not in vars(c)]
        below += fresh
        stack += fresh
    for n in reversed(below):
        getattr(n, attr)


class _NodeStructure(NamedTuple):
    ambient: tuple  # coordinate kinds of the full group part
    gconstr: tuple  # constraint vector cutting the group part out of them
    vconstr: tuple | None  # middle-column constraint vector over X's ambient
    zconstr: tuple | None  # top-column constraint vector ('tb' only)
    unit: tuple  # the unit, from the factors' units


def _build_structure(node: Algebra) -> _NodeStructure:
    """The node's constraint vectors and unit.  Its children's vectors are
    shared where it cuts nothing, so it writes only the entries its own
    specs hold (a ProdH's whole first side, as on a rebuilt II-chain)."""
    if node.is_leaf:
        g = node.group
        return _NodeStructure(g.kinds, (), None, None, kn.vzero(g.rank))
    xs, ys, xlen = node.x._structure, node.y._structure, node.xlen

    # the top set, and the middle columns: the top set cut by V or by the
    # first side of H (FullH and GraphH cut nothing there)
    family, cut = NODE_KINDS[node.kind]
    zc = (merge_constr_vec(xs.gconstr, _checks(node.zsub, xlen))
          if family == "tb" else None)
    vc = xs.gconstr if zc is None else zc
    if cut == "vsub":
        vc = merge_constr_vec(vc, _checks(node.vsub, xlen))
    elif isinstance(node.h, ProdH):
        vc = merge_constr_vec(vc, _checks(node.h.zpart, xlen))

    y_head = _shift(ys.gconstr, xlen)
    if isinstance(node.h, ProdH):  # over a leaf, whose vector is empty
        y_head = _shift(_checks(node.h.ypart, len(ys.ambient)), xlen)
    elif isinstance(node.h, GraphH):
        y_head = ((xlen, ("graph", node.h.c, xlen - 1)),)
    return _NodeStructure(xs.ambient + ys.ambient, vc + y_head, vc, zc,
                          (xs.unit, mid(ys.unit)))


def _flat_ladder(a: Algebra) -> tuple:
    """a's LevelView tuple: a level per leaf, Y before X.  Its group is the
    group part of the top t of the Y-chain (t, t.y, ...) to its leaf, its
    subgroup the top set of the node whose X is the next level, each after
    the middle-column vectors of the nodes holding t on their Y side."""
    entries, todo = [], [(a, 0, (), None)]
    while todo:
        n, off, above, z = todo.pop()
        g = above + _shift(n._structure.gconstr, off)
        while not n.is_leaf:
            s = n._structure
            todo.append((n.x, off, above, z))
            z = None if s.zconstr is None else above + _shift(s.zconstr, off)
            above += _shift(s.vconstr, off)
            off += n.xlen
            n = n.y
        entries.append(LevelView(off + n.group.rank, g, z))
    return tuple(entries)


def ladder(a: Algebra):
    """(ambient coordinate kinds, LevelView tuple) of the group part."""
    return a._structure.ambient, a._ladder


def gr_ambient(a: Algebra) -> GroupDesc:
    return GroupDesc(a._structure.ambient)


# ---------------------------------------------------------------------------
# compiled operations
#
# Algebra._ops holds a node's closures: they decide its family once, here,
# and call its children's closures directly.  A closure reaches the kernel
# through kn.* at call time, so all rational arithmetic stays in
# plexalg.kernel and a patched kernel sees every call.


class _Ops(NamedTuple):
    mul: Callable
    comp: Callable
    cmp: Callable
    free: Callable  # the marker test: no T/B marker anywhere


def _leaf_free(x) -> bool:
    return True


# a rank-1 leaf works on its one coordinate, any other leaf on the vector:
# most leaves have rank 1, and there one radd costs far less than vadd
_SCALAR_OPS = _Ops(lambda p, q: (kn.radd(p[0], q[0]),),
                   lambda p: (kn.rneg(p[0]),),
                   lambda p, q: kn.rcmp(p[0], q[0]), _leaf_free)
_VEC_OPS = _Ops(lambda p, q: kn.vadd(p, q), lambda p: kn.vneg(p),
                lambda p, q: kn.vcmp(p, q), _leaf_free)


def _compile_ops(a: Algebra) -> _Ops:
    """a's closures, from its children's (already compiled)."""
    if a.is_leaf:
        return _SCALAR_OPS if a.group.rank == 1 else _VEC_OPS
    xo, yo = a.x._ops, a.y._ops
    mx, my, nx, ny, cx, cy = xo.mul, yo.mul, xo.comp, yo.comp, xo.cmp, yo.cmp
    fx, fy = xo.free, yo.free
    ax = a.x

    if a.family == "tb":
        def mul(p, q):
            first = mx(p[0], q[0])
            sp, sq = p[1], q[1]
            if sp == BOT or sq == BOT:
                return (first, BOT)
            if sp == TOP or sq == TOP:
                return (first, TOP)
            return (first, ("M", my(sp[1], sq[1])))

        def comp(p):
            first, second = p
            nf = nx(first)
            # p is valid, so a top or middle column already lies over Z
            if second == TOP:
                return (nf, BOT)
            if second == BOT:
                return (nf, TOP if zset_member(a, first) else BOT)
            return (nf, ("M", ny(second[1])))

        def cmp(p, q) -> int:
            if p[0] != q[0]:  # canonical elements: unequal is unordered
                return cx(p[0], q[0])
            sp, sq = p[1], q[1]
            if sp == BOT:
                return 0 if sq == BOT else -1
            if sq == BOT:
                return 1
            if sp == TOP:
                return 0 if sq == TOP else 1
            if sq == TOP:
                return -1
            return cy(sp[1], sq[1])
    else:
        def mul(p, q):
            first = mx(p[0], q[0])
            sp, sq = p[1], q[1]
            if sp == TOP or sq == TOP:
                return (first, TOP)
            return (first, ("M", my(sp[1], sq[1])))

        def comp(p):
            first, second = p
            nf = nx(first)
            if second == TOP:
                if fx(first):
                    below = x_down(ax, nf)
                    if below == nf:
                        raise StructuralMismatch(
                            "group part of the child is not discrete")
                    return (below, TOP)
                return (nf, TOP)
            return (nf, ("M", ny(second[1])))

        def cmp(p, q) -> int:
            if p[0] != q[0]:
                return cx(p[0], q[0])
            sp, sq = p[1], q[1]
            if sp == TOP:
                return 0 if sq == TOP else 1
            if sq == TOP:
                return -1
            return cy(sp[1], sq[1])

    def free(x) -> bool:
        second = x[1]
        return isinstance(second, tuple) and fx(x[0]) and fy(second[1])

    return _Ops(mul, comp, cmp, free)


# Algebra._coords holds the coordinate maps and the two column tests that
# read them, Algebra._covers the cover below and the least element.  Like
# _ops they fold the node's constants in once (coordinate split, column
# constraints, slice step and slice bounds) and call the children's
# closures directly.


class _Coords(NamedTuple):
    gvec: Callable  # to_gvec
    partial: Callable  # partial_vec
    from_gvec: Callable  # group-part element from its raw vector, unchecked
    from_prefix: Callable  # _elem_from_prefix_raw
    mid: Callable | None  # mid_capable (inner nodes)
    top: Callable | None  # zset_member (inner nodes)


class _Covers(NamedTuple):
    down: Callable  # x_down
    least: object  # universe_min


def _same(x):
    return x


def _arity_check(what: str, rank: int):
    def check(h):
        if len(h) != rank:
            raise InvalidElement("%s arity %d, expected %d" % (what, len(h), rank))
        return h
    return check


def _column_test(free, gvec, constraints):
    """first -> the marker test on first and the constraints on its raw
    vector; the marker test alone when every coordinate is full."""
    if not constraints:
        return free
    return lambda first: free(first) and _checks_ok(constraints, gvec(first))


def _compile_coords(a: Algebra) -> _Coords:
    """a's coordinate maps and column tests, from its children's."""
    if a.is_leaf:
        rank = a.group.rank
        return _Coords(_same, _same, _arity_check("vector", rank),
                       _arity_check("prefix", rank), None, None)
    xc, yc = a.x._coords, a.y._coords
    gx, gy, px, py = xc.gvec, yc.gvec, xc.partial, yc.partial
    fgx, fgy, fpx, fpy = xc.from_gvec, yc.from_gvec, xc.from_prefix, yc.from_prefix
    s = a._structure
    xlen = a.xlen
    free = a.x._ops.free
    mid_ok = _column_test(free, gx, s.vconstr)
    top_ok = _column_test(free, gx, s.zconstr) if a.family == "tb" else free
    marker = BOT if a.family == "tb" else TOP
    # Y adds no coordinate: a prefix as long as X's is full-length
    y_rank0 = xlen == len(s.ambient)

    def gvec(x):
        return gx(x[0]) + gy(x[1][1])

    def partial(x):
        second = x[1]
        if isinstance(second, tuple):
            return gx(x[0]) + py(second[1])
        return px(x[0])

    def from_gvec(vec):
        return (fgx(vec[:xlen]), ("M", fgy(vec[xlen:])))

    def from_prefix(h):
        n = len(h)
        if n > xlen:
            return (fgx(h[:xlen]), ("M", fpy(h[xlen:])))
        first = fpx(h) if n < xlen else fgx(h)
        # a full-length prefix names a group element where a middle column
        # sits over first
        if y_rank0 and n == xlen and mid_ok(first):
            return (first, ("M", fpy(())))
        return (first, marker)

    return _Coords(gvec, partial, from_gvec, from_prefix, mid_ok, top_ok)


def _compile_covers(a: Algebra) -> _Covers:
    """a's cover below and least element, from its children's."""
    if a.is_leaf:
        k = a.group.kinds
        if k and k[-1] == "Z":
            down = lambda p: p[:-1] + (kn.rsub(p[-1], kn.ONE),)
        else:
            down = _same
        return _Covers(down, () if a.group.rank == 0 else None)
    dx, dy = a.x._covers.down, a.y._covers.down
    co = a._coords
    mid_ok, top_ok = co.mid, co.top
    tb = a.family == "tb"

    # the slice over first (the middle columns there): pin(first) is its
    # only element when it has one, else ymin and ymax are its bounds
    pin = ymin = ymax = None
    if a.is_sublex:
        step = _slice_step(a)
        cons = _y_constraints(a)
        if all(c == TRIV or c[0] == "graph" for c in cons):
            gx = a.x._coords.gvec

            def pin(first):
                vec = gx(first)
                return tuple(kn.ZERO if c == TRIV else kn.rmul(c[1], vec[c[2]])
                             for c in cons)
    else:
        ymin = a.y._covers.least
        ymax = universe_max(a.y)

    # the element right below the lowest column over first, or p
    if tb:
        under = lambda p, first: (first, BOT)
    else:
        def under(p, first):
            xd = dx(first)
            return p if xd == first else (xd, TOP)

    # the cover of a middle column, inside its slice or right below it
    if not a.is_sublex:
        def mid_down(p, first, yv):
            below = dy(yv)
            if below != yv:
                return (first, ("M", below))
            return under(p, first) if yv == ymin else p
    elif step is not None:
        i, m = step

        def mid_down(p, first, yv):
            out = list(yv)
            out[i] = kn.rsub(out[i], m)
            return (first, ("M", tuple(out)))
    elif pin is not None:
        mid_down = lambda p, first, yv: under(p, first)  # a one-point slice
    else:
        mid_down = lambda p, first, yv: p  # dense, unbounded below

    # the cover of a top column: the top of the slice, if any
    if pin is not None:
        top_down = lambda p, first: (first, ("M", pin(first)))
    elif ymax is not None:
        top_mid = ("M", ymax)
        top_down = lambda p, first: (first, top_mid)
    else:
        top_down = lambda p, first: p

    def down(p):
        first, second = p
        if second == TOP:
            return top_down(p, first) if mid_ok(first) else under(p, first)
        if second == BOT:
            xd = dx(first)
            if xd == first:
                return p
            return (xd, TOP) if top_ok(xd) else (xd, BOT)
        return mid_down(p, first, second[1])

    xmin = a.x._covers.least
    if xmin is None:
        least = None
    elif tb:
        least = (xmin, BOT)
    elif mid_ok(xmin):
        m = pin(xmin) if pin is not None else ymin
        least = None if m is None else (xmin, ("M", m))
    else:
        least = (xmin, TOP)
    return _Covers(down, least)


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


def zset_member(a: Algebra, first) -> bool:
    """first coordinate admits a top column ('tb': the Z subgroup).

    Precondition: first is a valid element of a.x."""
    return a._coords.top(first)


def mid_capable(a: Algebra, first) -> bool:
    """first coordinate admits middle columns (the V side, or H's shadow).

    Precondition: first is a valid element of a.x."""
    return a._coords.mid(first)


# ---------------------------------------------------------------------------
# raw coordinate vectors of group-part elements


def to_gvec(a: Algebra, x) -> tuple:
    """Flat rational vector of a group-part element."""
    return a._coords.gvec(x)


def partial_vec(a: Algebra, x) -> tuple:
    """Raw group coordinates of x down to its first marker.

    Group-part elements yield their full vector; an element whose second
    slot is a marker at depth k yields the length-k prefix that fixes its
    reduction class at every level above the marker.
    """
    return a._coords.partial(x)


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
    return a._coords.from_prefix(h)


# ---------------------------------------------------------------------------
# order


def cmp_elems(a: Algebra, p, q) -> int:
    """Lexicographic order, B < M(...) < T in the second slot."""
    return a._ops.cmp(p, q)


def le(a: Algebra, p, q) -> bool:
    return cmp_elems(a, p, q) <= 0


def lt(a: Algebra, p, q) -> bool:
    return cmp_elems(a, p, q) < 0


# ---------------------------------------------------------------------------
# monoid, involution, residual


def unit(a: Algebra):
    return a._structure.unit


def mul(a: Algebra, p, q):
    return a._ops.mul(p, q)


def comp(a: Algebra, p):
    return a._ops.comp(p)


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
# drive cover steps of the algebra (_compile_covers).


def _y_constraints(a: Algebra):
    """A sublex node's slice constraints on its Y leaf, dense: the Y part
    of its group part's vector, a graph entry pointing into the first side."""
    s = a._structure
    return _dense(s.gconstr, len(s.ambient))[a.xlen:]


def slice_member(a: Algebra, first, yv) -> bool:
    """yv lies in the slice over first.

    Precondition: first is a valid element of a.x that admits middle
    columns."""
    if not a.is_sublex:
        return validate_elem(a.y, yv)
    return (g_member(a.y.group, yv) and _checks_ok(
        a._structure.gconstr, to_gvec(a.x, first) + yv))


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


# ---------------------------------------------------------------------------
# covers and universe bounds


def universe_min(a: Algebra):
    """Least element of the universe, or None when unbounded below."""
    return a._covers.least


def universe_max(a: Algebra):
    """Greatest element of the universe, or None when unbounded above:
    the complement of the least one."""
    m = universe_min(a)
    return None if m is None else comp(a, m)


def x_down(a: Algebra, p):
    """Greatest element strictly below p, or p itself when none exists."""
    return a._covers.down(p)


def x_up(a: Algebra, p):
    """Least element strictly above p, or p itself when none exists.

    The complement reverses the order, so this is the cover below,
    mirrored: comp(x_down(comp(p)))."""
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


def _lift_branches(a: Algebra) -> tuple:
    """Per positive idempotent e of a, in the order of _lift_idems, whether
    comp(e) is idempotent, read off the structure with no product.  A
    middle column (tx, M(e)) over the unit tx of X has complement
    (tx, M(comp(e))), so it takes Y's answer at e.  A column lifted from
    X, (e, T) or (e, B), has a marker in e, so its complement keeps the
    marker over comp(e), and it takes X's answer at e.  The node's own
    top column (tx, T) has complement (tx, B) on a 'tb' node, which is
    idempotent, and (x_down(tx), T) on a 't' node, whose square lies
    lower still."""
    if a.is_leaf:
        return (True,)  # the unit is its own complement
    return a.y._idem_branches + (a.family == "tb",) + a.x._idem_branches[1:]


class _IdemTests:
    """The absorption tests of an algebra at its positive idempotents e_i
    and at their complements, each compiled on first use and kept: up(i)
    is x -> x * e_i == x and down(i) is x -> x * comp(e_i) == x; index
    maps each e_i to i.  The unit is its own complement, and x * unit ==
    x."""

    def __init__(self, a: Algebra):
        self._a, self._idems = a, a._pos_idems
        self.index = {e: i for i, e in enumerate(self._idems)}
        self._ups = [_always] + [None] * (len(self._idems) - 1)
        self._downs = list(self._ups)

    def up(self, i: int):
        if self._ups[i] is None:
            self._ups[i] = absorber(self._a, self._idems[i])
        return self._ups[i]

    def down(self, i: int):
        if self._downs[i] is None:
            self._downs[i] = absorber(self._a, comp(self._a, self._idems[i]))
        return self._downs[i]


# ---------------------------------------------------------------------------
# random elements, compiled by plexalg.sampling, which the first draw loads


def sample_elem(a: Algebra, rng, magnitude: int = 6, denominator: int = 8,
                marker_p: float = 0.25):
    """Random valid element; markers injected with probability marker_p
    per level, group-part directions otherwise (see plexalg.sampling)."""
    from .sampling import _sampler

    return _sampler(a, magnitude, denominator, marker_p)(rng.random,
                                                         rng.getrandbits)


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
