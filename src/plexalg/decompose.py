"""Peeling a chain into a tower of sublex levels over a group.

One peeling step works at the least strictly positive idempotent u.  The
interval between the complement of u and u is a union of cosets of one
convex subgroup (the kernel of the step); every invertible element x gets
a canonical coset representative and a kernel offset, and the elements
with local unit at least u form the skeleton that remains after the step.
Two shapes occur, as branch decides:

* the complement of u is idempotent: the chain maps onto its quotient by
  the gamma classes (QuotientChain), which glue each component (a beta
  class; beta is a map only) to its extremes and each gap to its upper
  end;
* it is not: the skeleton itself is a chain under the restricted
  operations (RestrictionChain).

peel(view) builds the step that applies.  Either shape builds once what
its readers need: u, its complement, the invertibility test and the
classifier around u, so every law at u reads one step.

Both step views keep elements of their base, ordered as there: a class
is an interval of the base and is named by its canonical member, so every
element of every peel level is an element of the input algebra.  The
member of a component is the canonical fill of its elements' head (their
raw coordinates above the step kernel), so a QuotientChain builds each
head's fill once, in a bounded memo owned by that step: nothing carries
over to another step or another report.

Iterating the step yields a representation tree: a base group plus one
level record per step, each holding the step shape, the distinguished
subgroup, the kernel hull and the middle-column restriction.  rebuild
turns the tree back into a concrete algebra.  A single step must run on
its own output, so it takes any view of the chain protocol
(plexalg.chains) and the step chains are views themselves.  The full peel
(representation_embedding, lex_embedding) reads every step off the input
chain in one pass instead of stacking views: the local unit of x names
the first step at which x is invertible, from there on each slot is a
slice of the raw coordinates of x, and below it each slot is a marker.
Mapping one element costs O(depth) chain operations.  Everything here
consumes chains only through the generic operations and the coordinate
ladder, never by inspecting the construction tree of the input.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from . import kernel as kn
from .build import build_sublex
from .chains import (
    BOT,
    NODE_KINDS,
    TOP,
    Algebra,
    BaseChain,
    ChainView,
    FullH,
    ProdH,
    _as_view,
    absorber,
    comp,
    ladder,
    leaf,
    mid,
    mul,  # not called here; perfbench's tracer test reads decompose.mul
    partial_vec,
    positive_idempotents,
    tau,
)
from .errors import (
    InvalidElement,
    OnlyUnitIdempotent,
    PreconditionFailed,
    StructuralMismatch,
    WrongBranch,
)
from .groups import (
    FULL,
    TRIV,
    GroupDesc,
    TRIV_GROUP,
    divisible_hull,
    entry_leq,
    g_add,
    g_cmp,
    g_member,
    g_zero,
    idx,
    sub_is_full,
)

# classification of an element relative to the least positive idempotent
GROUP_BELOW = "GroupElemBelow"
TOP_C = "TopC"
BOT_C = "BotC"
TOP_PS = "TopPs"
BOT_PS = "BotPs"
G2 = "G2"
INTERIOR = "Interior"

CLASS_KINDS = (GROUP_BELOW, TOP_C, BOT_C, TOP_PS, BOT_PS, G2, INTERIOR)
# an element x*u of the upper part that is neither TOP_C nor TOP_PS
NON_TOP = "non-top"

# canonical members a QuotientChain keeps by head, the least recently used
# dropped first; an exhaustive window ascends, so it meets each class (an
# interval) in one run of elements
FILL_MEMO = 1024

# the two peeling steps at the least strictly positive idempotent
IDEM_BRANCH = "IdemBranch"
NONIDEM_BRANCH = "NonIdemBranch"


class RepLevel(NamedTuple):
    """One peeling step: shape, distinguished subgroup, kernel hull and
    middle-column restriction, all over the rebuilt child coordinates."""

    iota: str  # 'I' (quotient step) or 'II' (restriction step)
    z: object  # constraint tuple, or 'gr' for restriction steps
    g: GroupDesc
    h: FullH | ProdH


class RepTree(NamedTuple):
    base: GroupDesc
    levels: tuple  # RepLevel, innermost step first

    def __repr__(self):  # pragma: no cover - debugging aid
        from .parsing import print_reptree

        return print_reptree(self)


# ---------------------------------------------------------------------------
# the least strictly positive idempotent and the branch decision


def smallest_pos_idem(a):
    view = _as_view(a)
    idems = view.pos_idems()
    if len(idems) == 1:
        raise OnlyUnitIdempotent(
            "%s has no idempotent above the unit" % view.describe())
    return idems[1]


def branch(a, u) -> str:
    """Which peeling step applies at u."""
    view = _as_view(a)
    nu = view.comp(u)
    return IDEM_BRANCH if view.mul(nu, nu) == nu else NONIDEM_BRANCH


def peel(a):
    """The peel level of an algebra or view at its least strictly positive
    idempotent u: a QuotientChain or a RestrictionChain, as branch says."""
    view = _as_view(a)
    u = smallest_pos_idem(view)
    if branch(view, u) == IDEM_BRANCH:
        return QuotientChain(view, u)
    return RestrictionChain(view, u)


def _check_least(view: ChainView, u):
    if u != smallest_pos_idem(view):
        raise PreconditionFailed(
            "the step idempotent must be the least strictly positive one")


# ---------------------------------------------------------------------------
# classification
#
# classifier(view, u) builds, once per view and u, the map sorting an
# element into the kinds above: invertible (GROUP_BELOW), the top or
# bottom extreme of a component (TOP_C, BOT_C), a pseudo-extreme closing
# a gap (TOP_PS, BOT_PS), an upper gap end of the second kind (G2), or
# none of these (INTERIOR).  It asks the view for its invertibility and
# absorption tests, so on a BaseChain it reads marker slots instead of
# computing tau(x) and x * comp(u), and multiplies only to tell a
# pseudo-top from a component top.  Other views derive both tests from
# their primitives.


def classify(a, u, x) -> str:
    """Class kind of one element x around u, with x and u checked.

    Each call validates x, recomputes the positive idempotents to check
    that u is the least strictly positive one, and builds a classifier:
    to classify many elements, read the kind of peel(a) once."""
    view = _as_view(a)
    if isinstance(view, BaseChain) and not view.validate(x):
        raise InvalidElement("classify: not an element")
    _check_least(view, u)
    return classifier(view, u)(x)


def classifier(view: ChainView, u):
    """Map x -> class kind of x around u, for u the least strictly
    positive idempotent of the view and x an element of it; neither is
    checked here."""
    nu = view.comp(u)
    invertible = view.invertible(u)
    absorbs = view.absorber(nu)

    def top_kind(x):
        """TOP_C / TOP_PS when x closes a component or a gap from above,
        None when x absorbs the complement of u from above."""
        if absorbs(x):
            return None
        below = view.x_down(x)
        if below == x:
            return TOP_C  # the component below x is dense
        if invertible(below):
            # x covers an invertible element, so the component is discrete
            # and x must sit directly on top of it
            if view.mul(below, u) != x:
                raise StructuralMismatch(
                    "cover of a top extreme is invertible but does not "
                    "generate it")
            return TOP_C
        if below == view.mul(x, nu):
            return TOP_PS
        raise StructuralMismatch("top-like element with a foreign cover below")

    def kind(x) -> str:
        if invertible(x):
            return GROUP_BELOW
        k = top_kind(x)
        if k is not None:
            return k
        k = top_kind(view.comp(x))
        if k == TOP_C:
            return BOT_C
        if k == TOP_PS:
            return BOT_PS
        return G2 if view.lt(view.x_down(x), x) else INTERIOR

    return kind


# ---------------------------------------------------------------------------
# canonical coset representatives and kernel offsets


def _canonical_fill(view: ChainView, head: tuple):
    """Element whose coordinates extend head canonically: free and indexed
    kernel directions at zero, graph-tied ones at their forced value."""
    e0 = view.entries[0]
    if len(head) != view.entries[1].prefix:
        raise StructuralMismatch("representative head has the wrong arity")
    vec = list(head)
    for j in range(len(head), e0.prefix):
        con = e0.gconstr[j]
        if con != FULL and con[0] == "graph":
            vec.append(kn.rmul(con[1], vec[con[2]]))
        else:
            vec.append(kn.ZERO)
    return view.fill_prefix(tuple(vec))


def _rep_of(view: ChainView, x):
    """Canonical representative of the kernel coset of x, for x invertible:
    the fill of its head, its raw coordinates above the step kernel."""
    return _canonical_fill(view, view.partial_vec(x)[: view.entries[1].prefix])


def _free_tail(entries) -> tuple:
    """Kernel coordinates of the step from entries[0] to entries[1] that
    are neither pinned nor tied to another coordinate by a graph."""
    e0 = entries[0]
    return tuple(j for j in range(entries[1].prefix, e0.prefix)
                 if e0.gconstr[j] != TRIV and e0.gconstr[j][0] != "graph")


def beta(a, u, x):
    """Member of the beta class of x, the component of an invertible x and
    a singleton elsewhere: the coset representative of an invertible x, x
    itself otherwise."""
    view = _as_view(a)
    return _rep_of(view, x) if view.invertible(u)(x) else x


def gamma(a, u, b):
    """Member of the gamma class of the beta class b.

    Each call checks the branch, then that u is the least strictly
    positive idempotent, and builds the quotient step: to map many
    elements, build QuotientChain(a, u) once and use its to_class."""
    view = _as_view(a)
    if branch(view, u) != IDEM_BRANCH:
        raise WrongBranch(
            "gluing classes need an idempotent complement of u")
    return QuotientChain(view, u).to_class(b)


# ---------------------------------------------------------------------------
# the two step views: both keep elements of their base, ordered as there


class _Step(ChainView):
    """One peeling step of a view at its least strictly positive u.  It
    builds once what both step shapes read: u, its complement nu, the
    invertibility test grp and the classifier kind around u.  grp is not
    named invertible: a step stacked on this one calls this view's
    invertible(u), the generic test of ChainView."""

    branch: str  # the branch this step shape peels
    needs: str  # the message of WrongBranch for the other branch

    def __init__(self, base, u):
        self.base = _as_view(base)
        _check_least(self.base, u)
        if branch(self.base, u) != self.branch:
            raise WrongBranch(self.needs)
        self.u = u
        self.nu = self.base.comp(u)
        self.cmp = self.base.cmp
        self.ambient = self.base.ambient
        self.entries = self.base.entries[1:]
        self._idems = None
        self.grp = self.base.invertible(u)
        self.kind = classifier(self.base, u)


class QuotientChain(_Step):
    """Chain of gamma classes: components glued to their extremes, gaps to
    their upper ends.  A class is an interval of the base, named by its
    canonical member, which is an element of the base: to_class maps an
    element of the base to the member of its class.  The class operations
    map through _class, a memo of to_class."""

    branch = IDEM_BRANCH
    needs = "the quotient step needs an idempotent complement of u"

    def __init__(self, base, u):
        super().__init__(base, u)
        self._head_len = self.base.entries[1].prefix
        # a class's canonical member depends only on the head of its
        # elements: build it once per head, in a memo that lives and dies
        # with this step
        self._fill = lru_cache(maxsize=FILL_MEMO)(
            partial(_canonical_fill, self.base))
        # a quotient of a quotient classifies the same few base elements
        # over and over: each class operation classifies one level down.
        # A window scan meets each element once, so to_class itself stays
        # plain
        self._class = lru_cache(maxsize=64)(self.to_class)

    def describe(self) -> str:
        return "glued quotient of %s" % self.base.describe()

    def to_class(self, x):
        """Canonical member of the gamma class of x: the coset
        representative of the component x belongs to or closes, the upper
        end of the gap pair x closes, and x itself otherwise.  The kinds
        are disjoint (representatives are invertible, gap uppers are
        pseudo-tops), so the member fixes the class.  The representative
        is the fill of the head of an invertible x, read with no
        classification, and of the whole prefix of a component top, which
        is as long."""
        base, fill = self.base, self._fill
        if self.grp(x):
            return fill(base.partial_vec(x)[:self._head_len])
        kind = self.kind(x)
        if kind == TOP_C:
            return fill(base.partial_vec(x))
        if kind == BOT_C:
            top_rep = fill(base.partial_vec(base.comp(x)))
            return fill(base.partial_vec(base.comp(top_rep))[:self._head_len])
        if kind == BOT_PS:
            return base.x_up(x)
        return x

    def mul(self, p, q):
        return self._class(self.base.mul(p, q))

    def comp(self, p):
        return self._class(self.base.comp(p))

    def unit(self):
        return self._class(self.base.unit())

    def sampler(self, rng):
        draw, to_class = self.base.sampler(rng), self._class
        return lambda: to_class(draw())

    def class_min(self, c):
        if self.grp(c):
            return self.base.mul(c, self.nu)
        return self.base.x_down(c) if self.kind(c) == TOP_PS else c

    def class_max(self, c):
        return self.base.mul(c, self.u) if self.grp(c) else c

    def x_down(self, c):
        low = self.class_min(c)
        below = self.base.x_down(low)
        return c if below == low else self._class(below)

    def pos_idems(self) -> tuple:
        if self._idems is None:
            self._idems = tuple(
                self._class(e) for e in self.base.pos_idems()[1:])
        return self._idems

    def partial_vec(self, c) -> tuple:
        return self.base.partial_vec(c)[: self.prefix]

    def elem_from_prefix(self, h: tuple):
        return self._class(self.base.elem_from_prefix(h))

    def validate(self, c) -> bool:
        return self.base.validate(c) and self._class(c) == c


# ---------------------------------------------------------------------------
# the restriction to elements with local unit at least u


class RestrictionChain(_Step):
    """Elements whose local unit is at least u, with u as the new unit."""

    branch = NONIDEM_BRANCH
    needs = "the restriction step needs a non-idempotent complement of u"

    def describe(self) -> str:
        return "local-unit restriction of %s" % self.base.describe()

    def contains(self, x) -> bool:
        # the local unit tau(x) is at least u exactly when x is not
        # invertible
        return not self.grp(x)

    def mul(self, p, q):
        return self.base.mul(p, q)

    def comp(self, p):
        # uniform form of the two-case complement: top-like elements step
        # down inside their column first, everything else is fixed by *nu
        return self.base.comp(self.base.mul(p, self.nu))

    def unit(self):
        return self.u

    def x_down(self, p):
        d = self.base.mul(p, self.nu)
        if self.base.lt(d, p):
            return d
        below = self.base.x_down(p)
        if below != p and not self.contains(below):
            raise StructuralMismatch("cover below leaves the restriction")
        return below

    def pos_idems(self) -> tuple:
        if self._idems is None:
            self._idems = tuple(self.base.pos_idems()[1:])
        return self._idems

    def partial_vec(self, p) -> tuple:
        return self.base.partial_vec(p)

    def elem_from_prefix(self, h: tuple):
        # * u moves a group element of the base (a full-length prefix, when
        # the step kernel has rank 0) onto the restriction, fixing the rest
        x = self.base.mul(self.base.elem_from_prefix(h), self.u)
        if not self.contains(x):
            raise InvalidElement("prefix lands outside the restriction")
        return x

    def validate(self, p) -> bool:
        return self.base.validate(p) and self.contains(p)

    def sampler(self, rng):
        # multiplying by u projects any sample onto the restriction and
        # fixes elements already inside it
        draw, mul, u = self.base.sampler(rng), self.base.mul, self.u
        return lambda: mul(draw(), u)


# ---------------------------------------------------------------------------
# the closure that forgets one kernel


def phi_nucleus(a, u, x):
    """Least element above x that the peeling step cannot separate."""
    view = _as_view(a)
    nu = view.comp(u)
    return view.comp(view.mul(view.comp(view.mul(x, nu)), nu))


# ---------------------------------------------------------------------------
# representation trees


def _rebuilt_coords(entries, ambient):
    """Ambient indices kept by the rebuilt tower below a view, innermost
    group first, with the kinds of the rebuilt coordinates."""
    if any(c != FULL for c in entries[-1].gconstr):
        raise StructuralMismatch("innermost level with nontrivial constraints")
    idxs = list(range(entries[-1].prefix))
    kinds = [ambient[j] for j in idxs]
    for lev in range(len(entries) - 2, -1, -1):
        g = entries[lev].gconstr
        for j in range(entries[lev + 1].prefix, entries[lev].prefix):
            if g[j] == TRIV or g[j][0] == "graph":
                continue
            idxs.append(j)
            kinds.append("Q")  # kernel directions live in their hull
    return idxs, GroupDesc(tuple(kinds))


def _entry_eq(kind: str, p, q) -> bool:
    return entry_leq(kind, p, q) and entry_leq(kind, q, p)


def _in_hull(con, ambient_kind: str, kind: str):
    """A constraint on an ambient coordinate, read in a rebuilt coordinate
    of the given kind: the whole of an integer direction kept as its hull
    Q is the index-1 subgroup there."""
    if con == FULL and ambient_kind == "Z" and kind == "Q":
        return idx(1)
    return con


def _level_record(ambient, entries, idem_branch: bool):
    """RepLevel of the step from entries[0] to entries[1] plus its free
    kernel indices."""
    e0 = entries[0]
    g0 = e0.gconstr
    free = _free_tail(entries)
    if free:
        gdesc = divisible_hull(GroupDesc(tuple(ambient[j] for j in free)))
    else:
        gdesc = TRIV_GROUP
    ypart = tuple(_in_hull(g0[j], ambient[j], "Q") for j in free)
    kept, child_desc = _rebuilt_coords(entries[1:], ambient)
    coords = tuple(zip(kept, child_desc.kinds))
    zpart = tuple(_in_hull(g0[j], ambient[j], k) for j, k in coords)
    if idem_branch:
        zsrc = e0.zconstr
        if zsrc is None:
            raise StructuralMismatch("quotient step without top-column data")
        z = tuple(_in_hull(zsrc[j], ambient[j], k) for j, k in coords)
        full_ok = all(
            _entry_eq(child_desc.kinds[i], zpart[i], z[i])
            for i in range(len(kept)))
    else:
        if e0.zconstr is not None:
            raise StructuralMismatch("restriction step with top-column data")
        z = "gr"
        full_ok = sub_is_full(child_desc, zpart)
    if full_ok and all(c == FULL for c in ypart):
        h = FullH()
    else:
        h = ProdH(zpart, ypart)
    level = RepLevel(iota="I" if idem_branch else "II", z=z, g=gdesc, h=h)
    return level, free


def _walk(a: Algebra):
    """(representation tree, lex coordinates of elements), in one pass
    that reads each step's constants once.  The tree alone names the
    rebuilt algebra; representation_embedding, the only caller that needs
    it, stacks it with rebuild.

    Step k works at the positive idempotent idems[k + 1] and splits
    ladder entry k from entry k + 1.  An element x whose local unit is
    idems[j] is invertible at steps j, j + 1, ...; there its slot is the
    free kernel slice of its raw coordinates, which the class
    representatives of all earlier steps keep.  At the steps below j its
    slot is a marker: T for a restriction step, and for a quotient step
    T or B as x does or does not absorb the complement of the step
    idempotent."""
    ambient, entries = ladder(a)
    idems = positive_idempotents(a)
    if len(idems) != len(entries):
        raise StructuralMismatch(
            "idempotent count disagrees with the coordinate ladder")
    if any(c != FULL for c in entries[-1].gconstr):
        raise StructuralMismatch("group level with nontrivial constraints")
    base = GroupDesc(tuple(ambient[: entries[-1].prefix]))
    nus = [comp(a, u) for u in idems[1:]]
    idem_b = [branch(a, u) == IDEM_BRANCH for u in idems[1:]]
    levels, steps = [], []
    for k in range(len(nus) - 1, -1, -1):  # innermost step first
        level, free = _level_record(ambient, entries[k:], idem_b[k])
        levels.append(level)
        steps.append((k, idem_b[k], absorber(a, nus[k]), free))
    head = entries[-1].prefix
    unit_step = {e: j for j, e in enumerate(idems)}

    def lex(x):
        j = unit_step.get(tau(a, x))
        if j is None:
            raise StructuralMismatch("local unit is not a positive idempotent")
        vec = partial_vec(a, x)
        out = [vec[:head]]
        for k, idem, absorbs, free in steps:
            if k >= j:
                out.append(tuple(vec[i] for i in free))
            elif idem and absorbs(x):
                out.append(BOT)
            else:
                out.append(TOP)
        return tuple(out)

    return RepTree(base=base, levels=tuple(levels)), lex


def _nest(p):
    """Tower element of the lex coordinates p, innermost level first."""
    e = p[0]
    for s in p[1:]:
        e = (e, s if s in (TOP, BOT) else mid(s))
    return e


def group_representation(a: Algebra) -> RepTree:
    tree, _ = _walk(a)
    return tree


def representation_embedding(a: Algebra):
    """Full peel of an algebra.

    Returns (tree, rebuilt, fn) where rebuilt is the algebra assembled
    from the tree and fn maps elements of a onto it in one pass over the
    levels."""
    tree, lex = _walk(a)
    return tree, rebuild(tree), lambda x: _nest(lex(x))


def _stack_level(node: Algebra, level: RepLevel) -> Algebra:
    kind = "SL" + level.iota  # the sublex kind of shape I (SLI) or II (SLII)
    if kind not in NODE_KINDS:
        raise PreconditionFailed("level shape must be I or II")
    if NODE_KINDS[kind][0] == "t":
        if level.z != "gr":
            raise PreconditionFailed(
                "restriction levels take the whole child group")
        return build_sublex(kind, node, leaf(level.g), level.h)
    if level.z == "gr":
        raise PreconditionFailed("quotient levels need an explicit subgroup")
    return build_sublex(kind, node, leaf(level.g), level.h, zsub=level.z)


def rebuild(tree: RepTree) -> Algebra:
    node = leaf(tree.base)
    for level in tree.levels:
        node = _stack_level(node, level)
    return node


# ---------------------------------------------------------------------------
# flattening into a lex product of groups with adjoined bounds


class LexMonoid(NamedTuple):
    """Lex product of the base group with bound-adjoined kernel hulls.

    Elements are tuples (h, e_2, ..., e_n): h in the base group, each e_i
    either a vector of the i-th hull or one of the markers 'T', 'B'.
    Multiplication is slotwise with absorbing markers, order is
    lexicographic with B below every vector and T above.
    """

    base: GroupDesc
    parts: tuple  # GroupDesc per level

    def contains(self, p) -> bool:
        if len(p) != 1 + len(self.parts) or not g_member(self.base, p[0]):
            return False
        return all(
            e in (TOP, BOT) or g_member(g, e)
            for g, e in zip(self.parts, p[1:]))

    def unit(self):
        return (g_zero(self.base),) + tuple(g_zero(g) for g in self.parts)

    def mul(self, p, q):
        out = [g_add(self.base, p[0], q[0])]
        for g, e, f in zip(self.parts, p[1:], q[1:]):
            if BOT in (e, f):
                out.append(BOT)
            elif TOP in (e, f):
                out.append(TOP)
            else:
                out.append(g_add(g, e, f))
        return tuple(out)

    def cmp(self, p, q) -> int:
        c = g_cmp(self.base, p[0], q[0])
        if c:
            return c
        for g, e, f in zip(self.parts, p[1:], q[1:]):
            if e == f:
                continue
            re = 0 if e == BOT else 2 if e == TOP else 1
            rf = 0 if f == BOT else 2 if f == TOP else 1
            if re != rf:
                return -1 if re < rf else 1
            return g_cmp(g, e, f)
        return 0

    def describe(self) -> str:
        from .parsing import print_algebra

        names = [print_algebra(leaf(self.base))]
        names += ["%s^TB" % print_algebra(leaf(g)) for g in self.parts]
        return " lex ".join(names)


def lex_embedding(a: Algebra):
    """(LexMonoid, map) embedding the chain for product and order only."""
    tree, lex = _walk(a)
    monoid = LexMonoid(base=tree.base,
                       parts=tuple(level.g for level in tree.levels))
    return monoid, lex
