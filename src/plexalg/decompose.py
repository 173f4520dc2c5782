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

peel(view) builds the step that applies.  _Step holds what both shapes
share, and each shape adds its projection and its operations.  A step is
its base seen through one projection: the member of its class for a
quotient, x -> x * u for a restriction.  Its elements are the base
elements that the projection fixes, ordered as there; a class is an
interval of the base, named by its canonical member.  So every element of
every peel level is an element of the input algebra a, and a step reads
its constants off a, however deep it sits.  A view's level k counts the
steps between it and a, and the step at level k works at
u = positive_idempotents(a)[k]: it reads its shape and the idempotents
above u off a's tables, and builds nu, the complement of u in a, the test
x * u != x and the classifier around u on a, once, so every law at u
reads one step.  A restriction computes on a alone, since every
projection below it fixes x * u; a quotient maps the members it builds
on a onto the base, and its covers descend through the base.

The member of a component is the canonical fill of its elements' head
(their raw coordinates above the step kernel), built once per head in a
bounded memo owned by the step.

Every consumer reaches a chain through one view protocol, defined here:
ChainView derives le, lt, res, tau, fconst and x_up from the primitives a
subclass provides, and BaseChain binds an algebra's compiled closures
(plexalg.chains) on each view as its mul, comp and cmp, one call each (a
subclass rebinds one in __init__: a method on the class would be
shadowed).  Law suites, homomorphism checks and peeling steps all use
it, so each runs unchanged on an algebra, a peel level or a mutated
algebra (whose `clean` view is the uncorrupted one).  A view's
sampler(rng) is a zero-argument draw bound to rng, which a sample stream
binds once, and its project maps an element of its algebra a onto the
view.  The view's invertibility, absorption and upper-kind tests
(upper_kind, lifts_to) are arithmetic by default, and lacks_pseudo_tops
says False; BaseChain answers them by structure, and an algebra compiles
its absorption test at each positive idempotent and at its complement
once, on first use.  A single step must run on its own output, so it
takes any view and the step chains are views themselves.

Iterating the step yields a representation tree (plexalg.build.RepTree):
a base group plus one level record per step, each holding the step
shape, the distinguished subgroup, the kernel hull and the middle-column
restriction.  rebuild, in plexalg.build so that a rebuild never loads
this module, turns the tree back into a concrete algebra.  The full peel
(representation_embedding, lex_embedding) reads every step off the input
chain in one pass instead of stacking views: the local unit of x names
the first step at which x is invertible, from there on each slot is a
slice of the raw coordinates of x, and below it each slot is a marker.
Mapping one element reads its slots and computes no chain operation: its
raw coordinates, O(log depth) absorption tests for its local unit and at
most one absorption test per level below it.  Reading the tree computes
none either: each step's branch is cached on the algebra, read off its
structure.  Everything here
consumes chains only through the generic operations and the coordinate
ladder, never by inspecting the construction tree of the input.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

from . import kernel as kn
from .build import RepLevel, RepTree, rebuild
from .chains import (
    BOT,
    TOP,
    Algebra,
    FullH,
    ProdH,
    _dense,
    _elem_from_prefix_raw,
    absorber,
    comp,
    ladder,
    leaf,
    mid,
    mul,
    partial_vec,
    positive_idempotents,
    unit,
    validate_elem,
    x_down,
    x_up,
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
    divisible_hull,
    g_add,
    g_cmp,
    g_member,
    g_zero,
    idx,
    sub_is_full,
    sub_leq,
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


# ---------------------------------------------------------------------------
# kinds around the least strictly positive idempotent
#
# Let u be the least strictly positive idempotent and call x*u the upper
# part.  Follow the second factors from the root down to the node n whose
# Y is a group leaf (_upper_node): u is n's top column over the unit, seen
# through the middle columns of the nodes above, which hold whole copies
# of their Y; their marker columns absorb u and its complement: non-tops
# (Prop 8.2).  At n the upper part is its top columns and, for 'tb', its
# bottom columns, non-tops.  A top column over an invertible f closes a
# component when f carries middle columns, else it is a pseudo-top; over
# a non-invertible f (family 't' only) it absorbs the complement of u and
# is a non-top.  So BaseChain reads the kind of x*u off x's slots
# (upper_kind, in the kind names above), tells from n's constraints
# whether any pseudo-top exists (lacks_pseudo_tops), and x*u == t for
# invertible x: x turned top at n (lifts_to).


def _upper_node(a: Algebra):
    """(n of the notes above, the number of nodes above n)."""
    n, depth = a, 0
    while not n.y.is_leaf:
        n, depth = n.y, depth + 1
    return n, depth


def _lacks_pseudo_tops(a: Algebra) -> bool:
    """The structure of a rules pseudo-tops out (see above): every first
    coordinate carrying a top column at n also carries middle columns."""
    if a.is_leaf:
        return False
    n = _upper_node(a)[0]
    s, xs = n._structure, n.x._structure
    tops = s.zconstr if n.family == "tb" else xs.gconstr
    return sub_leq(GroupDesc(xs.ambient), tops, s.vconstr)


# ---------------------------------------------------------------------------
# the view protocol
#
# BaseChain wraps an algebra; a peel step (_Step, below) wraps another
# view, so a step runs on its own output, but reads its constants and
# builds its elements on the algebra a below every view, which each view
# keeps; lawcheck.Mutant is a BaseChain with corrupted primitives.


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

    # tests for elements the caller drew or computed itself; BaseChain
    # answers them structurally, other views by arithmetic

    def invertible(self, u):
        """Test x -> tau(x) < u, which for u the least strictly positive
        idempotent says that x is invertible."""
        return lambda x: self.lt(self.tau(x), u)

    def absorber(self, e):
        """Test x -> not x*e < x, which for e at most the unit says that
        x*e == x."""
        return lambda x: not self.lt(self.mul(x, e), x)

    def lacks_pseudo_tops(self, u) -> bool:
        """One-sided presence test: True when no element x*u of the upper
        part around u, the least strictly positive idempotent, is a
        pseudo-top; False when one exists or the view cannot tell.  Only
        BaseChain answers from structure."""
        return False

    def upper_kind(self, u):
        """x -> the kind of x*u: TOP_C, TOP_PS or NON_TOP."""
        kind = classifier(self, u)

        def upper(x):
            k = kind(self.mul(x, u))
            return k if k in (TOP_C, TOP_PS) else NON_TOP
        return upper

    def lifts_to(self, u):  # (x, t) -> x*u == t, for x invertible
        return lambda x, t: self.mul(x, u) == t

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
    """View of a concrete algebra.  Its primitives mul, comp and cmp are
    the algebra's closures, bound per view: a subclass rebinds one in
    __init__, since a method on the class would be shadowed."""

    k = 0  # the peel level; a step sits one level below its base

    def __init__(self, a: Algebra):
        self.a = a
        self.ambient, self.entries = ladder(a)
        ops = a._ops
        self.mul, self.comp, self.cmp = ops.mul, ops.comp, ops.cmp

    def describe(self) -> str:
        return repr(self.a)

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

    def project(self, x):
        """Every element of the algebra is an element of this view."""
        return x

    def invertible(self, u):
        # for a positive idempotent u, tau(x) < u says x * u != x: x * u
        # >= x, and x * u <= x exactly when u <= tau(x), by residuation
        absorbs = self.absorber(u)
        return lambda x: not absorbs(x)

    def absorber(self, e):
        # compiled once per algebra where e is a positive idempotent or the
        # complement of one (so comp(e) is one), on the spot elsewhere
        tests = self.a._idem_tests
        i = tests.index.get(e)
        if i is not None:
            return tests.up(i)
        i = tests.index.get(self.comp(e))
        return absorber(self.a, e) if i is None else tests.down(i)

    def validate(self, p) -> bool:
        return validate_elem(self.a, p)

    def lacks_pseudo_tops(self, u) -> bool:
        return _lacks_pseudo_tops(self.a)

    def upper_kind(self, u):
        n, depth = _upper_node(self.a)
        free, mid_ok = n.x._ops.free, n._coords.mid
        def kind(x):
            for _ in range(depth):
                if not isinstance(x[1], tuple):  # a marker column above n
                    return NON_TOP
                x = x[1][1]
            if x[1] == BOT or not free(x[0]):
                return NON_TOP
            return TOP_C if mid_ok(x[0]) else TOP_PS
        return kind

    def lifts_to(self, u):
        depth = _upper_node(self.a)[1]
        def lifts(x, t):
            for _ in range(depth):
                if x[0] != t[0] or not isinstance(t[1], tuple):
                    return False
                x, t = x[1][1], t[1][1]
            return t[1] == TOP and x[0] == t[0]
        return lifts

    def sampler(self, rng):
        """Zero-argument draw bound to rng: sample_elem with its defaults."""
        from .sampling import _sampler

        return partial(_sampler(self.a, 6, 8, 0.25), rng.random,
                       rng.getrandbits)


def _as_view(a):
    """A BaseChain for an Algebra; anything else is taken as a view."""
    return BaseChain(a) if isinstance(a, Algebra) else a


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
    """Which peeling step applies at any u, by arithmetic: whether comp(u)
    is idempotent.  peel, the steps and _walk read it at each positive
    idempotent off the algebra's table (chains._lift_branches)."""
    view = _as_view(a)
    nu = view.comp(u)
    return IDEM_BRANCH if view.mul(nu, nu) == nu else NONIDEM_BRANCH


def peel(a):
    """The peel level of an algebra or view at its least strictly positive
    idempotent u, positive_idempotents(a)[k + 1] on a view of level k: a
    QuotientChain or a RestrictionChain, as a's branch table says there."""
    view = _as_view(a)
    u = smallest_pos_idem(view)
    if view.a._idem_branches[view.k + 1]:
        return QuotientChain(view, u)
    return RestrictionChain(view, u)


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
# their primitives.  A peel step deeper down classifies on its input
# algebra at its own u, a greater positive idempotent there: the kinds
# around u are those on the level where u is the least.


def classify(a, u, x) -> str:
    """Class kind of one element x around u, with x and u checked.

    Each call validates x on the view, checks that u is the least strictly
    positive idempotent (read off the input algebra's list, also on a peel
    level) and builds a classifier, whose tests an algebra compiles once:
    to classify many elements, read the kind of peel(a) once."""
    view = _as_view(a)
    if not view.validate(x):
        raise InvalidElement("classify: not an element")
    if u != smallest_pos_idem(view):
        raise PreconditionFailed(
            "the step idempotent must be the least strictly positive one")
    return classifier(view, u)(x)


def classifier(view: ChainView, u):
    """Map x -> class kind of x around u, for u the least strictly
    positive idempotent of the view, or any strictly positive one of an
    algebra's BaseChain, and x an element of it; neither is checked
    here."""
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
    """Element of the view whose coordinates extend head canonically: free
    and indexed kernel directions at zero, graph-tied ones at their forced
    value.  It is built on the view's algebra a, where the prefix names an
    element, and the view's project maps it onto the view."""
    e0, n = view.entries[0], len(head)
    if n != view.entries[1].prefix:
        raise StructuralMismatch("representative head has the wrong arity")
    vec = list(head) + [kn.ZERO] * (e0.prefix - n)
    for j, con in reversed(e0.gconstr):  # the kernel's pairs come last
        if j < n:
            break
        if con[0] == "graph":  # its source lies in the head
            vec[j] = kn.rmul(con[1], vec[con[2]])
    return view.project(_elem_from_prefix_raw(view.a, tuple(vec)))


def _rep_of(view: ChainView, x):
    """Canonical representative of the kernel coset of x, for x invertible:
    the fill of its head, its raw coordinates above the step kernel."""
    return _canonical_fill(view, view.partial_vec(x)[: view.entries[1].prefix])


def beta(a, u, x):
    """Member of the beta class of x, the component of an invertible x and
    a singleton elsewhere: the coset representative of an invertible x, x
    itself otherwise."""
    view = _as_view(a)
    return _rep_of(view, x) if view.invertible(u)(x) else x


def gamma(a, u, b):
    """Member of the gamma class of the beta class b.

    Each call checks the branch by arithmetic at u, then that u is the
    least strictly positive idempotent, and builds the quotient step: to
    map many elements, build QuotientChain(a, u) once and use its
    to_class."""
    view = _as_view(a)
    if branch(view, u) != IDEM_BRANCH:
        raise WrongBranch(
            "gluing classes need an idempotent complement of u")
    return QuotientChain(view, u).to_class(b)


# ---------------------------------------------------------------------------
# the two step views: both keep elements of their base, ordered as there


class _Step(ChainView):
    """One peeling step of a view at its least strictly positive
    idempotent u: the base seen through project, which maps an element of
    the input algebra a onto the step and fixes exactly the step's
    elements.  At level k, one below its base, u is
    positive_idempotents(a)[k].  The step builds once, on a, what both
    shapes read: u, its complement nu, the test grp, x * u != x, which
    says tau(x) < u, and the classifier kind around u."""

    branch: str  # the branch this step shape peels
    needs: str  # the message of WrongBranch for the other branch
    shape: str  # what describe calls the step

    def __init__(self, base, u):
        self.base = base = _as_view(base)
        # a direct call may pass any u, so check it even after peel did
        if u != smallest_pos_idem(base):
            raise PreconditionFailed(
                "the step idempotent must be the least strictly positive one")
        self.a = a = base.a
        self.k = base.k + 1
        if a._idem_branches[self.k] != (self.branch == IDEM_BRANCH):
            raise WrongBranch(self.needs)
        root = BaseChain(a)
        self.u, self.nu = u, comp(a, u)
        self.cmp = root.cmp
        self.ambient = base.ambient
        self.entries = base.entries[1:]
        self.grp = root.invertible(u)
        self.kind = classifier(root, u)

    def describe(self) -> str:
        return "%s of %s" % (self.shape, self.base.describe())

    def unit(self):
        return self.project(self.base.unit())

    def sampler(self, rng):
        draw, project = self.base.sampler(rng), self.project
        return lambda: project(draw())

    def pos_idems(self) -> tuple:
        # the projections down to this step fix every idempotent above u
        return (self.unit(),) + positive_idempotents(self.a)[self.k + 1:]

    def validate(self, x) -> bool:
        return self.base.validate(x) and self.project(x) == x


class QuotientChain(_Step):
    """Chain of gamma classes: components glued to their extremes, gaps to
    their upper ends; to_class, the projection, maps an element of a to
    the canonical member of its class."""

    branch = IDEM_BRANCH
    needs = "the quotient step needs an idempotent complement of u"
    shape = "glued quotient"

    def __init__(self, base, u):
        super().__init__(base, u)
        self._lift = self.base.project  # a member built on a, onto the base
        self._head_len = self.base.entries[1].prefix
        # a class's canonical member depends only on the head of its
        # elements: build it once per head, in a memo that lives and dies
        # with this step
        self._fill = lru_cache(maxsize=FILL_MEMO)(
            partial(_canonical_fill, self.base))

    def project(self, x):
        return self.to_class(x)

    def to_class(self, x):
        """Canonical member of the gamma class of x: the coset
        representative of the component x belongs to or closes, the upper
        end of the gap pair x closes, and x itself otherwise.  The kinds
        are disjoint (representatives are invertible, gap uppers are
        pseudo-tops), so the member fixes the class.  The representative
        is the fill of the head of an invertible x, read with no
        classification, and of the whole prefix of a component top, which
        is as long.  x may be any element of a: the member is built on a
        and mapped onto the base once."""
        a, fill = self.a, self._fill
        if self.grp(x):
            return fill(partial_vec(a, x)[:self._head_len])
        kind = self.kind(x)
        if kind == TOP_C:
            return fill(partial_vec(a, x))
        if kind == BOT_C:
            top_rep = fill(partial_vec(a, comp(a, x)))
            return fill(partial_vec(a, comp(a, top_rep))[:self._head_len])
        if kind == BOT_PS:
            return self._lift(x_up(a, x))
        return self._lift(x)

    def mul(self, p, q):
        return self.to_class(mul(self.a, p, q))

    def comp(self, p):
        return self.to_class(comp(self.a, p))

    def class_min(self, c):
        if self.grp(c):
            return self._lift(mul(self.a, c, self.nu))
        return self.base.x_down(c) if self.kind(c) == TOP_PS else c

    def class_max(self, c):
        return self._lift(mul(self.a, c, self.u)) if self.grp(c) else c

    def x_down(self, c):
        low = self.class_min(c)
        below = self.base.x_down(low)
        return c if below == low else self.to_class(below)

    def partial_vec(self, c) -> tuple:
        return self.base.partial_vec(c)[: self.prefix]


class RestrictionChain(_Step):
    """Elements whose local unit is at least u, with u as the new unit:
    the projection x -> x * u fixes exactly them, since u <= tau(x) gives
    x * u == x, and an invertible y has y * u != y.  The projections
    below fix x * u, so the step never maps through its base."""

    branch = NONIDEM_BRANCH
    needs = "the restriction step needs a non-idempotent complement of u"
    shape = "local-unit restriction"

    def project(self, x):
        return mul(self.a, x, self.u)

    def contains(self, x) -> bool:
        # the local unit tau(x) is at least u exactly when x is not
        # invertible
        return not self.grp(x)

    def mul(self, p, q):
        # a's product: the restriction is closed under it
        return mul(self.a, p, q)

    def comp(self, p):
        # uniform form of the two-case complement: top-like elements step
        # down inside their column first, everything else is fixed by *nu
        return comp(self.a, mul(self.a, p, self.nu))

    def x_down(self, p):
        d = mul(self.a, p, self.nu)
        if self.lt(d, p):
            return d
        below = self.base.x_down(p)
        if below != p and not self.contains(below):
            raise StructuralMismatch("cover below leaves the restriction")
        return below

    def partial_vec(self, p) -> tuple:
        return self.base.partial_vec(p)


# ---------------------------------------------------------------------------
# the closure that forgets one kernel


def phi_nucleus(a, u, x):
    """Least element above x that the peeling step cannot separate."""
    view = _as_view(a)
    nu = view.comp(u)
    return view.comp(view.mul(view.comp(view.mul(x, nu)), nu))


# ---------------------------------------------------------------------------
# representation trees


def _in_hull(con, ambient_kind: str, kind: str):
    """A constraint on an ambient coordinate, read in a rebuilt coordinate
    of the given kind: the whole of an integer direction kept as its hull
    Q is the index-1 subgroup there."""
    if con == FULL and ambient_kind == "Z" and kind == "Q":
        return idx(1)
    return con


def _level_record(ambient, e0, e1, kinds, at, hull, idem_branch: bool):
    """RepLevel of the step from ladder entry e0 to e1 plus its free kernel
    indices: the kernel coordinates that are neither pinned nor tied to
    another coordinate by a graph.  kinds and at (index by ambient index)
    are the rebuilt coordinates below the step, and hull the running zpart:
    idx 1 on each integer direction kept as its hull Q."""
    g0 = dict(e0.gconstr)
    free = tuple(j for j in range(e1.prefix, e0.prefix)
                 if g0.get(j, FULL) != TRIV and g0.get(j, FULL)[0] != "graph")
    gdesc = divisible_hull(GroupDesc(tuple(ambient[j] for j in free)))
    ypart = tuple(_in_hull(g0.get(j, FULL), ambient[j], "Q") for j in free)

    def below(vec):  # e0's pairs on the rebuilt coordinates, after hull's
        return hull + [(at[j], _in_hull(c, ambient[j], kinds[at[j]]))
                       for j, c in vec if j in at]
    zpart = below(e0.gconstr)
    if idem_branch:
        if e0.zconstr is None:
            raise StructuralMismatch("quotient step without top-column data")
        zs = below(e0.zconstr)
        # equal pairs name equal subgroups: only where they differ are the
        # two compared as subgroups of the rebuilt coordinates
        full_ok = zpart == zs
        if not full_ok:
            child = GroupDesc(tuple(kinds))
            full_ok = sub_leq(child, zpart, zs) and sub_leq(child, zs, zpart)
        z = _dense(zs, len(kinds))
    else:
        if e0.zconstr is not None:
            raise StructuralMismatch("restriction step with top-column data")
        z = "gr"
        full_ok = sub_is_full(GroupDesc(tuple(kinds)), zpart)
    h = (FullH() if full_ok and all(c == FULL for c in ypart)
         else ProdH(_dense(zpart, len(kinds)), ypart))
    level = RepLevel(iota="I" if idem_branch else "II", z=z, g=gdesc, h=h)
    return level, free


def _walk(a: Algebra):
    """(representation tree, lex coordinates of elements), in one pass
    that reads each step's constants once and computes no chain operation.
    The tree alone names the rebuilt algebra; representation_embedding,
    the only caller that needs it, stacks it with rebuild.

    Step k works at the positive idempotent idems[k + 1] and splits
    ladder entry k from entry k + 1.  Its branch is read off the structure
    (chains._lift_branches), and its level record reads only the pairs its
    entry holds, so a step costs no product, and the pass grows with the
    tree it returns: linearly on the I-tower, with the square of the depth
    where each level's ProdH spans the rebuilt coordinates (the II-chain).

    An element x whose local unit is idems[j] is invertible at steps j,
    j + 1, ...; there its slot is the free kernel slice of its raw
    coordinates, which the class representatives of all earlier steps
    keep.  At the steps below j its slot is a marker: T for a restriction
    step, and for a quotient step T or B as x does or does not absorb the
    complement of the step idempotent.

    j is read by absorption, not by computing tau(x): a positive
    idempotent e gives x * e >= x, and x * e <= x exactly when
    e <= res(x, x) = tau(x), by residuation.  So j is the greatest k with
    x * idems[k] == x, and a binary search over idems finds it with
    ceil(log2 n) tests for n positive idempotents.  Every test reads x's
    slots (chains.absorber) and builds no product.  The algebra compiles
    each test once, when a map or a classifier first reads it, so a caller
    that wants only the tree builds none and a second walk none again."""
    ambient, entries = ladder(a)
    idems = positive_idempotents(a)
    if len(idems) != len(entries):
        raise StructuralMismatch(
            "idempotent count disagrees with the coordinate ladder")
    if entries[-1].gconstr:
        raise StructuralMismatch("group level with nontrivial constraints")
    head = entries[-1].prefix
    base = GroupDesc(tuple(ambient[:head]))
    # the rebuilt coordinates so far: the base group, then each step's
    # free kernel directions, which live in their hull
    kinds, at, hull = list(base.kinds), {j: j for j in range(head)}, []
    branches = a._idem_branches
    levels, steps = [], []
    for k in range(len(idems) - 2, -1, -1):  # innermost step first
        idem_b = branches[k + 1]
        level, free = _level_record(ambient, entries[k], entries[k + 1],
                                    kinds, at, hull, idem_b)
        levels.append(level)
        steps.append((k, idem_b, free))
        at.update((j, len(kinds) + n) for n, j in enumerate(free))
        kinds += ["Q"] * len(free)
        hull += [(at[j], c) for j in free
                 if (c := _in_hull(FULL, ambient[j], "Q")) != FULL]
    # up(k) tests x * idems[k] == x, and down(k + 1) whether x absorbs the
    # complement of step k's idempotent
    up, down = a._idem_tests.up, a._idem_tests.down

    def lex(x):
        lo, hi = 0, len(idems) - 1  # x * idems[0] == x: the unit
        while lo < hi:
            m = (lo + hi + 1) >> 1
            if up(m)(x):
                lo = m
            else:
                hi = m - 1
        vec = partial_vec(a, x)
        out = [vec[:head]]
        for k, idem_b, free in steps:
            if k >= lo:
                out.append(tuple(vec[i] for i in free))
            elif idem_b and down(k + 1)(x):
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
