"""Validated constructors for the chain constructions.

chains.Algebra is a dumb tree; everything that can be wrong about a
construction is rejected here, before an algebra exists:

* subgroup specs must fit the ambient coordinates and nest properly
  (middle columns inside top columns inside the group part),
* 't'-shaped nodes (II, IV, SLII) need the group part of the child
  discretely embedded in the child, decided exactly from its structure,
* sublex restrictions must be subgroups of (group part of X) lex Y with
  Y a group leaf; a graph restriction needs one integer coordinate on
  the X side and a rank-one divisible Y.

build_type covers kinds I-IV, build_sublex the two sublex kinds; both
run one checked body over the kind's row of chains.NODE_KINDS and
return plain chains.Algebra values, each of which has verified its own
positive idempotents once (its children's lists were verified when they
were built).

rebuild stacks the levels of a representation tree (RepTree, as
plexalg.decompose reads it off a chain and plexalg.parsing reads it
from text) through build_sublex, so the rebuild verb loads no peeling
code.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel as kn
from .chains import (NODE_KINDS, Algebra, FullH, GraphH, ProdH, _checks,
                     discretely_embedded, gr_ambient, leaf,
                     positive_idempotents, tau, unit)
from .errors import (DiscretenessViolated, InvalidSubgroup,
                     PreconditionFailed, SubgroupChainViolated)
from .groups import GroupDesc, sub_is_full, sub_leq, sub_validate


def group_leaf(desc: GroupDesc) -> Algebra:
    return leaf(desc)


def _check_sub(amb: GroupDesc, sub, what: str):
    try:
        return _checks(sub_validate(amb, sub), amb.rank)
    except InvalidSubgroup as exc:
        raise InvalidSubgroup(f"{what}: {exc}") from None


def _check_cut(amb: GroupDesc, own, sub, top, what: str):
    """A validated sub cuts the group part own inside top (constraint
    vectors).  A graph-linked own cannot be cut: a sub other than full is
    rejected here, and full is not contained in a graph entry."""
    if any(c[0] == "graph" for _, c in own) and not sub_is_full(amb, sub):
        raise InvalidSubgroup(f"{what}: cannot cut a graph-linked group part")
    if not sub_leq(amb, sub, top):
        raise SubgroupChainViolated(f"{what} is not contained where required")


def _check_discrete(x: Algebra, kind: str):
    """Group part of x discretely embedded in x: every group element has
    covers, and the covers are again group elements.

    The structural test decides this exactly (see discretely_embedded):
    a group leaf is discrete iff it ends in Z, a non-sublex node inherits
    discreteness from its Y, and a sublex node is discrete iff its slices
    have a step.  A trivial group part has no covers at all."""
    if not discretely_embedded(x):
        raise DiscretenessViolated(
            f"kind {kind} needs the group part of the child discretely embedded"
        )
    if gr_ambient(x).rank == 0:
        raise DiscretenessViolated("trivial group part is not discretely embedded")


def build_type(kind: str, x: Algebra, y: Algebra, zsub=None, vsub=None) -> Algebra:
    """Kinds I-IV.  zsub ('tb' kinds) and vsub (III, IV) are subgroup
    specs over the ambient coordinates of the group part of x."""
    if kind not in NODE_KINDS or NODE_KINDS[kind][1] == "h":
        raise PreconditionFailed(f"unknown construction kind {kind!r}")
    return _build(kind, x, y, zsub, vsub, None)


def build_sublex(kind: str, x: Algebra, y: Algebra, h, zsub=None) -> Algebra:
    """Sublex kinds SLI (with top-column subgroup zsub) and SLII.

    h restricts which middle columns exist: FullH keeps them all, ProdH
    cuts both sides coordinatewise, GraphH couples a rank-one divisible y
    to one integer coordinate of x.  y must be a group leaf.
    """
    if kind not in NODE_KINDS or NODE_KINDS[kind][1] != "h":
        raise PreconditionFailed(f"unknown sublex kind {kind!r}")
    return _build(kind, x, y, zsub, None, h)


def _build(kind: str, x: Algebra, y: Algebra, zsub, vsub, h) -> Algebra:
    """The checks of chains.NODE_KINDS: Z inside the group part of x for
    family 'tb', the middle cut (V or the first side of h) inside the top
    set, a leaf y for the sublex kinds, and discreteness for family 't'."""
    family, cut = NODE_KINDS[kind]
    if cut == "h" and not y.is_leaf:
        raise PreconditionFailed("sublex constructions need a group leaf second factor")
    amb = gr_ambient(x)
    own = top = x._structure.gconstr  # x's group part, then the top set
    if family == "tb":
        if zsub is None:
            raise PreconditionFailed(f"kind {kind} needs a top-column subgroup")
        top = _check_sub(amb, zsub, "top-column subgroup")
        _check_cut(amb, own, top, own, "top-column subgroup")
    elif zsub is not None:
        raise PreconditionFailed(f"kind {kind} takes no top-column subgroup")
    if cut == "vsub":
        if vsub is None:
            raise PreconditionFailed(f"kind {kind} needs a middle-column subgroup")
        v = _check_sub(amb, vsub, "middle-column subgroup")
        _check_cut(amb, own, v, top, "middle-column subgroup")
    elif vsub is not None:
        raise PreconditionFailed(f"kind {kind} takes no middle-column subgroup")
    if cut == "h":
        h = _check_restriction(amb, own, top, y, h, family)
    if family == "t":
        _check_discrete(x, kind)
    node = Algebra(kind=kind, x=x, y=y, zsub=zsub, vsub=vsub, h=h)
    _smoke(node)
    return node


def _check_restriction(amb: GroupDesc, own, top, y: Algebra, h, family: str):
    if isinstance(h, ProdH):
        zpart = _check_sub(amb, h.zpart, "first side of the restriction")
        _check_sub(y.group, h.ypart, "second side of the restriction")
        _check_cut(amb, own, zpart, top, "first side of the restriction")
        return h
    if isinstance(h, GraphH):
        if amb.rank != 1 or amb.kinds[0] != "Z":
            raise PreconditionFailed(
                "graph restriction needs a single integer coordinate on the first side"
            )
        if y.group.kinds != ("Q",):
            raise PreconditionFailed(
                "graph restriction needs a rank-one divisible second factor"
            )
        if not kn.is_rat(h.c):
            raise PreconditionFailed("graph slope must be a normalized rational pair")
        if family == "tb" and not sub_is_full(amb, top):
            # the first side of the graph runs over the whole group part
            raise SubgroupChainViolated(
                "graph restriction is not contained in the top-column subgroup"
            )
        return h
    if not isinstance(h, FullH):
        raise PreconditionFailed(f"unknown restriction {h!r}")
    return h


def _smoke(node: Algebra):
    """Cheap sanity on a fresh node: the unit is its own local unit, and
    what the node adds to its children's positive idempotents verifies
    and sorts (chains._lift_idems)."""
    u = unit(node)
    if tau(node, u) != u:
        raise PreconditionFailed("unit fails its own local-unit law")
    positive_idempotents(node)


# ---------------------------------------------------------------------------
# representation trees


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
