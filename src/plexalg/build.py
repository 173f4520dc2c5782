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

build_type covers kinds I-IV, build_sublex the two sublex kinds.  Both
return plain chains.Algebra values, each of which has verified its own
positive idempotents once (its children's lists were verified when they
were built).
"""

from __future__ import annotations

from .chains import (Algebra, FullH, GraphH, ProdH, discretely_embedded,
                     gr_ambient, ladder, leaf, positive_idempotents, tau, unit)
from .errors import (DiscretenessViolated, InvalidSubgroup,
                     PreconditionFailed, SubgroupChainViolated)
from .groups import GroupDesc, sub_is_full, sub_leq, sub_validate


def group_leaf(desc: GroupDesc) -> Algebra:
    return leaf(desc)


def _group_part_view(x: Algebra):
    amb = gr_ambient(x)
    own = ladder(x)[1][0].gconstr
    return amb, own


def _check_sub(amb: GroupDesc, sub, what: str):
    try:
        return sub_validate(amb, sub)
    except InvalidSubgroup as exc:
        raise InvalidSubgroup(f"{what}: {exc}") from None


def _check_nested(amb: GroupDesc, small, big, what: str):
    if not sub_leq(amb, small, big):
        raise SubgroupChainViolated(f"{what} is not contained where required")


def _graph_guard(amb: GroupDesc, own, sub, what: str):
    if any(c[0] == "graph" for c in own) and not sub_is_full(amb, sub):
        raise InvalidSubgroup(f"{what}: cannot cut a graph-linked group part")


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
    if kind not in ("I", "II", "III", "IV"):
        raise PreconditionFailed(f"unknown construction kind {kind!r}")
    amb, own = _group_part_view(x)
    if kind in ("I", "III"):
        if zsub is None:
            raise PreconditionFailed(f"kind {kind} needs a top-column subgroup")
        zsub = _check_sub(amb, zsub, "top-column subgroup")
        _graph_guard(amb, own, zsub, "top-column subgroup")
        _check_nested(amb, zsub, own, "top-column subgroup")
    elif zsub is not None:
        raise PreconditionFailed(f"kind {kind} takes no top-column subgroup")
    if kind in ("III", "IV"):
        if vsub is None:
            raise PreconditionFailed(f"kind {kind} needs a middle-column subgroup")
        vsub = _check_sub(amb, vsub, "middle-column subgroup")
        _graph_guard(amb, own, vsub, "middle-column subgroup")
        _check_nested(amb, vsub, zsub if kind == "III" else own,
                      "middle-column subgroup")
    elif vsub is not None:
        raise PreconditionFailed(f"kind {kind} takes no middle-column subgroup")
    if kind in ("II", "IV"):
        _check_discrete(x, kind)
    node = Algebra(kind=kind, x=x, y=y, zsub=zsub, vsub=vsub)
    _smoke(node)
    return node


def build_sublex(kind: str, x: Algebra, y: Algebra, h, zsub=None) -> Algebra:
    """Sublex kinds SLI (with top-column subgroup zsub) and SLII.

    h restricts which middle columns exist: FullH keeps them all, ProdH
    cuts both sides coordinatewise, GraphH couples a rank-one divisible y
    to one integer coordinate of x.  y must be a group leaf.
    """
    if kind not in ("SLI", "SLII"):
        raise PreconditionFailed(f"unknown sublex kind {kind!r}")
    if not y.is_leaf:
        raise PreconditionFailed("sublex constructions need a group leaf second factor")
    amb, own = _group_part_view(x)
    if kind == "SLI":
        if zsub is None:
            raise PreconditionFailed("kind SLI needs a top-column subgroup")
        zsub = _check_sub(amb, zsub, "top-column subgroup")
        _graph_guard(amb, own, zsub, "top-column subgroup")
        _check_nested(amb, zsub, own, "top-column subgroup")
    elif zsub is not None:
        raise PreconditionFailed("kind SLII takes no top-column subgroup")

    if isinstance(h, ProdH):
        zpart = _check_sub(amb, h.zpart, "first side of the restriction")
        ypart = _check_sub(y.group, h.ypart, "second side of the restriction")
        _graph_guard(amb, own, zpart, "first side of the restriction")
        _check_nested(amb, zpart, zsub if kind == "SLI" else own,
                      "first side of the restriction")
        h = ProdH(zpart, ypart)
    elif isinstance(h, GraphH):
        if amb.rank != 1 or amb.kinds[0] != "Z":
            raise PreconditionFailed(
                "graph restriction needs a single integer coordinate on the first side"
            )
        if y.group.kinds != ("Q",):
            raise PreconditionFailed(
                "graph restriction needs a rank-one divisible second factor"
            )
        if not (isinstance(h.c, tuple) and len(h.c) == 2 and h.c[1] >= 1):
            raise PreconditionFailed("graph slope must be a normalized rational pair")
        if kind == "SLI" and not sub_is_full(amb, zsub):
            # the first side of the graph runs over the whole group part
            raise SubgroupChainViolated(
                "graph restriction is not contained in the top-column subgroup"
            )
    elif not isinstance(h, FullH):
        raise PreconditionFailed(f"unknown restriction {h!r}")

    if kind == "SLII":
        _check_discrete(x, kind)
    node = Algebra(kind=kind, x=x, y=y, zsub=zsub, h=h)
    _smoke(node)
    return node


def _smoke(node: Algebra):
    """Cheap sanity on a fresh node: the unit is its own local unit, and
    what the node adds to its children's positive idempotents verifies
    and sorts (chains._lift_idems)."""
    u = unit(node)
    if tau(node, u) != u:
        raise PreconditionFailed("unit fails its own local-unit law")
    positive_idempotents(node)
