"""Linearly ordered abelian groups as flat coordinate lists.

A group is described by a tuple of coordinate kinds, each 'Z' (integers)
or 'Q' (rationals), ordered lexicographically.  The trivial group is the
empty tuple of kinds and its only element is the empty vector.  Elements
are tuples of normalized (num, den) pairs, one per coordinate; on a 'Z'
coordinate the denominator must be 1.

Convex subgroups used here are coordinate tails: the last k coordinates.
Splitting off a tail gives a quotient (the head coordinates) plus an
embedding into quotient-lex-hull of the tail, which is how group parts
get rebuilt one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel as kn
from .errors import InvalidSubgroup

INT = "Z"
RAT = "Q"


@dataclass(frozen=True)
class GroupDesc:
    kinds: tuple[str, ...]

    def __post_init__(self):
        for k in self.kinds:
            if k not in (INT, RAT):
                raise InvalidSubgroup(f"unknown coordinate kind {k!r}")

    @property
    def rank(self) -> int:
        return len(self.kinds)


Z_GROUP = GroupDesc((INT,))
Q_GROUP = GroupDesc((RAT,))
TRIV_GROUP = GroupDesc(())


def lex_group(parts: list[GroupDesc]) -> GroupDesc:
    """Lexicographic product; trivial members contribute no coordinates."""
    kinds: tuple[str, ...] = ()
    for p in parts:
        kinds += p.kinds
    return GroupDesc(kinds)


def g_zero(desc: GroupDesc):
    return kn.vzero(desc.rank)


def g_member(desc: GroupDesc, elem) -> bool:
    if not isinstance(elem, tuple) or len(elem) != desc.rank:
        return False
    for kind, coord in zip(desc.kinds, elem):
        if (
            not isinstance(coord, tuple)
            or len(coord) != 2
            or not isinstance(coord[0], int)
            or not isinstance(coord[1], int)
            or coord[1] < 1
            or kn.rnorm(*coord) != coord
        ):
            return False
        if kind == INT and coord[1] != 1:
            return False
    return True


def g_add(desc: GroupDesc, a, b):
    return kn.vadd(a, b)


def g_cmp(desc: GroupDesc, a, b) -> int:
    return kn.vcmp(a, b)


# -- subgroups given per coordinate ------------------------------------------
#
# A SubSpec is a tuple with one entry per coordinate:
#   ('full',)    the whole coordinate group
#   ('triv',)    only 0
#   ('idx', m)   the multiples of m (m >= 1); on a 'Q' coordinate this is
#                m-spaced integers sitting inside the rationals

FULL = ("full",)
TRIV = ("triv",)


def idx(m: int):
    if not isinstance(m, int) or m < 1:
        raise InvalidSubgroup(f"index subgroup needs a positive int, got {m!r}")
    return ("idx", m)


def sub_validate(desc: GroupDesc, sub):
    if not isinstance(sub, tuple) or len(sub) != desc.rank:
        raise InvalidSubgroup(
            f"subgroup spec {sub!r} does not match rank {desc.rank}"
        )
    for entry in sub:
        if entry == FULL or entry == TRIV:
            continue
        if isinstance(entry, tuple) and len(entry) == 2 and entry[0] == "idx":
            idx(entry[1])
            continue
        raise InvalidSubgroup(f"bad subgroup entry {entry!r}")
    return sub


def coord_in_sub(entry, coord) -> bool:
    if entry == FULL:
        return True
    if entry == TRIV:
        return coord[0] == 0
    m = entry[1]
    return coord[1] == 1 and coord[0] % m == 0


def _entry_norm(kind: str, entry):
    # On an integer coordinate the whole group is the index-1 subgroup.
    if kind == INT and entry == FULL:
        return ("idx", 1)
    return entry


def entry_leq(kind: str, small, big) -> bool:
    """Containment of per-coordinate subgroups, small within big."""
    small = _entry_norm(kind, small)
    big = _entry_norm(kind, big)
    if small == TRIV or big == FULL:
        return True
    if big == TRIV:
        return False
    if small == FULL:  # full rationals inside an index subgroup: never
        return False
    return small[1] % big[1] == 0


def sub_leq(desc: GroupDesc, small, big) -> bool:
    return all(
        entry_leq(kind, s, b)
        for kind, s, b in zip(desc.kinds, small, big)
    )


def sub_is_full(desc: GroupDesc, sub) -> bool:
    return all(_entry_norm(k, e) == _entry_norm(k, FULL)
               for k, e in zip(desc.kinds, sub))


# -- convex coordinate tails ---------------------------------------------------


def check_tail(desc: GroupDesc, k: int) -> int:
    if not isinstance(k, int) or not 0 <= k <= desc.rank:
        raise InvalidSubgroup(
            f"tail length {k!r} out of range for rank {desc.rank}"
        )
    return k


def quotient_by_tail(desc: GroupDesc, k: int) -> GroupDesc:
    check_tail(desc, k)
    return GroupDesc(desc.kinds[: desc.rank - k])


def tail_group(desc: GroupDesc, k: int) -> GroupDesc:
    check_tail(desc, k)
    return GroupDesc(desc.kinds[desc.rank - k:])


def divisible_hull(desc: GroupDesc) -> GroupDesc:
    """Smallest divisible group containing desc: every coordinate becomes 'Q'."""
    return GroupDesc((RAT,) * desc.rank)


@dataclass(frozen=True)
class TailSplit:
    """Split along a convex tail: head quotient plus divisible-hull tail."""

    desc: GroupDesc
    k: int
    head: GroupDesc
    tail_hull: GroupDesc

    def embed(self, elem):
        """Map an element to (head part, tail part inside the hull)."""
        cut = self.desc.rank - self.k
        return elem[:cut], elem[cut:]

    def head_part(self, elem):
        return elem[: self.desc.rank - self.k]


def split_convex_tail(desc: GroupDesc, k: int) -> TailSplit:
    check_tail(desc, k)
    return TailSplit(desc, k, quotient_by_tail(desc, k),
                     divisible_hull(tail_group(desc, k)))
