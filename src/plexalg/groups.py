"""Linearly ordered abelian groups as flat coordinate lists.

A group is described by a tuple of coordinate kinds, each 'Z' (integers)
or 'Q' (rationals), ordered lexicographically.  The trivial group is the
empty tuple of kinds and its only element is the empty vector.  Elements
are tuples of kernel rationals, one per coordinate, integral on a 'Z'
coordinate; this module reads them only through plexalg.kernel.  It is
also the one reader of per-coordinate subgroup entries (below), and a
graph entry is contained only in an identical entry.

Convex subgroups used here are coordinate tails: the last k coordinates.
Splitting off a tail gives a quotient (the head coordinates) plus an
embedding into quotient-lex-hull of the tail, which is how group parts
get rebuilt one block at a time.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel as kn
from .errors import InvalidSubgroup

INT = "Z"
RAT = "Q"


class GroupDesc:
    """A group's coordinate kinds: immutable, equal and hashed by them."""

    def __init__(self, kinds: tuple[str, ...]):
        if kinds.count(INT) + kinds.count(RAT) != len(kinds):
            bad = next(k for k in kinds if k not in (INT, RAT))
            raise InvalidSubgroup(f"unknown coordinate kind {bad!r}")
        self.__dict__["kinds"] = kinds

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kinds == other.kinds

    def __hash__(self):
        return hash((self.kinds,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"GroupDesc(kinds={self.kinds!r})"

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
        if not kn.is_rat(coord) or kind == INT and not kn.is_multiple(coord, 1):
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
#   ('graph', c, src)  c times coordinate src (ladder constraints only)
# The containment tests read constraint vectors, as the ladder holds specs:
# the (index, entry) pairs of the entries that are not full.

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
    if sub.count(FULL) == len(sub):  # the usual spec, read at C speed
        return sub
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
        return coord == kn.ZERO
    return kn.is_multiple(coord, entry[1])


def _entry_norm(kind: str, entry):
    # On an integer coordinate the whole group is the index-1 subgroup.
    if kind == INT and entry == FULL:
        return ("idx", 1)
    return entry


def entry_leq(kind: str, small, big) -> bool:
    """Containment of per-coordinate subgroups, small within big.  A graph
    entry is contained only in an identical entry."""
    if small[0] == "graph" or big[0] == "graph":
        return small == big
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
    s, b = dict(small), dict(big)
    return all(entry_leq(desc.kinds[i], s.get(i, FULL), b.get(i, FULL))
               for i in s.keys() | b.keys())


def sub_is_full(desc: GroupDesc, sub) -> bool:
    return all(entry_leq(desc.kinds[i], FULL, e) for i, e in sub)


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


class TailSplit(NamedTuple):
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
