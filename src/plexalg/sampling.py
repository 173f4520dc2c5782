"""Compiled random elements of built algebras (chains.sample_elem).

The draw stream is part of the reproducibility contract: a seed fixes
every report, so a sampler may get faster but must consume the
generator exactly as this definition does.  Per level, one rng.random()
roll decides the column: below marker_p a marker column (for 'tb' nodes
a second roll picks bottom below 0.5, else a top column over the top
set), otherwise a middle column: a sublex node draws a group element of
its own, any other node a group element of X over the middle-column
set and then an element of Y.  A group element draws its coordinates
in order: pinned ones draw nothing, a full integer coordinate draws
randint(-magnitude, magnitude), a full rational one that numerator and
then randint(1, denominator), an index-m one m times an integer draw,
and a graph-tied one is computed from the coordinate it follows.

The definition is compiled once per algebra and parameters into nested
closures (_sampler, cached on the node in Algebra._samplers), which
build the nested element directly and look coordinates up in tables
shared by the whole process.  An integer draw calls getrandbits with the
rejection loop of CPython's randint, so the generator advances draw for
draw as randint would advance it.

chains.sample_elem and BaseChain.sampler (plexalg.decompose) load this
module on their first call, so a CLI verb that draws nothing never does.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernel as kn
from .chains import BOT, TOP, Algebra, _dense
from .groups import FULL, TRIV


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
    satisfies constraints (dense, over the ambient of a), nested as
    _Coords.from_gvec nests it.  A graph constraint names its source
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
    s, xlen = a._structure, a.xlen
    fx = _sampler(a.x, magnitude, denominator, marker_p)
    if a.is_sublex:  # a middle column of a sublex node is a group element
        fm = _group_sampler(a, _dense(s.gconstr, len(s.ambient)), magnitude,
                            denominator)
        fy = None
    else:
        fm = _group_sampler(a.x, _dense(s.vconstr, xlen), magnitude, denominator)
        fy = _sampler(a.y, magnitude, denominator, marker_p)
    # a top column of a 'tb' node needs its first coordinate in the top set
    fz = (_group_sampler(a.x, _dense(s.zconstr, xlen), magnitude, denominator)
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
