"""Text forms: algebra specs, element literals, expressions, level trees.

One grammar for everything the CLI touches.  Parsing an algebra spec runs
the validated builders, so a spec that parses is a chain that exists.
Element literals have no standalone meaning; they are read against an
algebra, which fixes the shape at every nesting level.  Printing is
canonical and print(parse(s)) is idempotent.

    alg  ::= Z | Q | 1 | Lex(alg{,alg})
           | I(alg, sub, alg) | II(alg, alg)
           | III(alg, sub, sub, alg) | IV(alg, sub, alg)
           | SLI(alg, sub, alg, h) | SLII(alg, alg, h)
    sub  ::= full | triv | idx INT | (sub{,sub})
    h    ::= fullH | prodH(sub, sub) | graphH(RAT)
    elem ::= RAT | () | (elem, T|B|elem) | (RAT{,RAT})
    arg  ::= elem | unit
    expr ::= mul arg arg | res arg arg | comp arg | tau arg
           | le arg arg | down arg | up arg | unit | idems
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel as kn
from .build import build_sublex, build_type, group_leaf
from .chains import (BOT, TOP, Algebra, FullH, GraphH, ProdH, elem_check,
                     gr_ambient, mid, unit)
from .errors import ParseError, PreconditionFailed
from .groups import FULL, TRIV, GroupDesc, Q_GROUP, TRIV_GROUP, Z_GROUP

_SYMBOLS = "(),/:=-"


class Token(NamedTuple):
    kind: str  # 'ident', 'int', one of _SYMBOLS, 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"stray character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Stream:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            want = what or repr(kind)
            raise ParseError(f"expected {want}, got {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def at_ident(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def take_ident(self, word: str) -> bool:
        if self.at_ident(word):
            self.next()
            return True
        return False

    def done(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# rationals


def _parse_rat(s: _Stream):
    neg = False
    if s.peek().kind == "-":
        s.next()
        neg = True
    num = int(s.expect("int", "a number").text)
    den = 1
    if s.peek().kind == "/":
        s.next()
        den = int(s.expect("int", "a denominator").text)
        if den == 0:
            s.fail("zero denominator")
    return kn.rmake(-num if neg else num, den)


def print_rat(r) -> str:
    p, q = r
    return str(p) if q == 1 else f"{p}/{q}"


# ---------------------------------------------------------------------------
# algebra specs


_LEAF_NAMES = {"Z": Z_GROUP, "Q": Q_GROUP}


def _parse_all(text: str, parse):
    """parse(stream) over the whole text.  Nesting deeper than the
    interpreter's stack is a parse error, not a crash."""
    s = _Stream(text)
    try:
        out = parse(s)
    except RecursionError:
        t = s.peek()
        raise ParseError("nesting too deep", t.line, t.col) from None
    s.done()
    return out


def parse_algebra(text: str) -> Algebra:
    return _parse_all(text, _parse_alg)


def _parse_alg(s: _Stream) -> Algebra:
    t = s.peek()
    if t.kind == "int" and t.text == "1":
        s.next()
        return group_leaf(TRIV_GROUP)
    if t.kind != "ident":
        s.fail("expected an algebra")
    name = t.text
    if name in _LEAF_NAMES:
        s.next()
        return group_leaf(_LEAF_NAMES[name])
    if name == "Lex":
        s.next()
        return group_leaf(_parse_lex(s))
    if name in ("I", "II", "III", "IV", "SLI", "SLII"):
        s.next()
        return _parse_node(s, name)
    s.fail(f"unknown algebra {name!r}")


def _parse_lex(s: _Stream) -> GroupDesc:
    s.expect("(")
    kinds = []
    while True:
        t = s.peek()
        if t.kind == "int" and t.text == "1":
            s.next()
        elif t.kind == "ident" and t.text in _LEAF_NAMES:
            kinds.extend(_LEAF_NAMES[t.text].kinds)
            s.next()
        else:
            s.fail("Lex takes group names only")
        if s.peek().kind == ",":
            s.next()
            continue
        s.expect(")")
        return GroupDesc(tuple(kinds))


def _parse_node(s: _Stream, name: str) -> Algebra:
    s.expect("(")
    x = _parse_alg(s)
    xrank = gr_ambient(x).rank
    if name in ("I", "III", "SLI"):
        s.expect(",")
        zsub = _expand_sub(s, _parse_sub(s), xrank)
    else:
        zsub = None
    if name in ("III", "IV"):
        s.expect(",")
        vsub = _expand_sub(s, _parse_sub(s), xrank)
    else:
        vsub = None
    s.expect(",")
    y = _parse_alg(s)
    if name in ("SLI", "SLII"):
        if not y.is_leaf:
            raise PreconditionFailed(
                "sublex constructions need a group leaf second factor")
        s.expect(",")
        h = _parse_h(s, xrank, y.group.rank)
        s.expect(")")
        return build_sublex(name, x, y, h, zsub=zsub)
    s.expect(")")
    return build_type(name, x, y, zsub=zsub, vsub=vsub)


def _parse_sub(s: _Stream):
    t = s.peek()
    if t.kind == "(":
        s.next()
        parts = [_parse_sub(s)]
        while s.peek().kind == ",":
            s.next()
            parts.append(_parse_sub(s))
        s.expect(")")
        return tuple(parts)
    if s.take_ident("full"):
        return "full"
    if s.take_ident("triv"):
        return "triv"
    if s.take_ident("idx"):
        m = int(s.expect("int", "a subgroup index").text)
        return ("idx", m)
    s.fail("expected a subgroup (full, triv, idx N or a tuple)")


def _expand_sub(s: _Stream, ast, rank: int):
    """Broadcast the bare words over the ambient rank; tuples must match."""
    if ast == "full":
        return (FULL,) * rank
    if ast == "triv":
        return (TRIV,) * rank
    if isinstance(ast, tuple) and ast and ast[0] == "idx":
        if rank != 1:
            s.fail(f"bare idx needs a rank-1 group part, got rank {rank}")
        return (ast,)
    entries = []
    for e in ast:
        if e == "full":
            entries.append(FULL)
        elif e == "triv":
            entries.append(TRIV)
        elif isinstance(e, tuple) and e and e[0] == "idx":
            entries.append(e)
        else:
            s.fail("nested subgroup tuples are not supported")
    if len(entries) != rank:
        s.fail(f"subgroup has {len(entries)} coordinates, group part has {rank}")
    return tuple(entries)


def _parse_h(s: _Stream, xrank: int, yrank: int):
    if s.take_ident("fullH"):
        return FullH()
    if s.take_ident("prodH"):
        s.expect("(")
        zast = _parse_sub(s)
        s.expect(",")
        yast = _parse_sub(s)
        s.expect(")")
        return ProdH(_expand_sub(s, zast, xrank),
                     _expand_sub(s, yast, yrank))
    if s.take_ident("graphH"):
        s.expect("(")
        c = _parse_rat(s)
        s.expect(")")
        return GraphH(c)
    s.fail("expected a restriction (fullH, prodH(...) or graphH(...))")


def print_algebra(a: Algebra) -> str:
    if a.is_leaf:
        k = a.group.kinds
        if k == ():
            return "1"
        if k == ("Z",):
            return "Z"
        if k == ("Q",):
            return "Q"
        return "Lex(%s)" % ", ".join(k)
    x = print_algebra(a.x)
    y = print_algebra(a.y)
    if a.kind == "I":
        return f"I({x}, {print_sub(a.zsub)}, {y})"
    if a.kind == "II":
        return f"II({x}, {y})"
    if a.kind == "III":
        return f"III({x}, {print_sub(a.zsub)}, {print_sub(a.vsub)}, {y})"
    if a.kind == "IV":
        return f"IV({x}, {print_sub(a.vsub)}, {y})"
    if a.kind == "SLI":
        return f"SLI({x}, {print_sub(a.zsub)}, {y}, {print_h(a.h)})"
    return f"SLII({x}, {y}, {print_h(a.h)})"


def _print_entry(e) -> str:
    if e == FULL:
        return "full"
    if e == TRIV:
        return "triv"
    return f"idx {e[1]}"


def print_sub(sub) -> str:
    if len(sub) == 0:
        return "full"
    if all(e == FULL for e in sub):
        return "full"
    if all(e == TRIV for e in sub):
        return "triv"
    if len(sub) == 1:
        return _print_entry(sub[0])
    return "(%s)" % ", ".join(_print_entry(e) for e in sub)


def print_h(h) -> str:
    if isinstance(h, FullH):
        return "fullH"
    if isinstance(h, ProdH):
        return f"prodH({print_sub(h.zpart)}, {print_sub(h.ypart)})"
    return f"graphH({print_rat(h.c)})"


# ---------------------------------------------------------------------------
# element literals (read against an algebra)


def parse_elem(a: Algebra, text: str):
    s = _Stream(text)
    el = _parse_el(s, a)
    s.done()
    return elem_check(a, el)


def _parse_el(s: _Stream, a: Algebra):
    if a.is_leaf:
        rank = a.group.rank
        if rank == 1 and s.peek().kind != "(":
            return (_parse_rat(s),)
        s.expect("(")
        coords = []
        if s.peek().kind != ")":
            coords.append(_parse_rat(s))
            while s.peek().kind == ",":
                s.next()
                coords.append(_parse_rat(s))
        tok = s.peek()
        s.expect(")")
        if len(coords) != rank:
            raise ParseError(
                f"element has {len(coords)} coordinates, group has {rank}",
                tok.line, tok.col)
        return tuple(coords)
    s.expect("(")
    first = _parse_el(s, a.x)
    s.expect(",")
    if s.take_ident("T"):
        second = TOP
    elif s.take_ident("B"):
        second = BOT
    else:
        second = mid(_parse_el(s, a.y))
    s.expect(")")
    return (first, second)


def print_elem(a: Algebra, x) -> str:
    if a.is_leaf:
        if a.group.rank == 1:
            return print_rat(x[0])
        return "(%s)" % ", ".join(print_rat(c) for c in x)
    first, second = x
    if second == TOP:
        tail = "T"
    elif second == BOT:
        tail = "B"
    else:
        tail = print_elem(a.y, second[1])
    return f"({print_elem(a.x, first)}, {tail})"


# ---------------------------------------------------------------------------
# expressions


_EXPR_ARITY = {
    "mul": 2, "res": 2, "le": 2,
    "comp": 1, "tau": 1, "down": 1, "up": 1,
    "unit": 0, "idems": 0,
}


def parse_expr(a: Algebra, text: str):
    s = _Stream(text)
    t = s.expect("ident", "an operation")
    if t.text not in _EXPR_ARITY:
        raise ParseError(f"unknown operation {t.text!r}", t.line, t.col)
    args = []
    for _ in range(_EXPR_ARITY[t.text]):
        if s.take_ident("unit"):
            args.append(unit(a))
        else:
            args.append(elem_check(a, _parse_el(s, a)))
    s.done()
    return (t.text, *args)


# ---------------------------------------------------------------------------
# level trees (representation output)


def print_reptree(tree) -> str:
    lines = [f"base: {print_algebra(group_leaf(tree.base))}"]
    for i, lv in enumerate(tree.levels, start=2):
        z = "gr" if lv.z == "gr" else print_sub(lv.z)
        lines.append(
            f"level {i}: iota={lv.iota} Z={z} "
            f"G={print_algebra(group_leaf(lv.g))} H={print_h(lv.h)}"
        )
    return "\n".join(lines)


def parse_reptree(text: str):
    return _parse_all(text, _parse_tree)


def _parse_tree(s: _Stream):
    from .decompose import RepLevel, RepTree

    if not s.take_ident("base"):
        s.fail("expected 'base:'")
    s.expect(":")
    base = _parse_group_desc(s)
    levels = []
    child_rank = base.rank
    want = 2
    while s.take_ident("level"):
        t = s.expect("int", "a level number")
        if int(t.text) != want:
            raise ParseError(f"expected level {want}", t.line, t.col)
        want += 1
        s.expect(":")
        _expect_key(s, "iota")
        t = s.expect("ident", "I or II")
        if t.text not in ("I", "II"):
            raise ParseError("iota must be I or II", t.line, t.col)
        iota = t.text
        _expect_key(s, "Z")
        zast = "gr" if s.take_ident("gr") else _parse_sub(s)
        _expect_key(s, "G")
        g = _parse_group_desc(s)
        _expect_key(s, "H")
        h = _parse_h(s, child_rank, g.rank)
        z = zast if zast == "gr" else _expand_sub(s, zast, child_rank)
        levels.append(RepLevel(iota=iota, z=z, g=g, h=h))
        child_rank += g.rank
    return RepTree(base=base, levels=tuple(levels))


def _expect_key(s: _Stream, key: str):
    if not s.take_ident(key):
        s.fail(f"expected {key}=")
    s.expect("=")


def _parse_group_desc(s: _Stream) -> GroupDesc:
    t = s.peek()
    if t.kind == "int" and t.text == "1":
        s.next()
        return TRIV_GROUP
    if t.kind == "ident" and t.text in _LEAF_NAMES:
        s.next()
        return _LEAF_NAMES[t.text]
    if t.kind == "ident" and t.text == "Lex":
        s.next()
        return _parse_lex(s)
    s.fail("expected a group")
