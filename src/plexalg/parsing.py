"""Text forms: algebra specs, element literals, expressions, level trees.

One grammar for everything the CLI touches.  Parsing an algebra spec runs
the validated builders, so a spec that parses is a chain that exists.
Element literals have no standalone meaning; they are read against an
algebra, which fixes the shape at every nesting level.  Printing is
canonical and print(parse(s)) is idempotent.

    alg  ::= grp | I(alg, sub, alg) | II(alg, alg)
           | III(alg, sub, sub, alg) | IV(alg, sub, alg)
           | SLI(alg, sub, alg, h) | SLII(alg, alg, h)
    grp  ::= Z | Q | 1 | Lex(Z|Q|1 {, Z|Q|1})
    sub  ::= ent | (ent{,ent})
    ent  ::= full | triv | idx INT
    h    ::= fullH | prodH(sub, sub) | graphH(RAT)
    elem ::= RAT | () | (elem, T|B|elem) | (RAT{,RAT})
    arg  ::= elem | unit
    expr ::= mul arg arg | res arg arg | comp arg | tau arg
           | le arg arg | down arg | up arg | unit | idems

Text is ASCII: INT is [0-9]+, names are [A-Za-z_][A-Za-z0-9_]*, the
symbols are ( ) , / : = -, and whitespace separates tokens.  Any other
character is a ParseError at its line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import kernel as kn
from .build import build_sublex, build_type, group_leaf
from .chains import (BOT, NODE_KINDS, TOP, Algebra, FullH, GraphH, ProdH,
                     elem_check, gr_ambient, mid, unit)
from .errors import ParseError, PreconditionFailed
from .groups import FULL, TRIV, GroupDesc, Q_GROUP, TRIV_GROUP, Z_GROUP

# one token per match; the search skips the characters no group matches,
# which are exactly the whitespace other than a newline
_LEXEME = re.compile(r"(?P<nl>\n)|(?P<int>[0-9]+)"
                     r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                     r"|(?P<sym>[(),/:=-])|(?P<stray>\S)")


class Token(NamedTuple):
    kind: str  # 'ident', 'int', one of the symbols, 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    toks = []
    line, start = 1, 0  # start: index of the current line's first character
    for m in _LEXEME.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "stray":
            raise ParseError(f"stray character {lexeme!r}", line, col)
        else:
            toks.append(Token(lexeme if kind == "sym" else kind, lexeme,
                              line, col))
    toks.append(Token("eof", "", line, len(text) - start + 1))
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

    def take_int(self, what: str) -> int:
        t = self.expect("int", what)
        try:
            return int(t.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("number too long", t.line, t.col) from None

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def take(self, text: str) -> bool:
        """Read the next token if its text is `text` (a name or a symbol)."""
        if self.peek().text == text:
            self.next()
            return True
        return False

    def done(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


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


# ---------------------------------------------------------------------------
# rationals


def _parse_rat(s: _Stream):
    neg = s.take("-")
    num = s.take_int("a number")
    den = s.take_int("a denominator") if s.take("/") else 1
    if den == 0:
        s.fail("zero denominator")
    return kn.rmake(-num if neg else num, den)


def print_rat(r) -> str:
    p, q = r
    return _digits(p) if q == 1 else f"{_digits(p)}/{_digits(q)}"


# str converts no more digits than the interpreter's limit (4,300 by
# default, never below 640).  Input is held to that limit ("number too
# long"), output is not: a result of long inputs prints in 600-digit chunks
_CHUNK = 10 ** 600


def _digits(n: int) -> str:
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


# ---------------------------------------------------------------------------
# algebra specs


_LEAF_NAMES = {"1": TRIV_GROUP, "Z": Z_GROUP, "Q": Q_GROUP}
_LEAF_TEXT = {g.kinds: name for name, g in _LEAF_NAMES.items()}
_WORDS = {"full": FULL, "triv": TRIV}


def _subgroup_fields(kind: str) -> tuple:
    """The subgroups a node kind takes between X and Y, as Algebra fields:
    Z for family 'tb', then V where V is the middle cut.  The sublex
    kinds (cut 'h') take h after Y."""
    family, cut = NODE_KINDS[kind]
    fields = ("zsub",) if family == "tb" else ()
    if cut == "vsub":
        fields += ("vsub",)
    return fields


def parse_algebra(text: str) -> Algebra:
    return _parse_all(text, _parse_alg)


def _parse_alg(s: _Stream) -> Algebra:
    t = s.peek()
    if t.text in NODE_KINDS:
        s.next()
        return _parse_node(s, t.text)
    return group_leaf(_parse_group_desc(
        s, f"unknown algebra {t.text!r}" if t.kind == "ident"
        else "expected an algebra"))


def _parse_group_desc(s: _Stream, fail: str = "expected a group") -> GroupDesc:
    t = s.peek()
    if s.take("Lex"):
        s.expect("(")
        kinds = []
        while True:
            if s.peek().text not in _LEAF_NAMES:
                s.fail("Lex takes group names only")
            kinds.extend(_LEAF_NAMES[s.next().text].kinds)
            if not s.take(","):
                break
        s.expect(")")
        return GroupDesc(tuple(kinds))
    if t.text not in _LEAF_NAMES:
        s.fail(fail)
    s.next()
    return _LEAF_NAMES[t.text]


def _parse_node(s: _Stream, name: str) -> Algebra:
    s.expect("(")
    x = _parse_alg(s)
    xrank = gr_ambient(x).rank
    args = {}
    for field in _subgroup_fields(name):
        s.expect(",")
        args[field] = _expand_sub(s, _parse_sub(s), xrank)
    s.expect(",")
    y = _parse_alg(s)
    make = build_type
    if NODE_KINDS[name][1] == "h":
        if not y.is_leaf:
            raise PreconditionFailed(
                "sublex constructions need a group leaf second factor")
        s.expect(",")
        args["h"] = _parse_h(s, xrank, y.group.rank)
        make = build_sublex
    s.expect(")")
    return make(name, x, y, **args)


def _parse_sub(s: _Stream):
    t = s.peek()
    if s.take("("):
        parts = [_parse_sub(s)]
        while s.take(","):
            parts.append(_parse_sub(s))
        s.expect(")")
        return tuple(parts)
    if t.text in _WORDS:
        s.next()
        return t.text
    if s.take("idx"):
        return ("idx", s.take_int("a subgroup index"))
    s.fail("expected a subgroup (full, triv, idx N or a tuple)")


def _expand_sub(s: _Stream, ast, rank: int):
    """Broadcast the bare words over the ambient rank; tuples must match."""
    if ast in _WORDS:
        return (_WORDS[ast],) * rank
    if ast[0] == "idx":
        if rank != 1:
            s.fail(f"bare idx needs a rank-1 group part, got rank {rank}")
        return (ast,)
    entries = []
    for e in ast:
        if e in _WORDS:
            entries.append(_WORDS[e])
        elif isinstance(e, tuple) and e[0] == "idx":
            entries.append(e)
        else:
            s.fail("nested subgroup tuples are not supported")
    if len(entries) != rank:
        s.fail(f"subgroup has {len(entries)} coordinates, group part has {rank}")
    return tuple(entries)


def _parse_h(s: _Stream, xrank: int, yrank: int):
    if s.take("fullH"):
        return FullH()
    if s.take("prodH"):
        s.expect("(")
        zast = _parse_sub(s)
        s.expect(",")
        yast = _parse_sub(s)
        s.expect(")")
        return ProdH(_expand_sub(s, zast, xrank),
                     _expand_sub(s, yast, yrank))
    if s.take("graphH"):
        s.expect("(")
        c = _parse_rat(s)
        s.expect(")")
        return GraphH(c)
    s.fail("expected a restriction (fullH, prodH(...) or graphH(...))")


def print_algebra(a: Algebra) -> str:
    if a.is_leaf:
        k = a.group.kinds
        return _LEAF_TEXT.get(k) or "Lex(%s)" % ", ".join(k)
    parts = [print_algebra(a.x)]
    parts += [print_sub(getattr(a, field)) for field in _subgroup_fields(a.kind)]
    parts.append(print_algebra(a.y))
    if a.is_sublex:
        parts.append(print_h(a.h))
    return "%s(%s)" % (a.kind, ", ".join(parts))


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
    return elem_check(a, _parse_all(text, lambda s: _parse_el(s, a)))


def _parse_el(s: _Stream, a: Algebra):
    if a.is_leaf:
        rank = a.group.rank
        if rank == 1 and s.peek().kind != "(":
            return (_parse_rat(s),)
        s.expect("(")
        coords = []
        if s.peek().kind != ")":
            coords.append(_parse_rat(s))
            while s.take(","):
                coords.append(_parse_rat(s))
        tok = s.expect(")")
        if len(coords) != rank:
            raise ParseError(
                f"element has {len(coords)} coordinates, group has {rank}",
                tok.line, tok.col)
        return tuple(coords)
    s.expect("(")
    first = _parse_el(s, a.x)
    s.expect(",")
    if s.take("T"):
        second = TOP
    elif s.take("B"):
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


# the eval vocabulary: operation -> (name of the plexalg.chains function
# that evaluates it, arity)
EXPR_OPS = {
    "mul": ("mul", 2), "res": ("res", 2), "le": ("le", 2),
    "comp": ("comp", 1), "tau": ("tau", 1), "down": ("x_down", 1),
    "up": ("x_up", 1), "unit": ("unit", 0),
    "idems": ("positive_idempotents", 0),
}


def parse_expr(a: Algebra, text: str):
    return _parse_all(text, lambda s: _parse_op(s, a))


def _parse_op(s: _Stream, a: Algebra):
    t = s.expect("ident", "an operation")
    if t.text not in EXPR_OPS:
        raise ParseError(f"unknown operation {t.text!r}", t.line, t.col)
    args = [unit(a) if s.take("unit") else elem_check(a, _parse_el(s, a))
            for _ in range(EXPR_OPS[t.text][1])]
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

    if not s.take("base"):
        s.fail("expected 'base:'")
    s.expect(":")
    base = _parse_group_desc(s)
    levels = []
    child_rank = base.rank
    want = 2
    while s.take("level"):
        t = s.peek()
        if s.take_int("a level number") != want:
            raise ParseError(f"expected level {want}", t.line, t.col)
        want += 1
        s.expect(":")
        _expect_key(s, "iota")
        t = s.expect("ident", "I or II")
        if t.text not in ("I", "II"):
            raise ParseError("iota must be I or II", t.line, t.col)
        iota = t.text
        _expect_key(s, "Z")
        zast = "gr" if s.take("gr") else _parse_sub(s)
        _expect_key(s, "G")
        g = _parse_group_desc(s)
        _expect_key(s, "H")
        h = _parse_h(s, child_rank, g.rank)
        z = zast if zast == "gr" else _expand_sub(s, zast, child_rank)
        levels.append(RepLevel(iota=iota, z=z, g=g, h=h))
        child_rank += g.rank
    return RepTree(base=base, levels=tuple(levels))


def _expect_key(s: _Stream, key: str):
    if not s.take(key):
        s.fail(f"expected {key}=")
    s.expect("=")
