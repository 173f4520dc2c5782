"""Text round-trips for specs, elements, expressions, and level trees."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import parsing as ps
from plexalg.errors import InvalidElement, ParseError, PlexError

CANONICAL_SPECS = [
    "Z",
    "Q",
    "1",
    "Lex(Z, Q)",
    "Lex(Z, Z, Q)",
    "II(Z, Q)",
    "I(Q, idx 1, Q)",
    "III(Q, idx 1, idx 2, Q)",
    "IV(Z, idx 2, Q)",
    "SLII(Z, Q, fullH)",
    "SLII(Z, Q, prodH(full, triv))",
    "SLII(Z, Q, graphH(1/2))",
    "SLI(Q, idx 1, Q, fullH)",
    "I(II(Z, Q), full, Q)",
]


@pytest.mark.parametrize("text", CANONICAL_SPECS)
def test_spec_round_trip(text):
    a = ps.parse_algebra(text)
    assert ps.print_algebra(a) == text
    assert ps.print_algebra(ps.parse_algebra(ps.print_algebra(a))) == text


def test_spec_whitespace_normalized():
    a = ps.parse_algebra("  II( Z ,Q )  ")
    assert ps.print_algebra(a) == "II(Z, Q)"


@pytest.mark.parametrize("text,line,col", [
    ("II(Z", 1, 5),
    ("II(Z, Q))", 1, 9),
    ("V(Z, Q)", 1, 1),
    ("Lex()", 1, 5),
    ("II(Z, Q, extra)", 1, 8),
    ("I(Q, idx x, Q)", 1, 10),
])
def test_spec_errors_carry_position(text, line, col):
    with pytest.raises(ParseError) as err:
        ps.parse_algebra(text)
    assert err.value.line == line
    assert err.value.col == col


def test_elem_round_trip_on_samples(alg):
    for name in ("A", "B", "C", "G", "E", "V3", "V4", "LZQ", "Q"):
        a = alg[name]
        rng = random.Random(13)
        for _ in range(150):
            x = ch.sample_elem(a, rng)
            assert ps.parse_elem(a, ps.print_elem(a, x)) == x


def test_elem_literals(alg):
    A = alg["A"]
    assert ps.print_elem(A, ps.parse_elem(A, "( -2 , T )")) == "(-2, T)"
    assert ps.print_elem(A, ps.parse_elem(A, "(0, -1/2)")) == "(0, -1/2)"
    E = alg["E"]
    assert ps.print_elem(E, ps.parse_elem(E, "((1, T), B)")) == "((1, T), B)"
    LZZ = alg["LZZ"]
    assert ps.print_elem(LZZ, ps.parse_elem(LZZ, "(1, -3)")) == "(1, -3)"


def test_elem_errors(alg):
    A = alg["A"]
    with pytest.raises(ParseError):
        ps.parse_elem(A, "(0,")
    with pytest.raises(InvalidElement):
        ps.parse_elem(A, "(1/2, T)")  # head must be an integer
    with pytest.raises(InvalidElement):
        ps.parse_elem(A, "(0, B)")  # type II adjoins no bottoms
    with pytest.raises(ParseError):
        ps.parse_elem(A, "(0, T) junk")


def test_expr_parsing(alg):
    A = alg["A"]
    op, x, y = ps.parse_expr(A, "mul (0, T) (1, 2/3)")
    assert op == "mul"
    assert ps.print_elem(A, x) == "(0, T)"
    assert ps.print_elem(A, y) == "(1, 2/3)"
    op, x = ps.parse_expr(A, "tau unit")
    assert op == "tau" and x == ch.unit(A)
    assert ps.parse_expr(A, "idems") == ("idems",)
    with pytest.raises(ParseError):
        ps.parse_expr(A, "frobnicate (0, T)")
    with pytest.raises(ParseError):
        ps.parse_expr(A, "mul (0, T)")  # missing second argument


def test_rat_printing():
    assert ps.print_rat((3, 1)) == "3"
    assert ps.print_rat((-7, 2)) == "-7/2"


def test_reptree_round_trip(alg):
    for name in ("A", "B", "C", "E", "V3", "V4"):
        tree = dec.group_representation(alg[name])
        text = ps.print_reptree(tree)
        assert ps.parse_reptree(text) == tree
        assert ps.print_reptree(ps.parse_reptree(text)) == text


def test_reptree_errors():
    with pytest.raises(ParseError):
        ps.parse_reptree("level 2: iota=II Z=gr G=Q H=fullH")
    with pytest.raises(ParseError):
        ps.parse_reptree("base: Z\nlevel 3: iota=II Z=gr G=Q H=fullH")
    with pytest.raises(ParseError):
        ps.parse_reptree("base: Z\nlevel 2: iota=V Z=gr G=Q H=fullH")


def test_node_table_names_every_node_kind():
    # one kind per cell of the family x middle-cut grid, and the subgroups
    # the parser reads between X and Y for each
    assert sorted(ch.NODE_KINDS.values()) == sorted(
        (family, cut) for family in ("tb", "t") for cut in ("none", "vsub", "h"))
    assert {kind: ps._subgroup_fields(kind) for kind in ch.NODE_KINDS} == {
        "I": ("zsub",), "II": (), "III": ("zsub", "vsub"), "IV": ("vsub",),
        "SLI": ("zsub",), "SLII": ()}


def _node_table_cases():
    """A spec for every node kind, and one for each subgroup form in each
    slot the table names: full, triv, idx N and a tuple over a rank-2 X."""
    cases = set()
    for kind, (_, cut) in ch.NODE_KINDS.items():
        fields = ps._subgroup_fields(kind)
        x = "Z" if kind == "IV" else "Q"
        tail = ", fullH" if cut == "h" else ""
        if not fields:
            cases.add(f"{kind}(Z, Q{tail})")
        for slot in range(len(fields)):
            for form in ("full", "triv", "idx 2", "(idx 2, full)"):
                # V sits inside Z: full before the slot, triv after it
                subs = (["full"] * slot + [form]
                        + ["triv"] * (len(fields) - slot - 1))
                xx = f"Lex({x}, {x})" if form.startswith("(") else x
                cases.add(f"{kind}({xx}, {', '.join(subs)}, Q{tail})")
    return sorted(cases)


@pytest.mark.parametrize("text", _node_table_cases())
def test_node_table_round_trip(text):
    a = ps.parse_algebra(text)
    assert ps.print_algebra(a) == text
    given_subs = {f for f in ("zsub", "vsub") if getattr(a, f) is not None}
    assert given_subs == set(ps._subgroup_fields(a.kind))


# ---------------------------------------------------------------------------
# the lexer against the per-character tokenizer it replaced

_REF_SYMBOLS = "(),/:=-"


def _ref_tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _REF_SYMBOLS:
            toks.append(ps.Token(c, c, line, col))
            col += 1
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(ps.Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(ps.Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    toks.append(ps.Token("eof", "", line, col))
    return toks


def _lexed(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except ParseError as e:
        return (e.message, e.line, e.col)


_WORDS = ["Z", "Q", "1", "Lex", "I", "II", "III", "IV", "SLI", "SLII", "full",
          "triv", "idx", "fullH", "prodH", "graphH", "T", "B", "unit", "mul",
          "comp", "base", "level", "iota", "gr", "G", "H", "0", "12", "007",
          "(", ")", ",", "/", "-", ":", "=", " ", "  ", "\n", "\t", "\r",
          "\x0b", "\x0c", "\x1c", "x_1", "_"]
_ASCII = st.text(st.characters(max_codepoint=127))
_SPECLIKE = st.lists(st.one_of(st.sampled_from(_WORDS),
                               st.characters(max_codepoint=127)),
                     max_size=30).map("".join)
# digits, letters and spaces outside ASCII: superscript two, Arabic-Indic
# three, e acute, superscripts one and four, the line separator, a
# no-break space
_NON_ASCII = ["\u00b2", "\u0663", "\u00e9", "\u00b9", "\u2074", "\u2028",
              "\u00a0"]


@given(text=st.one_of(_ASCII, _SPECLIKE))
def test_lexer_matches_the_reference_on_ascii(text):
    assert _lexed(ps._tokenize, text) == _lexed(_ref_tokenize, text)


@pytest.mark.parametrize("text,want", [
    ("I(Z, idx \u00b2, Q)", ("stray character '\u00b2'", 1, 10)),
    ("idx \u0663", ("stray character '\u0663'", 1, 5)),
    ("(0,\n \u00e9)", ("stray character '\u00e9'", 2, 2)),
    ("Z\u2028\u00a0Q", [("ident", "Z", 1, 1), ("ident", "Q", 1, 4),
                        ("eof", "", 1, 5)]),
])
def test_lexer_reads_ascii_tokens_only(text, want):
    assert _lexed(ps._tokenize, text) == want


def _parse(alg, form, text):
    """Read text as a spec, a tree, or an element or expression over the
    named fixture ("elem E", "expr A")."""
    kind, _, name = form.partition(" ")
    if kind == "spec":
        return ps.parse_algebra(text)
    if kind == "tree":
        return ps.parse_reptree(text)
    parse = ps.parse_elem if kind == "elem" else ps.parse_expr
    return parse(alg[name], text)


# valid text in each form, which the test below spoils by replacing one
# character with a non-ASCII one everywhere
_FORMS = [
    ("spec", "I(II(Z, Q), full, SLI(Q, idx 2, Q, prodH(triv, full)))"),
    ("elem E", "((1, T), -2/3)"),
    ("elem Q", "-12/5"),
    ("expr A", "mul (0, T) (1, 2/3)"),
    ("tree",
     "base: Lex(Z, Q)\nlevel 2: iota=II Z=(full, idx 3) G=Q H=graphH(1/2)"),
]
_SPOILT = st.sampled_from(_FORMS).flatmap(lambda form: st.builds(
    lambda old, new: (form[0], form[1].replace(old, new)),
    st.sampled_from(sorted(set(form[1]))), st.sampled_from(_NON_ASCII)))
_ANY = st.one_of(
    st.tuples(st.sampled_from([form for form, _ in _FORMS]),
              st.one_of(st.text(), _SPECLIKE)),
    _SPOILT)


@given(case=_ANY)
def test_only_package_errors_escape_the_parsers(alg, case):
    try:
        _parse(alg, *case)
    except PlexError:
        pass


@pytest.mark.parametrize("form,text", [
    ("spec", "I(Z, idx {}, Q)"),
    ("elem A", "({}, T)"),
    ("expr A", "comp ({}, T)"),
    ("tree", "base: Z\nlevel {}: iota=II Z=gr G=Q H=fullH"),
])
@pytest.mark.parametrize("char", _NON_ASCII[:3])
def test_non_ascii_is_a_stray_character_in_every_form(alg, form, text, char):
    text = text.format(char)
    with pytest.raises(ParseError) as err:
        _parse(alg, form, text)
    assert err.value.message == f"stray character {char!r}"
    assert text.splitlines()[err.value.line - 1][err.value.col - 1] == char


@pytest.mark.parametrize("form,text", [
    ("spec", "I(Q, idx {}, Q)"),
    ("elem A", "({}, T)"),
    ("tree", "base: Z\nlevel {}: iota=II"),
])
def test_overlong_numbers_are_parse_errors(alg, form, text):
    # Python refuses to convert decimal strings over 4,300 digits
    with pytest.raises(ParseError, match="number too long"):
        _parse(alg, form, text.format("9" * 5000))
