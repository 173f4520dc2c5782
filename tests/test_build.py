"""Builder preconditions and the structural witnesses they produce."""

import hashlib
import json
from pathlib import Path

import pytest

from plexalg import build, parsing
from plexalg.chains import FullH, GraphH, ProdH, gr_ambient
from plexalg.errors import (DiscretenessViolated, InvalidSubgroup, PlexError,
                            PreconditionFailed, SubgroupChainViolated)
from plexalg.groups import FULL, Q_GROUP, TRIV, TRIV_GROUP, Z_GROUP, idx

Z = build.group_leaf(Z_GROUP)
Q = build.group_leaf(Q_GROUP)


def spec(text):
    return parsing.parse_algebra(text)


def test_leaves():
    assert Z.is_leaf
    assert build.group_leaf(TRIV_GROUP).is_leaf
    assert parsing.print_algebra(Z) == "Z"
    assert parsing.print_algebra(build.group_leaf(TRIV_GROUP)) == "1"


def test_type_constructors_build():
    for text in (
        "II(Z, Q)",
        "I(Q, idx 1, Q)",
        "III(Q, idx 1, idx 2, Q)",
        "IV(Z, idx 2, Q)",
        "SLII(Z, Q, fullH)",
        "SLII(Z, Q, prodH(full, triv))",
        "SLII(Z, Q, graphH(1/2))",
        "SLI(Q, idx 1, Q, fullH)",
        "I(II(Z, Q), full, Q)",
        "II(Lex(Z, Z), Q)",
    ):
        a = spec(text)
        assert parsing.print_algebra(a) == text


def test_kind_ii_needs_discreteness():
    # the rationals are dense, so no element has covers
    with pytest.raises(DiscretenessViolated):
        build.build_type("II", Q, Q)
    with pytest.raises(DiscretenessViolated):
        spec("II(Q, Q)")
    with pytest.raises(DiscretenessViolated):
        spec("IV(Q, idx 2, Q)")


def test_kind_i_needs_top_subgroup():
    with pytest.raises(PreconditionFailed):
        build.build_type("I", Q, Q)
    with pytest.raises(PreconditionFailed):
        build.build_type("II", Z, Q, zsub=(FULL,))


def test_subgroup_chain_enforced():
    # kind III needs the middle subgroup inside the top one
    with pytest.raises(SubgroupChainViolated):
        spec("III(Q, idx 2, idx 1, Q)")
    assert spec("III(Q, idx 2, idx 4, Q)") is not None


def test_subgroup_rank_checked():
    with pytest.raises(InvalidSubgroup):
        build.build_type("I", Q, Q, zsub=(idx(1), idx(1)))


def test_sublex_needs_leaf_second_factor():
    node = spec("II(Z, Q)")
    with pytest.raises(PreconditionFailed):
        build.build_sublex("SLII", Z, node, build.FullH())


def test_graph_h_needs_compatible_shape():
    # graphH couples a divisible y to one integer head coordinate
    with pytest.raises(PreconditionFailed):
        spec("SLII(Q, Q, graphH(1/2))")


@pytest.mark.parametrize("c", [(2, 4), (1.5, 2), (True, 1)],
                         ids=["unnormalized", "float", "bool"])
def test_graph_slope_must_be_a_kernel_rational(c):
    # such a slope once built, and printed as graphH(2/4) or graphH(1.5/2)
    with pytest.raises(PreconditionFailed) as info:
        build.build_sublex("SLII", Z, Q, GraphH(c))
    assert str(info.value) == "graph slope must be a normalized rational pair"


def test_structure_is_preserved_by_nesting():
    e = spec("I(II(Z, Q), full, Q)")
    assert not e.is_leaf
    assert parsing.print_algebra(e.x) == "II(Z, Q)"
    assert build.gr_ambient(e).kinds == ("Z", "Q", "Q")


def test_discretely_embedded_probe():
    # asks about the argument's own group part inside itself
    assert build.discretely_embedded(Z)
    assert build.discretely_embedded(spec("Lex(Z, Z)"))
    assert not build.discretely_embedded(Q)
    assert not build.discretely_embedded(spec("II(Z, Q)"))  # dense middles


# ---------------------------------------------------------------------------
# the exhaustive builder grid: every kind (and one unknown) through both
# builders, over every pair of the children below, every subgroup form in
# each slot and every restriction form.  tests/builder_grid.json holds the
# digest of the outcomes per builder, kind and first child, as recorded
# before the builders shared one checked body; it is only read.

GRID_KINDS = ("I", "II", "III", "IV", "SLI", "SLII", "V")
# leaves of rank 0-2; nodes of both families, cut by nothing, by V and by
# H; a group part cut by a subgroup (I(Z, idx 2, 1)) and a graph-linked one
GRID_CHILDREN = ("Z", "Q", "1", "Lex(Z, Q)", "II(Z, Q)", "I(Q, idx 1, Q)",
                 "I(Z, idx 2, 1)", "IV(Z, idx 2, Z)", "SLII(Z, Q, graphH(1/2))",
                 "SLI(Z, full, Q, prodH(idx 2, triv))")


def _grid_subs(rank):
    """Missing, full, triv, idx 2, a bad index and the wrong arity."""
    return (None, (FULL,) * rank, (TRIV,) * rank, (idx(2),) * rank,
            (("idx", 0),) * rank, (FULL,) * (rank + 1))


def _grid_hs(xrank, yrank):
    return (None, FullH(), ProdH((FULL,) * xrank, (FULL,) * yrank),
            ProdH((idx(2),) * xrank, (TRIV,) * yrank),
            ProdH((FULL,) * (xrank + 1), (FULL,) * yrank),
            ProdH((FULL,) * xrank, (("idx", 0),) * yrank),
            GraphH((1, 2)), GraphH((1, 0)))


def _grid_outcome(make, *args) -> str:
    try:
        return parsing.print_algebra(make(*args))
    except PlexError as exc:  # the type and message are the outcome
        return f"{type(exc).__name__}: {exc}"


def _builder_grid() -> dict:
    children = [spec(text) for text in GRID_CHILDREN]
    out = {}
    for kind in GRID_KINDS:
        for text, x in zip(GRID_CHILDREN, children):
            xrank = gr_ambient(x).rank
            typed, sublex = [], []
            for y in children:
                yrank = y.group.rank if y.is_leaf else 1
                for z in _grid_subs(xrank):
                    typed += [_grid_outcome(build.build_type, kind, x, y, z, v)
                              for v in _grid_subs(xrank)]
                    sublex += [_grid_outcome(build.build_sublex, kind, x, y, h, z)
                               for h in _grid_hs(xrank, yrank)]
            for name, got in (("type", typed), ("sublex", sublex)):
                digest = hashlib.sha256("\n".join(got).encode()).hexdigest()
                out[f"{name}/{kind}/{text}"] = digest[:24]
    return out


def test_builder_grid_outcomes_are_the_recorded_ones():
    expected = json.loads(
        (Path(__file__).resolve().parent / "builder_grid.json").read_text())
    got = _builder_grid()
    assert sorted(got) == sorted(expected)
    assert [key for key in expected if got[key] != expected[key]] == []
