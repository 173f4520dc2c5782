"""Workbench for involutive residuated chains built from lexicographic
group products.

Modules
-------
groups
    Exact ordered abelian groups: integers, rationals, lex products,
    subgroup descriptions, convex-tail splitting.
build
    Constructors for the four partial lex product types and the two
    sublex variants, with precondition checks, and rebuild of a
    representation tree.
chains
    Element operations on built algebras: multiply, residuate,
    complement, covers.
sampling
    Random elements, compiled once per algebra (chains.sample_elem).
decompose
    The view protocol every consumer reads a chain through, peeling at
    the least strictly positive idempotent, group representation trees,
    and lex-product embeddings.
lawcheck
    Seeded sampling checks for the structural laws, the named law
    registry, the four product tables, and homomorphisms.
parsing
    Text forms: algebra specs, element literals, expressions,
    representation trees.
cli
    Command-line front end over all of the above.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name and the module it is read from.  Nothing is imported
# until a name or a submodule is first used (PEP 562), so a CLI verb loads
# only the modules it runs.
_EXPORTS = {
    "build": ("RepTree", "build_sublex", "build_type", "group_leaf",
              "rebuild"),
    "chains": ("Algebra", "comp", "le", "leaf", "lt", "mul",
               "positive_idempotents", "res", "sample_elem", "tau", "unit",
               "validate_elem", "x_down", "x_up"),
    "decompose": ("branch", "gamma", "group_representation",
                  "lex_embedding", "phi_nucleus", "representation_embedding",
                  "smallest_pos_idem"),
    "errors": ("DiscretenessViolated", "InvalidElement", "InvalidSubgroup",
               "OnlyUnitIdempotent", "ParseError", "PlexError",
               "PreconditionFailed", "StructuralMismatch",
               "SubgroupChainViolated", "UnknownLaw", "WrongBranch"),
    "groups": ("GroupDesc", "lex_group", "split_convex_tail"),
    "lawcheck": ("check_fle_laws", "check_hom", "check_named", "check_table",
                 "named_law_ids"),
    "parsing": ("parse_algebra", "parse_elem", "parse_expr", "parse_reptree",
                "print_algebra", "print_elem", "print_reptree"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "kernel", "sampling"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
