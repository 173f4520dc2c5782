"""The kernel's contract: outside plexalg.kernel a rational is an opaque
value that compares, hashes and prints as its (num, den) pair.

Every name of kernel.__all__ is swapped for a wrapper over a private copy
of the kernel whose rationals are Rat objects.  A Rat is equal to another
Rat of the same value, hashes and reprs as the pair it holds, and cannot be
indexed, iterated or unpacked; a wrapper refuses a plain pair where it
expects a rational.  The whole program (parse and print, every eval
operation, the law suites and mutants, peeling, rebuilding and the
embeddings, and the CLI verbs) must then print exactly what it prints over
the real kernel.
"""

import contextlib
import importlib.util
import io
import random

import pytest

from conftest import SPECS
from plexalg import chains as ch
from plexalg import cli
from plexalg import decompose as dec
from plexalg import kernel as kn
from plexalg import lawcheck as lc
from plexalg import parsing as ps
from plexalg import sampling
from plexalg.errors import PlexError

CASES = dict(SPECS, tower3="I(I(II(Z, Q), full, Q), full, Q)")

BUDGET = 6


class Rat:
    """A kernel rational seen from outside the kernel."""

    __slots__ = ("_pair",)

    def __init__(self, pair):
        self._pair = pair

    def __eq__(self, other):
        if other.__class__ is not Rat:
            return NotImplemented
        return self._pair == other._pair

    def __hash__(self):
        return hash(self._pair)

    def __repr__(self):
        return repr(self._pair)


def _rat_in(x):
    if x.__class__ is not Rat:
        raise TypeError(f"not a kernel rational: {x!r}")
    return x._pair


def _vec_in(v):
    if v.__class__ is not tuple:
        raise TypeError(f"not a kernel vector: {v!r}")
    return tuple(_rat_in(x) for x in v)


def _same(x):
    return x


def _vec_out(v):
    return tuple(Rat(p) for p in v)


# name -> (argument converters, result converter); an argument without a
# converter of its own (an int) passes as it is
_SIGNATURES = {
    "rnorm": ((), Rat), "rmake": ((), Rat),
    "radd": ((_rat_in, _rat_in), Rat), "rsub": ((_rat_in, _rat_in), Rat),
    "rmul": ((_rat_in, _rat_in), Rat), "rneg": ((_rat_in,), Rat),
    "rcmp": ((_rat_in, _rat_in), _same),
    "vzero": ((), _vec_out), "vneg": ((_vec_in,), _vec_out),
    "vadd": ((_vec_in, _vec_in), _vec_out),
    "vsub": ((_vec_in, _vec_in), _vec_out),
    "vcmp": ((_vec_in, _vec_in), _same),
    "is_multiple": ((_rat_in,), _same), "parts": ((_rat_in,), _same),
}


def _private_kernel():
    spec = importlib.util.spec_from_file_location("_private_kernel",
                                                  kn.__file__)
    real = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(real)
    return real


def _wrapper(real, name):
    fn = getattr(real, name)
    if name == "is_rat":
        return lambda x: x.__class__ is Rat and fn(x._pair)
    ins, out = _SIGNATURES[name]

    def wrapped(*args):
        args = [conv(a) for conv, a in zip(ins, args)] + list(args[len(ins):])
        return out(fn(*args))

    return wrapped


def _install_opaque_kernel(monkeypatch):
    real = _private_kernel()
    for name in kn.__all__:
        value = getattr(real, name)
        if name in ("ZERO", "ONE"):
            monkeypatch.setattr(kn, name, Rat(value))
        elif callable(value):
            monkeypatch.setattr(kn, name, _wrapper(real, name))


def _clear_tables():
    sampling._int_table.cache_clear()
    sampling._rat_table.cache_clear()


def _shown(fn, *args):
    try:
        return fn(*args)
    except PlexError as e:
        return f"{type(e).__name__}: {e}"


def _value_text(a, op, value):
    if op == "le":
        return str(value)
    if op == "idems":
        return " ".join(ps.print_elem(a, e) for e in value)
    return ps.print_elem(a, value)


def _algebra_lines(name, a):
    out = []
    text = ps.print_algebra(a)
    assert ps.parse_algebra(text) == a
    out.append(f"{name}: {text}")
    rng = random.Random(7)
    xs = [ch.sample_elem(a, rng) for _ in range(4)]
    for x in xs:
        shown = ps.print_elem(a, x)
        assert ps.parse_elem(a, shown) == x
        out.append(f"  elem {shown}")
    for op, (fname, arity) in ps.EXPR_OPS.items():
        fn = getattr(ch, fname)
        for args in ([()] if arity == 0 else
                     [xs[i:i + arity] for i in range(0, 4, arity)]):
            value = _shown(fn, a, *args)
            if not isinstance(value, str):
                value = _value_text(a, op, value)
            out.append(f"  {op} -> {value}")
    out.append(lc.check_fle_laws(a, budget=BUDGET).render())
    for law in lc.named_law_ids():
        out.append(str(_shown(
            lambda: lc.check_named(a, law, budget=BUDGET).render())))
    for table in (1, 2, 3, 4):
        out.append(str(_shown(
            lambda: lc.check_table(a, table, budget=BUDGET).render())))
    for target in ("mul", "comp"):
        out.append(lc.check_fle_laws(lc.Mutant(a, target),
                                     budget=BUDGET).render())
    return out


def _peel_lines(a):
    tree, rebuilt, alpha = dec.representation_embedding(a)
    text = ps.print_reptree(tree)
    assert ps.print_algebra(dec.rebuild(ps.parse_reptree(text))) == \
        ps.print_algebra(rebuilt)
    out = [text, ps.print_algebra(rebuilt)]
    rng = random.Random(11)
    xs = [ch.sample_elem(a, rng) for _ in range(4)]
    out += [ps.print_elem(rebuilt, alpha(x)) for x in xs]
    out.append(lc.check_hom(alpha, a, rebuilt, budget=BUDGET,
                            law="alpha").render())
    monoid, lex = dec.lex_embedding(a)
    out.append(monoid.describe())
    out += [repr(lex(x)) for x in xs]
    out.append(lc.check_hom(lex, a, monoid, budget=BUDGET, with_comp=False,
                            law="embed-lex").render())
    return out


def _cli_lines(tmp_path, name, spec):
    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return [f"$ {' '.join(argv[:1])} -> {code}", buf.getvalue()]

    path = tmp_path / f"{name}.spec"
    path.write_text(spec)
    out = run("build", "-f", str(path))
    out += run("eval", "-f", str(path), "-e", "idems")
    out += run("eval", "-f", str(path), "-e", "mul unit unit")
    out += run("represent", "-f", str(path))
    tree = tmp_path / f"{name}.tree"
    tree.write_text(out[-1])
    out += run("rebuild", "-f", str(tree))
    return out


def _transcript(tmp_path):
    _clear_tables()
    out = []
    try:
        for name, spec in CASES.items():
            a = ps.parse_algebra(spec)
            out += _algebra_lines(name, a)
            if not a.is_leaf:
                out += _peel_lines(a)
            out += _cli_lines(tmp_path, name, spec)
    finally:
        _clear_tables()
    return out


def test_rat_is_opaque():
    r = Rat((1, 2))
    assert r == Rat((1, 2)) and r != (1, 2) and hash(r) == hash((1, 2))
    assert repr(r) == "(1, 2)"
    for use in (lambda: r[0], lambda: tuple(r), lambda: len(r)):
        with pytest.raises(TypeError):
            use()


def test_whole_program_runs_on_opaque_rationals(monkeypatch, tmp_path):
    want = _transcript(tmp_path)
    with monkeypatch.context() as m:
        _install_opaque_kernel(m)
        assert isinstance(kn.ZERO, Rat)
        got = _transcript(tmp_path)
    assert got == want
    # the cases reach every part: a graph slope, markers and law reports
    text = "\n".join(want)
    assert "graphH(1/2)" in text and "LAW prop9.2" in text
