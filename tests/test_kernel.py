"""Rational/vector kernel: algebraic laws, agreement with Fraction, and
the names the benchmark's tracer wraps."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import plexalg.kernel as kn

rats = st.builds(
    kn.rmake,
    st.integers(-10**9, 10**9),
    st.integers(1, 10**6),
)
vecs = st.lists(rats, min_size=1, max_size=4).map(tuple)


def to_frac(r):
    return Fraction(r[0], r[1])


def as_pair(f):
    """The normalized kernel pair of a Fraction."""
    return (f.numerator, f.denominator)


def test_constants():
    assert kn.ZERO == (0, 1)
    assert kn.ONE == (1, 1)


@given(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6).filter(bool))
def test_rnorm_canonical(p, q):
    n, d = kn.rnorm(p, q)
    assert d > 0
    assert Fraction(n, d) == Fraction(p, q)
    assert kn.rnorm(n, d) == (n, d)


def test_rmake_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        kn.rmake(1, 0)


@given(rats, rats)
def test_radd_matches_fractions(a, b):
    assert to_frac(kn.radd(a, b)) == to_frac(a) + to_frac(b)


@given(rats, rats)
def test_rmul_matches_fractions(a, b):
    assert to_frac(kn.rmul(a, b)) == to_frac(a) * to_frac(b)


@given(rats, rats)
def test_rsub_matches_fractions(a, b):
    assert kn.rsub(a, b) == as_pair(to_frac(a) - to_frac(b))


@given(rats, rats)
def test_rsub_rneg(a, b):
    assert kn.rsub(a, b) == kn.radd(a, kn.rneg(b))
    assert kn.radd(a, kn.rneg(a)) == kn.ZERO


@given(rats, rats)
def test_rcmp_matches_fractions(a, b):
    fa, fb = to_frac(a), to_frac(b)
    want = -1 if fa < fb else (1 if fa > fb else 0)
    assert kn.rcmp(a, b) == want


def test_is_rat_takes_only_normalized_int_pairs():
    for r in (kn.ZERO, kn.ONE, kn.rmake(-3, 6), kn.rmake(10**30, 7)):
        assert kn.is_rat(r)
    for x in ((2, 4), (0, 2), (1, 0), (1, -2), (True, 1), (1, True),
              (1.5, 2), [1, 2], (1, 2, 3), 1, None):
        assert not kn.is_rat(x), x


@given(rats, st.integers(1, 12))
def test_is_multiple_and_parts_match_fractions(a, m):
    f = to_frac(a)
    assert kn.parts(a) == (f.numerator, f.denominator)
    assert kn.is_multiple(a, m) == ((f / m).denominator == 1)


def test_vzero():
    assert kn.vzero(3) == (kn.ZERO,) * 3


@given(vecs)
def test_vector_group_laws(v):
    z = kn.vzero(len(v))
    assert kn.vadd(v, z) == v
    assert kn.vadd(v, kn.vneg(v)) == z
    assert kn.vsub(v, v) == z


@given(vecs, vecs)
def test_vector_ops_match_fractions(v, w):
    v, w = v[: len(w)], w[: len(v)]
    fv, fw = [to_frac(a) for a in v], [to_frac(b) for b in w]
    assert kn.vadd(v, w) == tuple(as_pair(a + b) for a, b in zip(fv, fw))
    assert kn.vsub(v, w) == tuple(as_pair(a - b) for a, b in zip(fv, fw))
    assert kn.vneg(v) == tuple(as_pair(-a) for a in fv)


@given(st.integers(-10**45, 10**45), st.integers(1, 10**41),
       st.integers(-10**45, 10**45), st.integers(1, 10**41))
@example(10**40 + 1, 10**39, 10**40 + 1, 10**39)
def test_big_integers_match_fractions(p1, q1, p2, q2):
    a, b = kn.rmake(p1, q1), kn.rmake(p2, q2)
    fa, fb = Fraction(p1, q1), Fraction(p2, q2)
    assert a == as_pair(fa)
    assert kn.rmul(a, b) == as_pair(fa * fb)
    assert kn.radd(a, b) == as_pair(fa + fb)


@given(vecs, vecs)
def test_vcmp_lexicographic(v, w):
    if len(v) != len(w):
        v = v[: min(len(v), len(w))]
        w = w[: len(v)]
    want = 0
    for a, b in zip(v, w):
        c = kn.rcmp(a, b)
        if c:
            want = c
            break
    assert kn.vcmp(v, w) == want


def test_active_kernel_exported():
    assert kn.KERNEL_IMPL == "py"
    assert kn.radd((1, 2), (1, 3)) == (5, 6)
    # The benchmark's tracer wraps exactly the callables named in __all__,
    # so a public function missing from it would drop out of its counts.
    functions = {name for name, obj in vars(kn).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == kn.__name__}
    assert set(kn.__all__) == functions | {"ZERO", "ONE", "KERNEL_IMPL"}
