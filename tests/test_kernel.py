"""Rational/vector kernel: algebraic laws and twin agreement."""

import importlib.util
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from plexalg import kernel as kn
from plexalg.kernel import _ratvec_py as pyk

rats = st.builds(
    pyk.rmake,
    st.integers(-10**9, 10**9),
    st.integers(1, 10**6),
)
vecs = st.lists(rats, min_size=1, max_size=4).map(tuple)


def to_frac(r):
    return Fraction(r[0], r[1])


def test_constants():
    assert kn.ZERO == (0, 1)
    assert kn.ONE == (1, 1)


@given(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6).filter(bool))
def test_rnorm_canonical(p, q):
    n, d = pyk.rnorm(p, q)
    assert d > 0
    assert Fraction(n, d) == Fraction(p, q)
    assert pyk.rnorm(n, d) == (n, d)


def test_rmake_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        pyk.rmake(1, 0)


@given(rats, rats)
def test_radd_matches_fractions(a, b):
    assert to_frac(pyk.radd(a, b)) == to_frac(a) + to_frac(b)


@given(rats, rats)
def test_rmul_matches_fractions(a, b):
    assert to_frac(pyk.rmul(a, b)) == to_frac(a) * to_frac(b)


@given(rats, rats)
def test_rsub_rneg(a, b):
    assert pyk.rsub(a, b) == pyk.radd(a, pyk.rneg(b))
    assert pyk.radd(a, pyk.rneg(a)) == pyk.ZERO


@given(rats, rats.filter(lambda r: r != pyk.ZERO))
def test_rdiv_inverts_rmul(a, b):
    assert pyk.rmul(pyk.rdiv(a, b), b) == a


@given(rats, rats)
def test_rcmp_matches_fractions(a, b):
    fa, fb = to_frac(a), to_frac(b)
    want = -1 if fa < fb else (1 if fa > fb else 0)
    assert pyk.rcmp(a, b) == want


@given(rats)
def test_ris_int(a):
    assert pyk.ris_int(a) == (to_frac(a).denominator == 1)


def test_vzero():
    assert pyk.vzero(3) == (pyk.ZERO,) * 3


@given(vecs)
def test_vector_group_laws(v):
    z = pyk.vzero(len(v))
    assert pyk.vadd(v, z) == v
    assert pyk.vadd(v, pyk.vneg(v)) == z
    assert pyk.vsub(v, v) == z


@given(vecs, vecs)
def test_vcmp_lexicographic(v, w):
    if len(v) != len(w):
        v = v[: min(len(v), len(w))]
        w = w[: len(v)]
    want = 0
    for a, b in zip(v, w):
        c = pyk.rcmp(a, b)
        if c:
            want = c
            break
    assert pyk.vcmp(v, w) == want


# compiled twin, when built, must agree exactly


@pytest.fixture(scope="module")
def ck(tmp_path_factory):
    """The compiled twin: the installed extension, else one built from the
    committed C source with the interpreter's own compiler settings."""
    try:
        from plexalg.kernel import _ratvec_c
        return _ratvec_c
    except ImportError:
        pass
    src = Path(kn.__file__).with_name("_ratvec_c.c")
    out = tmp_path_factory.mktemp("twin") / (
        "_ratvec_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    cmd = cc + ["-shared", "-fPIC", "-O0",
                "-I" + sysconfig.get_paths()["include"], str(src),
                "-o", str(out)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        pytest.skip(f"compiled kernel not built and not buildable: {exc}")
    spec = importlib.util.spec_from_file_location(
        "plexalg.kernel._ratvec_c", out)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@given(rats, rats)
def test_twin_scalar_ops(ck, a, b):
    assert ck.rnorm(*a) == pyk.rnorm(*a)
    assert ck.radd(a, b) == pyk.radd(a, b)
    assert ck.rsub(a, b) == pyk.rsub(a, b)
    assert ck.rmul(a, b) == pyk.rmul(a, b)
    assert ck.rneg(a) == pyk.rneg(a)
    assert ck.rcmp(a, b) == pyk.rcmp(a, b)
    assert ck.ris_int(a) == pyk.ris_int(a)
    if b != pyk.ZERO:
        assert ck.rdiv(a, b) == pyk.rdiv(a, b)


@given(vecs, vecs)
def test_twin_vector_ops(ck, v, w):
    m = min(len(v), len(w))
    v, w = v[:m], w[:m]
    assert ck.vadd(v, w) == pyk.vadd(v, w)
    assert ck.vsub(v, w) == pyk.vsub(v, w)
    assert ck.vneg(v) == pyk.vneg(v)
    assert ck.vcmp(v, w) == pyk.vcmp(v, w)


def test_twin_big_integers(ck):
    a = ck.rmake(10**40 + 1, 10**39)
    b = pyk.rmake(10**40 + 1, 10**39)
    assert a == b
    assert ck.rmul(a, a) == pyk.rmul(b, b)


def test_active_kernel_exported():
    assert kn.KERNEL_IMPL in ("py", "c")
    assert kn.radd((1, 2), (1, 3)) == (5, 6)
