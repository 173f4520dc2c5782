"""Exact rational and lex-vector primitives.

Here a rational is a normalized ``(num, den)`` int pair (den >= 1, gcd 1);
everywhere else it is opaque.  Other modules make, combine, test
(``is_rat``, ``is_multiple``) and read (``parts``) rationals only through
the functions of ``__all__``, never indexing or unpacking one, and rely
only on value semantics: equal rationals are ``==`` and hash alike, and
``repr`` shows ``(num, den)`` (seeded reports and the benchmark's digests
read it).  Vectors are tuples of rationals compared lexicographically.
The kernel is pure Python; there is nothing to build.

Callers import the module (``from . import kernel as kn``) and look each
function up as ``kn.radd`` at call time, and the functions here reach one
another through this module's globals.  So all rational arithmetic stays
in this module, and a patched kernel (the benchmark's tracer wraps every
function named in ``__all__``; a test swaps in opaque rationals) sees
every call.
"""

from math import gcd

# The benchmark reports this name in its environment line.
KERNEL_IMPL = "py"

__all__ = [
    "KERNEL_IMPL", "ZERO", "ONE", "rnorm", "rmake", "radd", "rneg", "rsub",
    "rmul", "rcmp", "is_rat", "is_multiple", "parts", "vzero", "vadd",
    "vneg", "vsub", "vcmp",
]

ZERO = (0, 1)
ONE = (1, 1)


def rnorm(p, q):
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    if g > 1:
        p //= g
        q //= g
    return (p, q)


def rmake(p, q=1):
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    return rnorm(p, q)


def radd(a, b):
    p1, q1 = a
    p2, q2 = b
    if q1 == 1 and q2 == 1:
        return (p1 + p2, 1)
    return rnorm(p1 * q2 + p2 * q1, q1 * q2)


def rneg(a):
    return (-a[0], a[1])


def rsub(a, b):
    return radd(a, (-b[0], b[1]))


def rmul(a, b):
    p1, q1 = a
    p2, q2 = b
    if q1 == 1 and q2 == 1:
        return (p1 * p2, 1)
    return rnorm(p1 * p2, q1 * q2)


def rcmp(a, b):
    lhs = a[0] * b[1]
    rhs = b[0] * a[1]
    return (lhs > rhs) - (lhs < rhs)


def is_rat(x) -> bool:
    """x is a rational: a pair of ints (not bools), normalized."""
    return (type(x) is tuple and len(x) == 2 and type(x[0]) is int
            and type(x[1]) is int and x[1] >= 1 and gcd(x[0], x[1]) == 1)


def is_multiple(a, m: int) -> bool:
    """a is an integer multiple of the positive int m."""
    return a[1] == 1 and a[0] % m == 0


def parts(a) -> tuple:
    """(numerator, denominator) of a."""
    return a


def vzero(n):
    return ((0, 1),) * n


def vadd(u, v):
    return tuple(radd(a, b) for a, b in zip(u, v))


def vneg(u):
    return tuple((-p, q) for p, q in u)


def vsub(u, v):
    return tuple(rsub(a, b) for a, b in zip(u, v))


def vcmp(u, v):
    for a, b in zip(u, v):
        c = rcmp(a, b)
        if c:
            return c
    return 0
