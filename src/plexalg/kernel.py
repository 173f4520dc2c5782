"""Exact rational and lex-vector primitives.

Rationals are plain ``(num, den)`` int pairs, always normalized: den >= 1
and gcd(num, den) == 1.  Vectors are tuples of such pairs compared
lexicographically.  The kernel is pure Python; there is nothing to build.

Callers import the module (``from . import kernel as kn``) and look each
function up as ``kn.radd`` at call time, and the functions here reach one
another through this module's globals.  So all rational arithmetic stays
in this module, and a patched kernel (the benchmark's tracer wraps every
function named in ``__all__``) sees every call.
"""

from math import gcd

# The benchmark reports this name in its environment line.
KERNEL_IMPL = "py"

__all__ = [
    "KERNEL_IMPL", "ZERO", "ONE", "rnorm", "rmake", "radd", "rneg", "rsub",
    "rmul", "rcmp", "vzero", "vadd", "vneg", "vsub", "vcmp",
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
