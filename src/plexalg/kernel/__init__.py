"""Kernel selection: the compiled twin when it imports, else pure Python.

KERNEL_IMPL names the active implementation so tests and the benchmark
can report it.
"""

try:
    from . import _ratvec_c as _impl  # type: ignore[attr-defined]

    KERNEL_IMPL = "c"
except ImportError:
    from . import _ratvec_py as _impl

    KERNEL_IMPL = "py"

ZERO = _impl.ZERO
ONE = _impl.ONE
rnorm = _impl.rnorm
rmake = _impl.rmake
radd = _impl.radd
rneg = _impl.rneg
rsub = _impl.rsub
rmul = _impl.rmul
rdiv = _impl.rdiv
rcmp = _impl.rcmp
ris_int = _impl.ris_int
vzero = _impl.vzero
vadd = _impl.vadd
vneg = _impl.vneg
vsub = _impl.vsub
vcmp = _impl.vcmp

__all__ = [
    "KERNEL_IMPL", "ZERO", "ONE", "rnorm", "rmake", "radd", "rneg", "rsub",
    "rmul", "rdiv", "rcmp", "ris_int", "vzero", "vadd", "vneg", "vsub", "vcmp",
]
