"""Print the class of host a test run is on: what may move the golden table's bits.

    python tests/host_class.py

Prints numpy's version, the SIMD targets numpy dispatches that this CPU
supports, the OpenBLAS core picked at run time (numpy.show_config() names
only the build target) and a ``host class: <target>/<core>`` line made of the
highest such target and the core. Anything it cannot read prints as
``unknown``, and it always exits 0.
"""
from __future__ import annotations

import ctypes
import glob
import os

import numpy


def simd_targets() -> str:
    """numpy's dispatched SIMD targets that this CPU supports, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:      # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)) or "none"


def openblas_core() -> str:
    libs = os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs")
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    return lib.scipy_openblas_get_corename64_().decode()


def probe(read) -> str:
    """read(), or "unknown" when it fails: a missing library or symbol."""
    try:
        return read()
    except Exception:
        return "unknown"


def main() -> int:
    targets, core = probe(simd_targets), probe(openblas_core)
    print(f"numpy: {numpy.__version__}")
    print(f"SIMD targets: {targets}")
    print(f"OpenBLAS core: {core}")
    print(f"host class: {targets.split()[-1]}/{core}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
