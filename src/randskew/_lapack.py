"""LAPACK's Cholesky routines from the OpenBLAS that numpy bundles.

numpy's wheel ships a full OpenBLAS, LAPACK included, whose symbols take
64-bit integers and end in ``64_`` (``scipy_dpotrf_64_``).  Calling it
through :mod:`ctypes` spares a program the import of ``scipy.linalg``.
Where numpy bundles no OpenBLAS, or it lacks one of the routines (a numpy
built against a system BLAS), the routines come from
``scipy.linalg.lapack`` instead.

``dpotrf(a, lower, clean)`` and ``dpotrs(c, b, lower)`` have
``scipy.linalg.lapack``'s call shapes: each works on a Fortran-ordered
float64 copy of ``a`` or ``b`` and returns it with LAPACK's ``info``.
``dtrtri_stack(Z)`` inverts each upper triangular matrix of a C-contiguous
float64 stack ``Z`` in place, one ``dtrtri`` call each, and returns their
``info`` values.
"""

from __future__ import annotations

import ctypes
import importlib.util
from functools import cache
from pathlib import Path

import numpy as np

# symbol suffix of the OpenBLAS each package bundles (numpy's is ILP64)
SUFFIX = {"numpy": "64_", "scipy": ""}
_INT = ctypes.c_int64
_UPLO = (b"U", b"L")   # by ``lower``


@cache
def openblas(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS in ``package``'s wheel (``<package>.libs``), or None."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libdir = Path(spec.origin).parent.parent / f"{package}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            return ctypes.CDLL(str(lib))
        except OSError:
            continue
    return None


def _symbol(name: str):
    """``name`` in numpy's bundled OpenBLAS; AttributeError if it has none."""
    lib = openblas("numpy")
    if lib is None:
        raise AttributeError(f"numpy bundles no OpenBLAS to take {name} from")
    return getattr(lib, name + SUFFIX["numpy"])


def _fortran(a, copy: bool) -> np.ndarray:
    """``a`` as a square Fortran-ordered float64 matrix, copied if ``copy``
    or if it is not one already."""
    c = np.array(a, dtype=np.float64, order="F", copy=copy or None)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    return c


def _stack(Z: np.ndarray) -> np.ndarray:
    """Zeroed statuses for ``Z``, once it is checked to be a stack that a
    loop over raw addresses may write."""
    if not (isinstance(Z, np.ndarray) and Z.dtype == np.float64
            and Z.flags.c_contiguous and Z.ndim == 3
            and Z.shape[1] == Z.shape[2]):
        raise ValueError("expected a C-contiguous float64 stack of square "
                         "matrices")
    return np.zeros(len(Z), dtype=np.int64)


def _routines():
    """``(dpotrf, dpotrs, dtrtri_stack)`` on numpy's OpenBLAS, or on
    ``scipy.linalg.lapack`` when numpy's lacks one of them."""
    try:
        potrf, potrs, trtri = (_symbol(f"scipy_d{name}_")
                               for name in ("potrf", "potrs", "trtri"))
    except AttributeError:
        from scipy.linalg import lapack

        def dtrtri_stack(Z):
            status = _stack(Z)
            for t, Zt in enumerate(Z):
                # Zt.T is Fortran-ordered, so overwrite_c inverts in place
                status[t] = lapack.dtrtri(Zt.T, lower=1, overwrite_c=1)[1]
            return status

        return lapack.dpotrf, lapack.dpotrs, dtrtri_stack

    # Fortran calling convention: every argument by reference, then one
    # hidden length per character argument
    ref, ptr, size = ctypes.POINTER(_INT), ctypes.c_void_p, ctypes.c_size_t
    potrf.argtypes = [ctypes.c_char_p, ref, ptr, ref, ref, size]
    potrs.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ptr, ref, ref, size]
    trtri.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ref, ptr, ref, ref,
                      size, size]
    for fn in (potrf, potrs, trtri):
        fn.restype = None
    byref = ctypes.byref

    def dpotrf(a, lower=0, clean=1):
        c = _fortran(a, copy=True)
        n, info = c.shape[0], _INT()
        potrf(_UPLO[lower], byref(_INT(n)), c.ctypes.data,
              byref(_INT(max(n, 1))), byref(info), 1)
        if clean:
            c[np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)] = 0.0
        return c, info.value

    def dpotrs(c, b, lower=0):
        c = _fortran(c, copy=False)
        x = np.array(b, dtype=np.float64, order="F")
        n = c.shape[0]
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"right-hand side of shape {x.shape} does not "
                             f"fit a {n}x{n} factor")
        lda, info = _INT(max(n, 1)), _INT()
        potrs(_UPLO[lower], byref(_INT(n)),
              byref(_INT(x.shape[1] if x.ndim == 2 else 1)), c.ctypes.data,
              byref(lda), x.ctypes.data, byref(lda), byref(info), 1)
        return x, info.value

    def dtrtri_stack(Z):
        status = _stack(Z)
        # Z[t] read in Fortran order is the lower triangular Z[t]^T
        info = _INT()
        n, lda = byref(_INT(Z.shape[1])), byref(_INT(max(Z.shape[1], 1)))
        base, step, info_ref = Z.ctypes.data, Z.strides[0], byref(info)
        for t in range(len(Z)):
            trtri(b"L", b"N", n, base + t * step, lda, info_ref, 1, 1)
            status[t] = info.value
        return status

    return dpotrf, dpotrs, dtrtri_stack


dpotrf, dpotrs, dtrtri_stack = _routines()
