"""LAPACK's Cholesky routines and BLAS ``trmm`` from the OpenBLAS that
numpy bundles.

numpy's wheel ships a full OpenBLAS, LAPACK included, whose symbols take
64-bit integers and end in ``64_`` (``scipy_dpotrf_64_``).  Calling it
through :mod:`ctypes` spares a program the import of ``scipy.linalg``.
Where numpy bundles no OpenBLAS, or it lacks one of the routines (a numpy
built against a system BLAS), the routines come from
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` instead.

``dpotrs(c, b, lower)`` has ``scipy.linalg.lapack``'s call shape: it
solves on a Fortran-ordered float64 copy of ``b`` and returns it with
LAPACK's ``info``.  ``dpotrf_stack(Z)`` and ``dtrtri_stack(Z)`` overwrite
each matrix of a writable C-contiguous float64 stack ``Z`` by one
``potrf('L')`` or ``trtri('L')`` call on its Fortran view ``Z[t].T``,
and return their ``info`` values; in ``Z[t]`` itself, both write the
upper triangle.  ``dtrmm(X, Z)`` overwrites a writable C-contiguous
float64 r x d matrix ``X`` by ``X @ Z`` for a C-contiguous upper triangular
d x d ``Z``, by one ``trmm('L', 'L', 'N', 'N')`` call on their Fortran
views ``Z.T @ X.T``.  :func:`openblas_pools` finds the thread pools of the
OpenBLAS bundled with numpy and with scipy.
"""

from __future__ import annotations

import ctypes
import importlib.util
import sys
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


def openblas_pools() -> list[tuple]:
    """``(package, get_num_threads, set_num_threads)`` of the OpenBLAS
    bundled with each loaded package: numpy's, and scipy's once something
    has imported scipy (the ``scipy.linalg.lapack`` route does).

    A package without a bundled OpenBLAS (built against a system BLAS or
    MKL), or a library without these symbols, contributes nothing.
    """
    pools = []
    for package, suffix in SUFFIX.items():
        lib = openblas(package) if package in sys.modules else None
        if lib is None:
            continue
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pools.append((package, get, set_))
    return pools


def _symbol(name: str):
    """``name`` in numpy's bundled OpenBLAS; AttributeError if it has none."""
    lib = openblas("numpy")
    if lib is None:
        raise AttributeError(f"numpy bundles no OpenBLAS to take {name} from")
    return getattr(lib, name + SUFFIX["numpy"])


def _stacked(infos):
    """The stack routine that runs ``infos(Z)``, an iterator over LAPACK's
    ``info`` for each matrix of ``Z`` in turn, once ``Z`` is checked to be
    a stack that a loop over raw addresses may write."""
    def routine(Z: np.ndarray) -> np.ndarray:
        if not (isinstance(Z, np.ndarray) and Z.dtype == np.float64
                and Z.flags.c_contiguous and Z.flags.writeable
                and Z.ndim == 3 and Z.shape[1] == Z.shape[2]):
            raise ValueError("expected a writable C-contiguous float64 "
                             "stack of square matrices")
        return np.fromiter(infos(Z), dtype=np.int64, count=len(Z))
    return routine


def _multiplied(trmm):
    """The ``dtrmm(X, Z)`` that runs ``trmm(X, Z)`` once ``X`` and ``Z`` are
    checked to be matrices that a call on raw addresses may use."""
    def dtrmm(X: np.ndarray, Z: np.ndarray) -> None:
        if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.flags.c_contiguous for a in (X, Z))
                and X.flags.writeable and X.ndim == 2
                and Z.shape == (X.shape[1],) * 2):
            raise ValueError("expected a writable C-contiguous float64 "
                             "matrix and a C-contiguous factor fitting its "
                             "rows")
        trmm(X, Z)
    return dtrmm


def _routines():
    """``(dpotrf_stack, dpotrs, dtrtri_stack, dtrmm)`` on numpy's OpenBLAS,
    or on ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` when numpy's
    lacks one of them."""
    try:
        potrf, potrs, trtri, trmm = (
            _symbol(f"scipy_d{name}_")
            for name in ("potrf", "potrs", "trtri", "trmm"))
    except AttributeError:
        from scipy.linalg import blas, lapack

        def each(fn, **overwrite):
            # Zt.T is Fortran-ordered, so ``overwrite`` works in place
            return _stacked(lambda Z: (fn(Zt.T, lower=1, **overwrite)[1]
                                       for Zt in Z))

        return (each(lapack.dpotrf, clean=0, overwrite_a=1), lapack.dpotrs,
                each(lapack.dtrtri, overwrite_c=1),
                _multiplied(lambda X, Z: blas.dtrmm(1.0, Z.T, X.T, side=0,
                                                    lower=1, overwrite_b=1)))

    # Fortran calling convention: every argument by reference, then one
    # hidden length per character argument.  The routines have no
    # ``argtypes``: every argument is a ctypes object built once per call
    # of a stack routine, which spares a conversion per LAPACK call.
    for fn in (potrf, potrs, trtri, trmm):
        fn.restype = None
    byref, ptr, one = ctypes.byref, ctypes.c_void_p, ctypes.c_size_t(1)

    def each(fn, *flags):
        """``fn(*flags, n, a, lda, info, ...)`` over a stack's matrices."""
        chars = [ctypes.c_char_p(f) for f in flags]

        def infos(Z):
            n, lda, info = _INT(Z.shape[1]), _INT(max(Z.shape[1], 1)), _INT()
            a, base, step = ptr(), Z.ctypes.data, Z.strides[0]
            args = (*chars, byref(n), a, byref(lda), byref(info),
                    *(one,) * len(chars))
            for t in range(len(Z)):
                a.value = base + t * step
                fn(*args)
                yield info.value
        return _stacked(infos)

    def dpotrs(c, b, lower=0):
        c = np.asarray(c, dtype=np.float64, order="F")
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or c.shape != (len(x), len(x)):
            raise ValueError(f"right-hand side of shape {x.shape} does not "
                             f"fit a factor of shape {c.shape}")
        n = len(x)
        lda, info = _INT(max(n, 1)), _INT()
        potrs(ctypes.c_char_p(_UPLO[lower]), byref(_INT(n)),
              byref(_INT(x.shape[1] if x.ndim == 2 else 1)),
              ptr(c.ctypes.data), byref(lda), ptr(x.ctypes.data), byref(lda),
              byref(info), one)
        return x, info.value

    flags = [ctypes.c_char_p(f) for f in (b"L", b"L", b"N", b"N")]
    alpha = byref(ctypes.c_double(1.0))

    def multiply(X, Z):
        ld = byref(_INT(max(X.shape[1], 1)))
        trmm(*flags, ld, byref(_INT(len(X))), alpha, ptr(Z.ctypes.data), ld,
             ptr(X.ctypes.data), ld, *(one,) * len(flags))

    return (each(potrf, b"L"), dpotrs, each(trtri, b"L", b"N"),
            _multiplied(multiply))


dpotrf_stack, dpotrs, dtrtri_stack, dtrmm = _routines()
