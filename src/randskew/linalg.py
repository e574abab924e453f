"""Dense symmetric linear algebra primitives.

All matrices are plain ``numpy.ndarray`` in row-major order.  Operations
are pure functions; nothing here holds state.
"""

from __future__ import annotations

import numpy as np

from . import _lapack as lapack
from .errors import NotPositiveDefinite

# Numerical PSD tolerances.  Chosen so that ridge-regularized Hessians
# with lambda >= 1e-6 always pass.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-14
# float64 entries of the row block that inverse_quadratic_forms whitens at
# a time: 256 KiB.  trmm packs the block into OpenBLAS's buffer, whose
# pages stay resident, so a larger block raises peak memory (512 KiB blocks
# added 0.5 MiB to a 2048 x 32 bias run) without running faster.
WHITEN_BLOCK_FLOATS = 1 << 15


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Validate external input as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def check_symmetric(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max()
    if scale > 0 and np.abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to relative tolerance "
                         f"{SYMMETRY_RTOL}")
    return M


def gram(A: np.ndarray) -> np.ndarray:
    """A^T A, symmetrized against floating-point accumulation skew; of a
    stack of matrices, the stack of their Grams."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[-2] < 1:
        raise ValueError("gram requires at least one row")
    if A.shape[-1] < 1:
        raise ValueError("gram requires at least one column")
    G = np.swapaxes(A, -1, -2) @ A
    return (G + np.swapaxes(G, -1, -2)) / 2.0


def _pivot_threshold(M: np.ndarray):
    """The smallest accepted squared pivot of M, or of each matrix of a
    stack: ``PIVOT_RTOL * trace / dim``."""
    return PIVOT_RTOL * np.trace(M, axis1=-2, axis2=-1) / M.shape[-1]


def _factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, j)`` for a stack of symmetric matrices M: ``Z[t]`` is the
    upper triangular ``L^T`` for ``M[t] = L L^T`` by LAPACK ``potrf`` on
    ``M[t]``'s lower triangle, and ``j[t]`` is the index of its first pivot
    that :func:`cholesky`'s rule rejects, or -1."""
    Z = np.array(np.swapaxes(M, -1, -2), dtype=np.float64, order="C")
    info = lapack.dpotrf_stack(Z)
    np.copyto(Z, 0.0, where=np.tri(Z.shape[-1], k=-1, dtype=bool))
    low = ~(np.diagonal(Z, axis1=1, axis2=2) ** 2
            > _pivot_threshold(M)[:, None])
    # potrf stops (info > 0) at a nonpositive pivot and leaves the rest
    low[np.arange(len(Z)), info - 1] |= info > 0
    return Z, np.where(low.any(axis=1), low.argmax(axis=1), -1)


def cholesky(M: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = M, by LAPACK ``potrf``.

    Raises :class:`NotPositiveDefinite` (carrying the pivot index) when a
    pivot ``L[j, j]**2`` falls below ``PIVOT_RTOL * trace(M) / dim``, or
    when ``potrf`` stops at a nonpositive pivot.
    """
    M = check_symmetric(M)
    Z, (j,) = _factor(M[None])
    if j >= 0:
        raise NotPositiveDefinite(
            f"pivot at index {j} is nonpositive or below threshold "
            f"{_pivot_threshold(M):.3e}", pivot_index=int(j))
    return Z[0].T


def solve_spd(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B for symmetric positive definite M."""
    X, _ = lapack.dpotrs(cholesky(M), np.asarray(B, dtype=np.float64),
                         lower=1)
    return X


def accepted_inverses(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the matrices of a stack of symmetric matrices that
    :func:`cholesky` accepts.

    Returns ``(Q, ok)``: ``ok[t]`` says whether ``M[t]``'s Cholesky factor
    passes :func:`cholesky`'s pivot rule, and ``Q`` stacks ``gram(Y)`` for
    those, in order, where ``Y = L^-1`` comes from LAPACK's triangular
    inverse ``trtri``.  ``potrf`` and ``trtri`` work on each matrix on its
    own, so no verdict or inverse depends on the rest of the stack; a
    nonzero ``trtri`` status raises :class:`NotPositiveDefinite`.
    """
    Z, low = _factor(M)
    ok = low < 0
    Z = Z[ok]
    _invert_upper(Z, "accepted factor")
    return gram(np.swapaxes(Z, -1, -2)), ok


def _invert_upper(Z: np.ndarray, what: str) -> None:
    """Overwrite each upper triangular Z[t] = L^T with Y^T for Y = L^-1, by
    LAPACK ``trtri``; a nonzero status raises :class:`NotPositiveDefinite`."""
    status = lapack.dtrtri_stack(Z)
    if status.any():
        t = int(np.flatnonzero(status)[0])
        info = int(status[t])
        raise NotPositiveDefinite(
            f"trtri failed on {what} {t} (info={info})",
            pivot_index=info - 1 if info > 0 else None)


def _inverse_factor(M: np.ndarray) -> np.ndarray:
    """The C-ordered upper triangular L^-T for M = L L^T, by ``trtri``;
    raises as :func:`cholesky` does."""
    Z = cholesky(M).T
    _invert_upper(Z[None], "factor")
    return Z


def whiten(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A L^-T for M = L L^T symmetric positive definite, so that
    (A L^-T)(A L^-T)^T = A M^-1 A^T.

    L^-1 comes from LAPACK ``trtri``, and BLAS ``trmm`` multiplies a copy
    of A by the triangular L^-T in place.  Raises as :func:`cholesky` does.
    """
    Z = _inverse_factor(M)
    B = np.array(A, dtype=np.float64, order="C")
    lapack.dtrmm(B, Z)
    return B


def inverse_quadratic_forms(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """a_i^T M^-1 a_i for every row a_i of A, M symmetric positive definite:
    the squared row norms of :func:`whiten`'s A L^-T.

    Rows are whitened ``WHITEN_BLOCK_FLOATS`` entries at a time in one
    scratch block, so no n x d temporary is made; the block size fixes the
    bits of the result.
    """
    Z = _inverse_factor(M)
    A = np.asarray(A, dtype=np.float64)
    n, d = A.shape
    step = max(1, WHITEN_BLOCK_FLOATS // d)
    block = np.empty((min(step, n), d))
    out = np.empty(n)
    for start in range(0, n, step):
        B = block[:min(step, n - start)]
        np.copyto(B, A[start:start + step])
        lapack.dtrmm(B, Z)
        np.einsum("ij,ij->i", B, B, out=out[start:start + step])
    return out


# No package code calls these eigen routines; perfbench's TRACED names them.


def spectral_norm(M: np.ndarray) -> float:
    """Largest |eigenvalue| of symmetric M."""
    M = check_symmetric(M)
    if M.shape[0] < 1:
        raise ValueError("spectral_norm requires dim >= 1")
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def _eigh_pd(M: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    M = check_symmetric(M, name)
    evals, evecs = np.linalg.eigh(M)
    if evals[0] <= 0:
        raise NotPositiveDefinite(
            f"{name} has nonpositive eigenvalue {evals[0]:.3e}",
            pivot_index=0)
    return evals, evecs


def inv_sqrt(M: np.ndarray) -> np.ndarray:
    """M^{-1/2} for symmetric positive definite M, via eigen-decomposition."""
    evals, evecs = _eigh_pd(M, "inv_sqrt input")
    R = (evecs / np.sqrt(evals)) @ evecs.T
    return (R + R.T) / 2.0


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """M^{1/2} for symmetric positive semi-definite M."""
    M = check_symmetric(M)
    evals, evecs = np.linalg.eigh(M)
    evals = np.clip(evals, 0.0, None)
    R = (evecs * np.sqrt(evals)) @ evecs.T
    return (R + R.T) / 2.0
