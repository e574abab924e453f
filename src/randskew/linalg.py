"""Dense symmetric linear algebra primitives.

All matrices are plain ``numpy.ndarray`` in row-major order, except that
the n-row readers (:func:`gram`, :func:`whitened_norms`) also take a
:class:`RowScaled` matrix, which they read in row blocks without forming
it.  Operations are pure functions; nothing here holds state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack as lapack
from .errors import NotPositiveDefinite

# Numerical PSD tolerances.  Chosen so that ridge-regularized Hessians
# with lambda >= 1e-6 always pass.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-14
# float64 entries of the row block that whitened_norms whitens at a
# time: 256 KiB.  trmm packs the block into OpenBLAS's buffer, whose
# pages stay resident, so a larger block raises peak memory (512 KiB blocks
# added 0.5 MiB to a 2048 x 32 bias run) without running faster.
WHITEN_BLOCK_FLOATS = 1 << 15
# rows of each block whose Grams gram() sums, in order; it fixes the bits of
# every Gram of more rows.  Rows rather than floats: a 2048 x 32 bias-lab
# input stays one block, so its Gram is one syrk as before, while a
# 4096 x 16 Hessian factor takes two.  At n = 32768, d = 64 (2-core Xeon,
# medians) one syrk took 5.5 ms (4.7 on two BLAS threads), 2048-row blocks
# 5.7 (5.1) and 512-row blocks 6.2 (7.6); read from a row-scaled view in
# 2048-row blocks the Gram took 7.7 ms against 8.8 for forming the factor
# and one syrk.
GRAM_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class RowScaled:
    """The n x d matrix ``op(A, scale)``, read in row blocks and never
    formed: ``op`` is ``np.multiply`` or ``np.divide`` and ``scale`` an
    (n, 1) column or a scalar; with ``op`` None the matrix is A itself.

    Each entry is the one product or quotient a_ij op s_i, so every row
    that :meth:`rows`, :meth:`take` or :meth:`signed` writes is bitwise
    that row of the formed matrix.
    """
    A: np.ndarray
    op: np.ufunc | None = None
    scale: np.ndarray | float = 1.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def _scale(self, index):
        return self.scale[index] if np.ndim(self.scale) else self.scale

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None):
        """Rows lo:hi, written into ``out[:hi - lo]`` when ``out`` is
        given; else a view of A for an unscaled matrix, or a new array."""
        block = self.A[lo:hi]
        if out is not None:
            out = out[:hi - lo]
        if self.op is None:
            if out is None:
                return block
            np.copyto(out, block)
            return out
        return self.op(block, self._scale(slice(lo, hi)), out=out)

    def blocks(self, step: int):
        """``(lo, rows lo:lo + step)`` for consecutive blocks of ``step``
        rows.  A scaled matrix writes every block into one buffer, so each
        block is valid until the next is read."""
        n, d = self.shape
        buf = None if self.op is None else np.empty((min(step, n), d))
        for lo in range(0, n, step):
            yield lo, self.rows(lo, min(lo + step, n), buf)

    def take(self, indices: np.ndarray, out: np.ndarray | None = None):
        """Rows ``indices`` (an index array of any shape, every index in
        range), written into ``out`` when it is given."""
        # every index is in range, so clipping moves none
        out = self.A.take(indices, axis=0, out=out, mode="clip")
        if self.op is not None:
            self.op(out, self._scale(indices), out=out)
        return out

    def signed(self, signs: np.ndarray, out: np.ndarray,
               rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of the matrix (all of them by default, or a
        strided slice such as one residue class) times the column
        ``signs`` of +-1, written into ``out``: bitwise, since a sign flip
        is exact in a product or a quotient."""
        if self.op is None:
            return np.multiply(self.A[rows], signs, out=out)
        return self.op(self.A[rows], self._scale(rows) * signs, out=out)


def as_rows(A: np.ndarray | RowScaled) -> RowScaled:
    """``A`` if it is a :class:`RowScaled`, else the unscaled float64
    matrix A."""
    if isinstance(A, RowScaled):
        return A
    return RowScaled(np.asarray(A, dtype=np.float64))


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


def gram(A: np.ndarray | RowScaled) -> np.ndarray:
    """A^T A, symmetrized against floating-point accumulation skew; of a
    stack of matrices, the stack of their Grams.

    A matrix (an array or a :class:`RowScaled`) is read in blocks of
    ``GRAM_BLOCK_ROWS`` rows, whose Grams are summed in row order, so no
    n x d temporary is made and the block size alone fixes the bits.  A
    one-block matrix takes one product, ``A^T A``.
    """
    if not isinstance(A, RowScaled):
        A = np.asarray(A, dtype=np.float64)
    if A.shape[-2] < 1:
        raise ValueError("gram requires at least one row")
    if A.shape[-1] < 1:
        raise ValueError("gram requires at least one column")
    if isinstance(A, np.ndarray) and A.ndim > 2:
        G = np.swapaxes(A, -1, -2) @ A
    else:
        products = (B.T @ B for _, B in as_rows(A).blocks(GRAM_BLOCK_ROWS))
        G = next(products)
        for P in products:
            G += P
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
    passes :func:`cholesky`'s pivot rule, and ``Q`` stacks ``Y^T Y`` for
    those, in order, where ``Y = L^-1`` comes from LAPACK's triangular
    inverse ``trtri``.  ``potrf`` and ``trtri`` work on each matrix on its
    own, so no verdict or inverse depends on the rest of the stack; a
    nonzero ``trtri`` status raises :class:`NotPositiveDefinite`.  numpy
    takes the product of ``Y^T = Z`` with its own transpose by ``syrk``
    and mirrors one triangle, so it is exactly symmetric as it stands.
    """
    Z, low = _factor(M)
    ok = low < 0
    Z = Z[ok]
    _invert_upper(Z, "accepted factor")
    return np.matmul(Z, np.swapaxes(Z, -1, -2)), ok


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


def inverse_quadratic_forms(A: np.ndarray | RowScaled, M: np.ndarray,
                            sketch: np.ndarray | None = None) -> np.ndarray:
    """a_i^T M^-1 a_i for every row a_i of A, by M's :func:`cholesky`."""
    return whitened_norms(A, cholesky(M), sketch)


def whitened_norms(A: np.ndarray | RowScaled, L: np.ndarray,
                   sketch: np.ndarray | None = None) -> np.ndarray:
    """The squared row norms of A L^-T, A an array or a :class:`RowScaled`
    and L lower triangular: a_i^T M^-1 a_i for every row a_i and M = L L^T.
    With ``sketch``, a k x d matrix S, those of A (L^-T S^T), which
    estimate the forms at O(dk) a row, the d x k product formed first.

    L^-T comes from LAPACK ``trtri``.  Rows are read in blocks of
    ``WHITEN_BLOCK_FLOATS`` entries of the wider of A and its product and
    multiplied there (by BLAS ``trmm`` in place in one scratch block, or by
    the d x k product), so no n x d temporary is made; the block size
    fixes the bits of the result.
    """
    Z = np.array(L.T, order="C")   # L^T, inverted in place to L^-T
    _invert_upper(Z[None], "factor")
    X = as_rows(A)
    n, d = X.shape
    right, width = None, d
    if sketch is not None:
        right, width = Z @ sketch.T, max(d, len(sketch))
    step = max(1, WHITEN_BLOCK_FLOATS // width)
    block = np.empty((min(step, n), d))
    out = np.empty(n)
    for start in range(0, n, step):
        B = X.rows(start, min(start + step, n), block)
        if right is None:
            lapack.dtrmm(B, Z)
        else:
            B = B @ right
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
