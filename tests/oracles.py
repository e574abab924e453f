"""Reference sketches the tests check the package against."""

import numpy as np

from randskew import _lapack as lapack
from randskew import rng as rsrng
from randskew.linalg import check_symmetric, cholesky, inv_sqrt, solve_spd


def gaussian_sketch(A: np.ndarray, m: int, seed: int) -> np.ndarray:
    """S A with i.i.d. Normal(0, 1/m) entries of S.

    The inverse-Wishart identity E[(A~^T A~)^{-1}] = m/(m-d-1) (A^T A)^{-1}
    holds for m > d + 1.
    """
    A = np.asarray(A, dtype=np.float64)
    gen = rsrng.generator(seed)
    S = gen.standard_normal((m, A.shape[0])) / np.sqrt(m)
    return S @ A


def sampled_rows(plan, m: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and weights (T x m each) of ``draw(plan, m, s)`` for
    each of the T ``seeds``, from the plan's sampler at once."""
    indices = plan._cdf[0][plan._positions(rsrng.uniform_rows(seeds, m))]
    return indices, 1.0 / np.sqrt(m * plan.probs[indices])


def dense_hadamard(n: int) -> np.ndarray:
    """The n x n Sylvester-Hadamard matrix, n a power of two, built by
    doubling: H_2h = [[H_h, H_h], [H_h, -H_h]]."""
    H = np.empty((n, n))
    H[0, 0] = 1.0
    h = 1
    while h < n:
        H[:h, h:2 * h] = H[:h, :h]
        H[h:2 * h, :h] = H[:h, :h]
        H[h:2 * h, h:2 * h] = -H[:h, :h]
        h *= 2
    return H


def spd_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    Minv = solve_spd(M, np.eye(M.shape[0]))
    return (Minv + Minv.T) / 2.0


def psd_relative_error(X_hat: np.ndarray, X: np.ndarray) -> float:
    """Smallest eps with (1+eps)^{-1} X <= X_hat <= (1+eps) X in PSD order.

    Returns +inf when X_hat has a nonpositive generalized eigenvalue
    against X.  X must be positive definite.
    """
    R = inv_sqrt(X)
    W = R @ check_symmetric(X_hat, "X_hat") @ R
    evals = np.linalg.eigvalsh((W + W.T) / 2.0)
    lam_min, lam_max = evals[0], evals[-1]
    if lam_min <= 0:
        return float("inf")
    return float(max(lam_max - 1.0, 1.0 / lam_min - 1.0, 0.0))


def hessian_sqrt(obj) -> np.ndarray:
    """The formed n x d Hessian factor of an ``Objective``: the matrix its
    hessian's ``A`` view reads without forming."""
    factor = obj.hessian.A
    return factor.op(factor.A, factor.scale)


def whiten(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A L^-T for M = L L^T symmetric positive definite, so that
    (A L^-T)(A L^-T)^T = A M^-1 A^T: one ``trmm`` on a copy of all of A,
    the unblocked reference of ``linalg.whitened_norms(A, cholesky(M))``.
    Raises as ``linalg.cholesky`` does."""
    Z = np.array(cholesky(M).T, order="C")   # L^-T by trtri, in place
    assert not lapack.dtrtri_stack(Z[None]).any()
    B = np.array(A, dtype=np.float64, order="C")
    lapack.dtrmm(B, Z)
    return B
