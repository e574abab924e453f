"""Reference sketches the tests check the package against."""

import numpy as np

from randskew import rng as rsrng


def gaussian_sketch(A: np.ndarray, m: int, seed: int) -> np.ndarray:
    """S A with i.i.d. Normal(0, 1/m) entries of S.

    The inverse-Wishart identity E[(A~^T A~)^{-1}] = m/(m-d-1) (A^T A)^{-1}
    holds for m > d + 1.
    """
    A = np.asarray(A, dtype=np.float64)
    gen = rsrng.generator(seed)
    S = gen.standard_normal((m, A.shape[0])) / np.sqrt(m)
    return S @ A


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
