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
