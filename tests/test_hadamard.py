import numpy as np
import pytest

from randskew import rng as rsrng
from randskew.data import counterexample_matrix
from randskew.errors import NotPowerOfTwo
from randskew.hadamard import (SrhtDraw, fwht_inplace, next_power_of_two,
                               rotated_leverage_scores, srht_apply, srht_draw)
from randskew.linalg import gram
from randskew.sampling import SketchDraw

# frozen from a one-off 50-draw calibration at n=2^10, d=2^4
# (worst observed constant 3.21)
CONCENTRATION_CONSTANT = 4.0


def dense_hadamard(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


class TestFwht:
    def test_h2_first_column(self):
        v = np.array([[1.0], [0.0]])
        fwht_inplace(v)
        assert np.array_equal(v.ravel(), [1.0, 1.0])

    def test_constant_vector(self):
        v = np.ones((4, 1))
        fwht_inplace(v)
        assert np.array_equal(v.ravel(), [4.0, 0.0, 0.0, 0.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((16, 1))
        want = dense_hadamard(16) @ v
        got = v.copy()
        fwht_inplace(got)
        assert np.abs(got - want).max() < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NotPowerOfTwo):
            fwht_inplace(np.zeros((6, 1)))

    @pytest.mark.parametrize("n", [2 ** k for k in range(11)])
    def test_self_inverse_up_to_n(self, n):
        M = np.eye(n)
        fwht_inplace(M)
        fwht_inplace(M)
        assert np.array_equal(M, n * np.eye(n))


def test_next_power_of_two():
    assert [next_power_of_two(k) for k in (1, 2, 3, 5, 8, 9)] == \
        [1, 2, 4, 8, 8, 16]


class TestSrhtApply:
    def test_full_identity_draw_preserves_gram(self):
        # m = n with all signs +1: the sketch is H_n/sqrt(n) times A, and
        # H^T H = n I makes the Gram exact
        n = 8
        A = np.zeros((n, 2))
        A[0, 0] = 1.0
        A[3, 1] = 2.0
        sd = SrhtDraw(signs=np.ones(n),
                      sample=SketchDraw(m=n, indices=np.arange(n),
                                        weights=np.ones(n)),
                      n_original=n, n_padded=n)
        At = srht_apply(sd, A)
        assert np.abs(gram(At) - gram(A)).max() < 1e-12

    def test_monte_carlo_unbiasedness(self):
        n = 4
        A = np.eye(n)
        T = 2000
        grams = np.empty((T, n, n))
        for t in range(T):
            sd = srht_draw(n, n, rsrng.split(21, t))
            grams[t] = gram(srht_apply(sd, A))
        dev = np.abs(grams.mean(axis=0) - np.eye(n))
        tol = 3.0 * grams.std(axis=0, ddof=1) / np.sqrt(T) + 1e-12
        assert np.all(dev < tol)

    def test_zero_matrix(self):
        sd = srht_draw(8, 4, seed=1)
        assert np.array_equal(srht_apply(sd, np.zeros((8, 3))),
                              np.zeros((4, 3)))

    def test_padding_to_power_of_two(self):
        A = counterexample_matrix(3)  # n = 6, padded to 8
        sd = srht_draw(6, 5, seed=2)
        assert sd.n_padded == 8
        assert srht_apply(sd, A).shape == (5, 3)

    def test_determinism(self):
        a = srht_draw(16, 8, seed=4)
        b = srht_draw(16, 8, seed=4)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.sample.indices, b.sample.indices)


class TestRotatedLeverageScores:
    def test_sum_preserved(self):
        d = 4
        A = np.eye(d)
        signs = np.ones(d)
        scores = rotated_leverage_scores(A, np.zeros((d, d)), signs)
        assert scores.sum() == pytest.approx(d, abs=1e-10)

    def test_concentration(self):
        n, d = 2 ** 10, 2 ** 4
        A = rsrng.generator(123).standard_normal((n, d))
        C = np.zeros((d, d))
        bound = CONCENTRATION_CONSTANT * np.sqrt(d * np.log(n)) / n
        for r in range(50):
            signs = rsrng.generator(55, r).integers(0, 2, size=n) * 2.0 - 1.0
            scores = rotated_leverage_scores(A, C, signs)
            assert np.abs(scores - d / n).max() < bound

    def test_hadamard_column_concentrates(self):
        # the transform of a Hadamard column is a basis vector, so all
        # leverage mass lands on a single index
        n = 16
        col = dense_hadamard(n)[:, [3]] / np.sqrt(n)
        signs = np.ones(n)
        scores = rotated_leverage_scores(col, np.zeros((1, 1)), signs)
        assert scores[3] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(np.delete(scores, 3)).max() < 1e-10

    def test_gram_invariance_of_rotation(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((32, 5))
        for trial in range(3):
            signs = rsrng.generator(77, trial).integers(0, 2, size=32) * 2.0 - 1.0
            rotated = A * signs[:, None]
            M = np.eye(32)
            fwht_inplace(M)
            rotated = (M @ rotated) / np.sqrt(32)
            rel = np.linalg.norm(gram(rotated) - gram(A))
            assert rel < 1e-10 * np.linalg.norm(gram(A))
