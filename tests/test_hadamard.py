from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from randskew import hadamard
from randskew import rng as rsrng
from randskew.data import counterexample_matrix
from randskew.debias import DebiasSpec, apply_debias
from randskew.errors import NotPowerOfTwo
from randskew.hadamard import (SrhtDraw, fwht_inplace, next_power_of_two,
                               rotated_leverage_scores, srht_apply, srht_draw)
from randskew.linalg import gram, inv_sqrt
from randskew.sampling import (PlanKind, SketchDraw, build_plan,
                               exact_leverage_scores)

# frozen from a one-off 50-draw calibration at n=2^10, d=2^4
# (worst observed constant 3.21)
CONCENTRATION_CONSTANT = 4.0


def dense_hadamard(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def fwht_per_level_copy(v):
    """The unblocked transform, copying the top half at every level: the
    bitwise reference for ``fwht_inplace``."""
    n = v.shape[0]
    flat = v.reshape(n, -1)
    h = 1
    while h < n:
        y = flat.reshape(n // (2 * h), 2, h, flat.shape[1])
        top = y[:, 0].copy()
        y[:, 0] += y[:, 1]
        y[:, 1] = top - y[:, 1]
        h *= 2
    return v


def assert_matches_per_level_copy(n, cols):
    """``fwht_inplace`` of an n-row random input (a vector when ``cols`` is
    None) equals the reference bit for bit, in place."""
    shape = (n,) if cols is None else (n, cols)
    v = np.random.default_rng(n).standard_normal(shape)
    want = fwht_per_level_copy(v.copy())
    assert fwht_inplace(v) is v
    assert_array_equal(v, want)


def _read_only():
    v = np.ones((4, 3))
    v.flags.writeable = False
    return v


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

    @pytest.mark.parametrize("make", [
        lambda: np.array([1, 2, 3, 4]),
        lambda: np.asfortranarray(np.ones((4, 3))),
        lambda: np.ones((8, 3))[::2],
        _read_only,
    ], ids=["int", "fortran_order", "strided", "read_only"])
    def test_refuses_input_it_cannot_transform_in_place(self, make):
        v = make()
        before = v.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            fwht_inplace(v)
        assert_array_equal(v, before)

    @pytest.mark.parametrize("cols", [None, 1, 3, 64])
    @pytest.mark.parametrize("k", range(16))
    def test_bitwise_equal_to_per_level_copy(self, k, cols):
        assert_matches_per_level_copy(2 ** k, cols)

    @pytest.mark.parametrize("k", range(5))
    def test_bitwise_equal_when_a_block_is_one_row_pair(self, k):
        # rows this wide leave room for a single row pair per block
        wide = hadamard.FWHT_BLOCK_FLOATS // 2
        assert_matches_per_level_copy(2 ** k, wide)

    @pytest.mark.parametrize("cols", [None, 3, 64])
    @pytest.mark.parametrize("block_floats", [1, 2 ** 40],
                             ids=["one_row_pair", "past_n"])
    def test_block_size_does_not_change_the_transform(
            self, block_floats, cols, monkeypatch):
        monkeypatch.setattr(hadamard, "FWHT_BLOCK_FLOATS", block_floats)
        for k in (0, 1, 2, 7, 12):
            assert_matches_per_level_copy(2 ** k, cols)


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


def rotated_scores_of_whitened_factor(A, C, signs):
    """Leverage scores of H D A / sqrt(n) given C, as the squared row norms
    of the rotation of A R, R = (A^T A + C)^(-1/2): the reference for the
    rotate-A-once formula."""
    n, n_padded = A.shape[0], signs.shape[0]
    B = np.zeros((n_padded, A.shape[1]))
    B[:n] = A @ inv_sqrt(gram(A) + C)
    B *= signs[:, None]
    fwht_inplace(B)
    B /= np.sqrt(n_padded)
    return np.einsum("ij,ij->i", B, B)


class TestSrhtPlan:
    A = np.random.default_rng(4).standard_normal((10, 4))  # padded to 16
    C = 1e-2 * np.eye(4)
    M = 12

    def _sketch(self, seed):
        plan = build_plan(PlanKind.SRHT, self.A, self.C)
        spec = DebiasSpec.scalar(self.M, plan.d_eff)
        return plan, spec, plan.sketch(self.A, self.M, spec, seed)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sketch_equals_srht_apply_of_the_debiased_draw(self, seed):
        _, spec, (At, drawn) = self._sketch(seed)
        sd = srht_draw(self.A.shape[0], self.M, seed)
        sd = replace(sd, sample=apply_debias(sd.sample, spec))
        assert_array_equal(At, srht_apply(sd, self.A))
        assert_array_equal(drawn.sample.weights, sd.sample.weights)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_rho_max_matches_rotating_the_whitened_factor(self, seed):
        plan, _, (_, drawn) = self._sketch(seed)
        ref = rotated_scores_of_whitened_factor(self.A, self.C, drawn.signs)
        rho = plan.rho_max(self.A, self.C, None, drawn)
        d_eff = exact_leverage_scores(self.A, self.C).sum()
        assert rho == pytest.approx(
            ref.max() * drawn.n_padded / d_eff, rel=1e-12, abs=0)
        assert_allclose(
            rotated_leverage_scores(self.A, self.C, drawn.signs), ref,
            rtol=1e-12)

    def test_rho_max_refuses_a_draw_without_its_rotation(self):
        plan, _, (_, drawn) = self._sketch(0)
        bare = replace(drawn, rotated=None)
        with pytest.raises(ValueError, match="draw returned by sketch"):
            plan.rho_max(self.A, self.C, plan.exact, bare)
