from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import dense_hadamard

from randskew import hadamard
from randskew import rng as rsrng
from randskew.data import counterexample_matrix
from randskew.debias import DebiasMode, DebiasSpec, apply_debias
from randskew.errors import NotPowerOfTwo
from randskew.hadamard import (SrhtDraw, _rotate, _rotated_sample,
                               _signed_rows, _srht_signs, _stage_bits,
                               _staged_hadamard, _streamed_sample,
                               fwht_inplace, next_power_of_two,
                               rotated_leverage_scores, srht_apply, srht_draw)
from randskew.linalg import RowScaled, gram, inv_sqrt
from randskew.optim import GlmProblem, ProblemKind, objective_eval
from randskew.sampling import (PlanKind, SamplingPlan, SketchDraw,
                               build_plan, draw, exact_leverage_scores)

# frozen from a one-off 50-draw calibration at n=2^10, d=2^4
# (worst observed constant 3.21)
CONCENTRATION_CONSTANT = 4.0


# |staged - reference| <= ROTATION_ERROR_CONSTANT * max(log2 N, 1) * eps
#   * max|A| * sqrt(N), sqrt(N) * max|A| bounding the normalized rotation's
#   output (N * max|v| for the unnormalized transform); chosen before
#   measuring (worst measured constant 0.29 for the rotation against the
#   dense oracle, at N = 2; 0.22 for fwht_inplace against the butterfly
#   loop, at N = 4 with 2^15 columns)
ROTATION_ERROR_CONSTANT = 2.0


def fwht_per_level_copy(v):
    """The plain butterfly loop, copying the top half at every level: the
    reference for ``fwht_inplace`` up to rounding."""
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


def _fwht_input(n, cols):
    """An n-row random input, a vector when ``cols`` is None."""
    shape = (n,) if cols is None else (n, cols)
    return np.random.default_rng(n).standard_normal(shape)


def assert_agrees_with_per_level_copy(k, cols):
    """``fwht_inplace`` of a 2^k-row input works in place and is within
    the rounding bound of the butterfly reference."""
    v = _fwht_input(2 ** k, cols)
    want = fwht_per_level_copy(v.copy())
    bound = (ROTATION_ERROR_CONSTANT * max(k, 1) * np.finfo(float).eps
             * np.abs(v).max() * 2 ** k)
    assert fwht_inplace(v) is v
    assert np.abs(v - want).max() <= bound


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
        lambda: np.array(3.0),
    ], ids=["int", "fortran_order", "strided", "read_only", "scalar"])
    def test_refuses_input_it_cannot_transform_in_place(self, make):
        v = make()
        before = v.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            fwht_inplace(v)
        assert_array_equal(v, before)

    # these tests keep the names they had when ``fwht_inplace`` was the
    # butterfly loop, bitwise equal to ``fwht_per_level_copy``; the staged
    # transform agrees with it up to rounding
    @pytest.mark.parametrize("cols", [None, 1, 3, 64])
    @pytest.mark.parametrize("k", range(16))
    def test_bitwise_equal_to_per_level_copy(self, k, cols):
        assert_agrees_with_per_level_copy(k, cols)

    @pytest.mark.parametrize("k", range(5))
    def test_bitwise_equal_when_a_block_is_one_row_pair(self, k):
        assert_agrees_with_per_level_copy(k, 2 ** 15)

    @pytest.mark.parametrize("cols", [None, 3, 64])
    @pytest.mark.parametrize("block_floats", [1, 2 ** 40],
                             ids=["one_row_pair", "past_n"])
    def test_block_size_does_not_change_the_transform(
            self, block_floats, cols, monkeypatch):
        ks = (0, 1, 2, 7, 12)
        want = [fwht_inplace(_fwht_input(2 ** k, cols)) for k in ks]
        monkeypatch.setattr(hadamard, "FWHT_BLOCK_FLOATS", block_floats)
        for k, w in zip(ks, want):
            v = _fwht_input(2 ** k, cols)
            assert fwht_inplace(v) is v
            assert_array_equal(v, w)


# row counts for the staged rotation: every n up to 17, and powers of two
# with their neighbours up to 2^12
ROTATION_ROWS = list(range(1, 18)) + [31, 32, 33, 255, 257, 1000, 1023,
                                       1025, 2047, 2048, 2049, 4095, 4096]


def _signed_input(n, cols):
    rng = np.random.default_rng([n, cols])
    signs = rng.integers(0, 2, size=next_power_of_two(n)) * 2.0 - 1.0
    return signs, rng.standard_normal((n, cols))


class TestStagedRotation:
    @pytest.mark.parametrize("n", ROTATION_ROWS)
    def test_matches_dense_oracle(self, n):
        N = next_power_of_two(n)
        H = dense_hadamard(N)
        for cols in (1, 3, 64):
            signs, A = _signed_input(n, cols)
            padded = np.zeros((N, cols))
            padded[:n] = A
            want = H @ (signs[:, None] * padded) / np.sqrt(N)
            bound = (ROTATION_ERROR_CONSTANT * max(np.log2(N), 1.0)
                     * np.finfo(float).eps * np.abs(A).max() * np.sqrt(N))
            assert np.abs(_rotate(signs, A) - want).max() <= bound

    @pytest.mark.parametrize("k", range(12))
    def test_unnormalized_self_inverse_up_to_n(self, k):
        N = 2 ** k
        M = np.eye(N)
        assert _staged_hadamard(_staged_hadamard(M)) is M
        assert np.array_equal(M, N * np.eye(N))

    @pytest.mark.parametrize("block_floats", [1, 2 ** 40],
                             ids=["one_float", "past_n"])
    def test_scratch_size_does_not_change_the_rotation(
            self, block_floats, monkeypatch):
        cases = [(n, cols) for n in (1, 2, 3, 100, 2048, 4095)
                 for cols in (1, 3, 64)]
        want = [_rotate(*_signed_input(n, cols)) for n, cols in cases]
        monkeypatch.setattr(hadamard, "FWHT_BLOCK_FLOATS", block_floats)
        for (n, cols), w in zip(cases, want):
            assert_array_equal(_rotate(*_signed_input(n, cols)), w)

    def test_signs_of_non_power_of_two_length_rejected(self):
        with pytest.raises(NotPowerOfTwo):
            _rotate(np.ones(6), np.ones((5, 2)))


def test_earlier_stages_are_the_stages_of_one_residue_class():
    # the rotation of the n / k rows of one residue class modulo k, k the
    # last stage's width, runs exactly the stages before the last
    for n in (2 ** p for p in range(41)):
        bits = _stage_bits(n)
        assert (bits[:-1] or [0]) == _stage_bits(n >> bits[-1])


def _row_scaled(kind, n, cols):
    """The Hessian factor of a ``kind`` problem on random n x cols data:
    the data times a column for logistic loss, over a scalar for least
    squares."""
    A = np.random.default_rng([n, cols, 1]).standard_normal((n, cols))
    y = (np.where(A[:, 0] > 0, 1.0, -1.0) if kind is ProblemKind.LOGISTIC
         else A[:, 0])
    return objective_eval(GlmProblem(A, y, 1e-3, kind),
                          np.full(cols, 0.1)).factor


class TestStreamedSample:
    @pytest.mark.parametrize("block_floats", [None, 1, 2 ** 40],
                             ids=["default", "one_float", "past_n"])
    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    def test_is_the_sample_of_the_whole_rotation_bitwise(
            self, kind, block_floats, monkeypatch):
        cases = []
        for n in (1, 2, 3, 100, 2048, 4095, 5000):
            N = next_power_of_two(n)
            for cols in (1, 3, 64):
                X = _row_scaled(kind, n, cols)
                signs = _srht_signs(n, n + cols)
                # fewer draws than padded rows, and more
                for m in (max(1, N // 3), N + 5):
                    spec = DebiasSpec.scalar(m, 0.5)
                    want = _rotated_sample(_signed_rows(X, signs), m, spec,
                                           seed=cols)
                    cases.append((X, signs, m, spec, cols, want))
        if block_floats is not None:
            monkeypatch.setattr(hadamard, "FWHT_BLOCK_FLOATS", block_floats)
        for X, signs, m, spec, seed, want in cases:
            got = _streamed_sample(X, signs, m, spec, seed)
            assert got.tobytes() == want.tobytes()
            assert got.shape == want.shape

    @pytest.mark.parametrize("n", [1, 3, 100])
    def test_zero_rows_are_the_sample_of_the_whole_rotation(self, n):
        # signed zeros: the last stage's GEMM and the zeroed sum both
        # start from +0.0
        X = RowScaled(np.zeros((n, 2)))
        signs = _srht_signs(n, 3)
        spec = DebiasSpec.none()
        got = _streamed_sample(X, signs, 9, spec, 4)
        want = _rotated_sample(_signed_rows(X, signs), 9, spec, 4)
        assert got.tobytes() == want.tobytes()

    def test_refuses_row_weights_before_any_rotation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hadamard, "_staged_hadamard",
                            lambda *a: calls.append(a))
        spec = DebiasSpec(DebiasMode.FINE_GRAINED_EXACT,
                          row_weights=np.ones(10))
        X = RowScaled(np.ones((10, 2)))
        with pytest.raises(ValueError, match="only supports scalar"):
            _streamed_sample(X, _srht_signs(10, 0), 4, spec, 0)
        assert calls == []


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


class TestSrhtDraw:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 100, 1023, 1024, 4097,
                                   32767, 32768])
    @pytest.mark.parametrize("m", [1, 7, 512])
    def test_rows_are_the_uniform_plans_draw_bitwise(self, n, m):
        for seed in (0, 3, 11):
            sd = srht_draw(n, m, seed)
            N = sd.n_padded
            plan = SamplingPlan(PlanKind.UNIFORM, np.full(N, 1.0 / N))
            want = draw(plan, m, rsrng.split(seed, 1))
            assert_array_equal(sd.sample.indices, want.indices)
            assert_array_equal(sd.sample.weights, want.weights)
            assert sd.sample.indices.dtype == want.indices.dtype

    @pytest.mark.parametrize("m", [0, -1])
    def test_empty_sketch_rejected(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            srht_draw(8, m, seed=0)


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
            rotated = dense_hadamard(32) @ (A * signs[:, None]) / np.sqrt(32)
            rel = np.linalg.norm(gram(rotated) - gram(A))
            assert rel < 1e-10 * np.linalg.norm(gram(A))


def rotated_scores_of_whitened_factor(A, C, signs):
    """Leverage scores of H D A / sqrt(n) given C, as the squared row norms
    of the rotation of A R, R = (A^T A + C)^(-1/2): the reference for the
    rotate-A-once formula."""
    n, n_padded = A.shape[0], signs.shape[0]
    B = np.zeros((n_padded, A.shape[1]))
    B[:n] = A @ inv_sqrt(gram(A) + C)
    B = dense_hadamard(n_padded) @ (signs[:, None] * B) / np.sqrt(n_padded)
    return np.einsum("ij,ij->i", B, B)


class TestSrhtPlan:
    A = np.random.default_rng(4).standard_normal((10, 4))  # padded to 16
    C = 1e-2 * np.eye(4)
    M = 12

    def _plan(self):
        plan = build_plan(PlanKind.SRHT, RowScaled(self.A), self.C)
        return plan, DebiasSpec.scalar(self.M, plan.d_eff)

    def _sketch(self, seed, rotation):
        """The one-seed sketch of the view of A: the analytic sketch, which
        rotates the whole padded buffer, or the streamed sketcher draw."""
        plan, spec = self._plan()
        view = RowScaled(self.A)
        if rotation:
            return plan.analytic_sketch(view, self.M, spec, seed)[0]
        return plan.sketcher(view, self.M, spec)([seed])[0]

    def _srht_apply(self, seed, spec):
        sd = srht_draw(self.A.shape[0], self.M, seed)
        sd = replace(sd, sample=apply_debias(sd.sample, spec))
        return srht_apply(sd, self.A)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sketch_equals_srht_apply_of_the_debiased_draw(self, seed):
        want = build_plan(PlanKind.SRHT, self.A, self.C)
        plan, spec = self._plan()
        # the view's plan takes the Gram of the formed data, bitwise
        assert plan.H.tobytes() == want.H.tobytes()
        assert plan.d_eff == want.d_eff
        for rotation in (True, False):
            assert_array_equal(self._sketch(seed, rotation),
                               self._srht_apply(seed, spec))

    @pytest.mark.parametrize("rotation", [True, False],
                             ids=["rotation", "streamed"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sketch_may_be_called_twice(self, seed, rotation):
        # a second call on the same plan or sketcher must not rotate a
        # rotation again
        plan, spec = self._plan()
        view = RowScaled(self.A)
        if rotation:
            (first, rho), (second, again) = (
                plan.analytic_sketch(view, self.M, spec, seed)
                for _ in range(2))
            assert rho == again
        else:
            draw = plan.sketcher(view, self.M, spec)
            first, second = draw([seed])[0], draw([seed])[0]
        assert_array_equal(first, self._srht_apply(seed, spec))
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_analytic_sketch_samples_the_dense_hadamard_rotation(self, seed):
        _, spec = self._plan()
        At = self._sketch(seed, rotation=True)
        sd = srht_draw(self.A.shape[0], self.M, seed)
        padded = np.zeros((sd.n_padded, self.A.shape[1]))
        padded[:self.A.shape[0]] = self.A
        want = (dense_hadamard(sd.n_padded) @ (sd.signs[:, None] * padded)
                / np.sqrt(sd.n_padded))
        assert_allclose(_rotate(sd.signs, self.A), want, rtol=1e-12,
                        atol=1e-14)
        # the sketch's rows are debiased rows of that rotation
        weights = sd.sample.weights * np.sqrt(spec.factor)
        assert_allclose(At, want[sd.sample.indices] * weights[:, None],
                        rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_rho_max_matches_rotating_the_whitened_factor(self, seed):
        plan, spec = self._plan()
        _, rho = plan.analytic_sketch(RowScaled(self.A), self.M, spec, seed)
        signs = srht_draw(self.A.shape[0], self.M, seed).signs
        ref = rotated_scores_of_whitened_factor(self.A, self.C, signs)
        d_eff = exact_leverage_scores(self.A, self.C).sum()
        assert rho == pytest.approx(
            ref.max() * signs.shape[0] / d_eff, rel=1e-12, abs=0)
        assert_allclose(
            rotated_leverage_scores(self.A, self.C, signs), ref,
            rtol=1e-12)
