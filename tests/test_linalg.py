import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from randskew import linalg
from randskew.errors import NotPositiveDefinite
from randskew.linalg import (accepted_inverses, cholesky, gram, inv_sqrt,
                             solve_spd, spectral_norm, sqrt_psd,
                             whitened_norms)
from randskew.sampling import PlanHessian

from oracles import psd_relative_error, spd_inverse, whiten


def random_spd(d, rng, cond=1e3):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    evals = np.geomspace(1.0, cond, d)
    return (Q * evals) @ Q.T


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_rank_one_outer_product(self):
        got = gram(np.array([[1.0, 2.0]]))
        assert np.allclose(got, [[1.0, 2.0], [2.0, 4.0]], atol=0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 3))
        oracle = np.zeros((3, 3))
        for i in range(7):
            for j in range(3):
                for k in range(3):
                    oracle[j, k] += A[i, j] * A[i, k]
        assert np.abs(gram(A) - oracle).max() < 1e-12

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        G = gram(rng.standard_normal((20, 6)))
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("shape", [(5,), (5, 40, 6)])
    def test_refuses_an_array_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"gram takes a 2-D matrix, not shape {shape}")):
            gram(np.ones(shape))


class TestCholesky:
    def test_scaled_identity(self):
        assert np.allclose(cholesky(4.0 * np.eye(3)), 2.0 * np.eye(3))

    def test_hand_worked_2x2(self):
        L = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[np.sqrt(2.0), 0.0],
                             [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
        assert np.allclose(L, expected, atol=1e-14)

    def test_singular_matrix_rejected(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])  # zero eigenvalue
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(M)
        assert err.value.pivot_index == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        M = random_spd(9, rng)
        L = cholesky(M)
        rel = np.linalg.norm(L @ L.T - M) / np.linalg.norm(M)
        assert rel < 1e-10

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(-np.eye(3))

    def test_tiny_pivot_below_threshold_rejected(self):
        # potrf factors this matrix; the relative pivot test must still fire
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(np.diag([1.0, 1e-16, 1.0]))
        assert err.value.pivot_index == 1


class TestWhiten:
    def test_whitens_the_identity(self):
        # W = L^-T for M = L L^T, so W^T M W = I
        rng = np.random.default_rng(11)
        for d in (1, 5, 16):
            M = random_spd(d, rng)
            W = whiten(np.eye(d), M)
            assert np.abs(W.T @ M @ W - np.eye(d)).max() < 1e-10

    def test_row_norms_are_the_inverse_quadratic_forms_bitwise(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((40, 6))
        M = random_spd(6, rng)
        B = whiten(A, M)
        np.testing.assert_array_equal(np.einsum("ij,ij->i", B, B),
                                      whitened_norms(A, cholesky(M)))

    @pytest.mark.parametrize("d", [1, 7, 32, 64, 65, 130])
    @pytest.mark.parametrize("rows", [
        lambda block: 1, lambda block: block - 1, lambda block: block,
        lambda block: block + 1, lambda block: 3 * block + 7],
        ids=["1", "block-1", "block", "block+1", "3block+7"])
    def test_blocked_quadratic_forms_are_whitened_row_norms(self, d, rows):
        block = linalg.WHITEN_BLOCK_FLOATS // d
        n = rows(block)
        rng = np.random.default_rng([d, n])
        A = rng.standard_normal((n, d))
        M = random_spd(d, rng)
        B = whiten(A, M)
        want = np.einsum("ij,ij->i", B, B)
        got = whitened_norms(A, cholesky(M))
        assert got.shape == (n,)
        # both sides compute b_i = a_i L^-T, maybe with different trmm
        # summation orders: |db_i| <= 2 d eps |a_i| sqrt(d) ||L^-T||, so q_i
        # moves by at most 2 |b_i| |db_i| <= 4 d^1.5 eps |a_i|^2 ||M^-1||,
        # doubled for the norms' own rounding
        bound = (8 * d ** 1.5 * np.finfo(float).eps
                 * np.einsum("ij,ij->i", A, A)
                 * np.linalg.eigvalsh(M)[0] ** -1)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("M", [np.array([[1.0, 1.0], [1.0, 1.0]]),
                                   np.diag([1.0, 2.0, -1.0, 1.0]),
                                   np.diag([1.0, 1e-16, 1.0])],
                             ids=["rank-one", "negative", "tiny"])
    def test_singular_matrix_raises_with_the_cholesky_pivot(self, M):
        # a PlanHessian of one zero row has H = M bitwise, and its solve
        # refuses M as solve_spd does: same type, pivot and text
        b = np.ones(len(M))
        with pytest.raises(NotPositiveDefinite) as want:
            solve_spd(M, b)
        with pytest.raises(NotPositiveDefinite) as err:
            PlanHessian(np.zeros((1, len(M))), M).solve(b)
        assert type(err.value) is type(want.value)
        assert str(err.value) == str(want.value)
        assert err.value.pivot_index == want.value.pivot_index is not None


class TestAcceptedInverses:
    @staticmethod
    def _accepts(Mt):
        try:
            cholesky(Mt)
        except NotPositiveDefinite:
            return False
        return True

    def _check(self, M):
        Q, ok = accepted_inverses(M)
        np.testing.assert_array_equal(ok, [self._accepts(Mt) for Mt in M])
        assert Q.shape == (int(ok.sum()),) + M.shape[1:]
        for Qt, Mt in zip(Q, M[ok]):
            assert np.array_equal(Qt, Qt.T)
            assert np.abs(Qt @ Mt - np.eye(len(Mt))).max() < 1e-10
        return ok

    def test_pivot_rule_rejects_what_factorization_passes(self):
        # potrf factors diag(1, 1, 1e-20); its last squared pivot is below
        # the PIVOT_RTOL threshold
        rng = np.random.default_rng(5)
        M = np.stack([random_spd(3, rng), np.diag([1.0, 1.0, 1e-20]),
                      random_spd(3, rng)])
        assert list(self._check(M)) == [True, False, True]

    def test_failed_stack_is_judged_matrix_by_matrix(self):
        rng = np.random.default_rng(6)
        M = np.stack([random_spd(3, rng), np.diag([1.0, 0.0, 1.0]),
                      np.diag([1.0, 1.0, 1e-20]), -np.eye(3),
                      random_spd(3, rng)])
        assert list(self._check(M)) == [True, False, False, False, True]

    @staticmethod
    def _at_pivot_threshold():
        # A^T A with its last squared pivot moved to the threshold, halfway
        # between numpy's and scipy's Cholesky pivots, which often differ
        # in the last bits: the two routines judge it differently
        A = np.random.default_rng(1).standard_normal((40, 32))
        M = A.T @ A
        p_np = np.linalg.cholesky(M)[-1, -1] ** 2
        p_sp = lapack.dpotrf(M, lower=1, clean=1)[0][-1, -1] ** 2
        M[-1, -1] += linalg._pivot_threshold(M) - (p_np + p_sp) / 2
        return M

    def test_inverses_do_not_depend_on_the_rest_of_the_stack(self):
        # a stack with a singular member must not take its factors or its
        # verdicts from another routine than a stack without one
        rng = np.random.default_rng(7)
        M = np.stack([random_spd(32, rng) for _ in range(12)]
                     + [self._at_pivot_threshold()])
        M[5] = np.diag(np.r_[np.ones(31), 0.0])
        Q, ok = accepted_inverses(M)
        assert not ok[5]
        np.testing.assert_array_equal(Q, accepted_inverses(M[ok])[0])
        np.testing.assert_array_equal(
            ok, [accepted_inverses(Mt[None])[1][0] for Mt in M])
        for t, Qt in zip(np.flatnonzero(ok), Q):
            alone, _ = accepted_inverses(M[t:t + 1])
            np.testing.assert_array_equal(Qt, alone[0])

    def test_nothing_accepted(self):
        Q, ok = accepted_inverses(np.zeros((2, 3, 3)))
        assert Q.shape == (0, 3, 3) and not ok.any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=32),
           st.lists(st.one_of(st.floats(min_value=0.0, max_value=10.0),
                              st.sampled_from(["zero", "negated"])),
                    min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31))
    def test_matches_spd_inverse_within_conditioning(self, d, members, seed):
        # SPD members have condition number 10**member; "zero" and
        # "negated" members are rejected by every pivot test
        rng = np.random.default_rng(seed)
        M = np.stack([random_spd(d, rng, cond=10.0 ** m)
                      if isinstance(m, float)
                      else (0.0 if m == "zero" else -1.0) * random_spd(d, rng)
                      for m in members])
        Q, ok = accepted_inverses(M)
        assert list(ok) == [self._accepts(Mt) for Mt in M]
        assert list(ok) == [isinstance(m, float) for m in members]
        for Qt, Mt in zip(Q, M[ok]):
            assert np.array_equal(Qt, Qt.T)
            want = spd_inverse(Mt)
            rel = np.linalg.norm(Qt - want) / np.linalg.norm(want)
            assert rel <= 8.0 * np.linalg.cond(Mt) * np.finfo(float).eps

    def test_failed_triangular_inverse_raises(self, monkeypatch):
        monkeypatch.setattr(linalg.lapack, "dtrtri_stack",
                            lambda Z: np.full(len(Z), 2))
        with pytest.raises(NotPositiveDefinite) as err:
            accepted_inverses(np.eye(3)[None])
        assert err.value.pivot_index == 1


class TestSolveSpd:
    def test_identity_solve(self):
        B = np.arange(6.0).reshape(3, 2)
        assert np.allclose(solve_spd(np.eye(3), B), B)

    def test_diagonal_solve(self):
        got = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
        assert np.allclose(got, [[1.0], [1.0]])

    @pytest.mark.parametrize("columns", [None, 1, 4], ids=["vector", "1",
                                                           "4"])
    def test_plan_hessian_solve_is_solve_spd_bitwise(self, columns):
        rng = np.random.default_rng(4)
        hessian = PlanHessian(rng.standard_normal((30, 6)), 1e-2 * np.eye(6))
        b = rng.standard_normal(6 if columns is None else (6, columns))
        got = hessian.solve(b)
        assert got.shape == b.shape
        assert got.tobytes() == solve_spd(hessian.H, b).tobytes()

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(3)
        M = random_spd(10, rng)
        B = rng.standard_normal((10, 4))
        X = solve_spd(M, B)
        assert np.linalg.norm(M @ X - B) / np.linalg.norm(B) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**31))
    def test_residual_property(self, d, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(d, rng, cond=1e8)
        B = rng.standard_normal((d, 2))
        X = solve_spd(M, B)
        assert np.linalg.norm(M @ X - B) / np.linalg.norm(B) < 1e-8


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, 3.0, 2.0])) == pytest.approx(3.0)

    def test_permutation_symmetry(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_norm(M) == pytest.approx(1.0, abs=1e-9)

    def test_matches_eigensolver_on_small_matrices(self):
        rng = np.random.default_rng(4)
        for d in range(1, 13):
            G = rng.standard_normal((d, d))
            M = (G + G.T) / 2.0
            want = np.abs(np.linalg.eigvalsh(M)).max()
            assert spectral_norm(M) == pytest.approx(want, rel=1e-7,
                                                     abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_nearly_tied_extremes_of_opposite_sign(self):
        M = np.diag([1.0, -0.9995, 0.5])
        assert spectral_norm(M) == pytest.approx(1.0, rel=1e-12)


class TestPsdRelativeError:
    def test_identical(self):
        X = np.diag([1.0, 2.0])
        assert psd_relative_error(X, X) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_inflation(self):
        X = np.diag([1.0, 2.0])
        assert psd_relative_error(2.0 * X, X) == pytest.approx(1.0)

    def test_scalar_deflation(self):
        X = np.diag([1.0, 2.0])
        assert psd_relative_error(0.5 * X, X) == pytest.approx(1.0)

    def test_scaling_symmetry(self):
        # eps(c X, X) == eps(X / c, X) == max(c, 1/c) - 1 for c > 0
        rng = np.random.default_rng(5)
        X = random_spd(5, rng)
        for c in (0.3, 1.0, 2.5):
            want = max(c, 1.0 / c) - 1.0
            assert psd_relative_error(c * X, X) == pytest.approx(want)
            assert psd_relative_error(X / c, X) == pytest.approx(want)

    def test_indefinite_estimate_is_infinite(self):
        X = np.eye(2)
        assert psd_relative_error(np.diag([1.0, -1.0]), X) == np.inf

    def test_singular_target_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            psd_relative_error(np.eye(2), np.zeros((2, 2)))


class TestInvSqrt:
    def test_scaled_identity(self):
        assert np.allclose(inv_sqrt(4.0 * np.eye(3)), 0.5 * np.eye(3))

    def test_diagonal(self):
        assert np.allclose(inv_sqrt(np.diag([1.0, 9.0])),
                           np.diag([1.0, 1.0 / 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        M = random_spd(6, rng)
        R = inv_sqrt(M)
        assert np.linalg.norm(R @ M @ R - np.eye(6)) < 1e-8

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(7)
        M = random_spd(6, rng)
        R = inv_sqrt(M)
        comm = np.linalg.norm(R @ M - M @ R)
        assert comm < 1e-9 * np.linalg.norm(M)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(8)
    M = random_spd(5, rng)
    S = sqrt_psd(M)
    assert np.linalg.norm(S @ S - M) < 1e-9 * np.linalg.norm(M)


def test_spd_inverse_matches_solve():
    rng = np.random.default_rng(9)
    M = random_spd(7, rng)
    assert np.allclose(spd_inverse(M) @ M, np.eye(7), atol=1e-9)
