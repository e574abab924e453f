import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from randskew import rng as rsrng
from randskew import sampling
from randskew.data import counterexample_matrix
from randskew.debias import DebiasSpec
from randskew.errors import (AllZeroRows, IndexOutOfRange,
                             NotPositiveDefinite, SketchTooSmall,
                             ZeroProbabilityWithPositiveScore)
from randskew.linalg import cholesky, gram, inv_sqrt, whitened_norms
from randskew.sampling import (PlanHessian, PlanKind, SamplingPlan, SketchDraw,
                               apply_sketch, approximation_factors,
                               build_plan, draw, exact_leverage_scores,
                               sjlt_approx_leverage)

from oracles import psd_relative_error, sampled_rows

D = 4
A_CE = counterexample_matrix(D)
C0 = np.zeros((D, D))


def _plan(probs, kind=PlanKind.UNIFORM, scores=None) -> SamplingPlan:
    """A hand-built plan over ``probs``, with a one-column hessian of as
    many rows for the sketchers that read its A."""
    probs = np.asarray(probs)
    hessian = PlanHessian(np.ones((len(probs), 1)), np.eye(1))
    return SamplingPlan(kind, probs, hessian, scores=scores)


class TestExactLeverageScores:
    def test_skewed_pair_matrix(self):
        lev = exact_leverage_scores(A_CE, C0)
        expected = np.r_[0.25, 0.75, np.full(2 * D - 2, 0.5)]
        assert np.abs(lev - expected).max() < 1e-12

    def test_orthonormal_rows(self):
        lev = exact_leverage_scores(np.eye(5), np.zeros((5, 5)))
        assert np.allclose(lev, 1.0)

    def test_ridge_on_identity(self):
        lam = 0.7
        lev = exact_leverage_scores(np.eye(5), lam * np.eye(5))
        assert np.allclose(lev, 1.0 / (1.0 + lam))

    def test_range_and_trace_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 5))
        lev = exact_leverage_scores(A, np.zeros((5, 5)))
        assert np.all(lev >= 0) and np.all(lev <= 1 + 1e-12)
        G = gram(A)
        assert lev.sum() == pytest.approx(
            np.trace(np.linalg.solve(G, G)), rel=1e-10)


class TestEffectiveDimension:
    # PlanHessian.d_eff, trace(H^-1 G), the one d_eff of every plan
    def test_skewed_pair_matrix(self):
        assert PlanHessian(A_CE, C0).d_eff == pytest.approx(D, abs=1e-12)

    def test_ridge_identity_closed_form(self):
        d_eff = PlanHessian(np.eye(6), 0.5 * np.eye(6)).d_eff
        assert d_eff == pytest.approx(6 / 1.5)

    def test_zero_matrix(self):
        assert PlanHessian(np.zeros((3, D)), np.eye(D)).d_eff == 0.0


class TestSjltApproxLeverage:
    def test_identity_sketch_recovers_exact(self, monkeypatch):
        # with S1 = I the sketched formula is the exact score formula
        monkeypatch.setattr(sampling, "_sjlt_apply", lambda A, m, gen: A)
        n = A_CE.shape[0]
        exact = exact_leverage_scores(A_CE, C0)
        approx = sjlt_approx_leverage(A_CE, C0, m1=n)
        assert np.abs(approx - exact).max() < 1e-12

    def test_single_sketch_scores_are_the_sketched_quadratic_forms(self):
        # A is whitened by the Cholesky factor of the sketched Gram plus C,
        # bitwise the route the exact scores take
        C = 1e-3 * np.eye(D)
        for m1, seed in ((D, 0), (4 * D, 9), (8 * D, 23)):
            SA = sampling._sjlt_apply(A_CE, m1, rsrng.generator(seed, 0))
            want = whitened_norms(A_CE, cholesky(gram(SA) + C))
            got = sjlt_approx_leverage(A_CE, C, m1=m1, seed=seed)
            np.testing.assert_array_equal(got, want)

    def test_singular_sketched_gram_asks_for_a_wider_sketch(self,
                                                            monkeypatch):
        monkeypatch.setattr(sampling, "_sjlt_apply",
                            lambda A, m, gen: np.zeros((m, A.shape[1])))
        with pytest.raises(NotPositiveDefinite, match="increase m1"):
            sjlt_approx_leverage(A_CE, C0, m1=2 * D)

    @pytest.mark.parametrize("m2", [None, 3], ids=["single", "double"])
    def test_singular_sketched_gram_keeps_the_cholesky_pivot(self,
                                                             monkeypatch, m2):
        monkeypatch.setattr(sampling, "_sjlt_apply",
                            lambda A, m, gen: np.zeros((m, A.shape[1])))
        with pytest.raises(NotPositiveDefinite) as err:
            sjlt_approx_leverage(A_CE, C0, m1=2 * D, m2=m2)
        assert err.value.pivot_index == err.value.__cause__.pivot_index == 0

    def test_monte_carlo_mean_near_exact(self):
        # The raw mean overshoots by a near-uniform factor (the sketched
        # Gram's inverse is biased upward, the very effect this package
        # corrects), so compare after normalizing both sides to sum d_eff,
        # which is how plans consume the scores.
        exact = exact_leverage_scores(A_CE, C0)
        acc = np.zeros_like(exact)
        reps = 200
        for r in range(reps):
            acc += sjlt_approx_leverage(A_CE, C0, m1=4 * D,
                                        seed=rsrng.split(77, r))
        mean = acc / reps
        mean *= exact.sum() / mean.sum()
        assert np.all(np.abs(mean - exact) <= 0.15 * exact)

    def test_too_small_sketch_rejected(self):
        with pytest.raises(ValueError):
            sjlt_approx_leverage(A_CE, C0, m1=D - 1)

    def test_double_sketch_nonnegative(self):
        scores = sjlt_approx_leverage(A_CE, C0, m1=8 * D, m2=6, seed=3)
        assert np.all(scores >= 0)

    def test_double_sketch_width_order_enforced(self):
        for m2 in (8, 0, -1):
            with pytest.raises(ValueError, match=f"m2={m2}"):
                sjlt_approx_leverage(A_CE, C0, m1=8, m2=m2)


def _sjlt_scatter_reference(A, m, gen, s=sampling.SJLT_NNZ_PER_COLUMN):
    """S A by scatter-adding each signed, scaled row of A into its rows."""
    n = A.shape[0]
    rows = gen.integers(0, m, size=(n, s))
    signs = gen.integers(0, 2, size=(n, s)) * 2.0 - 1.0
    out = np.zeros((m, A.shape[1]))
    contrib = A[:, None, :] * (signs / np.sqrt(s))[:, :, None]
    np.add.at(out, rows.ravel(), contrib.reshape(n * s, -1))
    return out


_SJLT_A = (np.random.default_rng(5).standard_normal((300, 6))
           * np.exp(3.0 * np.random.default_rng(6).standard_normal((300, 1))))


@pytest.mark.parametrize("A, m", [
    (_SJLT_A, 2),                        # every output row takes collisions
    (_SJLT_A, 37),
    (np.asfortranarray(_SJLT_A), 37),
    (np.eye(9), 5),                      # the double-sketch (m2) path
    # rows and signs drawn block by block continue one stream
    (np.random.default_rng(7).standard_normal((5000, 6)), 37),
], ids=["collisions", "m37", "fortran", "identity", "three_blocks"])
def test_sjlt_apply_matches_scatter_bitwise(A, m):
    got = sampling._sjlt_apply(A, m, rsrng.generator(11, 0))
    want = _sjlt_scatter_reference(A, m, rsrng.generator(11, 0))
    assert isinstance(got, np.ndarray)
    np.testing.assert_array_equal(got, want)


def _signed_zeros():
    """_SJLT_A's first 60 rows with whole rows of +0.0 and -0.0, and -0.0
    in every other column of a third of the rows."""
    A = _SJLT_A[:60].copy()
    A[::3] = 0.0
    A[1::3, ::2] = -0.0
    return A


@pytest.mark.parametrize("A, m, s", [
    (np.asfortranarray(_SJLT_A), 37, 4),
    (_SJLT_A[:, ::-1], 37, 4),           # negative column stride
    (_SJLT_A[::3], 37, 4),               # row stride of three rows
    (_SJLT_A, 37, 1),
    (_SJLT_A, 37, 3),
    (_SJLT_A, 37, 8),
    (_SJLT_A, 1, 4),                     # every term adds into one row
    (_signed_zeros(), 5, 3),
], ids=["fortran", "reversed_columns", "row_strided", "s1", "s3", "s8",
        "m1", "signed_zeros"])
def test_sjlt_apply_is_the_scatter_bitwise_on_any_layout(A, m, s):
    """The compiled product reads A through a C-contiguous copy where
    needed and writes a fresh C-contiguous (m, d) array: bitwise the
    scatter-add, signed zeros included."""
    got = sampling._sjlt_apply(A, m, rsrng.generator(11, 0), s)
    want = _sjlt_scatter_reference(A, m, rsrng.generator(11, 0), s)
    assert got.shape == (m, A.shape[1])
    assert got.flags.c_contiguous and got.flags.owndata
    assert not np.shares_memory(got, A)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture
def fresh_kernel():
    """Drops the loaded sparse kernel before and after the test, so that
    the test loads it anew and later tests do not see its loader."""
    sampling._sparsetools.cache_clear()
    yield
    sampling._sparsetools.cache_clear()


@pytest.mark.parametrize("found", ["nothing", "not_an_extension"])
def test_sjlt_kernel_falls_back_to_scipy_sparse(fresh_kernel, monkeypatch,
                                                tmp_path, found):
    """Where the extension file is missing or does not load, the kernel
    comes from ``scipy.sparse`` and gives the same bits."""
    want = sampling._sjlt_apply(_SJLT_A, 37, rsrng.generator(11, 0))
    path = None
    if found == "not_an_extension":
        path = tmp_path / "_sparsetools.so"
        path.write_bytes(b"not a shared object")
    sampling._sparsetools.cache_clear()
    monkeypatch.setattr(sampling, "_sparsetools_path", lambda: path)
    assert sampling._sparsetools().__name__ == "scipy.sparse._sparsetools"
    got = sampling._sjlt_apply(_SJLT_A, 37, rsrng.generator(11, 0))
    assert got.tobytes() == want.tobytes()


_KERNEL_THEN_SCIPY = """
import json, math, sys
import numpy as np
from randskew import rng as rsrng, sampling

A = (np.random.default_rng(5).standard_normal((300, 6))
     * np.exp(3.0 * np.random.default_rng(6).standard_normal((300, 1))))
got = sampling._sjlt_apply(A, 37, rsrng.generator(11, 0))
report = {"kernel": sampling._sparsetools().__name__,
          "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}

import scipy.sparse
from scipy.sparse import csr_array

gen = rsrng.generator(11, 0)
rows = gen.integers(0, 37, size=(300, 4))
signs = gen.integers(0, 2, size=(300, 4)) * 2.0 - 1.0
S_T = csr_array(((signs * (1.0 / math.sqrt(4))).ravel(), rows.ravel(),
                 np.arange(0, 300 * 4 + 1, 4)), shape=(300, 37))
report["scipy_kernel"] = scipy.sparse._sparsetools.__name__
report["same_bits"] = (S_T.T @ A).tobytes() == got.tobytes()
print(json.dumps(report))
"""


def test_scipy_sparse_imports_after_the_private_kernel():
    """Loading the kernel under its private name leaves scipy's own
    module to ``import scipy.sparse``, whose CSR product then gives the
    same bits."""
    src = str(Path(sampling.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _KERNEL_THEN_SCIPY],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert json.loads(proc.stdout) == {
        "kernel": "randskew._sparsetools", "scipy": [],
        "scipy_kernel": "scipy.sparse._sparsetools", "same_bits": True}


class TestBuildPlan:
    def test_uniform(self):
        plan = build_plan(PlanKind.UNIFORM,
                          PlanHessian(np.eye(4), np.zeros((4, 4))))
        assert np.allclose(plan.probs, 0.25)

    def test_exact_leverage_on_skewed_matrix(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
        expected = np.r_[1 / (4 * D), 3 / (4 * D),
                         np.full(2 * D - 2, 1 / (2 * D))]
        assert np.abs(plan.probs - expected).max() < 1e-12

    def test_shrinkage_mix(self):
        plan = build_plan(PlanKind.SHRINKAGE, PlanHessian(A_CE, C0), mix=0.5)
        assert plan.probs[0] == pytest.approx(0.5 / (2 * D) + 0.5 / (4 * D))
        assert plan.probs.sum() == pytest.approx(1.0)

    def test_row_norm(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        plan = build_plan(PlanKind.ROW_NORM, PlanHessian(A, np.zeros((2, 2))))
        assert np.allclose(plan.probs, [0.2, 0.8])

    def test_row_norm_zero_matrix_rejected(self):
        with pytest.raises(AllZeroRows):
            build_plan(PlanKind.ROW_NORM,
                       PlanHessian(np.zeros((3, 2)), np.zeros((2, 2))))

    def test_plan_validates_probabilities(self):
        with pytest.raises(ValueError):
            _plan([0.7, 0.7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_plan_refuses_non_finite_probabilities_and_scores(self, bad):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            _plan([bad, bad])
        with pytest.raises(ValueError, match="probabilities must be finite"):
            _plan([bad, 0.5])
        with pytest.raises(ValueError, match="scores must be finite"):
            _plan([0.5, 0.5], PlanKind.EXACT_LEVERAGE,
                  scores=np.array([bad, 1.0]))

    def test_every_built_plan_keeps_its_matrix(self):
        # by reference: every plan of one (A, C) reads one G, H, L and exact
        hessian = PlanHessian(A_CE, C0)
        for kind in PlanKind:
            assert build_plan(kind, hessian).hessian is hessian
        assert hessian.A.A is A_CE and hessian.C is C0


class TestApproximationFactors:
    def test_exact_leverage_plan_is_tight(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
        fac = approximation_factors(plan)
        assert fac.rho_min == pytest.approx(1.0, abs=1e-12)
        assert fac.rho_max == pytest.approx(1.0, abs=1e-12)

    def test_uniform_plan_on_skewed_matrix(self):
        plan = build_plan(PlanKind.UNIFORM, PlanHessian(A_CE, C0))
        fac = approximation_factors(plan)
        assert fac.rho_min == pytest.approx(0.5, abs=1e-12)
        assert fac.rho_max == pytest.approx(1.5, abs=1e-12)
        assert fac.argmax_index == 1

    def test_row_norm_matches_uniform_for_equal_norms(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 3))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        f_u = approximation_factors(
            build_plan(PlanKind.UNIFORM, PlanHessian(A, np.zeros((3, 3)))))
        f_r = approximation_factors(
            build_plan(PlanKind.ROW_NORM, PlanHessian(A, np.zeros((3, 3)))))
        assert f_u.rho_min == pytest.approx(f_r.rho_min)
        assert f_u.rho_max == pytest.approx(f_r.rho_max)

    def test_ordering_invariant(self):
        plan = build_plan(PlanKind.UNIFORM, PlanHessian(A_CE, C0))
        fac = approximation_factors(plan)
        assert fac.rho_min <= 1.0 <= fac.rho_max

    def test_zero_probability_with_positive_score(self):
        # the exact scores of (I, I) are 0.5 on both rows
        probs = np.array([1.0, 0.0])
        plan = SamplingPlan(PlanKind.UNIFORM, probs,
                            PlanHessian(np.eye(2), np.eye(2)))
        with pytest.raises(ZeroProbabilityWithPositiveScore):
            approximation_factors(plan)


class TestDraw:
    def test_degenerate_distribution(self):
        plan = _plan([1.0, 0.0, 0.0])
        sk = draw(plan, 9, seed=0)
        assert np.all(sk.indices == 0)
        assert np.allclose(sk.weights, 1.0 / 3.0)

    def test_empirical_frequencies_chi_square(self):
        n, m = 8, 100_000
        plan = _plan(np.full(n, 1.0 / n))
        sk = draw(plan, m, seed=12)
        counts = np.bincount(sk.indices, minlength=n)
        chi2 = ((counts - m / n) ** 2 / (m / n)).sum()
        # well inside the chi-square(7) tail at ~3 sigma
        assert chi2 < stats.chi2.ppf(0.999, df=n - 1)

    def test_determinism(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
        a = draw(plan, 32, seed=5)
        b = draw(plan, 32, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_weight_formula(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
        sk = draw(plan, 16, seed=7)
        want = 1.0 / np.sqrt(16 * plan.probs[sk.indices])
        assert np.array_equal(sk.weights, want)

    def test_zero_probability_rows_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        plan = _plan(probs)
        sk = draw(plan, 10_000, seed=3)
        assert np.all(np.isin(sk.indices, [1, 2]))

    def test_u_near_one_skips_trailing_zero_row(self, monkeypatch):
        # the partial sums of [0.1] * 10 end just below 1
        class TopOfUnitInterval:
            def random(self, m):
                return np.full(m, 1.0 - 2.0 ** -53)

        monkeypatch.setattr(rsrng, "generator",
                            lambda *path: TopOfUnitInterval())
        plan = _plan([0.1] * 10 + [0.0])
        sk = draw(plan, 4, seed=0)
        assert np.all(sk.indices == 9)



class TestDrawMany:
    # interior and trailing zero-probability rows
    PLAN = _plan([0.2, 0.0, 0.3, 0.1, 0.0, 0.4, 0.0])
    SEEDS = [0, 1, 2 ** 64 - 1, 2 ** 64 - 2, 2 ** 64 - 5, 2 ** 63,
             *(rsrng.split(11, t) for t in range(40))]

    @pytest.mark.parametrize("m", [1, 3, 5, 16, 257])
    @pytest.mark.parametrize("plan", [
        PLAN, build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))],
        ids=["zero_rows", "exact_leverage"])
    def test_equals_stacked_draws(self, plan, m):
        indices, weights = sampled_rows(plan, m, self.SEEDS)
        draws = [draw(plan, m, s) for s in self.SEEDS]
        np.testing.assert_array_equal(indices,
                                      np.stack([d.indices for d in draws]))
        np.testing.assert_array_equal(weights,
                                      np.stack([d.weights for d in draws]))

    def test_u_near_one_skips_trailing_zero_row(self, monkeypatch):
        monkeypatch.setattr(rsrng, "uniform_rows",
                            lambda seeds, m: np.full((len(list(seeds)), m),
                                                     1.0 - 2.0 ** -53))
        plan = _plan([0.1] * 10 + [0.0])
        indices, _ = sampled_rows(plan, 4, [0, 1, 2])
        assert indices.shape == (3, 4)
        assert np.all(indices == 9)

    def test_rejects_empty_sketch(self):
        plan = self.PLAN
        refusal = "^sketch size m=0 must be at least 1$"
        with pytest.raises(SketchTooSmall, match=refusal):
            plan.sketcher(0, DebiasSpec.none())
        with pytest.raises(SketchTooSmall, match=refusal):
            draw(plan, 0, seed=0)

def _searchsorted_rows(probs, u):
    """The rows a plan over ``probs`` draws for ``u`` by a binary search
    of the support's cdf."""
    support = np.flatnonzero(probs)
    cdf = np.cumsum(probs[support])
    cdf[-1] = 1.0
    return support[np.searchsorted(cdf, u, side="right")]


def _edge_uniforms(probs):
    """Uniforms where an off-by-one draw would show: every cdf value and
    its two neighbours, every bucket edge k/K and its two neighbours, and
    the largest double below 1."""
    cdf = np.cumsum(probs[probs > 0])
    edges = np.arange(len(cdf) + 1) / len(cdf)
    u = np.concatenate([cdf, edges, [1.0 - 2.0 ** -53]])
    u = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestGuideTable:
    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(1e-12, 1.0),
                                      st.integers(1, 4).map(float)),
                            min_size=1, max_size=40),
           trailing_zeros=st.integers(0, 3))
    def test_equals_searchsorted(self, weights, trailing_zeros):
        w = np.array(weights + [0.0] * trailing_zeros)
        if not w.any():
            w[0] = 1.0
        probs = w / w.sum()
        plan = _plan(probs)
        u = _edge_uniforms(probs)
        indices = plan._cdf[0][plan._positions(u)]
        np.testing.assert_array_equal(indices, _searchsorted_rows(probs, u))

    def test_crowded_bucket_is_finished_by_searchsorted(self):
        # 64 tiny rows share the first of 65 buckets with a heavy last row,
        # so a draw between them takes more steps than the passes allow
        probs = np.array([1e-6] * 64 + [1.0 - 64e-6])
        plan = _plan(probs)
        u = _edge_uniforms(probs)
        cdf = plan._cdf[1]
        steps = (np.searchsorted(cdf, u, side="right")
                 - plan._guide[(u * len(cdf)).astype(np.intp)])
        assert steps.max() > sampling.GUIDE_PASSES
        indices = plan._cdf[0][plan._positions(u)]
        np.testing.assert_array_equal(indices, _searchsorted_rows(probs, u))


class TestApplySketch:
    def test_identity_draw(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        sk = SketchDraw(m=2, indices=np.array([0, 1]),
                        weights=np.array([1.0, 1.0]))
        assert np.array_equal(apply_sketch(sk, A), A)

    def test_single_row(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        sk = SketchDraw(m=1, indices=np.array([0]), weights=np.array([2.5]))
        assert np.array_equal(apply_sketch(sk, A), [[2.5, 5.0]])

    def test_gram_accumulation_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 3))
        plan = build_plan(PlanKind.ROW_NORM, PlanHessian(A, np.zeros((3, 3))))
        sk = draw(plan, 25, seed=9)
        oracle = np.zeros((3, 3))
        for s in range(sk.m):
            a = A[sk.indices[s]]
            oracle += sk.weights[s] ** 2 * np.outer(a, a)
        assert np.abs(gram(apply_sketch(sk, A)) - oracle).max() < 1e-12

    def test_out_of_range_index(self):
        sk = SketchDraw(m=1, indices=np.array([5]), weights=np.array([1.0]))
        with pytest.raises(IndexOutOfRange):
            apply_sketch(sk, np.eye(3))

    @pytest.mark.parametrize("index", [-1, 3], ids=["below", "above"])
    def test_index_just_outside_either_bound(self, index):
        # -1 must not wrap around to the last row of A
        sk = SketchDraw(m=1, indices=[index], weights=[1.0])
        with pytest.raises(IndexOutOfRange):
            apply_sketch(sk, np.eye(3))

    @pytest.mark.parametrize("index", [0, 2])
    def test_first_and_last_rows_are_in_range(self, index):
        sk = SketchDraw(m=1, indices=[index], weights=[1.0])
        np.testing.assert_array_equal(apply_sketch(sk, np.eye(3)),
                                      np.eye(3)[[index]])

    @pytest.mark.parametrize("shape", [(0,), (7,), (5, 7)],
                             ids=["empty", "m", "T-by-m"])
    def test_gather_matches_fancy_indexing_bitwise(self, shape):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 3))
        indices = rng.integers(0, 40, size=shape)
        weights = rng.uniform(0.1, 3.0, size=shape)
        got = sampling._gather(A, indices, weights)
        np.testing.assert_array_equal(got, A[indices] * weights[..., None])
        assert got.shape == shape + (3,)
        assert not np.shares_memory(got, A)


def test_sketch_gram_unbiasedness():
    # mean of sketched Grams over 2000 draws approaches A^T A entrywise
    rng = np.random.default_rng(4)
    A = rng.standard_normal((20, 3))
    C = np.zeros((3, 3))
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A, C))
    m = max(4, int(4 * plan.hessian.d_eff))
    T = 2000
    grams = np.empty((T, 3, 3))
    for t in range(T):
        grams[t] = gram(apply_sketch(draw(plan, m, rsrng.split(42, t)), A))
    dev = np.abs(grams.mean(axis=0) - gram(A))
    tol = 5.0 * grams.std(axis=0, ddof=1) / np.sqrt(T)
    assert np.all(dev < tol)


def test_subspace_embedding_failure_rate():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((60, 4))
    C = np.zeros((4, 4))
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A, C))
    eps, delta = 0.5, 0.1
    d_eff = plan.hessian.d_eff
    m = int(np.ceil(8 * 1.0 * d_eff * np.log(d_eff / delta) / eps ** 2))
    R = inv_sqrt(gram(A) + C)
    AC = A @ R
    target = gram(AC)
    failures = 0
    trials = 200
    for t in range(trials):
        sk = draw(plan, m, rsrng.split(99, t))
        if psd_relative_error(gram(apply_sketch(sk, AC)), target) > eps:
            failures += 1
    assert failures / trials <= delta
