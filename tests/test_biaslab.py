import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from randskew import biaslab
from randskew import rng as rsrng
from randskew.biaslab import (JACKKNIFE_BATCH, bias_sweep, estimate_bias,
                              make_debias_spec)
from randskew.data import counterexample_matrix
from randskew.debias import DebiasMode, DebiasSpec
from randskew.errors import (AllTrialsSingular, NotPositiveDefinite,
                             SketchTooSmall)
from randskew.linalg import (accepted_inverses, cholesky, gram, spectral_norm,
                             sqrt_psd)
from randskew.sampling import PlanKind, SamplingPlan, build_plan

from oracles import gaussian_sketch, psd_relative_error, spd_inverse

D = 4
A_CE = counterexample_matrix(D)
C0 = np.zeros((D, D))


def test_degenerate_single_row_has_zero_bias():
    A = np.array([[1.0]])
    C = np.array([[1.0]])
    plan = SamplingPlan(PlanKind.UNIFORM, np.array([1.0]))
    est = estimate_bias(A, C, plan, DebiasSpec.none(), m=1, trials=4, seed=0)
    assert est.bias == pytest.approx(0.0, abs=1e-14)
    assert est.discarded == 0


def test_scalar_debias_beats_none_on_skewed_matrix():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    m = 8 * D
    none = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), m, 500, seed=5)
    scal = estimate_bias(A_CE, C0, plan, DebiasSpec.scalar(m, plan.d_eff),
                         m, 500, seed=5)
    assert scal.bias < none.bias


def test_inverse_wishart_oracle():
    d, m, T = 4, 40, 100_000
    acc = np.zeros((d, d))
    # the sketches' inverses in stacks of 10,000
    for lo in range(0, T, 10_000):
        At = np.stack([gaussian_sketch(np.eye(d), m, rsrng.split(17, t))
                       for t in range(lo, lo + 10_000)])
        acc += np.linalg.inv(gram(At)).sum(axis=0)
    mean = acc / T
    want = m / (m - d - 1) * np.eye(d)
    assert np.abs(mean - want).max() < 0.05


def test_gaussian_sketch_determinism():
    a = gaussian_sketch(A_CE, 16, seed=3)
    b = gaussian_sketch(A_CE, 16, seed=3)
    assert np.array_equal(a, b)


def test_rank_deficient_gaussian_sketch_discards_trials():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    # m below d: every sketched Gram is singular
    with pytest.raises(AllTrialsSingular):
        estimate_bias(A_CE, C0, plan, DebiasSpec.none(), m=2, trials=10,
                      seed=1)


def test_estimator_consistency_at_large_m():
    for A in (A_CE, np.random.default_rng(0).standard_normal((32, 3))):
        d = A.shape[1]
        C = 1e-2 * np.eye(d)
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A, C)
        m = int(np.ceil(256 * plan.d_eff))
        est = estimate_bias(A, C, plan, DebiasSpec.none(), m, 200, seed=9)
        assert est.bias < 0.1


def test_jackknife_stderr_halves_when_trials_quadruple():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    m = 8 * D
    small = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), m, 512, seed=2)
    big = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), m, 2048, seed=2)
    ratio = big.stderr_proxy / small.stderr_proxy
    assert 0.5 * 0.7 < ratio < 0.5 * 1.3


def test_bitwise_reproducibility():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    a = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), 8 * D, 100, seed=7)
    b = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), 8 * D, 100, seed=7)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_srht_scheme_runs_and_reports():
    est = estimate_bias(A_CE, C0, build_plan(PlanKind.SRHT, A_CE, C0),
                        DebiasSpec.none(), m=16, trials=50, seed=4)
    assert est.bias >= 0
    assert est.trials == 50


@pytest.mark.parametrize("n", [64, 60])
def test_srht_rejects_fine_grained_spec(n):
    # a spec built for a sampling plan must not reach the Hadamard sketch,
    # whose padded row indices do not match the plan's row weights
    A = np.random.default_rng(n).standard_normal((n, 3))
    C = 1e-2 * np.eye(3)
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A, C)
    spec = make_debias_spec(DebiasMode.FINE_GRAINED_EXACT, plan, 32)
    with pytest.raises(ValueError, match="only supports scalar"):
        estimate_bias(A, C, build_plan(PlanKind.SRHT, A, C), spec, m=32,
                      trials=4, seed=0)


def _per_trial_estimate(A, C, plan, spec, m, trials, seed):
    """The estimator one trial at a time: ``cholesky``, ``solve_triangular``
    and Y^T Y per trial, plain sums.  Returns the estimate's fields and the
    number of discarded trials in each jackknife group."""
    d = A.shape[1]
    Qs = []
    for t in range(trials):
        At = plan.sketcher(A, m, spec)([rsrng.split(seed, t)])[0]
        try:
            L = cholesky(gram(At) + C)
        except NotPositiveDefinite:
            Qs.append(None)
            continue
        Y = solve_triangular(L, np.eye(d), lower=True)
        Qs.append(Y.T @ Y)
    H = gram(A) + C
    H_inv, H_half = spd_inverse(H), sqrt_psd(H)

    def theta(S, k):
        M = H_half @ (S / k - H_inv) @ H_half
        return spectral_norm((M + M.T) / 2.0)

    kept = [Q for Q in Qs if Q is not None]
    grand = sum(kept, np.zeros((d, d)))
    thetas, group_discards = [], []
    for lo in range(0, trials, JACKKNIFE_BATCH):
        group = [Q for Q in Qs[lo:lo + JACKKNIFE_BATCH] if Q is not None]
        group_discards.append(len(Qs[lo:lo + JACKKNIFE_BATCH]) - len(group))
        if len(kept) > len(group):
            thetas.append(theta(grand - sum(group, np.zeros((d, d))),
                                len(kept) - len(group)))
    th = np.asarray(thetas)
    stderr = float(np.sqrt((len(th) - 1) / len(th)
                           * np.sum((th - th.mean()) ** 2)))
    return dict(discarded=trials - len(kept), bias=theta(grand, len(kept)),
                stderr_proxy=stderr,
                eps_two_sided=psd_relative_error(grand / len(kept), H_inv),
                group_discards=group_discards)


@pytest.mark.parametrize("kind, lam, m", [
    (PlanKind.EXACT_LEVERAGE, 0.0, 8),
    (PlanKind.EXACT_LEVERAGE, 0.0, 16),
    (PlanKind.EXACT_LEVERAGE, 1e-2, 8),
    (PlanKind.EXACT_LEVERAGE, 0.0, 5),
    (PlanKind.SRHT, 0.0, 6),
    (PlanKind.SRHT, 1e-2, 16)])
def test_stacked_trials_match_the_per_trial_oracle(kind, lam, m):
    C = lam * np.eye(D)
    plan = build_plan(kind, A_CE, C)
    trials = 3 * JACKKNIFE_BATCH + 5
    est = estimate_bias(A_CE, C, plan, DebiasSpec.none(), m, trials, seed=8)
    want = _per_trial_estimate(A_CE, C, plan, DebiasSpec.none(), m, trials,
                               seed=8)
    if lam == 0.0 and kind is PlanKind.EXACT_LEVERAGE:
        # a sub-block (here a whole group) mixes singular and kept trials
        assert any(0 < k < JACKKNIFE_BATCH for k in want["group_discards"])
    if m == 5:
        # a whole group (here the 5-trial tail) discards every trial
        sizes = [min(JACKKNIFE_BATCH, trials - lo)
                 for lo in range(0, trials, JACKKNIFE_BATCH)]
        assert any(k == n for k, n in zip(want["group_discards"], sizes))
    assert est.discarded == want["discarded"]
    for key in ("bias", "stderr_proxy", "eps_two_sided"):
        assert getattr(est, key) == pytest.approx(want[key], rel=1e-10), key


@pytest.mark.parametrize("T, m", [(64, 128), (32, 256), (16, 512)])
def test_stacked_sketch_grams_are_exactly_symmetric(T, m):
    # estimate_bias skips gram's symmetrization of its stacked sketch
    # Grams, a bitwise no-op while numpy's stacked product is exactly
    # symmetric at the bias lab's sub-block shapes (d = 32)
    S = np.random.default_rng(T).standard_normal((T, m, 32))
    for G in (np.swapaxes(S, 1, 2) @ S,
              np.matmul(np.swapaxes(S, 1, 2), S, out=np.empty((T, 32, 32)))):
        np.testing.assert_array_equal(G, np.swapaxes(G, 1, 2))
        np.testing.assert_array_equal(gram(S), G)


@pytest.mark.parametrize("T, m", [(64, 128), (32, 256), (16, 512)])
def test_stacked_inverse_products_are_exactly_symmetric(T, m):
    # accepted_inverses takes each trial's Y^T Y without gram's
    # symmetrization, a bitwise no-op while numpy's product of a stack with
    # its own transpose is exactly symmetric at the bias lab's sub-block
    # shapes (d = 32)
    S = np.random.default_rng(T).standard_normal((T, m, 32))
    Q, ok = accepted_inverses(np.swapaxes(S, 1, 2) @ S)
    assert ok.all()
    np.testing.assert_array_equal(Q, np.swapaxes(Q, 1, 2))
    np.testing.assert_array_equal((Q + np.swapaxes(Q, 1, 2)) / 2.0, Q)


@pytest.mark.parametrize("m", [8, 16])
def test_sub_block_size_does_not_change_the_estimate(m, monkeypatch):
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    spec = DebiasSpec.scalar(m, plan.d_eff)
    runs = []
    # one sub-block per jackknife group, then 3, 2 and 1 trials per block
    for floats in (JACKKNIFE_BATCH * m * D, 3 * m * D, 2 * m * D, 1):
        monkeypatch.setattr(biaslab, "SUBBLOCK_FLOATS", floats)
        runs.append(dataclasses.asdict(
            estimate_bias(A_CE, C0, plan, spec, m, 2 * JACKKNIFE_BATCH + 7,
                          seed=3)))
    assert runs[0]["discarded"] > 0
    for run in runs[1:]:
        for key, value in runs[0].items():
            np.testing.assert_array_equal(run[key], value, err_msg=key)


def test_make_debias_spec_scalar_uses_plan_d_eff():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    spec = make_debias_spec(DebiasMode.SCALAR, plan, 16)
    assert spec.factor == pytest.approx(16 / (16 - plan.d_eff))
    with pytest.raises(SketchTooSmall):
        make_debias_spec(DebiasMode.SCALAR, plan, 4)


class TestBiasSweep:
    def test_single_cell_matches_direct_call(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        rows = bias_sweep(A_CE, C0, [("lev", plan)], [DebiasMode.NONE],
                          [8 * D], trials=64, seed=11)
        direct = estimate_bias(A_CE, C0, plan, DebiasSpec.none(), 8 * D,
                               64, rsrng.split(11, 0, 0, 0))
        assert rows[0].estimate == direct

    def test_grid_must_ascend(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        with pytest.raises(ValueError):
            bias_sweep(A_CE, C0, [("lev", plan)], [DebiasMode.NONE],
                       [32, 16], trials=4, seed=0)

    def test_scalar_debiased_bias_decreases_in_m(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        rows = bias_sweep(A_CE, C0, [("lev", plan)], [DebiasMode.SCALAR],
                          [4 * D, 8 * D, 16 * D, 32 * D], trials=500,
                          seed=13)
        biases = [r.estimate.bias for r in rows]
        assert all(b > a for a, b in zip(biases[1:], biases))
