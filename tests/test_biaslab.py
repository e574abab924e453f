import dataclasses

import numpy as np
import pytest

from randskew import rng as rsrng
from randskew.biaslab import (bias_sweep, estimate_bias, gaussian_sketch,
                              make_debias_spec)
from randskew.data import counterexample_matrix
from randskew.debias import DebiasMode, DebiasSpec
from randskew.errors import AllTrialsSingular, SketchTooSmall
from randskew.linalg import gram, spd_inverse
from randskew.sampling import PlanKind, SamplingPlan, build_plan

D = 4
A_CE = counterexample_matrix(D)
C0 = np.zeros((D, D))


def test_degenerate_single_row_has_zero_bias():
    A = np.array([[1.0]])
    C = np.array([[1.0]])
    plan = SamplingPlan(PlanKind.UNIFORM, np.array([1.0]), d_eff=0.5)
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
    for t in range(T):
        At = gaussian_sketch(np.eye(d), m, rsrng.split(17, t))
        acc += spd_inverse(gram(At))
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
    spec = make_debias_spec(DebiasMode.FINE_GRAINED_EXACT, plan, 32,
                            plan.d_eff, plan.scores)
    with pytest.raises(ValueError, match="only supports scalar"):
        estimate_bias(A, C, build_plan(PlanKind.SRHT, A, C), spec, m=32,
                      trials=4, seed=0)


def test_make_debias_spec_scalar_uses_plan_d_eff():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    spec = make_debias_spec(DebiasMode.SCALAR, plan, 16, plan.d_eff,
                            plan.scores)
    assert spec.factor == pytest.approx(16 / (16 - plan.d_eff))
    with pytest.raises(SketchTooSmall):
        make_debias_spec(DebiasMode.SCALAR, plan, 4, plan.d_eff, plan.scores)


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
