import warnings

import numpy as np
import pytest

from randskew import debias
from randskew import rng as rsrng
from randskew.data import counterexample_matrix
from randskew.debias import (DebiasMode, DebiasSpec, apply_debias,
                             fine_grained_weights, make_debias_spec,
                             scalar_factor, solve_fixed_point_d)
from randskew.errors import (NotPositiveDefinite, RandskewError,
                             SketchTooSmall, ZeroProbabilityWithPositiveScore)
from randskew.linalg import gram
from randskew.sampling import (PlanKind, SamplingPlan, apply_sketch,
                               build_plan, draw, exact_leverage_scores)

from oracles import psd_relative_error, spd_inverse

D = 4
A_CE = counterexample_matrix(D)
C0 = np.zeros((D, D))


class TestScalarFactor:
    def test_arithmetic(self):
        assert scalar_factor(10, 5.0) == 2.0

    def test_large_m_limit(self):
        assert scalar_factor(10 ** 6, 5.0) == pytest.approx(1.000005)

    def test_boundary_rejected(self):
        with pytest.raises(SketchTooSmall):
            scalar_factor(5, 5.0)


class TestFineGrainedWeights:
    def test_exact_leverage_plan_collapses_to_scalar(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        m = int(4 * plan.d_eff)
        w = fine_grained_weights(plan, plan.scores, m)
        assert np.unique(w).size == 1  # one shared multiplier
        assert w[0] == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)

    def test_uniform_plan_on_skewed_matrix(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        scores = exact_leverage_scores(A_CE, C0)
        m = 8 * D
        w = fine_grained_weights(plan, scores, m)
        # row 1 has l/pi = (3/4) * 2d
        assert w[1] == pytest.approx(np.sqrt(m / (m - 2 * D * 0.75)))

    def test_zero_score_rows_uncorrected(self):
        A = np.vstack([A_CE, np.zeros((1, D))])
        plan = build_plan(PlanKind.UNIFORM, A, C0)
        scores = exact_leverage_scores(A, C0)
        w = fine_grained_weights(plan, scores, 8 * D)
        assert w[-1] == 1.0

    def test_too_small_m_names_offending_row(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        scores = exact_leverage_scores(A_CE, C0)
        with pytest.raises(SketchTooSmall) as err:
            fine_grained_weights(plan, scores, D)  # m below l_1/pi_1
        assert err.value.index == 1

    def test_positive_score_at_zero_probability_names_its_row(self):
        plan = SamplingPlan(PlanKind.ROW_NORM, [0.5, 0.0, 0.5])
        with pytest.raises(ZeroProbabilityWithPositiveScore) as err:
            fine_grained_weights(plan, np.array([0.4, 0.2, 0.4]), 10)
        assert err.value.index == 1


class TestApproxFineGrainedWeights:
    def test_exact_scores_match_fine_grained(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        scores = exact_leverage_scores(A_CE, C0)
        m = 8 * D
        spec = make_debias_spec(DebiasMode.FINE_GRAINED_APPROX, plan, m)
        assert np.array_equal(spec.row_weights,
                              fine_grained_weights(plan, scores, m))

    def test_inflated_scores_substitution(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        m = 8 * D
        w = fine_grained_weights(plan, 1.2 * plan.scores, m)
        want = np.sqrt(m / (m - 1.2 * plan.d_eff))
        assert np.allclose(w, want)

    def test_violating_scores_rejected(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        with pytest.raises(SketchTooSmall):
            fine_grained_weights(plan, 100.0 * plan.scores, 8 * D)


@pytest.mark.parametrize("mode, kind", [
    (DebiasMode.FINE_GRAINED_EXACT, "exact"),
    (DebiasMode.FINE_GRAINED_APPROX, "approximate")],
    ids=lambda x: getattr(x, "value", x))
def test_missing_scores_refusal_names_the_mode_asked_for(mode, kind):
    # a hand-built uniform plan keeps no approximate scores, and without
    # the (A, C) that its exact scores are whitened from it has none
    plan = SamplingPlan(PlanKind.UNIFORM, [0.5, 0.5])
    with pytest.raises(ValueError) as refused:
        make_debias_spec(mode, plan, 10)
    assert str(refused.value) == (
        "the uniform plan has no matrix" if kind == "exact" else
        f"{mode.value} debiasing needs {kind} leverage scores, and a "
        f"uniform plan has none")


class TestApplyDebias:
    def test_scalar(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        sk = draw(plan, 16, seed=0)
        out = apply_debias(sk, DebiasSpec(DebiasMode.SCALAR, factor=2.0))
        assert np.array_equal(out.weights, sk.weights * np.sqrt(2.0))

    def test_unit_fine_grained_is_identity(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        sk = draw(plan, 16, seed=0)
        spec = DebiasSpec(DebiasMode.FINE_GRAINED_EXACT,
                          row_weights=np.ones(plan.n))
        out = apply_debias(sk, spec)
        assert np.array_equal(out.weights, sk.weights)

    def test_none_is_identity_object(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        sk = draw(plan, 16, seed=0)
        assert apply_debias(sk, DebiasSpec.none()) is sk

    def test_scalar_fine_grained_bitwise_coincidence(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        m = 8 * D
        sk = draw(plan, m, seed=13)
        scalar = apply_debias(sk, DebiasSpec.scalar(m, plan.d_eff))
        fine_spec = make_debias_spec(DebiasMode.FINE_GRAINED_EXACT, plan, m)
        fine = apply_debias(sk, fine_spec)
        assert np.array_equal(scalar.weights, fine.weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_instead_of_scoring(bad):
    # a NaN or infinite entry must not come back as NaN leverage scores or
    # a NaN diagonal D
    A = np.array(A_CE)
    plan = build_plan(PlanKind.UNIFORM, A, 0.1 * np.eye(D))
    A[3, 1] = bad
    with pytest.raises((RandskewError, ValueError)):
        exact_leverage_scores(A, 0.1 * np.eye(D))
    with pytest.raises((RandskewError, ValueError)):
        solve_fixed_point_d(plan, 4 * D)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_named_without_a_numpy_warning(bad):
    A = np.array(A_CE)
    A[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite,
                           match="A\\^T A \\+ C has NaN or infinite "
                                 "entries"):
            exact_leverage_scores(A, 0.1 * np.eye(D))


class TestFixedPointD:
    def test_identity_closed_form(self):
        d, m = 5, 12
        A = np.eye(d)
        plan = build_plan(PlanKind.UNIFORM, A, np.zeros((d, d)))
        fp = solve_fixed_point_d(plan, m)
        assert np.abs(fp.diag - (m - d) / m).max() < 1e-10

    def test_huge_ridge_drives_d_to_one(self):
        d = 4
        A = np.eye(d)
        plan = build_plan(PlanKind.UNIFORM, A, 1e9 * np.eye(d))
        fp = solve_fixed_point_d(plan, m=8)
        assert np.abs(fp.diag - 1.0).max() < 1e-8

    def test_range_bound_on_skewed_matrix(self):
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        m = 16 * D  # above 2 * rho_max * d_eff = 12
        fp = solve_fixed_point_d(plan, m)
        lo = m / (m + 2 * 1.5 * D)
        hi = m / (m + 0.5 * D)
        assert np.all(fp.diag >= lo - 1e-9)
        assert np.all(fp.diag <= hi + 1e-9)

    def test_satisfies_own_equation(self):
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        m = 10 * D
        fp = solve_fixed_point_d(plan, m, tol=1e-12)
        Hd = A_CE.T @ (fp.diag[:, None] * A_CE) + C0
        quad = np.einsum("ij,jk,ik->i", A_CE, spd_inverse(Hd), A_CE)
        want = m * plan.probs / (m * plan.probs + quad)
        assert np.abs(fp.diag - want).max() < 1e-10

    def test_residual_sequence_contracts(self):
        # the residual should fall below tol quickly; indirectly checks
        # that plain iteration contracts on this family of matrices
        plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
        fp = solve_fixed_point_d(plan, m=20 * D)
        assert fp.iterations < 100
        assert fp.residual < 1e-10

    def test_zero_rows_get_unit_entries(self):
        A = np.vstack([A_CE, np.zeros((1, D))])
        plan = build_plan(PlanKind.UNIFORM, A, C0)
        fp = solve_fixed_point_d(plan, m=16 * D)
        assert fp.diag[-1] == 1.0

    def test_leaving_proven_range_is_a_package_error(self, monkeypatch):
        # a negative slack puts every fixed point outside its range
        monkeypatch.setattr(debias, "RANGE_SLACK", -1.0)
        plan = build_plan(PlanKind.UNIFORM, A_CE, C0)
        with pytest.raises(RandskewError) as info:
            solve_fixed_point_d(plan, m=16 * D)
        assert info.value.iterations >= 1
        assert info.value.residual < 1e-10


def test_fixed_point_matches_monte_carlo_mean_inverse():
    # modest-trial version of the characterization check: the mean of
    # (A~^T A~ + C)^{-1} approaches (A^T D A + C)^{-1}
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A_CE, C0)
    m = 20 * D
    fp = solve_fixed_point_d(plan, m)
    predicted = spd_inverse(A_CE.T @ (fp.diag[:, None] * A_CE))
    T = 20_000
    acc = np.zeros((D, D))
    kept = 0
    for t in range(T):
        At = apply_sketch(draw(plan, m, rsrng.split(31, t)), A_CE)
        G = gram(At)
        if np.linalg.matrix_rank(G) < D:
            continue
        acc += spd_inverse(G)
        kept += 1
    assert psd_relative_error(acc / kept, predicted) < 0.05
