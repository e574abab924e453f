"""Every plan kind, the Hadamard one included, answers one protocol that
the bias lab and the sketched Newton solver use without knowing the kind."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randskew import rng as rsrng
from randskew.biaslab import estimate_bias, make_debias_spec
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode, DebiasSpec, apply_debias
from randskew.errors import NotPositiveDefinite
from randskew.hadamard import _rotate
from randskew.linalg import gram, inv_sqrt
from randskew.optim import (GlmProblem, ProblemKind, SsnMethod, StepRule,
                            objective_eval, ssn_step)
from randskew.sampling import (PlanKind, apply_sketch, approximation_factors,
                               build_plan, draw, exact_leverage_scores)

N, D, M = 64, 4, 32
A = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, N, D,
                                   heavy_row_count=4, seed=3))
C = 1e-2 * np.eye(D)
P = GlmProblem(A, synthetic_labels(A, 3), 1e-2, ProblemKind.LOGISTIC)
KINDS = pytest.mark.parametrize("kind", list(PlanKind), ids=lambda k: k.value)
EXACT = exact_leverage_scores(A, C)
FINE = [DebiasMode.FINE_GRAINED_EXACT, DebiasMode.FINE_GRAINED_APPROX]
# fine-grained weights need m above every l_i / pi_i, which reaches 59 for
# the uniform plan on A
M_FINE = 2 * N
# the (kind, mode) pairs that make_debias_spec refuses at any m, and what
# it says
REFUSED = {
    **{(PlanKind.SRHT, mode): "only supports scalar" for mode in FINE},
    **{(kind, DebiasMode.FINE_GRAINED_APPROX):
       "needs approximate leverage scores"
       for kind in (PlanKind.UNIFORM, PlanKind.ROW_NORM)},
}


def _one_ssn_step(kind, rule=StepRule.ANALYTIC):
    beta = np.zeros(D)
    method = SsnMethod(plan_kind=kind, m=M, step_rule=rule)
    return ssn_step(P, beta, objective_eval(P, beta), method, seed=5)


@KINDS
def test_every_plan_kind_runs_the_bias_lab_and_an_ssn_step(kind):
    plan = build_plan(kind, A, C)
    assert plan.kind is kind
    for spec in (DebiasSpec.none(), DebiasSpec.scalar(M, plan.d_eff)):
        est = estimate_bias(A, C, plan, spec, M, trials=8, seed=2)
        assert est.trials == 8
        assert np.isfinite(est.bias)
    beta, diagnostics = _one_ssn_step(kind)
    assert np.all(np.isfinite(beta))
    assert 0.0 < diagnostics["step_size"] <= 1.0


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode, kind", [
    (mode, kind) for mode in DebiasMode for kind in PlanKind
    if (kind, mode) not in REFUSED], ids=lambda x: x.value)
def test_sketch_is_the_one_seed_sketch_many(mode, kind):
    plan = build_plan(kind, A, C)
    m = M_FINE if mode in FINE else M
    spec = make_debias_spec(mode, plan, m, plan.d_eff, EXACT)
    for seed in (0, 7, rsrng.split(3, 1)):
        At, rotated = plan.sketch(A, m, spec, seed)
        assert _same_bits(At, plan.sketch_many(A, m, spec, [seed])[0])
        if kind is PlanKind.SRHT:
            continue
        # the per-draw chain stays an independent reference
        assert rotated is None
        assert _same_bits(At, apply_sketch(
            apply_debias(draw(plan, m, seed), spec), A))


@KINDS
@pytest.mark.parametrize("mode", FINE, ids=lambda m: m.value)
def test_which_plans_refuse_fine_grained_debias(kind, mode):
    plan = build_plan(kind, A, C)
    if (kind, mode) not in REFUSED:
        spec = make_debias_spec(mode, plan, M_FINE, plan.d_eff, EXACT)
        assert spec.row_weights.shape == (N,)
        assert np.all(spec.row_weights >= 1.0)
        return
    with pytest.raises(ValueError, match=REFUSED[kind, mode]) as refused:
        make_debias_spec(mode, plan, M_FINE, plan.d_eff, EXACT)
    assert type(refused.value) is ValueError


def _count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` in every module holding a reference to it, as
    ``from .x import f`` copies the reference; returns the list that
    grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("randskew") and getattr(
                module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


@KINDS
def test_ssn_step_computes_exact_leverage_scores_once(kind, monkeypatch):
    # the Hadamard plan takes d_eff from the d x d Gram and needs no scores
    calls = _count_calls(monkeypatch, exact_leverage_scores)
    _one_ssn_step(kind)
    assert len(calls) == (0 if kind is PlanKind.SRHT else 1)


def test_srht_ssn_step_rotates_once(monkeypatch):
    # the sketch and rho_max share one Hadamard rotation of the factor
    calls = _count_calls(monkeypatch, _rotate)
    _one_ssn_step(PlanKind.SRHT)
    assert len(calls) == 1


@pytest.mark.parametrize("rule", list(StepRule), ids=lambda r: r.value)
def test_srht_ssn_step_computes_no_exact_scores(rule, monkeypatch):
    exact = _count_calls(monkeypatch, exact_leverage_scores)
    rotations = _count_calls(monkeypatch, _rotate)
    roots = _count_calls(monkeypatch, inv_sqrt)
    _, diagnostics = _one_ssn_step(PlanKind.SRHT, rule)
    assert (len(exact), len(rotations)) == (0, 1)
    # rho_max takes the rotation's scores by Cholesky, with no eigen root
    assert roots == []
    assert (diagnostics["rho_max"] is not None) == (rule is StepRule.ANALYTIC)


@KINDS
@pytest.mark.parametrize("rule", [StepRule.ARMIJO, StepRule.FIXED],
                         ids=lambda r: r.value)
def test_only_the_analytic_step_computes_rho_max(kind, rule, monkeypatch):
    hs = objective_eval(P, np.zeros(D)).hessian_sqrt
    d_eff = exact_leverage_scores(hs, P.lam * np.eye(D)).sum()
    roots = _count_calls(monkeypatch, inv_sqrt)
    build_plan(kind, hs, P.lam * np.eye(D))
    by_plan = len(roots)  # the SJLT plans whiten their own sketch
    factors = _count_calls(monkeypatch, approximation_factors)
    _, diagnostics = _one_ssn_step(kind, rule)
    assert len(roots) == 2 * by_plan
    assert factors == []
    assert diagnostics["rho_max"] is None
    # exact for every plan, the approximate-leverage ones included
    assert diagnostics["d_eff"] == pytest.approx(d_eff, rel=1e-12, abs=0)


def test_srht_plan_d_eff_is_the_closed_form_effective_dimension():
    lam = 1e-2
    sigma2 = np.linalg.svd(A, compute_uv=False) ** 2
    d_eff = build_plan(PlanKind.SRHT, A, lam * np.eye(D)).d_eff
    assert d_eff == pytest.approx(np.sum(sigma2 / (sigma2 + lam)),
                                  rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.integers(1, 8),
       st.sampled_from([1e-2, 1.0, 1e2]),
       st.sampled_from([SyntheticKind.GAUSSIAN_IID, SyntheticKind.COHERENT]),
       st.integers(0, 2**16))
def test_srht_plan_d_eff_is_the_sum_of_the_exact_scores(n, d, rel, kind,
                                                        seed):
    # C is a multiple of ||A^T A||: the Gram trace and the score sum agree
    # to about d * eps * ||A^T A|| / lambda, rounding for these C
    A_ = synthetic_matrix(SyntheticSpec(kind, n, d, heavy_row_count=n // 8,
                                        seed=seed))
    C_ = rel * np.linalg.norm(gram(A_), 2) * np.eye(d)
    assert build_plan(PlanKind.SRHT, A_, C_).d_eff == pytest.approx(
        exact_leverage_scores(A_, C_).sum(), rel=1e-12, abs=0)


def test_srht_plan_refuses_a_singular_gram_like_the_exact_scores():
    A_ = A.copy()
    A_[:, 2] = A_[:, 0] - A_[:, 1]
    C_ = np.zeros((D, D))
    with pytest.raises(NotPositiveDefinite) as from_scores:
        exact_leverage_scores(A_, C_)
    with pytest.raises(NotPositiveDefinite) as from_plan:
        build_plan(PlanKind.SRHT, A_, C_)
    assert from_plan.value.pivot_index == from_scores.value.pivot_index
    assert from_plan.value.pivot_index is not None


@pytest.mark.parametrize("mode", [DebiasMode.FINE_GRAINED_EXACT,
                                  DebiasMode.FINE_GRAINED_APPROX])
def test_srht_plan_refuses_fine_grained_debias(mode):
    plan = build_plan(PlanKind.SRHT, A, C)
    with pytest.raises(ValueError, match="only supports scalar"):
        make_debias_spec(mode, plan, M, plan.d_eff, plan.exact)
