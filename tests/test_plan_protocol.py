"""Every plan kind, the Hadamard one included, answers one protocol that
the bias lab and the sketched Newton solver use without knowing the kind."""

import sys

import numpy as np
import pytest

from randskew.biaslab import estimate_bias, make_debias_spec
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode, DebiasSpec
from randskew.hadamard import fwht_inplace
from randskew.optim import (GlmProblem, ProblemKind, SsnConfig, StepRule,
                            objective_eval, ssn_step)
from randskew.sampling import PlanKind, build_plan, exact_leverage_scores

N, D, M = 64, 4, 32
A = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, N, D,
                                   heavy_row_count=4, seed=3))
C = 1e-2 * np.eye(D)
P = GlmProblem(A, synthetic_labels(A, 3), 1e-2, ProblemKind.LOGISTIC)
KINDS = pytest.mark.parametrize("kind", list(PlanKind), ids=lambda k: k.value)


def _one_ssn_step(kind):
    beta = np.zeros(D)
    config = SsnConfig(plan_kind=kind, m=M, step_rule=StepRule.ANALYTIC)
    return ssn_step(P, beta, objective_eval(P, beta), config, seed=5)


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
    calls = _count_calls(monkeypatch, exact_leverage_scores)
    _one_ssn_step(kind)
    assert len(calls) == 1


def test_srht_ssn_step_rotates_once(monkeypatch):
    # the sketch and rho_max share one Hadamard rotation of the factor
    calls = _count_calls(monkeypatch, fwht_inplace)
    _one_ssn_step(PlanKind.SRHT)
    assert len(calls) == 1


def test_srht_plan_d_eff_is_the_exact_effective_dimension():
    plan = build_plan(PlanKind.SRHT, A, C)
    assert plan.d_eff == exact_leverage_scores(A, C).sum()


@pytest.mark.parametrize("mode", [DebiasMode.FINE_GRAINED_EXACT,
                                  DebiasMode.FINE_GRAINED_APPROX])
def test_srht_plan_refuses_fine_grained_debias(mode):
    plan = build_plan(PlanKind.SRHT, A, C)
    with pytest.raises(ValueError, match="only supports scalar"):
        make_debias_spec(mode, plan, M, plan.d_eff, plan.exact)
