"""Metamorphic invariants of the (A, C) -> bias path: input maps that, in
exact arithmetic, leave every output unchanged, so each test needs no
reference number.

The bias lab measures bias in H's whitened basis, H = A^T A + C, so

- rotating the columns, A -> A Q with C -> Q^T C Q for an orthogonal Q,
  and scaling, A -> c A with C -> c^2 C, leave the scores, the
  probabilities and every trial's whitened inverse unchanged, for every
  plan kind whose sketch acts on the rows of A alone;
- appending zero rows leaves the support and the cdf of the
  exact_leverage and row_norm plans, and so their draws, unchanged;
- permuting the rows of A permutes the exact leverage scores;
- with the labels fixed, rotating the columns, A -> A Q, maps every
  iterate of the exact and the sketched Newton solver, beta_t, to
  Q^T beta_t, for every step rule and plan kind whose sketch acts on the
  rows of A alone: C = lambda I is unchanged by the rotation, so a plan
  that read another (A, C)'s Hessian would break the map.

The inputs are well conditioned (cond(H) below about 1e6), so each map
moves an output by rounding alone, bounded by ``RTOL``.
"""

import numpy as np
import pytest

from randskew.biaslab import estimate_bias, make_debias_spec
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode
from randskew.optim import (GlmProblem, NewtonExactMethod, ProblemKind,
                            SsnMethod, StepRule, run_solver)
from randskew.sampling import (PlanHessian, PlanKind, build_plan,
                               exact_leverage_scores)

RTOL = 1e-12  # relative change that rounding alone may make
N, D, M, TRIALS, SEED = 512, 16, 96, 200, 5
A = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, N, D,
                                   heavy_row_count=8, seed=1))
C = 1e-3 * np.eye(D)
# the double-sketch kind is left out: its second sketch acts on the
# columns of the whitened factor, so a rotation of A changes its scores
ROW_KINDS = [k for k in PlanKind
             if k is not PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE]


def _bias(kind, A_, C_):
    """The scalar-debiased bias of one cell of the plan of (A_, C_)."""
    plan = build_plan(kind, PlanHessian(A_, C_))
    spec = make_debias_spec(DebiasMode.SCALAR, plan, M)
    return estimate_bias(plan, spec, M, TRIALS, SEED).bias


def _orthogonal(seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((D, D)))
    return Q


def test_the_input_is_well_conditioned():
    assert np.linalg.cond(A.T @ A + C) < 1e6


@pytest.mark.parametrize("kind", ROW_KINDS, ids=lambda k: k.value)
def test_rotation_and_scaling_leave_the_bias_unchanged(kind):
    base = _bias(kind, A, C)
    Q = _orthogonal(3)
    assert _bias(kind, A @ Q, Q.T @ C @ Q) == pytest.approx(base, rel=RTOL)
    assert _bias(kind, 2.0 * A, 4.0 * C) == pytest.approx(base, rel=RTOL)


@pytest.mark.parametrize("kind", [PlanKind.EXACT_LEVERAGE,
                                  PlanKind.ROW_NORM], ids=lambda k: k.value)
def test_appended_zero_rows_leave_the_bias_unchanged(kind):
    padded = np.vstack([A, np.zeros((37, D))])
    assert _bias(kind, padded, C) == pytest.approx(_bias(kind, A, C),
                                                   rel=RTOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_row_permutation_permutes_the_exact_scores(seed):
    perm = np.random.default_rng(seed).permutation(N)
    np.testing.assert_allclose(exact_leverage_scores(A[perm], C),
                               exact_leverage_scores(A, C)[perm], rtol=RTOL)


SOLVE_N, SOLVE_ITERS, SOLVE_LAM = 1024, 4, 1e-3
SOLVE_A = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, SOLVE_N, D,
                                         heavy_row_count=D, seed=2))
LABELS = {ProblemKind.LOGISTIC: synthetic_labels(SOLVE_A, 2),
          ProblemKind.LEAST_SQUARES: SOLVE_A @ np.linspace(-1.0, 1.0, D)}
SOLVERS = [NewtonExactMethod()] + [
    SsnMethod(plan_kind=kind, m=M, debias=debias, step_rule=rule)
    for kind in ROW_KINDS
    for debias in (DebiasMode.NONE, DebiasMode.SCALAR)
    for rule in (StepRule.ARMIJO, StepRule.ANALYTIC)
    # the SJLT plan has no rho_max, so no analytic step
    if not (kind is PlanKind.SJLT and rule is StepRule.ANALYTIC)]


def _solver_id(method):
    if isinstance(method, NewtonExactMethod):
        return "newton"
    return (f"{method.plan_kind.value}-{method.debias.value}-"
            f"{method.step_rule.value}")


@pytest.mark.parametrize("loss", list(ProblemKind), ids=lambda k: k.value)
@pytest.mark.parametrize("method", SOLVERS, ids=_solver_id)
def test_rotation_maps_every_solver_iterate(method, loss):
    Q = _orthogonal(4)

    def iterates(A_):
        p = GlmProblem(A_, LABELS[loss], SOLVE_LAM, loss)
        return run_solver(p, method, np.zeros(D), SOLVE_ITERS,
                          seed=SEED).iterates

    base, rotated = iterates(SOLVE_A), iterates(SOLVE_A @ Q)
    assert len(rotated) == len(base) == SOLVE_ITERS + 1
    for beta, beta_rot in zip(base[1:], rotated[1:]):
        assert (np.linalg.norm(Q.T @ beta - beta_rot)
                <= RTOL * np.linalg.norm(beta))
