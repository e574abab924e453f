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
- permuting the rows of A permutes the exact leverage scores.

The inputs are well conditioned (cond(H) below about 1e6), so each map
moves an output by rounding alone, bounded by ``RTOL``.
"""

import numpy as np
import pytest

from randskew.biaslab import estimate_bias, make_debias_spec
from randskew.data import SyntheticKind, SyntheticSpec, synthetic_matrix
from randskew.debias import DebiasMode
from randskew.sampling import PlanKind, build_plan, exact_leverage_scores

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
    plan = build_plan(kind, A_, C_)
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
