"""The Hessian factor as a row-scaled view: every reader takes it in row
blocks or gathered rows, with the bits of the same call on the formed
factor, and no Newton or sketched Newton step forms an n x d array."""

import tracemalloc

import numpy as np
import pytest

from randskew import _lapack
from randskew import rng as rsrng
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode, DebiasSpec
from randskew.hadamard import (FWHT_BLOCK_FLOATS, STAGE_TILE_FLOATS,
                               _signed_rows, next_power_of_two)
from randskew.linalg import (GRAM_BLOCK_ROWS, WHITEN_BLOCK_FLOATS, RowScaled,
                             gram, inverse_quadratic_forms)
from randskew.optim import (GlmProblem, NewtonExactMethod, ProblemKind,
                            SsnMethod, StepRule, objective_eval,
                            reference_point)
from randskew.sampling import (PlanHessian, PlanKind, _sjlt_apply, build_plan,
                               exact_leverage_scores, sjlt_approx_leverage)

from oracles import hessian_sqrt

# more rows than one block of every reader at D columns
N, D = 5000, 16
SAMPLING = [kind for kind in PlanKind if kind.has_probs]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def _problem(kind, n, d, seed=1):
    A = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, n, d,
                                       heavy_row_count=d, seed=seed))
    y = (synthetic_labels(A, seed) if kind is ProblemKind.LOGISTIC
         else A @ np.linspace(-1.0, 1.0, d))
    return GlmProblem(A, y, 1e-3, kind)


@pytest.fixture(scope="module", params=list(ProblemKind),
                ids=lambda k: k.value)
def factor(request):
    """The view and the formed factor of one objective, logistic (a
    multiplied column) or least squares (a divided scalar)."""
    p = _problem(request.param, N, D)
    obj = objective_eval(p, np.full(D, 0.05))
    return obj.hessian.A, hessian_sqrt(obj)


def test_the_factor_spans_several_blocks_of_every_reader():
    assert N > 2 * GRAM_BLOCK_ROWS
    assert N > 2 * (WHITEN_BLOCK_FLOATS // D)


class TestRowScaled:
    def test_rows_blocks_take_and_signed_are_the_formed_rows(self, factor):
        view, formed = factor
        assert view.shape == formed.shape
        assert _same_bits(view.rows(17, 4001), formed[17:4001])
        out = np.empty((4000, D))
        assert view.rows(5, 4005, out) is not None
        assert _same_bits(out, formed[5:4005])
        blocks = [block.copy() for _, block in view.blocks(777)]
        assert [len(b) for b in blocks[:-1]] == [777] * (len(blocks) - 1)
        assert _same_bits(np.concatenate(blocks), formed)
        rows = rsrng.generator(3).integers(0, N, size=(3, 40))
        assert _same_bits(view.take(rows), formed[rows])
        signs = rsrng.generator(4).integers(0, 2, size=(N, 1)) * 2.0 - 1.0
        assert _same_bits(view.signed(signs, np.empty((N, D))),
                          signs * formed)

    def test_unscaled_rows_are_views_of_the_data(self):
        A = np.arange(12.0).reshape(6, 2)
        X = RowScaled(A)
        assert np.shares_memory(X.rows(1, 4), A)
        assert all(np.shares_memory(block, A) for _, block in X.blocks(4))


class TestGram:
    @pytest.mark.parametrize("n", [1, 100, GRAM_BLOCK_ROWS])
    def test_one_block_is_one_product(self, n):
        A = np.random.default_rng(n).standard_normal((n, 7))
        G = A.T @ A
        assert _same_bits(gram(A), (G + G.T) / 2.0)

    @pytest.mark.parametrize("n", [GRAM_BLOCK_ROWS + 1, 3 * GRAM_BLOCK_ROWS,
                                   3 * GRAM_BLOCK_ROWS + 5])
    def test_blocks_are_summed_in_row_order(self, n):
        A = np.random.default_rng(n).standard_normal((n, 9))
        G = None
        for lo in range(0, n, GRAM_BLOCK_ROWS):
            B = A[lo:lo + GRAM_BLOCK_ROWS]
            G = B.T @ B if G is None else G + B.T @ B
        got = gram(A)
        assert _same_bits(got, (G + G.T) / 2.0)
        assert np.array_equal(got, got.T)

    def test_stack_takes_one_product(self):
        # each matrix of a stack, rows past GRAM_BLOCK_ROWS included, takes
        # one dgram_stack product, not a sum over row blocks
        S = np.random.default_rng(2).standard_normal((5, 3000, 4))
        G = _lapack.dgram_stack(S, np.empty((5, 4, 4)))
        assert _same_bits(gram(S), (G + np.swapaxes(G, 1, 2)) / 2.0)


def test_gram_of_the_view_is_the_gram_of_the_formed_factor(factor):
    view, formed = factor
    assert _same_bits(gram(view), gram(formed))


def test_quadratic_forms_of_the_view_are_those_of_the_formed_factor(factor):
    view, formed = factor
    H = gram(formed) + 1e-3 * np.eye(D)
    assert _same_bits(inverse_quadratic_forms(view, H),
                      inverse_quadratic_forms(formed, H))
    S = _sjlt_apply(np.eye(D), 40, rsrng.generator(6))
    assert _same_bits(inverse_quadratic_forms(view, H, S),
                      inverse_quadratic_forms(formed, H, S))
    assert _same_bits(exact_leverage_scores(view, 1e-3 * np.eye(D)),
                      exact_leverage_scores(formed, 1e-3 * np.eye(D)))


@pytest.mark.parametrize("s", [1, 4, 9])
def test_sjlt_of_the_view_is_the_sjlt_of_the_formed_factor(factor, s):
    view, formed = factor
    assert _same_bits(_sjlt_apply(view, 96, rsrng.generator(8), s),
                      _sjlt_apply(formed, 96, rsrng.generator(8), s))


@pytest.mark.parametrize("m2", [None, 20, 60])
def test_sjlt_scores_of_the_view_are_those_of_the_formed_factor(factor, m2):
    view, formed = factor
    C = 1e-3 * np.eye(D)
    assert _same_bits(sjlt_approx_leverage(view, C, 128, m2, seed=4),
                      sjlt_approx_leverage(formed, C, 128, m2, seed=4))


def test_double_sketch_scores_are_the_whitened_row_norms():
    # A (L^-T S2^T) in place of (A L^-T) S2^T: a reordered product, equal
    # up to rounding
    A = np.random.default_rng(5).standard_normal((3000, 12))
    C = 1e-2 * np.eye(12)
    got = sjlt_approx_leverage(A, C, 96, 30, seed=2)
    SA = _sjlt_apply(A, 96, rsrng.generator(2, 0))
    S2 = _sjlt_apply(np.eye(12), 30, rsrng.generator(2, 1))
    B = (A @ np.linalg.inv(np.linalg.cholesky(gram(SA) + C)).T) @ S2.T
    np.testing.assert_allclose(got, np.einsum("ij,ij->i", B, B),
                               rtol=1e-12)


@pytest.mark.parametrize("kind", SAMPLING, ids=lambda k: k.value)
def test_plans_and_sketches_of_the_view_are_those_of_the_formed(factor,
                                                                 kind):
    view, formed = factor
    C = 1e-3 * np.eye(D)
    got, want = (build_plan(kind, PlanHessian(X, C), seed=2)
                 for X in (view, formed))
    assert _same_bits(got.probs, want.probs) and got.d_eff == want.d_eff
    assert _same_bits(got.exact, want.exact)
    seeds = [rsrng.split(7, t) for t in range(2)]
    # 64 draws weigh only the rows they drew; N draws build the table of
    # the support's rows
    for m in (64, N):
        spec = DebiasSpec.scalar(m, got.d_eff)
        assert _same_bits(got.sketcher(m, spec)(seeds),
                          want.sketcher(m, spec)(seeds))


def test_srht_plan_and_signed_rows_of_the_view(factor):
    view, formed = factor
    C = 1e-3 * np.eye(D)
    got, want = (build_plan(PlanKind.SRHT, PlanHessian(X, C))
                 for X in (view, formed))
    assert got.d_eff == want.d_eff and _same_bits(got.hessian.H,
                                                  want.hessian.H)
    signs = rsrng.generator(2).integers(0, 2, size=next_power_of_two(N))
    signs = signs * 2.0 - 1.0
    rows = _signed_rows(view, signs)
    assert _same_bits(rows[:N], signs[:N, None] * formed)
    assert not rows[N:].any()


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_reference_point_is_the_gram_of_the_formed_factor(kind):
    p = _problem(kind, N, D)
    beta = np.full(D, 0.05)
    formed = hessian_sqrt(objective_eval(p, beta))
    assert _same_bits(reference_point(p, beta).hessian,
                      gram(formed) + p.lam * np.eye(D))


def _methods():
    yield "newton", NewtonExactMethod()
    yield "ssn-sjlt-none-armijo", SsnMethod(
        plan_kind=PlanKind.SJLT, m=64, debias=DebiasMode.NONE,
        step_rule=StepRule.ARMIJO)
    for kind in SAMPLING:
        yield f"ssn-{kind.value}", SsnMethod(plan_kind=kind, m=64,
                                             step_rule=StepRule.ANALYTIC)
    # the SRHT step streams its sketch under every rule but the analytic
    for rule in (StepRule.ARMIJO, StepRule.FIXED):
        yield f"ssn-srht-{rule.value}", SsnMethod(plan_kind=PlanKind.SRHT,
                                                  m=64, step_rule=rule)


METHODS = dict(_methods())


def _update_peak(p, method, beta):
    """The ``tracemalloc`` peak of one ``method.update`` at beta, given
    its objective, after one update that warms imports and caches."""
    method.update(p, beta, objective_eval(p, beta), 0, 0)
    obj = objective_eval(p, beta)
    tracemalloc.start()
    try:
        method.update(p, beta, obj, 0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", list(METHODS))
def test_no_step_forms_an_n_by_d_array(kind, name):
    # a formed factor alone takes n d 8 bytes: steps that formed it
    # peaked at 1.13-1.88 of that (6.24 for the double sketch, whose
    # whitened copy was n x d too; 2.01 for the SRHT step, which rotated
    # its padded buffer); reading it in blocks peaks at 0.51-0.90
    n, d = 4096, 16
    p = _problem(kind, n, d)
    peak = _update_peak(p, METHODS[name], np.full(d, 0.05))
    assert peak < n * d * 8


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [4096, 3000])
def test_srht_step_holds_its_padded_buffer_and_one_block(kind, n):
    # the signed factor is written straight into the padded buffer, which
    # the staged transform rotates through one scratch block; a few
    # n-vectors (weights, signs, scores) come on top
    d = 16
    p = _problem(kind, n, d)
    method = SsnMethod(plan_kind=PlanKind.SRHT, m=64,
                       step_rule=StepRule.ANALYTIC,
                       debias=DebiasMode.SCALAR)
    padded = next_power_of_two(n) * d
    scratch = min(padded, max(FWHT_BLOCK_FLOATS, STAGE_TILE_FLOATS))
    peak = _update_peak(p, method, np.full(d, 0.05))
    assert peak < (padded + scratch + 4 * next_power_of_two(n)) * 8

