"""Every plan kind, the Hadamard and SJLT ones included, answers one
protocol that the bias lab and the sketched Newton solver use without
knowing the kind."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randskew import biaslab, cli, hadamard, optim, sampling
from randskew import rng as rsrng
from randskew.biaslab import (JACKKNIFE_BATCH, bias_sweep, estimate_bias,
                              make_debias_spec)
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode, DebiasSpec, apply_debias
from randskew.errors import (ConfigError, NotPositiveDefinite,
                             SketchTooSmall)
from randskew.hadamard import (_rotate, _signed_rows, _stage_bits,
                               _staged_hadamard, next_power_of_two,
                               srht_apply, srht_draw)
from randskew.linalg import (RowScaled, cholesky, gram,
                             inverse_quadratic_forms, whitened_norms)
from randskew.optim import (GlmProblem, ProblemKind, SsnMethod, StepRule,
                            objective_eval, ssn_step)
from randskew.sampling import (PlanKind, SamplingPlan, SketchDraw,
                               _sjlt_apply, apply_sketch,
                               approximation_factors, build_plan, draw,
                               exact_leverage_scores)

from oracles import hessian_sqrt

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
# the kinds whose build_plan reads the exact scores, for its probabilities
BY_EXACT = (PlanKind.EXACT_LEVERAGE, PlanKind.SHRINKAGE)
REFUSED = {
    **{(kind, mode): "only supports scalar" for mode in FINE
       for kind in (PlanKind.SRHT, PlanKind.SJLT)},
    **{(kind, DebiasMode.FINE_GRAINED_APPROX):
       "needs approximate leverage scores"
       for kind in (PlanKind.UNIFORM, PlanKind.ROW_NORM)},
}


def _rules(kind) -> list:
    """The step rules a kind's step takes: the SJLT plan has no rho_max,
    so it takes no analytic step."""
    return [rule for rule in StepRule
            if not (kind is PlanKind.SJLT and rule is StepRule.ANALYTIC)]


def _one_ssn_step(kind, rule=None):
    """One step of ``kind`` under ``rule``, by default the first rule the
    kind takes."""
    rule = rule or _rules(kind)[0]
    beta = np.zeros(D)
    method = SsnMethod(plan_kind=kind, m=M, step_rule=rule)
    return ssn_step(P, beta, objective_eval(P, beta), method, seed=5)


@KINDS
def test_every_plan_kind_runs_the_bias_lab_and_an_ssn_step(kind):
    plan = build_plan(kind, A, C)
    assert plan.kind is kind
    for spec in (DebiasSpec.none(), DebiasSpec.scalar(M, plan.d_eff)):
        est = estimate_bias(plan, spec, M, trials=8, seed=2)
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
    # N - 1 and N put one seed's m draws on either side of the N support
    # rows: fewer draws weigh only the rows they drew, the stack of three
    # seeds weighs every support row once, and all match bitwise, whether
    # or not the sketcher writes into a given buffer
    plan = build_plan(kind, A, C)
    seeds = (0, 7, rsrng.split(3, 1))
    for m in (M_FINE if mode in FINE else M, N - 1, N):
        spec = make_debias_spec(mode, plan, m)
        stack = plan.sketcher(m, spec)(seeds)
        buf = np.full_like(stack, np.nan)
        assert plan.sketcher(m, spec)(seeds, out=buf) is buf
        assert _same_bits(buf, stack)
        for seed, St in zip(seeds, stack):
            At = plan.sketcher(m, spec)([seed])[0]
            assert _same_bits(At, St)
            one = buf[:1]
            assert plan.sketcher(m, spec)([seed], out=one) is one
            assert _same_bits(one[0], St)
            # the per-draw chain stays an independent reference
            if kind is PlanKind.SRHT:
                sd = srht_draw(N, m, seed)
                want = apply_sketch(apply_debias(sd.sample, spec),
                                    hadamard._rotate(sd.signs, A))
            elif kind is PlanKind.SJLT:
                want = _sjlt_apply(A, m, rsrng.generator(seed))
                if mode is DebiasMode.SCALAR:
                    want = want * math.sqrt(spec.factor)
            else:
                want = apply_sketch(apply_debias(draw(plan, m, seed), spec),
                                    A)
            assert _same_bits(At, want)


@KINDS
def test_consecutive_sketcher_calls_match_fresh_sketchers(kind):
    # a cell's row table (or SRHT buffer) outlives its calls, and calls
    # on either side of the support size share it
    plan = build_plan(kind, A, C)
    spec = DebiasSpec.scalar(M, plan.d_eff)
    sketch = plan.sketcher(M, spec)
    out = np.empty((3, M, D))
    for seeds in ([5], [1, 2, 3], [5], [4, 6], [1, 2, 3]):
        want = plan.sketcher(M, spec)(seeds)
        assert _same_bits(sketch(seeds), want)
        assert _same_bits(sketch(seeds, out=out[:len(seeds)]), want)


@pytest.mark.parametrize("mode, kind", [
    (mode, kind) for mode in (DebiasMode.SCALAR, *FINE) for kind in PlanKind
    if (kind, mode) not in REFUSED], ids=lambda x: x.value)
def test_a_bias_cell_builds_its_debias_weights_once(mode, kind, monkeypatch):
    plan = build_plan(kind, A, C)
    m = M_FINE if mode in FINE else M
    spec = make_debias_spec(mode, plan, m)
    calls = []

    def reweight(self, indices, weights):
        calls.append(1)
        return reweight.real(self, indices, weights)

    def sketcher(self, *args):
        draw = sketcher.real(self, *args)

        def counted(seeds, out=None):
            sub_blocks.append(len(seeds))
            return draw(seeds, out)
        return counted

    reweight.real, sketcher.real = DebiasSpec.reweight, type(plan).sketcher
    sub_blocks = []
    monkeypatch.setattr(DebiasSpec, "reweight", reweight)
    monkeypatch.setattr(type(plan), "sketcher", sketcher)
    # two trials per sub-block, and a last one of one trial, which at
    # m = M draws fewer than N rows and still takes the cell's row table
    monkeypatch.setattr(biaslab, "SUBBLOCK_FLOATS", 2 * m * D)
    estimate_bias(plan, spec, m, trials=5, seed=2)
    assert sub_blocks == [2, 2, 1]
    # a sampling plan weighs its support rows once per cell, and the SJLT
    # plan its one scalar weight; the SRHT weight is one scalar,
    # re-weighted with each trial's rows
    assert len(calls) == (5 if kind is PlanKind.SRHT else 1)


@KINDS
@pytest.mark.parametrize("mode", FINE, ids=lambda m: m.value)
def test_which_plans_refuse_fine_grained_debias(kind, mode):
    plan = build_plan(kind, A, C)
    if (kind, mode) not in REFUSED:
        spec = make_debias_spec(mode, plan, M_FINE)
        assert spec.row_weights.shape == (N,)
        assert np.all(spec.row_weights >= 1.0)
        return
    with pytest.raises(ValueError, match=REFUSED[kind, mode]) as refused:
        make_debias_spec(mode, plan, M_FINE)
    assert type(refused.value) is ValueError


def _replace(monkeypatch, fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` in every module holding a reference to
    it, as ``from .x import f`` copies the reference."""
    for name, module in list(sys.modules.items()):
        if name.startswith("randskew") and getattr(
                module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


def _count_calls(monkeypatch, fn) -> list:
    """Count the calls of ``fn`` from every module; returns the list that
    grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    _replace(monkeypatch, fn, counting)
    return calls


def _count_exact(monkeypatch) -> list:
    """Count the exact-score passes: the first reads of a sampling plan's
    ``exact``, each of which whitens A; returns the list that grows by one
    per pass."""
    calls, whiten = [], SamplingPlan.exact.func

    def exact(plan):
        calls.append(1)
        return whiten(plan)

    monkeypatch.setattr(SamplingPlan.exact, "func", exact)
    return calls


def _exact_passes(monkeypatch) -> list:
    """Record every exact-score pass, as :func:`_count_exact` counts them:
    True for a pass made inside ``build_plan``."""
    passes, building, whiten = [], [], SamplingPlan.exact.func

    def exact(plan):
        passes.append(bool(building))
        return whiten(plan)

    def build(*args, **kwargs):
        building.append(1)
        try:
            return build_plan(*args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(SamplingPlan.exact, "func", exact)
    _replace(monkeypatch, build_plan, build)
    return passes


def test_no_run_path_builds_a_per_draw_sketch(monkeypatch):
    # every plan turns drawn rows into a sketch by one gather of
    # spec-reweighted rows; the per-draw chain is only the tests' oracle
    calls = [_count_calls(monkeypatch, fn)
             for fn in (draw, apply_sketch, apply_debias, SketchDraw)]
    for kind in PlanKind:
        plan = build_plan(kind, A, C)
        for spec in (DebiasSpec.none(), DebiasSpec.scalar(M, plan.d_eff)):
            estimate_bias(plan, spec, M, trials=8, seed=2)
        for rule in _rules(kind):
            _one_ssn_step(kind, rule)
    assert [len(c) for c in calls] == [0, 0, 0, 0]


# a sampling plan computes its exact scores at most once, on first read:
# inside build_plan for the kinds that sample by them, else in the first
# reader, and every reader takes the plan's ``exact``

@KINDS
def test_ssn_step_computes_exact_leverage_scores_once(kind, monkeypatch):
    # once per step whatever the step rule, as every step here reads d_eff
    # for its scalar debias; the Hadamard and SJLT plans take d_eff from
    # the d x d Gram and need no scores
    passes = _exact_passes(monkeypatch)
    for rule in _rules(kind):
        _one_ssn_step(kind, rule)
    assert passes == [kind in BY_EXACT] * (len(StepRule) if kind.has_probs
                                           else 0)


@KINDS
def test_bias_sweep_computes_no_exact_scores(kind, monkeypatch):
    passes = _exact_passes(monkeypatch)
    plan = sampling.build_plan(kind, A, C)
    for mode in DebiasMode:
        def sweep():
            return bias_sweep([plan], [mode], [M_FINE], trials=2, seed=1)
        if (kind, mode) in REFUSED:
            with pytest.raises(ValueError, match=REFUSED[kind, mode]):
                sweep()
        else:
            assert len(sweep()) == 1
    # the first scalar cell reads d_eff, which computes them if build_plan
    # did not, and every later reader takes them from the plan
    assert passes == [kind in BY_EXACT] * kind.has_probs


def test_bias_sweep_forms_each_plans_h_once(monkeypatch):
    # every cell whitens its bias by the plan's factor L of H, and the
    # scalar cells read d_eff from it: one n-row Gram and one Cholesky of
    # H per plan, at build or at the first cell, for all its cells
    H = gram(A) + C
    rows, factored = [], []

    def recording_gram(X):
        rows.append(X.shape[0])
        return gram(X)

    def recording_cholesky(M):
        factored.append(np.array_equal(M, H))
        return cholesky(M)

    _replace(monkeypatch, gram, recording_gram)
    _replace(monkeypatch, cholesky, recording_cholesky)
    plans = [build_plan(kind, A, C) for kind in PlanKind]
    assert rows.count(N) == len(BY_EXACT)
    bias_sweep(plans, [DebiasMode.NONE, DebiasMode.SCALAR], [M, 2 * M],
               trials=2, seed=1)
    assert rows.count(N) == len(plans)
    assert factored.count(True) == len(plans)


@pytest.mark.parametrize("overrides, wanted", [
    ({}, [False]),
    ({"approx": "sjlt"}, [False]),
    ({"plans": "uniform,approx_leverage,shrinkage"}, [True, False, False]),
    ({"approx": "double", "plans": "double_sketch_approx_leverage,row_norm"},
     [False, False]),
], ids=["default", "approx", "plans", "approx-plans"])
def test_lev_takes_exact_scores_from_its_first_plan(overrides, wanted,
                                                    monkeypatch):
    # each summarized plan whitens A once for its own rho, the shrinkage
    # plan inside build_plan; the plan that gives only the approximate
    # column computes no exact scores
    passes = _exact_passes(monkeypatch)
    cfg = cli.Config({"synthetic": "coherent", "n": str(N), "d": str(D),
                      "heavy_rows": "4", "lambda": "0.01", **overrides})
    _, rows, sidecar = cli.cmd_lev(cfg, 3, False)
    assert passes == wanted
    assert [row[1] for row in rows] == list(EXACT)
    assert sidecar["d_eff"] == float(EXACT.sum())


@pytest.mark.parametrize("kind", [k for k in PlanKind if k.has_probs],
                         ids=lambda k: k.value)
def test_a_sampling_plans_d_eff_is_the_sum_of_its_exact_scores(kind):
    # one rule for every kind: the approximate kinds sample by their
    # approximate scores, whose sum only estimates d_eff
    plan = build_plan(kind, A, C, seed=2)
    assert plan.d_eff == float(plan.exact.sum())


def test_an_approximate_plans_scalar_bias_cell_reads_the_exact_d_eff():
    # the bias table's scalar factor is the one solve, sweep and lev read
    seed, m_grid, trials = 3, [16, 32], 8
    cfg = cli.Config({"synthetic": "coherent", "n": str(N), "d": str(D),
                      "heavy_rows": "4", "lambda": "0.01",
                      "plans": "approx_leverage", "debias": "scalar",
                      "m_grid": ",".join(map(str, m_grid)),
                      "trials": str(trials)})
    _, rows, _ = cli.cmd_bias(cfg, seed, False)
    plan = build_plan(PlanKind.APPROX_LEVERAGE, A, C,
                      seed=rsrng.split(seed, 101))
    for mi, (m, row) in enumerate(zip(m_grid, rows)):
        spec = DebiasSpec.scalar(m, float(plan.exact.sum()))
        est = estimate_bias(plan, spec, m, trials,
                            rsrng.split(seed, 0, 0, mi))
        assert row == ["approx_leverage", "scalar", m, trials, est.discarded,
                       est.bias, est.stderr_proxy, est.eps_two_sided]


@pytest.mark.parametrize("kind", [k for k in PlanKind if not k.has_probs],
                         ids=lambda k: k.value)
def test_lev_refuses_a_plan_without_probabilities_before_building_one(
        kind, monkeypatch):
    passes = _count_exact(monkeypatch)
    plans = _count_calls(monkeypatch, build_plan)
    cfg = cli.Config({"synthetic": "coherent", "n": str(N), "d": str(D),
                      "plans": f"uniform,{kind.value}"})
    with pytest.raises(ConfigError) as refused:
        cli.cmd_lev(cfg, 3, False)
    assert str(refused.value) == f"{kind.value} has no sampling plan summary"
    assert (passes, plans) == ([], [])


def test_srht_step_refuses_fine_exact_before_any_n_row_work(monkeypatch):
    # the refusal reads the plan, which has no probabilities: no Gram of
    # A for the analytic rule's d_eff, and no exact scores, come first
    calls = _count_exact(monkeypatch)
    grams = _count_calls(monkeypatch, gram)
    beta = np.zeros(D)
    obj = objective_eval(P, beta)
    method = SsnMethod(plan_kind=PlanKind.SRHT, m=M,
                       debias=DebiasMode.FINE_GRAINED_EXACT)
    with pytest.raises(ValueError) as refused:
        ssn_step(P, beta, obj, method, seed=5)
    assert type(refused.value) is ValueError
    assert str(refused.value) == ("the srht plan samples no rows of A, so "
                                  "it only supports scalar debiasing")
    assert (calls, grams) == ([], [])


def _rotated_rows(monkeypatch) -> list:
    """Record the row count of every ``_staged_hadamard`` call from every
    module."""
    rows = []

    def recording(flat, *args, **kwargs):
        rows.append(flat.shape[0])
        return _staged_hadamard(flat, *args, **kwargs)

    _replace(monkeypatch, _staged_hadamard, recording)
    return rows


def _srht_step_rotations(rule) -> list:
    """The row counts of the rotations one SRHT step under ``rule`` makes
    on the N-row factor: the whole padded buffer once under the analytic
    rule, whose rho_max scores every rotated row; else each residue class
    of the rows modulo k, the last stage's width, once."""
    n_padded = next_power_of_two(N)
    if rule is StepRule.ANALYTIC:
        return [n_padded]
    k = 1 << _stage_bits(n_padded)[-1]
    return [n_padded // k] * k


def test_srht_ssn_step_rotates_once(monkeypatch):
    # the analytic sketch and rho_max share one Hadamard rotation of the
    # factor, made in place in the buffer that the signed factor was
    # written to; the other rules rotate each residue class once
    rows = _rotated_rows(monkeypatch)
    for rule in StepRule:
        rows.clear()
        _one_ssn_step(PlanKind.SRHT, rule)
        assert rows == _srht_step_rotations(rule)
    assert len(_srht_step_rotations(StepRule.ARMIJO)) == 8


@pytest.mark.parametrize("rule", list(StepRule), ids=lambda r: r.value)
def test_srht_ssn_step_computes_no_exact_scores(rule, monkeypatch):
    exact = _count_exact(monkeypatch)
    rotations = _rotated_rows(monkeypatch)
    # every whitening of rows is one whitened_norms call
    whitenings = _count_calls(monkeypatch, whitened_norms)
    _, diagnostics = _one_ssn_step(PlanKind.SRHT, rule)
    assert len(exact) == 0
    assert rotations == _srht_step_rotations(rule)
    # the plan whitens nothing; rho_max whitens the rotation once for its
    # scores
    assert len(whitenings) == (rule is StepRule.ANALYTIC)
    assert (diagnostics["rho_max"] is not None) == (rule is StepRule.ANALYTIC)


@pytest.mark.parametrize("kind", [k for k in PlanKind
                                  if StepRule.ANALYTIC in _rules(k)],
                         ids=lambda k: k.value)
def test_analytic_sketch_is_the_one_seed_sketcher_draw(kind):
    for X in (A, RowScaled(A)):
        plan = build_plan(kind, X, C)
        spec = DebiasSpec.scalar(M, plan.d_eff)
        for seed in (0, 7):
            At, rho_max = plan.analytic_sketch(M, spec, seed)
            assert _same_bits(At, plan.sketcher(M, spec)([seed])[0])
            if kind.has_probs:
                assert rho_max == approximation_factors(plan).rho_max


def _srht_oracle(m, spec, seed):
    """The per-draw SRHT sketch of A at ``seed``, debiased by ``spec``."""
    sd = srht_draw(N, m, seed)
    return srht_apply(replace(sd, sample=apply_debias(sd.sample, spec)), A)


def test_srht_sketcher_streams_one_seed_and_rotates_several(monkeypatch):
    # one seed rotates each residue class of the rows once and holds no
    # rotation; two seeds rotate the whole padded buffer once each, as the
    # analytic sketch does for its one seed
    plan = build_plan(PlanKind.SRHT, A, C)
    spec = DebiasSpec.scalar(M, plan.d_eff)
    rows = _rotated_rows(monkeypatch)
    n_padded = next_power_of_two(N)
    k = 1 << _stage_bits(n_padded)[-1]
    one = plan.sketcher(M, spec)([5])
    assert rows == [n_padded // k] * k and k > 1
    rows.clear()
    two = plan.sketcher(M, spec)([5, 6])
    assert rows == [n_padded] * 2
    rows.clear()
    At, _ = plan.analytic_sketch(M, spec, 5)
    assert rows == [n_padded]
    for got in (one[0], two[0], At):
        assert _same_bits(got, _srht_oracle(M, spec, 5))
    assert _same_bits(two[1], _srht_oracle(M, spec, 6))


def _objective(kind, n):
    """A problem of ``kind`` with n rows and D columns (n = 100 pads to
    128), a start beta and the objective there."""
    A_ = synthetic_matrix(SyntheticSpec(SyntheticKind.COHERENT, n, D,
                                        heavy_row_count=4, seed=n))
    y = (synthetic_labels(A_, n) if kind is ProblemKind.LOGISTIC
         else A_ @ np.arange(1.0, D + 1))
    P_ = GlmProblem(A_, y, 1e-2, kind)
    beta = np.full(D, 0.1)
    return P_, beta, objective_eval(P_, beta)


OBJECTIVES = pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in ProblemKind for n in (64, 100)],
    ids=lambda x: getattr(x, "value", x))


@OBJECTIVES
def test_signed_buffer_holds_the_signed_factor_bitwise(kind, n):
    # a sign flip is exact in a product or a quotient, and it cancels in
    # every product of the Gram
    _, _, obj = _objective(kind, n)
    signs = srht_draw(n, M, 9).signs
    rows = _signed_rows(obj.factor, signs)
    hs = hessian_sqrt(obj)
    assert rows.shape == (next_power_of_two(n), D)
    assert _same_bits(rows[:n], signs[:n, None] * hs)
    assert np.all(rows[n:] == 0.0)
    assert _same_bits(gram(rows[:n]), gram(hs))


@OBJECTIVES
@pytest.mark.parametrize("rule", list(StepRule), ids=lambda r: r.value)
def test_srht_ssn_step_is_the_sketch_of_the_formed_factor(kind, n, rule,
                                                          monkeypatch):
    P_, beta, obj = _objective(kind, n)
    sketches = []

    def newton_update(p, beta, obj, At, armijo, mu):
        sketches.append(At)
        return newton_update.real(p, beta, obj, At, armijo, mu)

    newton_update.real = optim._newton_update
    monkeypatch.setattr(optim, "_newton_update", newton_update)
    method = SsnMethod(plan_kind=PlanKind.SRHT, m=M, step_rule=rule)
    _, diagnostics = ssn_step(P_, beta, obj, method, seed=5)
    # the step wrote the signed factor into its rotation buffer: the
    # sketch of the formed factor, bitwise
    hs, C_ = hessian_sqrt(obj), P_.lam * np.eye(D)
    plan = build_plan(PlanKind.SRHT, hs, C_)
    spec = make_debias_spec(method.debias, plan, M)
    # every rule's sketch is the per-draw sketch of the whole rotation,
    # bitwise
    sd = srht_draw(n, M, rsrng.split(5, 2))
    At = srht_apply(replace(sd, sample=apply_debias(sd.sample, spec)), hs)
    rotated = _rotate(sd.signs, hs)
    assert len(sketches) == 1 and _same_bits(sketches[0], At)
    assert diagnostics["d_eff"] == plan.d_eff
    # rho_max by the rotation's scores given gram(hs) + C, formed afresh
    scores = inverse_quadratic_forms(rotated, gram(hs) + C_)
    assert diagnostics["rho_max"] == (
        float(scores.max() * rotated.shape[0] / plan.d_eff)
        if rule is StepRule.ANALYTIC else None)


@KINDS
@pytest.mark.parametrize("rule", [StepRule.ARMIJO, StepRule.FIXED],
                         ids=lambda r: r.value)
def test_only_the_analytic_step_computes_rho_max(kind, rule, monkeypatch):
    hs = hessian_sqrt(objective_eval(P, np.zeros(D)))
    d_eff = exact_leverage_scores(hs, P.lam * np.eye(D)).sum()
    whitenings = _count_calls(monkeypatch, whitened_norms)
    build_plan(kind, hs, P.lam * np.eye(D))
    # build_plan whitens A by H's factor only for the kinds that sample by
    # the exact scores, and the approximate-leverage plans by their
    # sketched Gram's; the Hadamard and SJLT plans whiten nothing
    approximate = kind in (PlanKind.APPROX_LEVERAGE,
                           PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE)
    by_plan = len(whitenings)
    assert by_plan == (kind in BY_EXACT) + approximate
    factors = _count_calls(monkeypatch, approximation_factors)
    _, diagnostics = _one_ssn_step(kind, rule)
    # the step builds the plan again, and its scalar debias reads d_eff:
    # every sampling plan whitens A by H's factor once for that
    assert len(whitenings) - by_plan == kind.has_probs + approximate
    assert factors == []
    assert diagnostics["rho_max"] is None
    # exact for every plan, the approximate-leverage ones included
    assert diagnostics["d_eff"] == pytest.approx(d_eff, rel=1e-12, abs=0)


def _count_numpy_calls(monkeypatch, name) -> list:
    """Count calls to ``numpy.linalg.<name>``; returns the list that grows
    by one per call."""
    calls, fn = [], getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@KINDS
def test_no_plan_step_or_bias_estimate_takes_an_eigendecomposition(
        kind, monkeypatch):
    eigh = _count_numpy_calls(monkeypatch, "eigh")
    eigvalsh = _count_numpy_calls(monkeypatch, "eigvalsh")
    plan = build_plan(kind, A, C)
    _one_ssn_step(kind)
    assert (len(eigh), len(eigvalsh)) == (0, 0)
    # three jackknife groups, so three leave-one-group-out thetas
    est = estimate_bias(plan, DebiasSpec.scalar(M, plan.d_eff), M,
                        trials=2 * JACKKNIFE_BATCH + 1, seed=2)
    assert est.discarded < JACKKNIFE_BATCH
    # one eigvalsh of the whitened grand mean gives bias and eps_def5
    assert (len(eigh), len(eigvalsh)) == (0, 1 + 3)


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
    # the plan takes its Gram, and refuses, on the first read of d_eff
    plan = build_plan(PlanKind.SRHT, A_, C_)
    with pytest.raises(NotPositiveDefinite) as from_plan:
        plan.d_eff
    assert from_plan.value.pivot_index == from_scores.value.pivot_index
    assert from_plan.value.pivot_index is not None


@pytest.mark.parametrize("mode", [DebiasMode.FINE_GRAINED_EXACT,
                                  DebiasMode.FINE_GRAINED_APPROX])
def test_srht_plan_refuses_fine_grained_debias(mode):
    plan = build_plan(PlanKind.SRHT, A, C)
    with pytest.raises(ValueError, match="only supports scalar"):
        make_debias_spec(mode, plan, M)


def test_sjlt_step_refuses_the_analytic_rule_by_the_plans_name():
    with pytest.raises(ValueError) as refused:
        _one_ssn_step(PlanKind.SJLT, StepRule.ANALYTIC)
    assert type(refused.value) is ValueError
    assert str(refused.value).startswith("the sjlt plan has no rho_max")


def test_sjlt_analytic_method_is_refused_when_built(monkeypatch):
    # the refusal depends on the method alone: no Gram and no SJLT pass
    # over the factor come before it
    grams = _count_calls(monkeypatch, gram)
    passes = _count_calls(monkeypatch, _sjlt_apply)
    with pytest.raises(ValueError, match="^the sjlt plan has no rho_max"):
        SsnMethod(plan_kind=PlanKind.SJLT, m=M, step_rule=StepRule.ANALYTIC)
    with pytest.raises(ValueError, match="^the sjlt plan has no rho_max"):
        _one_ssn_step(PlanKind.SJLT, StepRule.ANALYTIC)
    assert (grams, passes) == ([], [])


def test_sjlt_plan_takes_d_eff_from_the_gram_on_first_read(monkeypatch):
    grams = _count_calls(monkeypatch, gram)
    plan = build_plan(PlanKind.SJLT, A, C)
    assert grams == []
    assert plan.d_eff == build_plan(PlanKind.SRHT, A, C).d_eff
    # one Gram for each plan, and none for the SJLT plan's second read
    plan.d_eff
    assert len(grams) == 2


def test_sjlt_sketcher_refuses_an_empty_sketch_and_row_weights():
    plan = build_plan(PlanKind.SJLT, A, C)
    with pytest.raises(SketchTooSmall, match="m=0 must be at least 1"):
        plan.sketcher(0, DebiasSpec.none())
    # a spec built for a sampling plan must not reach the SJLT sketch,
    # whose rows mix every row of A
    exact = build_plan(PlanKind.EXACT_LEVERAGE, A, C)
    spec = make_debias_spec(DebiasMode.FINE_GRAINED_EXACT, exact, M_FINE)
    with pytest.raises(ValueError, match="only supports scalar"):
        plan.sketcher(M_FINE, spec)


@pytest.mark.parametrize("kind", [PlanKind.SJLT, PlanKind.SRHT,
                                  PlanKind.UNIFORM, PlanKind.ROW_NORM],
                         ids=lambda k: k.value)
def test_sjlt_step_without_debias_takes_no_gram_of_n_rows(kind, monkeypatch):
    # the step that replaced the sparse projection method, the SRHT step,
    # and the uniform and row-norm steps: their plan's d_eff and exact
    # scores are read by scalar debias and the analytic rule alone, so the
    # one Gram they take is the sketch's
    rows = []

    def recording(X):
        rows.append(X.shape[0])
        return gram(X)

    _replace(monkeypatch, gram, recording)
    beta = np.zeros(D)
    method = SsnMethod(plan_kind=kind, m=M, debias=DebiasMode.NONE,
                       step_rule=StepRule.ARMIJO)
    _, diagnostics = ssn_step(P, beta, objective_eval(P, beta), method,
                              seed=5)
    assert rows == [M]
    assert diagnostics["d_eff"] is None


@pytest.mark.parametrize("rule", [StepRule.ARMIJO, StepRule.FIXED],
                         ids=lambda r: r.value)
@pytest.mark.parametrize("mode, kind", [
    (mode, kind) for mode in (DebiasMode.NONE, *FINE) for kind in PlanKind
    if (kind, mode) not in REFUSED], ids=lambda x: x.value)
def test_only_scalar_debias_and_the_analytic_step_read_d_eff(mode, kind,
                                                             rule):
    beta = np.zeros(D)
    method = SsnMethod(plan_kind=kind, m=M_FINE, debias=mode, step_rule=rule)
    _, diagnostics = ssn_step(P, beta, objective_eval(P, beta), method,
                              seed=5)
    assert diagnostics["d_eff"] is None
