import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randskew import optim
from randskew import rng as rsrng
from randskew.data import (SyntheticKind, SyntheticSpec, synthetic_labels,
                           synthetic_matrix)
from randskew.debias import DebiasMode
from randskew.errors import LabelDomainError, NoConvergence
from randskew.hadamard import next_power_of_two
from randskew.linalg import gram
from randskew.optim import (STALL_ITERS, GlmProblem, NewtonExactMethod,
                            Objective, ProblemKind, SsnMethod, StepRule,
                            objective_eval, objective_value, reference_point,
                            reference_solution, run_solver, ssn_step,
                            analytic_step_size)
from randskew.sampling import PlanHessian, PlanKind, _sjlt_apply

from oracles import hessian_sqrt


def make_logistic(n=64, d=6, lam=0.1, seed=0):
    spec = SyntheticSpec(SyntheticKind.GAUSSIAN_IID, n, d, seed=seed)
    A = synthetic_matrix(spec)
    y = synthetic_labels(A, seed)
    return GlmProblem(A, y, lam, ProblemKind.LOGISTIC)


def make_least_squares(n=256, d=8, lam=1e-2, seed=1):
    spec = SyntheticSpec(SyntheticKind.GAUSSIAN_IID, n, d, seed=seed)
    A = synthetic_matrix(spec)
    gen = rsrng.generator(seed, 20)
    y = A @ gen.standard_normal(d) + 0.1 * gen.standard_normal(n)
    return GlmProblem(A, y, lam, ProblemKind.LEAST_SQUARES)


def _peak_of(f):
    """``f()`` and the ``tracemalloc`` peak of that call, after a first
    call that warms imports and caches."""
    f()
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestObjectiveEval:
    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    def test_factor_view_is_the_eager_formula_bitwise(self, kind):
        # objective_eval makes n-vectors only (0.32 n d 8 bytes here); its
        # factor is a view whose rows, read in blocks, have the bits of
        # the eager formula
        n, d = 4096, 16
        make = (make_logistic if kind is ProblemKind.LOGISTIC
                else make_least_squares)
        p = make(n=n, d=d)
        beta = np.full(d, 0.05)
        obj, peak = _peak_of(lambda: objective_eval(p, beta))
        assert peak < n * d * 8
        if kind is ProblemKind.LOGISTIC:
            sig_neg = 1.0 / (1.0 + np.exp(p.y * (p.A @ beta)))
            want = p.A * np.sqrt(sig_neg * (1.0 - sig_neg) / n)[:, None]
        else:
            want = p.A / np.sqrt(n)
        factor = obj.hessian.A
        assert factor.shape == want.shape
        got = np.concatenate([b.copy() for _, b in factor.blocks(1000)])
        assert got.tobytes() == want.tobytes()
        assert hessian_sqrt(obj).tobytes() == want.tobytes()

    def test_logistic_at_zero(self):
        p = make_logistic()
        obj = objective_eval(p, np.zeros(p.dim))
        assert obj.value == pytest.approx(np.log(2.0))
        want_grad = -(p.A.T @ p.y) / (2 * p.A.shape[0])
        assert np.allclose(obj.gradient, want_grad)

    def test_least_squares_forms(self):
        p = make_least_squares()
        beta = np.ones(p.dim)
        obj = objective_eval(p, beta)
        n = p.A.shape[0]
        r = p.A @ beta - p.y
        assert obj.value == pytest.approx(
            0.5 * r @ r / n + 0.5 * p.lam * beta @ beta)
        assert np.allclose(gram(hessian_sqrt(obj)), gram(p.A) / n)

    def test_extreme_margins_stay_finite(self):
        A = np.array([[50.0], [-50.0]])
        y = np.array([1.0, 1.0])
        p = GlmProblem(A, y, 0.1, ProblemKind.LOGISTIC)
        obj = objective_eval(p, np.array([1.0]))
        assert np.isfinite(obj.value)
        assert np.all(np.isfinite(obj.gradient))
        assert np.all(np.isfinite(hessian_sqrt(obj)))

    def test_margins_below_minus_709_raise_no_overflow_warning(self):
        p = GlmProblem(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]), 0.1,
                       ProblemKind.LOGISTIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj = objective_eval(p, np.array([800.0]))  # margins 800, -1600
        assert np.isfinite(obj.value)
        assert np.all(np.isfinite(obj.gradient))
        assert np.all(np.isfinite(hessian_sqrt(obj)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(ProblemKind)), st.integers(1, 6),
           st.integers(0, 2**31), st.sampled_from([1e-3, 1.0, 100.0, 1e3]))
    def test_value_is_the_eval_value_bitwise(self, kind, d, seed, scale):
        # Armijo accepts a step by objective_value: the same bits as the
        # value the solver reads from objective_eval
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((16, d))
        y = (gen.choice([-1.0, 1.0], 16) if kind is ProblemKind.LOGISTIC
             else gen.standard_normal(16))
        p = GlmProblem(A, y, 0.1, kind)
        beta = scale * gen.standard_normal(d)
        assert objective_value(p, beta) == objective_eval(p, beta).value

    @settings(max_examples=60, deadline=None)
    @example([60.0, -800.0, 0.0])
    @given(st.lists(st.floats(-2000.0, 2000.0), min_size=1, max_size=8))
    def test_value_is_bitwise_at_extreme_margins(self, margins):
        # one column of margins and beta = 1, so z = y * (A beta) = margins
        p = GlmProblem(np.array(margins)[:, None], np.ones(len(margins)),
                       0.1, ProblemKind.LOGISTIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = objective_eval(p, np.ones(1)).value
        assert objective_value(p, np.ones(1)) == value

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            kind = (ProblemKind.LOGISTIC if trial % 2 == 0
                    else ProblemKind.LEAST_SQUARES)
            p = (make_logistic(seed=trial) if kind is ProblemKind.LOGISTIC
                 else make_least_squares(seed=trial))
            beta = rng.standard_normal(p.dim)
            obj = objective_eval(p, beta)
            h = 1e-5 * (1.0 + np.linalg.norm(beta))
            fd = np.empty(p.dim)
            for j in range(p.dim):
                e = np.zeros(p.dim)
                e[j] = h
                fd[j] = (objective_eval(p, beta + e).value
                         - objective_eval(p, beta - e).value) / (2 * h)
            denom = max(np.linalg.norm(obj.gradient), 1e-12)
            assert np.linalg.norm(fd - obj.gradient) / denom < 1e-5

    def test_hessian_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(3)
        p = make_logistic(seed=4)
        beta = 0.3 * rng.standard_normal(p.dim)
        obj = objective_eval(p, beta)
        H = gram(hessian_sqrt(obj)) + p.lam * np.eye(p.dim)
        h = 1e-6
        fd = np.empty((p.dim, p.dim))
        for j in range(p.dim):
            e = np.zeros(p.dim)
            e[j] = h
            fd[:, j] = (objective_eval(p, beta + e).gradient
                        - objective_eval(p, beta - e).gradient) / (2 * h)
        assert np.linalg.norm(fd - H) / np.linalg.norm(H) < 1e-4

    def test_bad_labels_rejected(self):
        with pytest.raises(LabelDomainError):
            GlmProblem(np.eye(2), np.array([0.0, 1.0]), 0.1,
                       ProblemKind.LOGISTIC)

    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    def test_data_without_rows_rejected(self, kind):
        with pytest.raises(ValueError, match="at least one row"):
            GlmProblem(np.zeros((0, 3)), np.zeros(0), 0.1, kind)


class TestNewtonExact:
    def test_quadratic_converges_in_one_step(self):
        p = make_least_squares()
        ref, _ = reference_solution(p)
        trace = run_solver(p, NewtonExactMethod(line_search=False),
                           np.zeros(p.dim), 1).scored(
                               reference_point(p, ref))
        assert trace.records[-1].rel_error_H < 1e-20

    def test_separable_two_points(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        p = GlmProblem(A, y, 0.1, ProblemKind.LOGISTIC)
        trace = run_solver(p, NewtonExactMethod(), np.zeros(2), 30,
                           grad_tol=1e-12)
        grad = objective_eval(p, trace.beta).gradient
        assert np.linalg.norm(grad) < 1e-12

    def test_stops_at_floating_point_fixed_point(self):
        # no gradient norm reaches 1e-300; the run ends once a step leaves
        # beta bitwise unchanged, where a full-length run ends too
        p = make_logistic()
        early = run_solver(p, NewtonExactMethod(), np.zeros(p.dim), 60,
                           grad_tol=1e-300)
        full = run_solver(p, NewtonExactMethod(), np.zeros(p.dim), 60)
        assert len(early.records) < len(full.records)
        np.testing.assert_array_equal(early.beta, full.beta)
        assert early.records[-1].grad_norm == full.records[-1].grad_norm

    def test_stationary_start_takes_zero_step(self):
        p = make_logistic()
        ref, _ = reference_solution(p)
        trace = run_solver(p, NewtonExactMethod(), ref, 3).scored(
            reference_point(p, ref))
        assert np.linalg.norm(trace.beta - ref) < 1e-10

    def test_objective_decreases_with_line_search(self):
        p = make_logistic(seed=6)
        beta = np.zeros(p.dim)
        values = [objective_eval(p, beta).value]
        trace = run_solver(p, NewtonExactMethod(), beta, 6)
        values.append(objective_eval(p, trace.beta).value)
        assert values[1] < values[0]

    def test_relative_error_starts_at_one(self):
        p = make_logistic()
        ref, _ = reference_solution(p)
        trace = run_solver(p, NewtonExactMethod(), np.zeros(p.dim),
                           2).scored(reference_point(p, ref))
        assert trace.records[0].rel_error_H == pytest.approx(1.0)


class _OneUnitStep:
    """A method that moves beta[0] from t to t + 1, so it names the
    iteration whose stubbed objective is evaluated there."""

    def update(self, p, beta, obj, seed, t):
        return beta + np.array([1.0, 0.0]), 1.0


class TestRoundingFloorStop:
    """A run with grad_tol stops where the gradient norm sets no new
    minimum for STALL_ITERS iterations and half the Newton decrement is at
    most eps |f|, on stubbed trajectories: norms[t] is the gradient norm at
    iteration t, f = 1 and H = I, so the decrement is norms[t] ** 2."""

    @staticmethod
    def _run(monkeypatch, norms, grad_tol=1e-12, iters=60):
        hessian = PlanHessian(np.zeros((1, 2)), np.eye(2))
        monkeypatch.setattr(optim, "objective_eval", lambda p, beta: Objective(
            1.0, np.array([norms[int(beta[0])], 0.0]), hessian))
        return run_solver(None, _OneUnitStep(), np.zeros(2), iters,
                          grad_tol=grad_tol)

    # a floor just above 1e-12, as at the reference of ssn-srht's seed
    # 9602000: its least norm at t = 4, none lower after it
    PLATEAU = [0.4, 1e-3, 1e-7, 5.5e-12, 2.2e-12] + [
        3e-12, 4e-12, 2.5e-12, 5e-12, 3.5e-12] * 20

    def test_plateau_at_the_rounding_floor_stops(self, monkeypatch):
        trace = self._run(monkeypatch, self.PLATEAU)
        assert [r.t for r in trace.records] == list(range(5 + STALL_ITERS))
        assert trace.records[-1].step_size == 0.0
        assert trace.beta[0] == 4 + STALL_ITERS

    def test_converging_run_keeps_its_gradient_stop(self, monkeypatch):
        trace = self._run(monkeypatch, [0.4, 1e-3, 1e-7, 1e-13, 1e-20])
        assert [r.grad_norm for r in trace.records] == [0.4, 1e-3, 1e-7,
                                                        1e-13]

    def test_plateau_above_the_floor_runs_on(self, monkeypatch):
        # a decrement of 1e-10 is far above eps |f|: the run goes on to
        # the norm that crosses grad_tol
        trace = self._run(monkeypatch, [0.4] + [1e-5] * 10 + [1e-13])
        assert len(trace.records) == 12

    def test_norm_creeping_down_at_the_floor_stops(self, monkeypatch):
        # as at the reference of coherent logistic data at seed 189: each
        # norm after t = 3 is a new least one, but by 1e-8 relative only,
        # so none counts as a fall
        creep = [0.4, 1e-3, 1e-7] + [3.1e-11 * (1.0 - 1e-8 * k)
                                     for k in range(100)]
        trace = self._run(monkeypatch, creep)
        assert [r.t for r in trace.records] == list(range(4 + STALL_ITERS))
        assert trace.records[-1].step_size == 0.0

    def test_run_without_grad_tol_takes_every_step(self, monkeypatch):
        trace = self._run(monkeypatch, self.PLATEAU, grad_tol=0.0, iters=30)
        assert len(trace.records) == 31


class TestSsnStep:
    def test_full_coverage_equals_exact_newton_step(self):
        p = make_logistic(seed=7)
        beta = 0.1 * np.ones(p.dim)
        # one undamped step of the Newton update SSN shares, unsketched
        nxt = run_solver(p, NewtonExactMethod(line_search=False), beta,
                         1).beta
        obj = objective_eval(p, beta)
        H = gram(hessian_sqrt(obj)) + p.lam * np.eye(p.dim)
        want = beta - np.linalg.solve(H, obj.gradient)
        assert np.abs(nxt - want).max() < 1e-10

    def test_monte_carlo_contraction(self):
        p = make_least_squares(n=512, d=4, lam=1e-2, seed=8)
        ref, _ = reference_solution(p)
        obj = objective_eval(p, ref)
        from randskew.sampling import build_plan, exact_leverage_scores
        C = p.lam * np.eye(p.dim)
        d_eff = float(exact_leverage_scores(hessian_sqrt(obj), C).sum())
        m = int(np.ceil(16 * d_eff))
        H = gram(hessian_sqrt(obj)) + C
        rng = np.random.default_rng(9)
        beta_t = ref + 0.5 * rng.standard_normal(p.dim)
        obj_t = objective_eval(p, beta_t)
        base = (beta_t - ref) @ H @ (beta_t - ref)
        method = SsnMethod(plan_kind=PlanKind.EXACT_LEVERAGE, m=m,
                           debias=DebiasMode.SCALAR,
                           step_rule=StepRule.ANALYTIC)
        T = 2000
        errs = np.empty(T)
        for t in range(T):
            nxt, _ = ssn_step(p, beta_t, obj_t, method, rsrng.split(5, t))
            errs[t] = (nxt - ref) @ H @ (nxt - ref)
        assert errs.mean() / base <= 1.3 * d_eff / m

    def test_debias_improves_contraction(self):
        p = make_least_squares(n=512, d=4, lam=1e-2, seed=8)
        ref, _ = reference_solution(p)
        obj = objective_eval(p, ref)
        from randskew.sampling import exact_leverage_scores
        C = p.lam * np.eye(p.dim)
        d_eff = float(exact_leverage_scores(hessian_sqrt(obj), C).sum())
        m = int(np.ceil(16 * d_eff))
        H = gram(hessian_sqrt(obj)) + C
        rng = np.random.default_rng(10)
        beta_t = ref + 0.5 * rng.standard_normal(p.dim)
        obj_t = objective_eval(p, beta_t)
        results = {}
        for mode in (DebiasMode.SCALAR, DebiasMode.NONE):
            method = SsnMethod(plan_kind=PlanKind.EXACT_LEVERAGE, m=m,
                               debias=mode, step_rule=StepRule.ANALYTIC)
            errs = np.empty(600)
            for t in range(600):
                nxt, _ = ssn_step(p, beta_t, obj_t, method,
                                  rsrng.split(6, t))
                errs[t] = (nxt - ref) @ H @ (nxt - ref)
            results[mode] = errs.mean()
        assert results[DebiasMode.SCALAR] < results[DebiasMode.NONE]

    def test_near_unbiasedness_of_debiased_step(self):
        p = make_least_squares(n=512, d=4, lam=1e-2, seed=8)
        ref, _ = reference_solution(p)
        rng = np.random.default_rng(11)
        beta_t = ref + 0.5 * rng.standard_normal(p.dim)
        obj = objective_eval(p, beta_t)
        C = p.lam * np.eye(p.dim)
        H = gram(hessian_sqrt(obj)) + C
        from randskew.sampling import exact_leverage_scores
        d_eff = float(exact_leverage_scores(hessian_sqrt(obj), C).sum())
        # large m keeps the second-order residual bias well under the
        # Monte-Carlo noise so the 3-sigma check is meaningful
        m = int(np.ceil(64 * d_eff))
        mu = analytic_step_size(m, d_eff, 1.0)
        target = beta_t - mu * np.linalg.solve(H, obj.gradient)
        method = SsnMethod(plan_kind=PlanKind.EXACT_LEVERAGE, m=m,
                           debias=DebiasMode.SCALAR,
                           step_rule=StepRule.ANALYTIC)
        T = 2000
        steps = np.empty((T, p.dim))
        for t in range(T):
            steps[t], _ = ssn_step(p, beta_t, obj, method, rsrng.split(7, t))
        mean_step = steps.mean(axis=0)
        dev = mean_step - target
        hnorm = np.sqrt(dev @ H @ dev)
        # per-coordinate stderr propagated through H, coarse bound
        stderr = np.sqrt(
            np.trace(np.cov(steps.T) @ H) / T)
        assert hnorm < 3.0 * stderr

    @pytest.mark.parametrize("n", [4096, 3000])
    def test_srht_update_holds_one_padded_buffer(self, n):
        # the analytic step, whose rho_max reads the whole rotation, writes
        # the signed factor straight into the rotation's buffer, so the
        # peak is that buffer, the transform's fixed 512 KiB scratch and
        # small arrays: 1.30 buffers here.  Forming the factor and then a
        # padded copy of it peaked at 2.29 (n = 4096) and 2.02 (n = 3000)
        # buffers.  At d = 16 the scratch alone is a buffer.  (The other
        # rules hold no rotation: 0.60 buffers.)
        d = 64
        p = make_logistic(n=n, d=d)
        beta = np.full(d, 0.01)
        method = SsnMethod(plan_kind=PlanKind.SRHT, m=256,
                           step_rule=StepRule.ANALYTIC)
        _, peak = _peak_of(lambda: method.update(
            p, beta, objective_eval(p, beta), 0, 0))
        assert peak < 1.5 * next_power_of_two(n) * d * 8


@pytest.mark.parametrize("rule", list(StepRule), ids=lambda r: r.value)
def test_ssn_update_is_the_step_at_its_iteration_seed(rule):
    p = make_logistic(n=128, seed=14)
    beta = 0.1 * np.ones(p.dim)
    obj = objective_eval(p, beta)
    method = SsnMethod(plan_kind=PlanKind.SHRINKAGE, m=48, step_rule=rule,
                       fixed_step=0.8)
    got, step = method.update(p, beta, obj, 9, 3)
    want, diagnostics = ssn_step(p, beta, obj, method, rsrng.split(9, 4, 3))
    assert got.tobytes() == want.tobytes()
    assert step == diagnostics["step_size"]


def test_armijo_returns_its_last_step_when_no_step_decreases(monkeypatch):
    # along an ascent direction the search halves ARMIJO_MAX_HALVINGS times
    # and returns the last step size, with no sign that it gave up
    from randskew import optim
    p = make_logistic()
    beta = np.zeros(p.dim)
    obj = objective_eval(p, beta)
    evaluations = []

    def counting(*args):
        evaluations.append(1)
        return objective_value(*args)

    monkeypatch.setattr(optim, "objective_value", counting)
    mu = optim._armijo(p, beta, obj.value, obj.gradient, -obj.gradient)
    assert (optim.ARMIJO_MAX_HALVINGS, optim.ARMIJO_RATIO) == (40, 0.5)
    assert mu == 0.5 ** 40
    assert len(evaluations) == 40


def test_analytic_step_size_formula():
    assert analytic_step_size(32, 4.0, 1.0) == pytest.approx(1 - 1 / 9)
    assert 0 < analytic_step_size(64, 4.0, 1.5) < 1


class TestSparseRademacherSketch:
    """The SJLT, whose columns carry s random signs, that the ``sjlt`` plan
    sketches with: E[(SA)^T SA] = A^T A."""

    def test_dense_limit_unbiasedness(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 3))
        T = 4000
        acc = np.zeros((3, 3))
        for t in range(T):
            S = _sjlt_apply(A, 16, rsrng.generator(rsrng.split(8, t)), 8)
            acc += gram(S)
        dev = np.abs(acc / T - gram(A)).max()
        assert dev < 0.15

    def test_monte_carlo_unbiasedness_sparse(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((32, 3))
        T = 10_000
        acc = np.zeros((3, 3))
        for t in range(T):
            acc += gram(_sjlt_apply(A, 64, rsrng.generator(rsrng.split(9, t)),
                                    4))
        G = gram(A)
        assert np.abs(acc / T - G).max() < 0.05 * np.abs(G).max()

    def test_determinism(self):
        A = np.eye(5)
        a = _sjlt_apply(A, 4, rsrng.generator(3), 2)
        b = _sjlt_apply(A, 4, rsrng.generator(3), 2)
        assert np.array_equal(a, b)


    def test_nnz_above_rows_runs(self):
        # s counts nonzeros per column of S, so it may exceed n or m
        A = make_least_squares(n=16, d=4).A
        S = _sjlt_apply(A, 8, rsrng.generator(0), 32)
        assert S.shape == (8, 4) and np.all(np.isfinite(S))


def sjlt_method(m):
    """The SSN setting of the SJLT sketch: Armijo steps, no debias."""
    return SsnMethod(plan_kind=PlanKind.SJLT, m=m, debias=DebiasMode.NONE,
                     step_rule=StepRule.ARMIJO)


class TestSjltSsnStep:
    def test_update_makes_no_m_by_n_temporary(self):
        # the SJLT draws n nnz rows and signs and makes an m x d product
        # (a peak near 1.8 n d 8 bytes); one m x n random matrix alone
        # would take 32 n d 8 bytes here
        n, d, m = 4096, 8, 256
        p = make_least_squares(n=n, d=d)
        beta = np.zeros(p.dim)
        obj = objective_eval(p, beta)
        method = sjlt_method(m)
        method.update(p, beta, obj, 0, 0)  # warm imports and caches
        tracemalloc.start()
        try:
            method.update(p, beta, obj, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * d * 8


class TestRunSolver:
    def test_newton_run_forms_no_factor(self):
        # every evaluation of a whole run and each exact Newton step read
        # the factor in row blocks: the peak is 0.71 n d 8 bytes here, and
        # an evaluation that formed the factor alone would take n d 8
        n, d = 4096, 16
        p = make_logistic(n=n, d=d)
        _, peak = _peak_of(lambda: run_solver(p, NewtonExactMethod(),
                                              np.zeros(d), 3))
        assert peak < n * d * 8

    def test_newton_exact_on_quadratic(self):
        p = make_least_squares()
        ref, _ = reference_solution(p)
        trace = run_solver(p, NewtonExactMethod(line_search=False),
                           np.zeros(p.dim), 2).scored(
                               reference_point(p, ref))
        assert trace.records[1].rel_error_H < 1e-20

    def test_ssn_desk_scale_convergence(self):
        spec = SyntheticSpec(SyntheticKind.GAUSSIAN_IID, 2048, 64, seed=21)
        A = synthetic_matrix(spec)
        y = synthetic_labels(A, 21)
        p = GlmProblem(A, y, 1e-2, ProblemKind.LOGISTIC)
        ref = reference_point(p, reference_solution(p)[0])
        finals = []
        for s in range(10):
            method = SsnMethod(plan_kind=PlanKind.APPROX_LEVERAGE, m=300,
                               debias=DebiasMode.SCALAR,
                               step_rule=StepRule.ARMIJO)
            trace = run_solver(p, method, np.zeros(p.dim), 10,
                               seed=s).scored(ref)
            errs = [r.rel_error_H for r in trace.records]
            assert all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))
            finals.append(errs[-1])
        # per-iteration squared-error contraction is about d_eff/m = 0.21
        # here, so ten iterations bottom out near 2e-7
        assert np.median(finals) < 1e-6

    def test_sjlt_solver_progresses(self):
        p = make_least_squares(n=256, d=8, seed=23)
        ref, _ = reference_solution(p)
        trace = run_solver(p, sjlt_method(64),
                           np.zeros(p.dim), 8, seed=2).scored(
                               reference_point(p, ref))
        assert trace.records[-1].rel_error_H < 0.05

    def test_non_finite_iterate_raises(self):
        # sketched Newton steps of fixed size 1e3 overflow to inf and then
        # NaN within the budget
        spec = SyntheticSpec(SyntheticKind.GAUSSIAN_IID, 100, 4, seed=25)
        A = synthetic_matrix(spec)
        p = GlmProblem(A, A @ np.ones(4), 1e-2, ProblemKind.LEAST_SQUARES)
        method = SsnMethod(plan_kind=PlanKind.UNIFORM, m=32,
                           debias=DebiasMode.NONE, step_rule=StepRule.FIXED,
                           fixed_step=1e3)
        with pytest.raises(NoConvergence) as info:
            run_solver(p, method, np.zeros(p.dim), 300)
        assert 0 < info.value.iterations < 300

    @pytest.mark.parametrize("method", [
        NewtonExactMethod(),
        SsnMethod(plan_kind=PlanKind.UNIFORM, m=48, debias=DebiasMode.SCALAR,
                  step_rule=StepRule.ARMIJO)], ids=["newton", "ssn"])
    def test_scored_trace_reads_ratios_of_h_norm_errors(self, method):
        p = make_logistic(seed=26)
        ref = reference_point(p, reference_solution(p)[0])
        bare = run_solver(p, method, np.zeros(p.dim), 4, seed=5)
        assert all(np.isnan(r.rel_error_H) for r in bare.records)
        scored = bare.scored(ref)
        assert scored.beta is bare.beta
        # each error is the ratio of H-norm errors of the t-step iterate
        base = ref.sq_error(np.zeros(p.dim))
        for rec in scored.records:
            beta_t = run_solver(p, method, np.zeros(p.dim), rec.t,
                                seed=5).beta
            assert rec.rel_error_H == ref.sq_error(beta_t) / base

    def test_scored_at_the_reference_start_reads_zero(self):
        p = make_logistic()
        ref = reference_point(p, reference_solution(p)[0])
        trace = run_solver(p, NewtonExactMethod(), ref.beta, 2).scored(ref)
        assert [r.rel_error_H for r in trace.records] == [0.0] * 3

    def test_srht_ssn_runs(self):
        p = make_least_squares(n=256, d=8, seed=24)
        ref = reference_point(p, reference_solution(p)[0])
        method = SsnMethod(plan_kind=PlanKind.SRHT, m=128,
                           debias=DebiasMode.SCALAR, step_rule=StepRule.ARMIJO)
        trace = run_solver(p, method, np.zeros(p.dim), 5,
                           seed=3).scored(ref)
        assert trace.records[-1].rel_error_H < 0.1
