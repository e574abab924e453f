"""Objectives and solvers: exact Newton, sketched Newton with bias
correction, first-order baselines, and a sparse random-projection baseline.

The regularized objectives expose their Hessian through a square-root
factor A(beta) with hessian = A(beta)^T A(beta) + lambda I, which is what
the row-sampling machinery consumes.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rsrng
from .debias import DebiasMode, make_debias_spec
from .errors import NoConvergence, SketchTooSmall
from .linalg import gram, solve_spd
from .sampling import PlanKind, build_plan, exact_leverage_scores
from .data import require_binary_labels

ARMIJO_C1 = 1e-4
ARMIJO_RATIO = 0.5
ARMIJO_MAX_HALVINGS = 40
REFERENCE_GRAD_TOL = 1e-12


class ProblemKind(enum.Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class GlmProblem:
    A: np.ndarray
    y: np.ndarray
    lam: float
    kind: ProblemKind

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        A = np.asarray(self.A, dtype=np.float64)
        if A.shape[0] < 1:
            raise ValueError("A must have at least one row")
        y = np.asarray(self.y, dtype=np.float64)
        if self.kind is ProblemKind.LOGISTIC:
            y = require_binary_labels(y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Objective:
    value: float
    gradient: np.ndarray
    hessian_sqrt: np.ndarray  # n x d factor of the data term of the Hessian


def _value(p: GlmProblem, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """The objective at beta and its margins y*(A beta) or residual."""
    if p.kind is ProblemKind.LOGISTIC:
        z = p.y * (p.A @ beta)
        return float(np.mean(np.logaddexp(0.0, -z))
                     + 0.5 * p.lam * beta @ beta), z
    r = p.A @ beta - p.y
    return float(0.5 * (r @ r) / p.A.shape[0] + 0.5 * p.lam * beta @ beta), r


def objective_value(p: GlmProblem, beta: np.ndarray) -> float:
    """``objective_eval(p, beta).value``, bitwise, computed alone."""
    return _value(p, np.asarray(beta, dtype=np.float64))[0]


def objective_eval(p: GlmProblem, beta: np.ndarray) -> Objective:
    """Value, gradient, and Hessian square-root factor at beta.

    The loss is the mean over samples plus (lambda/2) ||beta||^2, so the
    Hessian is gram(hessian_sqrt) + lambda I.  Overflow-safe at extreme
    margins.
    """
    A, y, lam = p.A, p.y, p.lam
    n = A.shape[0]
    beta = np.asarray(beta, dtype=np.float64)
    value, r = _value(p, beta)
    if p.kind is ProblemKind.LOGISTIC:
        sig_neg = 1.0 / (1.0 + np.exp(np.minimum(r, 50.0)))
        tail = r > 50.0  # exp(-r) only there: it overflows for r < -709
        sig_neg[tail] = np.exp(-r[tail])
        gradient = -(A.T @ (y * sig_neg)) / n + lam * beta
        w = sig_neg * (1.0 - sig_neg)
        hessian_sqrt = A * np.sqrt(w / n)[:, None]
        return Objective(value, gradient, hessian_sqrt)
    gradient = (A.T @ r) / n + lam * beta
    return Objective(value, gradient, A / np.sqrt(n))


def _armijo(p: GlmProblem, beta, value, gradient, direction) -> float:
    """Backtracking step size satisfying the sufficient-decrease condition."""
    slope = float(gradient @ direction)
    mu = 1.0
    for _ in range(ARMIJO_MAX_HALVINGS):
        cand = objective_value(p, beta - mu * direction)
        if cand <= value - ARMIJO_C1 * mu * slope:
            return mu
        mu *= ARMIJO_RATIO
    return mu


def _newton_update(p: GlmProblem, beta, obj: Objective, At: np.ndarray,
                   armijo: bool, mu: float) -> tuple[np.ndarray, float]:
    """Step along -(gram(At) + lambda I)^{-1} g, by Armijo or by ``mu``.

    Exact Newton is At = obj.hessian_sqrt; the sketched methods pass a
    sketch of it.  Returns the next iterate and the step size taken.
    """
    direction = solve_spd(gram(At) + p.lam * np.eye(p.dim), obj.gradient)
    if armijo:
        mu = _armijo(p, beta, obj.value, obj.gradient, direction)
    return beta - mu * direction, mu


@dataclass(frozen=True)
class IterationRecord:
    t: int
    rel_error_H: float
    grad_norm: float
    step_size: float
    wall_ns: int


@dataclass
class RunTrace:
    records: list[IterationRecord] = field(default_factory=list)
    beta: np.ndarray | None = None


@dataclass(frozen=True)
class ReferencePoint:
    """A reference iterate and the Hessian that errors are measured in."""
    beta: np.ndarray
    hessian: np.ndarray

    def sq_error(self, beta: np.ndarray) -> float:
        """(beta - beta*)^T H (beta - beta*): squared error in the H-norm."""
        delta = beta - self.beta
        return float(delta @ self.hessian @ delta)


def reference_point(p: GlmProblem, beta: np.ndarray) -> ReferencePoint:
    """The reference at ``beta``; build it once to share it across runs."""
    beta = np.asarray(beta, dtype=np.float64)
    hs = objective_eval(p, beta).hessian_sqrt
    return ReferencePoint(beta, gram(hs) + p.lam * np.eye(p.dim))


class StepRule(enum.Enum):
    ANALYTIC = "analytic"
    ARMIJO = "armijo"
    FIXED = "fixed"


def analytic_step_size(m: int, d_eff: float, rho_max: float) -> float:
    return 1.0 - rho_max / (m / d_eff + rho_max)


def ssn_step(p: GlmProblem, beta, obj: Objective, method: SsnMethod,
             seed: int) -> tuple[np.ndarray, dict]:
    """One sketched Newton step with a fresh sketch of the current Hessian.

    ``obj`` is ``objective_eval(p, beta)``.  Returns the next iterate and
    the diagnostics ``step_size``, ``d_eff`` and ``rho_max``; ``rho_max``
    is None unless the step rule is analytic, the one rule that reads it.
    Exact scores are computed only if the plan keeps none and they are
    read: by fine_exact debias, or for the exact d_eff of an approximate
    plan.
    """
    hs = obj.hessian_sqrt
    C = p.lam * np.eye(p.dim)
    plan = build_plan(method.plan_kind, hs, C, mix=method.mix, m1=method.m1,
                      m2=method.m2, seed=rsrng.split(seed, 1))
    exact = plan.exact
    if exact is None and (plan.scores is not None or method.debias
                          is DebiasMode.FINE_GRAINED_EXACT):
        exact = exact_leverage_scores(hs, C)
    d_eff = plan.d_eff if exact is None else float(exact.sum())
    spec = make_debias_spec(method.debias, plan, method.m, d_eff, exact)
    At, rotated = plan.sketch(hs, method.m, spec, rsrng.split(seed, 2))
    rho_max, mu = None, method.fixed_step
    if method.step_rule is StepRule.ANALYTIC:
        rho_max = plan.rho_max(hs, C, exact, rotated)
        mu = analytic_step_size(method.m, d_eff, rho_max)
    beta_next, mu = _newton_update(p, beta, obj, At,
                                   method.step_rule is StepRule.ARMIJO, mu)
    return beta_next, {"step_size": mu, "d_eff": d_eff, "rho_max": rho_max}


def sparse_rademacher_sketch(A: np.ndarray, m: int, nnz_per_row: int,
                             seed: int) -> np.ndarray:
    """m-row sparse sign sketch; E[sketch^T sketch] = A^T A.

    Each sketch row combines ``nnz_per_row`` distinct uniformly chosen rows
    of A with independent signs, scaled by sqrt(n / (m * nnz)).
    """
    if m < 1:
        raise SketchTooSmall(f"sketch size m={m} must be at least 1")
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if not 1 <= nnz_per_row <= n:
        raise ValueError("nnz_per_row must lie in [1, rows(A)]")
    gen = rsrng.generator(seed)
    cols = np.argsort(gen.random((m, n)), axis=1)[:, :nnz_per_row]
    signs = gen.integers(0, 2, size=(m, nnz_per_row)) * 2.0 - 1.0
    scale = np.sqrt(n / (m * nnz_per_row))
    out = np.einsum("mk,mkd->md", signs, A[cols]) * scale
    return out


# Each method's update(p, beta, obj, seed, t) returns the next iterate and
# the step size, given obj = objective_eval(p, beta) and iteration t.

@dataclass(frozen=True)
class GdMethod:
    lr: float

    def update(self, p, beta, obj, seed, t):
        return beta - self.lr * obj.gradient, self.lr


@dataclass(frozen=True)
class SgdMethod:
    """Mini-batches without replacement, reshuffled each epoch; the
    n mod batch rows left over in an epoch are skipped."""
    lr: float
    batch: int

    def update(self, p, beta, obj, seed, t):
        n = p.A.shape[0]
        per_epoch = max(n // self.batch, 1)
        perm = rsrng.generator(seed, 3, t // per_epoch).permutation(n)
        offset = (t % per_epoch) * self.batch
        idx = perm[offset:offset + self.batch]
        sub = GlmProblem(p.A[idx], p.y[idx], p.lam, p.kind)
        return beta - self.lr * objective_eval(sub, beta).gradient, self.lr


@dataclass(frozen=True)
class NewtonExactMethod:
    line_search: bool = True

    def update(self, p, beta, obj, seed, t):
        return _newton_update(p, beta, obj, obj.hessian_sqrt,
                              self.line_search, 1.0)


@dataclass(frozen=True)
class SsnMethod:
    plan_kind: PlanKind
    m: int
    debias: DebiasMode = DebiasMode.SCALAR
    step_rule: StepRule = StepRule.ANALYTIC
    fixed_step: float = 1.0
    mix: float = 0.5                # shrinkage plans
    m1: int | None = None           # approximate-leverage sketch width
    m2: int | None = None

    def update(self, p, beta, obj, seed, t):
        beta_next, diagnostics = ssn_step(p, beta, obj, self,
                                          rsrng.split(seed, 4, t))
        return beta_next, diagnostics["step_size"]


@dataclass(frozen=True)
class SparseProjMethod:
    m: int
    nnz_per_row: int = 4

    def update(self, p, beta, obj, seed, t):
        At = sparse_rademacher_sketch(obj.hessian_sqrt, self.m,
                                      self.nnz_per_row,
                                      rsrng.split(seed, 5, t))
        return _newton_update(p, beta, obj, At, True, 1.0)


def run_solver(p: GlmProblem, method, beta0, iters: int,
               reference: ReferencePoint | None = None,
               seed: int = 0, grad_tol: float = 0.0) -> RunTrace:
    """Iterate ``method.update``, recording per-iteration error, gradient
    and time; stops early once the gradient norm falls below grad_tol.

    The recorded error is ``reference.sq_error`` relative to its value at
    ``beta0``: 0.0 when that base is 0, NaN without a reference.

    With grad_tol set, a step that leaves beta bitwise unchanged also ends
    the run after its record: for a method whose update depends on beta
    alone, every later step would repeat it.

    Raises :class:`NoConvergence` when the objective or its gradient
    stops being finite (so numpy's overflow warnings are silenced), and
    ``ValueError`` when ``iters`` is negative.
    """
    if iters < 0:
        raise ValueError(f"iters must be at least 0, got {iters}")
    beta = np.asarray(beta0, dtype=np.float64).copy()
    base = None if reference is None else reference.sq_error(beta)

    def rel_error(beta):
        if base is None:
            return float("nan")
        return reference.sq_error(beta) / base if base > 0 else 0.0

    trace = RunTrace()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(iters + 1):
            t_start = time.perf_counter_ns()
            obj = objective_eval(p, beta)
            grad_norm = float(np.linalg.norm(obj.gradient))
            if not (math.isfinite(obj.value) and math.isfinite(grad_norm)):
                raise NoConvergence(
                    f"iterate {t} is not finite: objective {obj.value}, "
                    f"gradient norm {grad_norm}", iterations=t)
            if t == iters or grad_norm < grad_tol:
                trace.records.append(IterationRecord(
                    t, rel_error(beta), grad_norm, 0.0, 0))
                break
            beta_next, step = method.update(p, beta, obj, seed, t)
            trace.records.append(IterationRecord(
                t, rel_error(beta), grad_norm, step,
                time.perf_counter_ns() - t_start))
            if grad_tol > 0 and beta_next.tobytes() == beta.tobytes():
                break
            beta = beta_next
    trace.beta = beta
    return trace


def reference_solution(p: GlmProblem) -> tuple[np.ndarray, float]:
    """Run exact Newton to near-stationarity; returns (beta*, grad norm)."""
    trace = run_solver(p, NewtonExactMethod(), np.zeros(p.dim), iters=200,
                       grad_tol=REFERENCE_GRAD_TOL)
    return trace.beta, trace.records[-1].grad_norm
