"""Objectives and solvers: exact Newton and sketched Newton with bias
correction, two Newton-type steps through one update.  The sketched
Newton step takes every plan kind, the sampling plans, the SRHT and the
sparse (SJLT) projection, through the plan protocol of
:mod:`randskew.sampling` alone.

The objectives expose their Hessian as one PlanHessian of a square-root
factor A(beta), a row-scaled view of the data, and lambda I: a logistic
point's own, a least-squares problem's one for its whole run.  Exact
Newton, the reference and every sketched step read the factor in row
blocks or gathered rows, so no step forms an n x d array, and each solves
by one PlanHessian's factor L: the objective's or its sketch's.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import rng as rsrng
from .debias import DebiasMode, check_debias, make_debias_spec
from .errors import NoConvergence
from .linalg import RowScaled
from .sampling import (PlanHessian, PlanKind, build_plan, check_mix,
                       check_sketch_size)
from .data import require_binary_labels

ARMIJO_C1 = 1e-4
ARMIJO_RATIO = 0.5
ARMIJO_MAX_HALVINGS = 40
REFERENCE_GRAD_TOL = 1e-12
# a run with grad_tol also stops at its rounding floor: once its gradient
# norm has set no new minimum for STALL_ITERS iterations and half the Newton
# decrement g^T H^-1 g is at most STALL_EPS_FACTOR * eps * |f|, the stopping
# rule of Boyd & Vandenberghe 2004 (Convex Optimization, section 9.5).  A
# new minimum must fall below the least norm by the fraction STALL_FALL, so
# a norm that creeps down by rounding still counts as stalled.
STALL_ITERS = 5
STALL_EPS_FACTOR = 1.0
STALL_FALL = 1e-3


def check_lambda(lam: float) -> float:
    """``lam`` if it is a finite ridge weight >= 0; else ValueError."""
    if not 0.0 <= lam < math.inf:  # NaN fails both comparisons
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    return lam


class ProblemKind(enum.Enum):
    LOGISTIC = "logistic"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class GlmProblem:
    """A regularized loss.  A is kept by reference, as a PlanHessian keeps
    it, so it must not be written after the first :func:`objective_eval`."""
    A: np.ndarray
    y: np.ndarray
    lam: float
    kind: ProblemKind

    def __post_init__(self):
        check_lambda(self.lam)
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

    @cached_property
    def constant_hessian(self) -> PlanHessian:
        """The least-squares Hessian, of A over sqrt(n) and lambda I, which
        does not depend on beta: one per problem, so one Gram."""
        factor = RowScaled(self.A, np.divide, np.sqrt(self.A.shape[0]))
        return PlanHessian(factor, self.lam * np.eye(self.dim))


@dataclass(frozen=True)
class Objective:
    """Value, gradient and Hessian at one point: the PlanHessian of a
    factor, a :class:`~randskew.linalg.RowScaled` view never formed, and
    lambda I.  The factor is A times the column sqrt(w / n) for logistic
    loss, new at each point, and A over sqrt(n) for least squares, whose
    hessian is the problem's one :attr:`GlmProblem.constant_hessian`."""
    value: float
    gradient: np.ndarray
    hessian: PlanHessian


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
    """Value, gradient, and Hessian at beta.

    The loss is the mean over samples plus (lambda/2) ||beta||^2, so the
    Hessian is factor^T factor + lambda I.  Overflow-safe at extreme
    margins.  Makes no n x d array, and forms no Gram: the
    :class:`Objective`'s hessian forms its own on first read.
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
        scale = np.sqrt(sig_neg * (1.0 - sig_neg) / n)[:, None]
        return Objective(value, gradient, PlanHessian(
            RowScaled(A, np.multiply, scale), lam * np.eye(p.dim)))
    gradient = (A.T @ r) / n + lam * beta
    return Objective(value, gradient, p.constant_hessian)


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


def _newton_update(p: GlmProblem, beta, obj: Objective, hessian: PlanHessian,
                   armijo: bool, mu: float) -> tuple[np.ndarray, float]:
    """Step along -H^{-1} g, solved by ``hessian``'s one factor L, by
    Armijo or by ``mu``: exact Newton passes ``obj.hessian``, the sketched
    methods the PlanHessian of a sketch of its factor and its C.  Returns
    the next iterate and the step size taken."""
    direction = hessian.solve(obj.gradient)
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


@dataclass(frozen=True)
class ReferencePoint:
    """A reference iterate and the Hessian that errors are measured in."""
    beta: np.ndarray
    hessian: np.ndarray

    def sq_error(self, beta: np.ndarray) -> float:
        """(beta - beta*)^T H (beta - beta*): squared error in the H-norm."""
        delta = beta - self.beta
        return float(delta @ self.hessian @ delta)


@dataclass
class RunTrace:
    records: list[IterationRecord] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)  # per record

    @property
    def beta(self) -> np.ndarray:
        """The last iterate."""
        return self.iterates[-1]

    def scored(self, reference: ReferencePoint) -> RunTrace:
        """This trace with each ``rel_error_H`` set to
        ``reference.sq_error`` of its iterate relative to the first
        iterate's: 0.0 when that base is 0.  Overflow stays silent, as
        in :func:`run_solver`."""
        with np.errstate(over="ignore", invalid="ignore"):
            errors = [reference.sq_error(beta) for beta in self.iterates]
        base = errors[0]
        return RunTrace([replace(
            rec, rel_error_H=err / base if base > 0 else 0.0)
            for rec, err in zip(self.records, errors)], self.iterates)


def reference_point(p: GlmProblem, beta: np.ndarray) -> ReferencePoint:
    """The reference at ``beta``; build it once to share it across runs."""
    beta = np.asarray(beta, dtype=np.float64)
    return ReferencePoint(beta, objective_eval(p, beta).hessian.H)


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
    the diagnostics ``step_size``, ``d_eff`` and ``rho_max``.  ``rho_max``
    is None unless the step rule is analytic, the one rule that reads it,
    and ``d_eff`` is None unless the step rule is analytic or the debias
    mode scalar, the two readers of it: ``obj.hessian.d_eff``, the plan's
    hessian's trace(H^-1 G), computed only then, from the d x d Gram.  So
    an armijo or fixed step takes no exact-score pass unless its plan
    samples by the exact scores.

    Every plan kind takes one route: :func:`~randskew.sampling.build_plan`
    on ``obj.hessian``, then the plan's one-seed ``sketcher`` draw, or
    under the analytic rule its ``analytic_sketch``, which also gives
    rho_max; the direction solves by that sketch's PlanHessian's L.  A
    least-squares hessian keeps its Gram, factor and scores across steps.
    No step forms the factor: a sampling plan reads it in row blocks and
    gathers its m rows from the data, the SJLT reads it in row blocks, and
    the SRHT signs it into a padded buffer that the analytic sketch
    rotates once and scores, while a one-seed draw rotates one residue
    class of the rows at a time and holds no rotation.
    """
    sketch_seed = rsrng.split(seed, 2)
    analytic = method.step_rule is StepRule.ANALYTIC
    plan = build_plan(method.plan_kind, obj.hessian, mix=method.mix,
                      m1=method.m1, m2=method.m2, seed=rsrng.split(seed, 1))
    spec = make_debias_spec(method.debias, plan, method.m)  # before d_eff
    d_eff = (obj.hessian.d_eff
             if analytic or method.debias is DebiasMode.SCALAR else None)
    rho_max, mu = None, method.fixed_step
    if analytic:
        At, rho_max = plan.analytic_sketch(method.m, spec, sketch_seed)
        mu = analytic_step_size(method.m, d_eff, rho_max)
    else:
        At = plan.sketcher(method.m, spec)([sketch_seed])[0]
    beta_next, mu = _newton_update(p, beta, obj,
                                   PlanHessian(At, obj.hessian.C),
                                   method.step_rule is StepRule.ARMIJO, mu)
    return beta_next, {"step_size": mu, "d_eff": d_eff, "rho_max": rho_max}


# Each method's update(p, beta, obj, seed, t) returns the next iterate and
# the step size, given obj = objective_eval(p, beta) and iteration t.

@dataclass(frozen=True)
class NewtonExactMethod:
    line_search: bool = True

    def update(self, p, beta, obj, seed, t):
        return _newton_update(p, beta, obj, obj.hessian, self.line_search,
                              1.0)


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

    def __post_init__(self):
        # refused here, before any n-row work or a forked reference solve
        if (self.plan_kind is PlanKind.SJLT
                and self.step_rule is StepRule.ANALYTIC):
            raise ValueError("the sjlt plan has no rho_max: the paper gives "
                             "no approximation factor for the SJLT, so the "
                             "analytic step rule does not apply")
        check_sketch_size(self.m)
        check_mix(self.plan_kind, self.mix)
        check_debias(self.debias, self.plan_kind)

    def update(self, p, beta, obj, seed, t):
        beta_next, diagnostics = ssn_step(p, beta, obj, self,
                                          rsrng.split(seed, 4, t))
        return beta_next, diagnostics["step_size"]


def check_iters(iters: int) -> int:
    """``iters`` if it is at least 0; else ValueError."""
    if iters < 0:
        raise ValueError(f"iters must be at least 0, got {iters}")
    return iters


def _at_rounding_floor(obj: Objective) -> bool:
    """Whether lambda^2 / 2 <= STALL_EPS_FACTOR * eps * |f| for the Newton
    decrement lambda^2 = g^T H^-1 g, solved by ``obj.hessian``'s factor:
    then a Newton step lowers f by no more than rounding."""
    decrement = float(obj.gradient @ obj.hessian.solve(obj.gradient))
    return (decrement / 2.0
            <= STALL_EPS_FACTOR * np.finfo(float).eps * abs(obj.value))


def run_solver(p: GlmProblem, method, beta0, iters: int, seed: int = 0,
               grad_tol: float = 0.0) -> RunTrace:
    """Iterate ``method.update``, recording per-iteration iterate,
    gradient and time; stops early once the gradient norm falls below
    grad_tol.

    ``rel_error_H`` is NaN until the caller scores the trace by a
    reference (:meth:`RunTrace.scored`).

    With grad_tol set, a step that leaves beta bitwise unchanged also ends
    the run after its record: for a method whose update depends on beta
    alone, every later step would repeat it.  So does an iterate at the
    rounding floor (:func:`_at_rounding_floor`) once the gradient norm has
    set no new minimum, one below the least norm by the fraction
    ``STALL_FALL``, for ``STALL_ITERS`` iterations: where the norm floors
    just above grad_tol, or creeps down by rounding, no later step would
    cross it.

    Raises :class:`NoConvergence` when the objective or its gradient
    stops being finite (so numpy's overflow warnings are silenced), and
    ``ValueError`` when ``iters`` is negative (:func:`check_iters`).
    """
    check_iters(iters)
    beta = np.asarray(beta0, dtype=np.float64).copy()
    trace = RunTrace()
    best, stalled = math.inf, 0   # least gradient norm, iterations since
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(iters + 1):
            t_start = time.perf_counter_ns()
            obj = objective_eval(p, beta)
            grad_norm = float(np.linalg.norm(obj.gradient))
            if not (math.isfinite(obj.value) and math.isfinite(grad_norm)):
                raise NoConvergence(
                    f"iterate {t} is not finite: objective {obj.value}, "
                    f"gradient norm {grad_norm}", iterations=t)
            trace.iterates.append(beta)
            best, stalled = ((grad_norm, 0)
                             if grad_norm < (1.0 - STALL_FALL) * best
                             else (best, stalled + 1))
            if (t == iters or grad_norm < grad_tol
                    or (grad_tol > 0 and stalled >= STALL_ITERS
                        and _at_rounding_floor(obj))):
                trace.records.append(IterationRecord(
                    t, math.nan, grad_norm, 0.0, 0))
                break
            beta_next, step = method.update(p, beta, obj, seed, t)
            trace.records.append(IterationRecord(
                t, math.nan, grad_norm, step,
                time.perf_counter_ns() - t_start))
            if grad_tol > 0 and beta_next.tobytes() == beta.tobytes():
                break
            beta = beta_next
    return trace


def reference_solution(p: GlmProblem) -> tuple[np.ndarray, float]:
    """Run exact Newton to near-stationarity; returns (beta*, grad norm)."""
    trace = run_solver(p, NewtonExactMethod(), np.zeros(p.dim), iters=200,
                       grad_tol=REFERENCE_GRAD_TOL)
    return trace.beta, trace.records[-1].grad_norm
