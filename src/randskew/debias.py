"""Inversion-bias correction for row-sampling and Hadamard sketches.

Three correction modes: the scalar factor m/(m - d_eff); per-row
fine-grained weights sqrt(m / (m - l_i / pi_i)) (with exact or approximate
leverage scores); and the self-consistent diagonal D that characterizes
what the uncorrected sketched inverse actually estimates.  The bias lab
and the sketched Newton solver share :func:`make_debias_spec`.

This module alone turns a mode into sketch weights; a plan supplies only
its data (``d_eff``, the exact effective dimension, ``probs``, ``scores``,
``exact``, and ``A`` and ``C``).  A plan whose ``probs`` is None (the
Hadamard and SJLT plans) takes the scalar factor only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NoConvergence, NotPositiveDefinite, SketchTooSmall,
                     ZeroProbabilityWithPositiveScore)
from .linalg import inverse_quadratic_forms
from .sampling import (SamplingPlan, SketchDraw, PlanKind,
                       approximation_factors, check_support)

RANGE_SLACK = 1e-9  # numerical slack on the proven range of D


class DebiasMode(enum.Enum):
    NONE = "none"
    SCALAR = "scalar"
    FINE_GRAINED_EXACT = "fine_grained_exact"
    FINE_GRAINED_APPROX = "fine_grained_approx"


@dataclass(frozen=True)
class DebiasSpec:
    mode: DebiasMode
    factor: float | None = None            # scalar mode
    row_weights: np.ndarray | None = None  # fine-grained multipliers, length n

    @staticmethod
    def none() -> "DebiasSpec":
        return DebiasSpec(DebiasMode.NONE)

    @staticmethod
    def scalar(m: int, d_eff: float) -> "DebiasSpec":
        return DebiasSpec(DebiasMode.SCALAR, factor=scalar_factor(m, d_eff))

    def reweight(self, indices: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
        """Sketch weights of rows ``indices`` re-weighted by this spec;
        arrays of any shape."""
        if self.mode is DebiasMode.NONE:
            return weights
        if self.mode is DebiasMode.SCALAR:
            return weights * math.sqrt(self.factor)
        return weights * self.row_weights[indices]


def scalar_factor(m: int, d_eff: float) -> float:
    """m / (m - d_eff); requires m > d_eff."""
    if not m > d_eff:
        raise SketchTooSmall(
            f"sketch size m={m} must exceed d_eff={d_eff:.6g}")
    return m / (m - d_eff)


def fine_grained_weights(plan, scores: np.ndarray | None,
                         m: int) -> np.ndarray:
    """Per-row multipliers sqrt(m / (m - l_i / pi_i)) on the sketch weights.

    For an exact-leverage plan's own ``scores`` (also its ``exact``)
    l_i / pi_i is identically d_eff, so every multiplier equals the
    scalar-mode sqrt(m / (m - d_eff)) bitwise.
    Rows with zero score need no correction and get multiplier 1.  A plan
    without ``probs`` refuses with ValueError, as do None ``scores``.
    """
    if plan.probs is None:
        raise plan.scalar_only()
    if scores is None:
        raise ValueError(f"fine_grained_approx debiasing needs approximate "
                         f"leverage scores, and a {plan.kind.value} plan "
                         f"has none")
    scores = np.asarray(scores, dtype=np.float64)
    ratios = np.zeros(plan.n)
    check_support(plan.probs, scores)
    positive = scores > 0
    if plan.kind is PlanKind.EXACT_LEVERAGE and scores is plan.scores:
        ratios[positive] = plan.d_eff  # l_i / pi_i == d_eff analytically
    else:
        ratios[positive] = scores[positive] / plan.probs[positive]
    worst = ratios.max(initial=0.0)
    if not m > worst:
        i = int(np.argmax(ratios))
        raise SketchTooSmall(
            f"m={m} <= l_i/pi_i={worst:.6g} at row {i}", index=i)
    return np.sqrt(m / (m - ratios))


# No run path calls apply_debias: tests use it as the oracle of
# DebiasSpec.reweight in every sketch, and perfbench's TRACED names it.
def apply_debias(sketch: SketchDraw, spec: DebiasSpec) -> SketchDraw:
    """Re-weight a realized sketch according to the debias spec."""
    if spec.mode is DebiasMode.NONE:
        return sketch
    return SketchDraw(m=sketch.m, indices=sketch.indices,
                      weights=spec.reweight(sketch.indices, sketch.weights))


def make_debias_spec(mode: DebiasMode, plan, m: int) -> DebiasSpec:
    """Build the debias spec a (plan, m) cell needs.

    Scalar mode reads the plan's ``d_eff``, the exact effective dimension,
    which no other mode reads; :func:`fine_grained_weights` turns the
    plan's own exact or approximate scores into multipliers, or refuses
    when it has none or supports scalar debiasing only.
    """
    if mode is DebiasMode.NONE:
        return DebiasSpec.none()
    if mode is DebiasMode.SCALAR:
        return DebiasSpec.scalar(m, plan.d_eff)
    exact = mode is DebiasMode.FINE_GRAINED_EXACT
    scores = plan.exact if exact else plan.scores
    return DebiasSpec(mode, row_weights=fine_grained_weights(plan, scores, m))


@dataclass(frozen=True)
class FixedPointD:
    diag: np.ndarray
    iterations: int
    residual: float


def solve_fixed_point_d(plan: SamplingPlan, m: int, tol: float = 1e-10,
                        max_iters: int = 500) -> FixedPointD:
    """Solve D_ii = m pi_i / (m pi_i + a_i^T (A^T D A + C)^{-1} a_i) on
    the plan's own A, C and pi.

    Plain fixed-point iteration from the midpoint initialization
    D = m/(m + d_eff).  The result is checked against the proven range
    [m/(m + 2 rho_max d_eff), m/(m + rho_min d_eff)]; a fixed point
    outside it raises :class:`NoConvergence`, as does running out of sweeps.
    """
    A, C = plan.matrix.rows(0, plan.n), plan.C  # a view if unscaled
    if not np.all(np.isfinite(A)):  # only writes made after build_plan
        raise NotPositiveDefinite("A has NaN or infinite entries")
    probs, d_eff = plan.probs, plan.d_eff
    factors = approximation_factors(plan)

    active = np.any(A != 0.0, axis=1)
    if np.any((probs == 0) & active):
        i = int(np.argmax((probs == 0) & active))
        raise ZeroProbabilityWithPositiveScore(
            f"nonzero row {i} has zero probability", index=i)

    diag = np.where(active, m / (m + d_eff), 1.0)
    residual = math.inf
    for it in range(1, max_iters + 1):
        scaled = A * np.sqrt(diag)[:, None]
        try:
            # a_i^T (A^T D A + C)^{-1} a_i
            quad = inverse_quadratic_forms(A, scaled.T @ scaled + C)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                "A^T D A + C lost positive definiteness during the "
                "fixed-point iteration") from exc
        new = np.ones(plan.n)
        new[active] = (m * probs[active]
                       / (m * probs[active] + quad[active]))
        residual = float(np.abs(new - diag).max())
        diag = new
        if residual < tol:
            # the lower bound is proven only for m > 2 rho_max d_eff
            lo = (m / (m + 2.0 * factors.rho_max * d_eff) - RANGE_SLACK
                  if m > 2.0 * factors.rho_max * d_eff else 0.0)
            hi = m / (m + factors.rho_min * d_eff) + RANGE_SLACK
            active_diag = diag[active]
            if active_diag.size and (active_diag.min() < lo
                                     or active_diag.max() > hi):
                raise NoConvergence(
                    f"fixed point left its proven range [{lo:.6g}, {hi:.6g}]:"
                    f" [{active_diag.min():.6g}, {active_diag.max():.6g}]",
                    iterations=it, residual=residual)
            return FixedPointD(diag=diag, iterations=it, residual=residual)
    raise NoConvergence(
        f"fixed-point iteration did not reach tol={tol} in {max_iters} "
        f"sweeps (last residual {residual:.3e})",
        iterations=max_iters, residual=residual)
