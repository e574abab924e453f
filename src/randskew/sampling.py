"""Importance-sampling plans, row sketches, and approximation factors.

A :class:`SamplingPlan` holds the sampling probabilities (and the leverage
scores they were built from, when applicable); a :class:`SketchDraw` is one
realized with-replacement sketch, stored as row indices plus per-slot
scales so that the m-by-n sampling matrix is never materialized.

Every plan :func:`build_plan` returns, the Hadamard plan included, answers
one protocol: ``kind``, ``d_eff``, ``probs`` (sampling probabilities, or
None for the Hadamard plan, which samples rows of a rotation of A),
``scores`` (sampling scores or None), ``exact`` (exact leverage scores when
the plan computed them, else None; always None for the Hadamard plan, which
takes d_eff from the d x d Gram), ``sketch(A, m, spec, seed)``, its batched
form ``sketch_many(A, m, spec, seeds)`` and ``rho_max(A, C, exact,
rotated)``.  :mod:`randskew.debias` turns these data into debias weights.
``sketch`` returns the m x d sketched matrix and what ``rho_max`` reads of
it as ``rotated``: None for a sampling plan, whose rho_max depends on the
plan alone, and the rotation H D A / sqrt(n) for the Hadamard plan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rsrng
from .errors import (AllZeroRows, IndexOutOfRange, NotPositiveDefinite,
                     ZeroProbabilityWithPositiveScore)
from .linalg import gram, inverse_quadratic_forms, solve_spd, whiten

SJLT_NNZ_PER_COLUMN = 4  # nonzeros per column of the sparse JL sketch
GUIDE_PASSES = 8  # guide-table steps before searchsorted finishes a draw


class PlanKind(enum.Enum):
    UNIFORM = "uniform"
    ROW_NORM = "row_norm"
    EXACT_LEVERAGE = "exact_leverage"
    APPROX_LEVERAGE = "approx_leverage"
    DOUBLE_SKETCH_APPROX_LEVERAGE = "double_sketch_approx_leverage"
    SHRINKAGE = "shrinkage"
    SRHT = "srht"


@dataclass(frozen=True)
class SamplingPlan:
    kind: PlanKind
    probs: np.ndarray           # length n, nonnegative, sums to 1
    d_eff: float                # effective dimension of A given C
    scores: np.ndarray | None = None   # leverage scores used, if any
    exact: np.ndarray | None = None    # exact leverage scores, if computed

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        # written so that NaN fails: a NaN entry makes both tests false
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError("probabilities must be finite, nonnegative and "
                             "sum to 1")
        object.__setattr__(self, "probs", p)
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=np.float64)
            if not abs(s.sum() - self.d_eff) <= 1e-10 * max(abs(self.d_eff),
                                                            1.0):
                raise ValueError("scores must be finite and sum to d_eff")
            object.__setattr__(self, "scores", s)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def sketch(self, A: np.ndarray, m: int, spec, seed: int):
        """Draw m rows, debias them by ``spec`` and apply them to A.

        Returns the m x d sketched matrix and None: ``rho_max`` reads
        nothing of the draw.
        """
        return self.sketch_many(A, m, spec, [seed])[0], None

    def sketch_many(self, A: np.ndarray, m: int, spec, seeds) -> np.ndarray:
        """The T x m x d stack of sketches, one per seed; each is
        ``apply_sketch(apply_debias(draw(self, m, s), spec), A)`` bitwise.

        Debiased weights come from the same element operations a draw
        makes: once per support row when the draws are as many, and else
        (one SSN step's single sketch) for the drawn rows only.
        """
        if m < 1:
            raise ValueError("sketch size m must be >= 1")
        support = self._cdf[0]
        pos = self._positions(rsrng.uniform_rows(seeds, m))
        if pos.size < len(support):
            rows = support[pos]
            return _gather(A, rows, spec.reweight(
                rows, 1.0 / np.sqrt(m * self.probs[rows])))
        table = spec.reweight(support,
                              1.0 / np.sqrt(m * self.probs[support]))
        return _gather(A, support[pos], table[pos])

    def rho_max(self, A: np.ndarray, C: np.ndarray, exact: np.ndarray,
                rotated: None) -> float:
        return approximation_factors(self, exact).rho_max

    @cached_property
    def _cdf(self):
        """The support and its cdf, built once per plan."""
        # over the support only: u near 1 must not land on a trailing zero row
        support = np.flatnonzero(self.probs)
        cdf = np.cumsum(self.probs[support])
        cdf[-1] = 1.0
        return support, cdf

    @cached_property
    def _guide(self):
        """A guide table for indexed search in the cdf (Chen & Asau 1974),
        built once per plan.

        With K = len(cdf) buckets, x lies in bucket int(x * K).  guide[k]
        counts the cdf entries in buckets below k.  Bucketing is monotone,
        so each of those entries is below every u in bucket k, and guide[k]
        never exceeds ``searchsorted(cdf, u, side="right")``.
        """
        cdf = self._cdf[1]
        K = len(cdf)
        counts = np.bincount((cdf * K).astype(np.intp), minlength=K + 1)
        return np.concatenate(([0], np.cumsum(counts[:K])))

    def _positions(self, u: np.ndarray) -> np.ndarray:
        """Support positions of the draws the uniforms ``u`` make:
        ``searchsorted(cdf, u, side="right")``, bitwise.

        Fewer draws than support rows take ``searchsorted`` alone, which
        costs less than building the guide.  Otherwise each draw starts at
        its bucket's guide entry and steps up while ``cdf[pos] <= u``, the
        same predicate.  Draws still stepping after ``GUIDE_PASSES`` steps,
        in a bucket crowded with tiny probabilities, are finished by
        ``searchsorted``.
        """
        cdf = self._cdf[1]
        if u.size < len(cdf):
            return np.searchsorted(cdf, u, side="right")
        guide = self._guide
        flat = u.ravel()
        pos = guide[(flat * len(cdf)).astype(np.intp)]
        pos += cdf[pos] <= flat   # most draws step at most once
        live = np.flatnonzero(cdf[pos] <= flat)
        for _ in range(GUIDE_PASSES - 1):
            if not live.size:
                break
            pos[live] += 1
            live = live[cdf[pos[live]] <= flat[live]]
        if live.size:
            pos[live] = np.searchsorted(cdf, flat[live], side="right")
        return pos.reshape(u.shape)


@dataclass(frozen=True)
class ApproxFactors:
    rho_min: float
    rho_max: float
    argmax_index: int


@dataclass(frozen=True)
class SketchDraw:
    m: int
    indices: np.ndarray   # int array length m, values in [0, n)
    weights: np.ndarray   # positive row scales, length m

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.m,) or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be m finite positive scalars")
        object.__setattr__(self, "indices",
                           np.asarray(self.indices, dtype=np.intp))
        object.__setattr__(self, "weights", w)


def exact_leverage_scores(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """l_i = a_i^T (A^T A + C)^{-1} a_i for every row a_i of A."""
    A = np.asarray(A, dtype=np.float64)
    return inverse_quadratic_forms(A, gram(A) + C)


def effective_dimension(scores: np.ndarray) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and np.any(scores < 0):
        raise ValueError("leverage scores must be nonnegative")
    return float(scores.sum())


def _sjlt_apply(A: np.ndarray, m: int, gen: np.random.Generator) -> np.ndarray:
    """S A for a sparse JL matrix S of shape (m, n).

    Each of the n columns of S carries ``SJLT_NNZ_PER_COLUMN`` entries of
    +-1/sqrt(s) at uniformly random rows.
    """
    # scipy.sparse is imported here so that loading the CLI does not pay for
    # it.  It stays because no numpy-only product came close.  At n = 16384,
    # d = 64, m = 512 on a 2-core Xeon, one BLAS thread, the CSR product
    # took 2.0-2.8 ms; np.add.at 94-208 ms, one bincount per column
    # 51-54 ms and a padded (m, K, d).sum(1) 57-66 ms.  A stable argsort
    # with np.add.reduceat (68-70 ms) sums pairwise, so it is not bitwise
    # and fails test_sjlt_apply_matches_scatter_bitwise.
    from scipy.sparse import csr_array

    n = A.shape[0]
    s = SJLT_NNZ_PER_COLUMN
    rows = gen.integers(0, m, size=(n, s))
    signs = gen.integers(0, 2, size=(n, s)) * 2.0 - 1.0
    scale = 1.0 / math.sqrt(s)
    # S^T is built from the raw (rows, signs) arrays, not through COO or
    # sum_duplicates, so colliding entries stay separate: the CSC product
    # S_T.T @ A then adds the exact terms +-A[j]/2 into each output row in
    # (j, s) order, bitwise as a scatter-add over rows.ravel() does.
    S_T = csr_array(((signs * scale).ravel(), rows.ravel(),
                     np.arange(0, n * s + 1, s)), shape=(n, m))
    return S_T.T @ A


def default_double_sketch_width(n: int) -> int:
    return int(math.ceil(8.0 * math.log(max(n, 2))))


def sjlt_approx_leverage(A: np.ndarray, C: np.ndarray, m1: int,
                         m2: int | None = None, seed: int = 0) -> np.ndarray:
    """Approximate leverage scores via a sparse JL sketch of the Gram.

    Single-sketch mode returns ``a_i^T (A^T S1^T S1 A + C)^-1 a_i`` by
    :func:`~randskew.linalg.inverse_quadratic_forms`; when ``m2`` is given,
    :func:`~randskew.linalg.whiten`'s A L^-T is multiplied by a second
    sketch of width m2 before row norms are taken.
    """
    A = np.asarray(A, dtype=np.float64)
    d = A.shape[1]
    if m1 < d:
        raise ValueError(f"sketch width m1={m1} below cols(A)={d}")
    if m2 is not None and not 1 <= m2 < m1:
        raise ValueError(f"double-sketch width m2={m2} must satisfy "
                         f"1 <= m2 < m1={m1}")
    SA = _sjlt_apply(A, m1, rsrng.generator(seed, 0))
    try:
        if m2 is None:
            return inverse_quadratic_forms(A, gram(SA) + C)
        B = whiten(A, gram(SA) + C)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            "sketched Gram plus C is singular; increase m1",
            pivot_index=exc.pivot_index) from exc
    B = B @ _sjlt_apply(np.eye(d), m2, rsrng.generator(seed, 1)).T
    return np.einsum("ij,ij->i", B, B)


def build_plan(kind: PlanKind, A: np.ndarray, C: np.ndarray, *,
               mix: float = 0.5, m1: int | None = None,
               m2: int | None = None, seed: int = 0) -> SamplingPlan:
    """Construct a sampling plan of the requested kind for (A, C).

    ``d_eff`` is always the exact effective dimension of A given C except
    for the approximate-leverage kinds, where it is the sum of the
    approximate scores actually used for sampling.  ``PlanKind.SRHT``
    returns a :class:`~randskew.hadamard.SrhtPlan`, whose ``d_eff`` is
    trace((G + C)^-1 G) from the d x d Gram G, with no n-row scores.
    """
    A = np.asarray(A, dtype=np.float64)
    n, d = A.shape
    if n < 1:
        raise ValueError("A must have at least one row")

    if kind in (PlanKind.APPROX_LEVERAGE,
                PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE):
        if m1 is None:
            m1 = 8 * d
        if kind is PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE and m2 is None:
            m2 = min(default_double_sketch_width(n), m1 - 1)
        if kind is PlanKind.APPROX_LEVERAGE:
            m2 = None
        scores = sjlt_approx_leverage(A, C, m1, m2, seed=seed)
        total = scores.sum()
        if total <= 0:
            raise AllZeroRows("approximate leverage scores are all zero")
        return SamplingPlan(kind, scores / total, float(total), scores=scores)
    if kind is PlanKind.SRHT:
        from .hadamard import SrhtPlan  # hadamard imports this module
        G = gram(A)
        return SrhtPlan(float(np.trace(solve_spd(G + C, G))))
    if kind is PlanKind.ROW_NORM:
        sq = np.einsum("ij,ij->i", A, A)
        total = sq.sum()
        if total == 0.0:
            raise AllZeroRows("row-norm sampling on an all-zero matrix")
    if kind is PlanKind.SHRINKAGE and not 0.0 <= mix <= 1.0:
        raise ValueError("shrinkage mix must lie in [0, 1]")

    exact = exact_leverage_scores(A, C)
    d_eff = effective_dimension(exact)
    if kind is PlanKind.UNIFORM:
        return SamplingPlan(kind, np.full(n, 1.0 / n), d_eff, exact=exact)
    if kind is PlanKind.ROW_NORM:
        return SamplingPlan(kind, sq / total, d_eff, exact=exact)
    if kind is PlanKind.EXACT_LEVERAGE:
        return SamplingPlan(kind, exact / exact.sum(), d_eff, scores=exact,
                            exact=exact)
    if kind is PlanKind.SHRINKAGE:
        probs = mix / n + (1.0 - mix) * exact / exact.sum()
        return SamplingPlan(kind, probs, d_eff, scores=exact, exact=exact)
    raise ValueError(f"unknown plan kind {kind!r}")


def approximation_factors(plan: SamplingPlan,
                          exact_scores: np.ndarray) -> ApproxFactors:
    """(rho_min, rho_max) = extremes of l_i / (pi_i * d_eff).

    Rows with zero score and zero probability are excluded; a zero
    probability paired with a positive score is an error.
    """
    scores = np.asarray(exact_scores, dtype=np.float64)
    probs = plan.probs
    d_eff = effective_dimension(scores)
    if d_eff <= 0:
        raise ValueError("d_eff must be positive")
    bad = (probs == 0) & (scores > 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ZeroProbabilityWithPositiveScore(
            f"row {i} has positive leverage score but zero probability",
            index=i)
    active = probs > 0
    ratios = scores[active] / (probs[active] * d_eff)
    idx_active = np.nonzero(active)[0]
    k = int(np.argmax(ratios))
    return ApproxFactors(rho_min=float(ratios.min()),
                         rho_max=float(ratios[k]),
                         argmax_index=int(idx_active[k]))


def _sample(plan: SamplingPlan, m: int, u: np.ndarray):
    """Row indices and weights of the draws that the uniforms ``u`` make."""
    indices = plan._cdf[0][plan._positions(u)]
    return indices, 1.0 / np.sqrt(m * plan.probs[indices])


def draw(plan: SamplingPlan, m: int, seed: int) -> SketchDraw:
    """One with-replacement sketch of size m, deterministic given seed."""
    if m < 1:
        raise ValueError("sketch size m must be >= 1")
    indices, weights = _sample(plan, m, rsrng.generator(seed).random(m))
    return SketchDraw(m=m, indices=indices, weights=weights)


def draw_many(plan: SamplingPlan, m: int,
              seeds) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights (T x m each) of ``draw(plan, m, s)`` for each of
    the T ``seeds``, bitwise."""
    if m < 1:
        raise ValueError("sketch size m must be >= 1")
    return _sample(plan, m, rsrng.uniform_rows(seeds, m))


def _gather(A: np.ndarray, indices: np.ndarray,
            weights: np.ndarray) -> np.ndarray:
    """Row s of the result is weights[s] * A[indices[s]], for index arrays
    of any shape.  The result is a new array."""
    A = np.asarray(A, dtype=np.float64)
    if indices.size and (indices.min() < 0 or indices.max() >= A.shape[0]):
        raise IndexOutOfRange(
            f"sketch indices span [{indices.min()}, {indices.max()}], "
            f"outside [0, rows(A)={A.shape[0]})")
    out = A.take(indices, axis=0)
    out *= weights[..., None]
    return out


def apply_sketch(sketch: SketchDraw, A: np.ndarray) -> np.ndarray:
    """The m-by-d sketched matrix: row s is weights[s] * A[indices[s]]."""
    return _gather(A, sketch.indices, sketch.weights)
