"""Importance-sampling plans, row sketches, and approximation factors.

A :class:`SamplingPlan` holds the sampling probabilities (and the leverage
scores they were built from, when applicable).  Every sketch is realized by
one gather: the drawn row indices, their weights re-weighted by a
:class:`~randskew.debias.DebiasSpec`, and A's rows taken and scaled in one
step, so that the m-by-n sampling matrix is never materialized.  A cell
with many draws scales its support rows once and takes the drawn rows
from that table.

Every plan :func:`build_plan` returns answers one protocol: ``kind``, ``A``
and ``C`` (the matrix it was built from, which every consumer reads from the
plan alone: a reference, so the caller must not write it later), ``G``,
``H`` and ``L`` (:class:`PlanHessian`), ``d_eff``, ``probs``, ``scores``
(sampling scores or None), ``exact`` (exact leverage scores, whitened by L
on first read), ``sketcher(m, spec)`` and ``analytic_sketch(m, spec,
seed)``.  ``d_eff``, the exact effective dimension of A given C, is the sum
of ``exact``, or trace(H^-1 G) for a :class:`ProjectionPlan`, which samples
no rows of A (``PlanKind.has_probs`` is False) and has no ``exact``: the
Hadamard plan, which samples rows of a rotation of A, and the SJLT plan
(:class:`SjltPlan`), which sums signed rows of A into each sketch row.
``sketcher`` returns ``draw(seeds, out=None)``, which gives a T x m x d
stack, one sketch per seed, for the cell (m, spec); a cell keeps its
debias weights, and its buffers, across calls.  ``analytic_sketch``
returns the one-seed sketch, bitwise, and the rho_max that the analytic
step rule reads: a sampling plan's depends on the plan alone, the
Hadamard plan's on the rotation it sampled.  The SJLT plan has no
rho_max, so it has no ``analytic_sketch``.  :mod:`randskew.debias` turns
a plan's data into debias weights.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import _lapack as lapack, rng as rsrng
from .errors import (AllZeroRows, IndexOutOfRange, NotPositiveDefinite,
                     SketchTooSmall, ZeroProbabilityWithPositiveScore)
from .linalg import (WHITEN_BLOCK_FLOATS, RowScaled, as_rows, cholesky, gram,
                     inverse_quadratic_forms, whitened_norms)

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
    SJLT = "sjlt"

    @property
    def has_probs(self) -> bool:
        """Whether the kind's plans sample rows of A by probabilities; the
        SRHT and SJLT plans do not."""
        return self not in (PlanKind.SRHT, PlanKind.SJLT)


def _finite_gram(M):
    """M, a Gram of A plus C or trace(A^T A), if it is finite."""
    if not np.all(np.isfinite(M)):
        raise NotPositiveDefinite("A^T A + C has NaN or infinite entries: "
                                  "A or C is not finite, or A^T A "
                                  "overflows")
    return M


class PlanHessian:
    """The base of every plan: G = A^T A, H = G + C and H's Cholesky factor
    L of the plan's (A, C), each formed once, on first read, for every
    reader of H; a non-finite H is refused without a numpy warning."""

    @property
    def matrix(self) -> RowScaled:
        """A in row blocks; a plan built without A and C refuses."""
        if self.A is None or self.C is None:
            raise ValueError(f"the {self.kind.value} plan has no matrix")
        return as_rows(self.A)

    @cached_property
    def G(self) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):  # H refuses
            return gram(self.matrix)

    @cached_property
    def H(self) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return _finite_gram(self.G + self.C)

    @cached_property
    def L(self) -> np.ndarray:
        return cholesky(self.H)


@dataclass(frozen=True)
class SamplingPlan(PlanHessian):
    kind: PlanKind
    probs: np.ndarray           # length n, nonnegative, sums to 1
    scores: np.ndarray | None = None   # leverage scores used, if any
    A: np.ndarray | RowScaled | None = None   # the (A, C) build_plan read
    C: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        # written so that NaN fails: a NaN entry makes both tests false
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValueError("probabilities must be finite, nonnegative and "
                             "sum to 1")
        object.__setattr__(self, "probs", p)
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=np.float64)
            if not np.all(np.isfinite(s)):
                raise ValueError("scores must be finite")
            object.__setattr__(self, "scores", s)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def exact(self) -> np.ndarray:
        """The exact leverage scores of A given C, whitened by L."""
        return whitened_norms(self.matrix, self.L)

    @cached_property
    def d_eff(self) -> float:
        """The sum of the exact scores, whatever the plan samples by."""
        return effective_dimension(self.exact)

    def sketcher(self, m: int, spec):
        """``draw(seeds, out=None)`` for the cell (m, spec): the T x m x d
        stack of sketches, one per seed, each bitwise ``draw`` ->
        ``apply_debias`` -> ``apply_sketch`` at its seed, written into
        ``out`` when it is given.

        The first call with at least as many draws as support rows builds
        the debiased row table ``A[support] * w[:, None]``, w the support's
        reweighted weights, and every later call takes its rows from it:
        the same products a gather of rows and weights makes.  Fewer draws
        before that (one SSN step's single sketch) weigh only the rows they
        drew.
        """
        if m < 1:
            raise ValueError("sketch size m must be >= 1")
        A = self.matrix
        support = self._cdf[0]
        table = None

        def draw(seeds, out=None):
            nonlocal table
            pos = self._positions(rsrng.uniform_rows(seeds, m))
            if table is None:
                if pos.size < len(support):
                    rows = support[pos]
                    return _gather(A, rows, spec.reweight(
                        rows, 1.0 / np.sqrt(m * self.probs[rows])), out)
                table = _gather(A, support, spec.reweight(
                    support, 1.0 / np.sqrt(m * self.probs[support])))
            # positions lie in [0, len(support)), so clipping moves none
            return table.take(pos, axis=0, out=out, mode="clip")
        return draw

    def analytic_sketch(self, m: int, spec,
                        seed: int) -> tuple[np.ndarray, float]:
        """``sketcher(m, spec)([seed])[0]`` and rho_max by exact scores."""
        return (self.sketcher(m, spec)([seed])[0],
                approximation_factors(self).rho_max)

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


def exact_leverage_scores(A: np.ndarray | RowScaled,
                          C: np.ndarray) -> np.ndarray:
    """l_i = a_i^T (A^T A + C)^{-1} a_i for every row a_i of A (an array or
    a :class:`~randskew.linalg.RowScaled`): a plan's ``exact``."""
    return build_plan(PlanKind.UNIFORM, A, C).exact


def effective_dimension(scores: np.ndarray) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and np.any(scores < 0):
        raise ValueError("leverage scores must be nonnegative")
    return float(scores.sum())


def _sparsetools_path() -> Path | None:
    """scipy's compiled ``sparse/_sparsetools`` extension, found without
    importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = Path(spec.submodule_search_locations[0]) / "sparse"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_sparsetools{suffix}"
        if path.is_file():
            return path
    return None


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, loaded once.

    The extension needs only numpy, so it is loaded from its file under a
    private name: importing ``scipy.sparse`` would load some 75 scipy
    modules and ``numpy.f2py`` into every process that sketches, forked
    sweep workers included.  scipy's own module name stays free for a
    later ``import scipy.sparse``.  Where the file cannot be found or
    loaded, the same kernels come through that import.

    ``_sjlt_apply`` calls ``csc_matvecs(n_row, n_col, n_vecs, Ap, Ai, Ax,
    Xx, Yx)`` by position.  That signature is a private scipy ABI (as of
    scipy 1.17), pinned only by the bitwise SJLT tests in
    ``tests/test_sampling.py``; the kernel checks no bounds, so a
    reordered or retyped signature could read or write outside its
    arrays without raising.  Run those tests again after any scipy
    upgrade.
    """
    path = _sparsetools_path()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(
            "randskew._sparsetools", str(path))
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
    from scipy.sparse import _sparsetools
    return _sparsetools


def _sjlt_apply(A: np.ndarray | RowScaled, m: int, gen: np.random.Generator,
                s: int = SJLT_NNZ_PER_COLUMN,
                out: np.ndarray | None = None) -> np.ndarray:
    """S A for a sparse JL matrix S of shape (m, n), so E[S^T S] = I, and
    A an array or a :class:`~randskew.linalg.RowScaled`; written into
    ``out``, a C-contiguous m x d array, when it is given.

    Each of the n columns of S carries ``s`` entries of +-1/sqrt(s) at
    uniformly random rows, drawn independently, so two may share a row:
    all n x s rows first, then the signs.  A is read in row blocks, and
    each block's signs are drawn with it: numpy draws each bounded integer
    from the stream on its own, so the block draws continue one draw of
    all the signs bitwise.
    """
    X = as_rows(A)
    n, d = X.shape
    rows = gen.integers(0, m, size=(n, s))
    scale = 1.0 / math.sqrt(s)
    # S is the CSC matrix whose column j holds rows[j] and signs[j] * scale,
    # unmerged, so colliding entries stay separate: scipy's csc_matvecs
    # adds the terms +-A[j]/sqrt(s) into each output row in (j, s) order,
    # bitwise as a scatter-add over rows.ravel() does, and as scipy's
    # ``csr_array(...).T @ A``, which makes the same call.  The kernel
    # checks no bounds or layout: A is C-contiguous float64, the indices
    # int64, and out.ravel() a view that it fills.
    # No numpy-only product came close.  At n = 16384, d = 64, m = 512 on
    # a 2-core Xeon, one BLAS thread, the kernel took 2.0-2.8 ms;
    # np.add.at 94-208 ms, one bincount per column 51-54 ms, a padded
    # (m, K, d).sum(1) 57-66 ms, and a bitwise scatter in "waves" (the
    # k-th term of every output row at once) 22 ms.  A stable argsort
    # with np.add.reduceat (68-70 ms) sums pairwise, so it is not bitwise
    # and fails test_sjlt_apply_matches_scatter_bitwise.
    # One call per row block of A, on the block's columns of S, adds the
    # same terms into ``out`` in the same order as one call on all of A.
    out = np.empty((m, d)) if out is None else out
    out.fill(0.0)
    matvecs = _sparsetools().csc_matvecs
    # a block row holds d entries of A and its s signs, drawn as integers
    # and then scaled: WHITEN_BLOCK_FLOATS in all
    step = max(1, WHITEN_BLOCK_FLOATS // (d + 2 * s))
    starts = np.arange(0, min(step, n) * s + 1, s)
    values = np.empty((min(step, n), s))
    for lo, B in X.blocks(step):
        k = len(B)
        v = np.multiply(gen.integers(0, 2, size=(k, s)), 2.0, out=values[:k])
        v -= 1.0
        v *= scale
        matvecs(m, k, d, starts[:k + 1], rows[lo:lo + k].ravel(), v.ravel(),
                np.ascontiguousarray(B).ravel(), out.ravel())
    return out


@dataclass(frozen=True)
class ProjectionPlan(PlanHessian):
    """The base of the two plans that sample no rows of A: each sketch row
    mixes rows of A, so only scalar debiasing applies, and the plan keeps
    no per-row scores.  Its ``d_eff`` is trace(H^-1 G), solved by L on
    first read; a step that reads no ``d_eff`` makes no pass over A."""
    A: np.ndarray | RowScaled
    C: np.ndarray
    kind: ClassVar[PlanKind]
    probs: ClassVar[None] = None
    scores: ClassVar[None] = None
    exact: ClassVar[None] = None

    @cached_property
    def d_eff(self) -> float:
        return float(np.trace(lapack.dpotrs(self.L, self.G, lower=1)[0]))

    @classmethod
    def scalar_only(cls) -> ValueError:
        return ValueError(f"the {cls.kind.value} plan samples no rows of A, "
                          f"so it only supports scalar debiasing")


class SjltPlan(ProjectionPlan):
    """The SJLT sketch S A (:func:`_sjlt_apply`, ``SJLT_NNZ_PER_COLUMN``
    nonzeros per column of S) as a plan, with a fresh S for every sketch.
    The paper gives the SJLT no approximation factor, so the plan has no
    ``analytic_sketch``."""
    kind = PlanKind.SJLT

    def sketcher(self, m: int, spec):
        """``draw(seeds, out=None)`` for the cell (m, spec): the T x m x d
        stack whose sketch t is ``_sjlt_apply(A, m, generator(seeds[t]))``
        times the spec's scalar weight, written into ``out`` when it is
        given."""
        if m < 1:
            raise SketchTooSmall(f"sketch size m={m} must be at least 1")
        if spec.row_weights is not None:
            raise self.scalar_only()
        X = self.matrix
        weight = spec.reweight(None, 1.0)

        def draw(seeds, out=None):
            seeds = list(seeds)
            if out is None:
                out = np.empty((len(seeds), m, X.shape[1]))
            for seed, At in zip(seeds, out):
                _sjlt_apply(X, m, rsrng.generator(seed), out=At)
                At *= weight
            return out
        return draw


def default_double_sketch_width(n: int) -> int:
    return int(math.ceil(8.0 * math.log(max(n, 2))))


def sjlt_approx_leverage(A: np.ndarray | RowScaled, C: np.ndarray, m1: int,
                         m2: int | None = None, seed: int = 0) -> np.ndarray:
    """Approximate leverage scores via a sparse JL sketch of the Gram.

    Single-sketch mode returns ``a_i^T (A^T S1^T S1 A + C)^-1 a_i`` by
    :func:`~randskew.linalg.inverse_quadratic_forms`; when ``m2`` is given,
    the squared row norms of A L^-T S2^T for a second sketch S2 of width
    m2, L L^T the sketched Gram plus C, with L^-T S2^T (d x m2) formed
    first.  A is an array or a :class:`~randskew.linalg.RowScaled`.
    """
    A = as_rows(A)
    d = A.shape[1]
    if m1 < d:
        raise ValueError(f"sketch width m1={m1} below cols(A)={d}")
    if m2 is not None and not 1 <= m2 < m1:
        raise ValueError(f"double-sketch width m2={m2} must satisfy "
                         f"1 <= m2 < m1={m1}")
    SA = _sjlt_apply(A, m1, rsrng.generator(seed, 0))
    S2 = (None if m2 is None
          else _sjlt_apply(np.eye(d), m2, rsrng.generator(seed, 1)))
    with np.errstate(invalid="ignore", over="ignore"):  # refused as H is
        M = _finite_gram(gram(SA) + C)
    try:
        return inverse_quadratic_forms(A, M, S2)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            "sketched Gram plus C is singular; increase m1",
            pivot_index=exc.pivot_index) from exc


def build_plan(kind: PlanKind, A: np.ndarray | RowScaled, C: np.ndarray, *,
               mix: float = 0.5, m1: int | None = None,
               m2: int | None = None, seed: int = 0):
    """Construct a sampling plan of the requested kind for (A, C).

    A is an array or a :class:`~randskew.linalg.RowScaled`, which every
    reader takes in row blocks; every plan keeps it, as that view, and C.
    Only the exact-leverage and shrinkage kinds read ``exact`` here, for
    their probabilities.  ``PlanKind.SRHT`` returns a
    :class:`~randskew.hadamard.SrhtPlan` and ``PlanKind.SJLT`` an
    :class:`SjltPlan`.
    """
    A = as_rows(A)
    n, d = A.shape
    if n < 1:
        raise ValueError("A must have at least one row")
    if kind is PlanKind.SRHT:
        from .hadamard import SrhtPlan  # hadamard imports this module
        return SrhtPlan(A, C)
    if kind is PlanKind.SJLT:
        return SjltPlan(A, C)

    scores = probs = None
    cached = {}
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
        probs = scores / total
    elif kind is PlanKind.ROW_NORM:
        sq = _squared_row_norms(A)
        total = _finite_gram(sq.sum())   # the trace of A^T A
        if total == 0.0:
            raise AllZeroRows("row-norm sampling on an all-zero matrix")
        probs = sq / total
    elif kind is PlanKind.UNIFORM:
        probs = np.full(n, 1.0 / n)
    elif kind is PlanKind.SHRINKAGE and not 0.0 <= mix <= 1.0:
        raise ValueError("shrinkage mix must lie in [0, 1]")
    elif kind in (PlanKind.EXACT_LEVERAGE, PlanKind.SHRINKAGE):
        # the plan keeps a uniform plan's exact scores, G, H and L
        uniform = build_plan(PlanKind.UNIFORM, A, C)
        scores = uniform.exact
        probs = (scores / scores.sum() if kind is PlanKind.EXACT_LEVERAGE
                 else mix / n + (1.0 - mix) * scores / scores.sum())
        cached = {k: vars(uniform)[k] for k in ("G", "H", "L", "exact")}
    else:
        raise ValueError(f"unknown plan kind {kind!r}")
    plan = SamplingPlan(kind, probs, scores=scores, A=A, C=C)
    vars(plan).update(cached)   # where a cached_property keeps its value
    return plan


def _squared_row_norms(X: RowScaled) -> np.ndarray:
    """The squared norm of every row of X, read in row blocks."""
    n, d = X.shape
    sq = np.empty(n)
    for lo, B in X.blocks(max(1, WHITEN_BLOCK_FLOATS // d)):
        np.einsum("ij,ij->i", B, B, out=sq[lo:lo + len(B)])
    return sq


def check_support(probs: np.ndarray, scores: np.ndarray) -> None:
    """Raise :class:`ZeroProbabilityWithPositiveScore` at the first row
    with a positive score and zero probability."""
    bad = (probs == 0) & (scores > 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ZeroProbabilityWithPositiveScore(
            f"row {i} has positive score but zero probability", index=i)


def approximation_factors(plan: SamplingPlan) -> ApproxFactors:
    """(rho_min, rho_max) = extremes of l_i / (pi_i * d_eff), by the plan's
    own exact scores l and ``d_eff``.

    Rows with zero score and zero probability are excluded; a zero
    probability paired with a positive score is an error.
    """
    scores, probs, d_eff = plan.exact, plan.probs, plan.d_eff
    if d_eff <= 0:
        raise ValueError("d_eff must be positive")
    check_support(probs, scores)
    active = probs > 0
    ratios = scores[active] / (probs[active] * d_eff)
    k = int(np.argmax(ratios))
    return ApproxFactors(rho_min=float(ratios.min()),
                         rho_max=float(ratios[k]),
                         argmax_index=int(np.flatnonzero(active)[k]))


def _gather(A: np.ndarray | RowScaled, indices: np.ndarray,
            weights: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Row s of the result is weights[s] * A[indices[s]], for index arrays
    of any shape; written into ``out`` when it is given, else a new
    array.  For a :class:`~randskew.linalg.RowScaled` A the rows of its
    data are taken, scaled and weighted in place: the products that
    weighting the formed matrix's rows makes."""
    A = as_rows(A)
    if indices.size and (indices.min() < 0 or indices.max() >= A.shape[0]):
        raise IndexOutOfRange(
            f"sketch indices span [{indices.min()}, {indices.max()}], "
            f"outside [0, rows(A)={A.shape[0]})")
    out = A.take(indices, out)
    out *= weights[..., None]
    return out


# No run path calls SketchDraw, draw or apply_sketch: tests check every
# plan's sketcher against them, and perfbench's TRACED names draw and
# apply_sketch.


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


def draw(plan: SamplingPlan, m: int, seed: int) -> SketchDraw:
    """One with-replacement sketch of size m, deterministic given seed."""
    if m < 1:
        raise ValueError("sketch size m must be >= 1")
    indices = plan._cdf[0][plan._positions(rsrng.generator(seed).random(m))]
    return SketchDraw(m=m, indices=indices,
                      weights=1.0 / np.sqrt(m * plan.probs[indices]))


def apply_sketch(sketch: SketchDraw, A: np.ndarray) -> np.ndarray:
    """The m-by-d sketched matrix: row s is weights[s] * A[indices[s]]."""
    return _gather(A, sketch.indices, sketch.weights)
