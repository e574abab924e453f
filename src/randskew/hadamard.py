"""Walsh-Hadamard transforms and the sign-flip + uniform-row sketch.

The sketch is S H D A / sqrt(n): random column signs, Hadamard rotation,
then uniform with-replacement row sampling.  Inputs whose row count is not
a power of two are zero-padded; zero rows carry zero leverage and never
perturb A^T A.  :class:`SrhtPlan`, a :class:`~randskew.sampling.ProjectionPlan`
like the SJLT plan, is the ``PlanKind.SRHT`` plan; it takes its Gram on
first read, so a step that reads no ``d_eff`` makes no pass over A for it.
A sketch of several seeds writes D A into one padded buffer and rotates
that buffer in place; a one-seed sketch, which reads only its m rows,
rotates one residue class of the rows at a time (:func:`_streamed_sample`),
with the same bits.

Every transform here runs in stages: H_n is the Kronecker product of
Sylvester matrices H_k with k <= 2^STAGE_BITS, so it is a few small dense
GEMMs, which run at compute speed where a butterfly level is bound by
memory.  :func:`fwht_inplace` is that transform, unscaled, on the caller's
array; it agrees with the plain level-by-level butterfly loop up to
rounding.  ``FWHT_BLOCK_FLOATS`` sizes the scratch of every transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rsrng
from .debias import DebiasSpec
from .errors import NotPowerOfTwo
from .linalg import RowScaled, as_rows, whitened_norms
from .sampling import (PlanKind, ProjectionPlan, SketchDraw, _gather,
                       apply_sketch)

# floats in a transform's scratch (512 KiB), which stays in cache
FWHT_BLOCK_FLOATS = 2 ** 16
# each stage of the staged rotation multiplies by H_k, k <= 2^STAGE_BITS.
# A stage costs 2k flops per entry and one pass over the array; at
# n = 32768, d = 64 (2-core Xeon, one BLAS thread) k = 8 took 12.8 ms
# against 16.3 ms for k = 32.
STAGE_BITS = 3
# floats in one GEMM tile of a stage.  BLAS may sum a product in an order
# that depends on its shape, so this constant, not the scratch size, fixes
# the tiles, and the result does not depend on FWHT_BLOCK_FLOATS.
STAGE_TILE_FLOATS = 2 ** 16


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 0.

    Accepts a writable C-contiguous float64 vector or matrix (transform
    applied to each column) and returns it; any other input raises
    ValueError rather than being transformed in a copy.  Self-inverse up
    to a factor of n.  Runs the staged transform, so no n-row temporary
    is made.
    """
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.ndim >= 1 and v.flags.c_contiguous and v.flags.writeable):
        raise ValueError("fwht_inplace needs a writable C-contiguous "
                         "float64 array")
    n = v.shape[0]
    if not _is_power_of_two(n):
        raise NotPowerOfTwo(f"length {n} is not a power of two")
    _staged_hadamard(v.reshape(n, -1))
    return v


@functools.cache
def _sylvester(k: int) -> np.ndarray:
    """The read-only k x k Sylvester-Hadamard matrix, k a power of two."""
    H = np.ones((1, 1))
    while H.shape[0] < k:
        H = np.block([[H, H], [H, -H]])
    H.flags.writeable = False
    return H


def _stage_bits(n: int) -> list[int]:
    """log2(n) split into ceil(log2(n) / STAGE_BITS) near-equal widths; one
    zero width for n = 1, so that the scale still applies."""
    levels = n.bit_length() - 1
    r = max(1, -(-levels // STAGE_BITS))
    return [levels // r + (i < levels % r) for i in range(r)]


def _scratch(size: int) -> np.ndarray:
    """A scratch for the staged transform of an array of ``size`` floats."""
    return np.empty(min(size, max(FWHT_BLOCK_FLOATS, STAGE_TILE_FLOATS)))


def _staged_hadamard(flat: np.ndarray, scale: float = 1.0,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """``scale`` times the Walsh-Hadamard transform along axis 0 of the
    C-contiguous n x d ``flat``, n a power of two, in place; returns it.

    H_n = H_k1 (x) H_k2 (x) ...: stage i views ``flat`` as
    (lead, k_i, rest) and left-multiplies each lead's k_i x rest block by
    H_{k_i}.  The products run as GEMM tiles of at most
    ``STAGE_TILE_FLOATS`` floats, as many at once as fit in a scratch of
    ``FWHT_BLOCK_FLOATS`` floats, and are copied back, so no n x d
    temporary is made.  The last stage scales as it copies back.
    ``scratch``, when given, is ``_scratch(n * d)`` or larger.
    """
    n, d = flat.shape
    if scratch is None:
        scratch = _scratch(n * d)
    lead = 1
    for bits in _stage_bits(n):
        k = 1 << bits
        H = _sylvester(k)
        rest = n // (lead * k) * d
        x = flat.reshape(lead, k, rest)
        cols = max(1, min(rest, STAGE_TILE_FLOATS // k))
        batch = max(1, min(lead, FWHT_BLOCK_FLOATS // (k * cols)))
        factor = scale if lead * k == n else 1.0
        for l0 in range(0, lead, batch):
            for c0 in range(0, rest, cols):
                tile = x[l0:l0 + batch, :, c0:c0 + cols]
                out = scratch[:tile.size].reshape(tile.shape)
                np.matmul(H, tile, out=out)
                np.multiply(out, factor, out=tile)
        lead *= k
    return flat


def _srht_signs(n: int, seed: int) -> np.ndarray:
    """Random +-1 signs for the ``next_power_of_two(n)`` padded rows of an
    n-row input, from ``generator(seed, 0)``."""
    size = next_power_of_two(n)
    return rsrng.generator(seed, 0).integers(0, 2, size=size) * 2.0 - 1.0


def _srht_rows(n_padded: int, m: int,
               seed: int) -> tuple[np.ndarray, np.float64]:
    """m uniform rows of the n_padded padded rows, from ``split(seed, 1)``,
    and the weight 1 / sqrt(m / n_padded) that each of them carries.

    They are the rows and weights ``sampling.draw`` takes at that seed
    from a uniform plan over the padded rows, bitwise: the plan's cdf
    steps k / n_padded are exact for a power-of-two n_padded, so its
    search lands on floor(u * n_padded).
    """
    if m < 1:
        raise ValueError("sketch size m must be >= 1")
    u = rsrng.generator(rsrng.split(seed, 1)).random(m)
    return (u * n_padded).astype(np.intp), np.float64(
        1.0 / math.sqrt(m / n_padded))


def _signed_rows(X: RowScaled, signs: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The len(signs) x d buffer of D X with zero padding rows, for the
    n x d matrix X, which :meth:`~randskew.linalg.RowScaled.signed` writes
    without forming it.  Fills ``out`` when given, else a new array."""
    n, d = X.shape
    rows = np.empty((signs.shape[0], d)) if out is None else out
    X.signed(signs[:n, None], rows[:n])
    rows[n:] = 0.0
    return rows


def _debiased_rows(n_padded: int, m: int, spec: DebiasSpec,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The m rows of the rotation drawn at ``seed`` and their weights,
    debiased by ``spec``, which must not weigh rows."""
    if spec.row_weights is not None:
        raise SrhtPlan.scalar_only()
    indices, weight = _srht_rows(n_padded, m, seed)
    return indices, spec.reweight(indices, weight)


def _rotated_sample(rows: np.ndarray, m: int, spec: DebiasSpec, seed: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Rotate the signed buffer ``rows`` in place to H D X / sqrt(n_padded)
    and return the m rows drawn at ``seed``, debiased by ``spec``, written
    into ``out`` when it is given."""
    n_padded = rows.shape[0]
    _staged_hadamard(rows, 1.0 / math.sqrt(n_padded))
    return _gather(rows, *_debiased_rows(n_padded, m, spec, seed), out)


def _streamed_sample(X: RowScaled, signs: np.ndarray, m: int,
                     spec: DebiasSpec, seed: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``_rotated_sample(_signed_rows(X, signs), m, spec, seed, out)``,
    bitwise, without the n_padded x d rotation.

    The last stage of the rotation mixes each run of k consecutive rows,
    k = 2^(its width); every earlier stage acts inside one residue class
    of the rows modulo k, with the stage widths of the class's own
    n_padded / k rows.  So each class in turn is signed into one
    (n_padded / k) x d buffer and rotated there, unscaled, and each drawn
    row q k + j adds row q of the buffer times the last stage's entry
    (j, c) for class c, in class order, as that stage's GEMM sums each
    entry.  The sum is then scaled as the last stage scales, and weighted.

    A one-column rotation, an n_padded-vector, is rotated whole: numpy
    multiplies by a one-column tile as a matrix-vector product, whose sums
    BLAS orders otherwise.
    """
    n, d = X.shape
    if d == 1:
        return _rotated_sample(_signed_rows(X, signs), m, spec, seed, out)
    n_padded = signs.shape[0]
    indices, weights = _debiased_rows(n_padded, m, spec, seed)
    k = 1 << _stage_bits(n_padded)[-1]
    quotients, residues = np.divmod(indices, k)
    last = _sylvester(k)
    block = np.empty((n_padded // k, d))
    scratch = _scratch(block.size)
    sample = np.empty((m, d)) if out is None else out
    sample.fill(0.0)
    part = np.empty((m, d))
    for c in range(k):
        real = len(range(c, n, k))
        X.signed(signs[c:n:k, None], block[:real], slice(c, n, k))
        block[real:] = 0.0
        _staged_hadamard(block, 1.0, scratch)
        # every quotient is below n_padded / k, so clipping moves none
        block.take(quotients, axis=0, out=part, mode="clip")
        part *= last[residues, c][:, None]
        sample += part
    sample *= 1.0 / math.sqrt(n_padded)
    sample *= weights[..., None]
    return sample


# No run path calls SrhtDraw, srht_draw, _rotate, srht_apply or
# rotated_leverage_scores: tests use them as the oracle of the SRHT
# sketch, and perfbench's TRACED names srht_draw, srht_apply and
# rotated_leverage_scores.


@dataclass(frozen=True)
class SrhtDraw:
    signs: np.ndarray      # +-1, length n_padded
    sample: SketchDraw     # uniform draw over the padded rows
    n_original: int
    n_padded: int


def srht_draw(n: int, m: int, seed: int) -> SrhtDraw:
    """Random signs plus a uniform row sample for an n-row input: what
    every SRHT sketch at ``seed`` draws."""
    signs = _srht_signs(n, seed)
    n_padded = signs.shape[0]
    indices, weight = _srht_rows(n_padded, m, seed)
    return SrhtDraw(signs=signs,
                    sample=SketchDraw(m=m, indices=indices,
                                      weights=np.full(m, weight)),
                    n_original=n, n_padded=n_padded)


def _rotate(signs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """H D A_padded / sqrt(n_padded), padded to the length of ``signs``,
    in a new array."""
    n_padded = signs.shape[0]
    if not _is_power_of_two(n_padded):
        raise NotPowerOfTwo(f"length {n_padded} is not a power of two")
    rows = _signed_rows(as_rows(A), signs)
    return _staged_hadamard(rows, 1.0 / math.sqrt(n_padded))


def srht_apply(sketch: SrhtDraw, A: np.ndarray) -> np.ndarray:
    """The m-by-d sketched matrix S H D A / sqrt(n)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != sketch.n_original:
        raise ValueError(
            f"rows(A)={A.shape[0]} does not match draw n={sketch.n_original}")
    return apply_sketch(sketch.sample, _rotate(sketch.signs, A))


def rotated_leverage_scores(A: np.ndarray, C: np.ndarray,
                            signs: np.ndarray) -> np.ndarray:
    """Leverage scores of H D A / sqrt(n) given C.

    The rotation is orthogonal, so the scores sum to the effective
    dimension of A itself.
    """
    A = np.asarray(A, dtype=np.float64)
    rotated = _rotate(np.asarray(signs, dtype=np.float64), A)
    return whitened_norms(rotated, SrhtPlan(A, C).L)


class SrhtPlan(ProjectionPlan):
    """The Hadamard sketch as a plan: uniform row sampling of the rotated
    matrix H D A / sqrt(n), with fresh signs for every sketch.

    Its ``d_eff`` is the exact effective dimension of A (the rotation is
    orthogonal), and :meth:`analytic_sketch` whitens the rotation by the
    plan's factor L of H = A^T A + C.  Row weights of A do not carry over
    to the rows of the rotated matrix, so only scalar debiasing applies.
    """
    kind = PlanKind.SRHT

    def sketcher(self, m: int, spec: DebiasSpec):
        """``draw(seeds, out=None)`` for the cell (m, spec): the T x m x d
        stack of sketches, one per seed, written into ``out`` when it is
        given.  Each draws signs and m rows at its seed, debiases them by
        ``spec`` and applies them to A, trial by trial, as each trial's
        signs come from its own ``Generator.integers`` stream.  One seed
        streams its sketch (:func:`_streamed_sample`) and holds no
        rotation; several rotate, one after another, in one padded buffer
        that the cell keeps across calls.  Both give the same bits."""
        X, rows = self.matrix, None

        def draw(seeds, out=None):
            nonlocal rows
            seeds = list(seeds)
            if out is None:
                out = np.empty((len(seeds), m, X.shape[1]))
            if len(seeds) == 1:
                _streamed_sample(X, _srht_signs(X.shape[0], seeds[0]), m,
                                 spec, seeds[0], out[0])
                return out
            for seed, At in zip(seeds, out):
                rows = _signed_rows(X, _srht_signs(X.shape[0], seed), rows)
                _rotated_sample(rows, m, spec, seed, At)
            return out
        return draw

    def analytic_sketch(self, m: int, spec: DebiasSpec,
                        seed: int) -> tuple[np.ndarray, float]:
        """``sketcher(m, spec)([seed])[0]``, bitwise, and the rho_max of
        uniform sampling from the rotation it sampled, by the rotation's
        exact scores given H.  D A is signed into one padded buffer, which
        is rotated in place once and read by both."""
        X = self.matrix
        rows = _signed_rows(X, _srht_signs(X.shape[0], seed))
        At = _rotated_sample(rows, m, spec, seed)
        scores = whitened_norms(rows, self.L)
        return At, float(scores.max() * rows.shape[0] / self.d_eff)
