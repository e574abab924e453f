"""Fast Walsh-Hadamard transform and the sign-flip + uniform-row sketch.

The sketch is S H D A / sqrt(n): random column signs, Hadamard rotation,
then uniform with-replacement row sampling.  Inputs whose row count is not
a power of two are zero-padded; zero rows carry zero leverage and never
perturb A^T A.  :class:`SrhtPlan` is the ``PlanKind.SRHT`` plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import rng as rsrng
from .debias import DebiasSpec, apply_debias
from .errors import NotPowerOfTwo
from .linalg import gram, inv_sqrt
from .sampling import SamplingPlan, SketchDraw, PlanKind, apply_sketch, draw

SRHT_SCALAR_ONLY = "the Hadamard sketch only supports scalar debiasing"
# floats in one row block of the FWHT's low levels (512 KiB): the block
# stays in cache while its levels run
FWHT_BLOCK_FLOATS = 2 ** 16


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _butterflies(flat: np.ndarray, h: int, h_end: int,
                 tmp: np.ndarray) -> None:
    """Butterfly levels h, 2h, ... below ``h_end`` of the n-by-d ``flat``,
    in place; ``tmp`` holds at least n*d/2 floats."""
    n, d = flat.shape
    while h < h_end:
        y = flat.reshape(n // (2 * h), 2, h, d)
        top, bot = y[:, 0], y[:, 1]
        t = tmp[:top.size].reshape(top.shape)
        np.add(top, bot, out=t)
        np.subtract(top, bot, out=bot)
        top[...] = t
        h *= 2


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 0.

    Accepts a writable C-contiguous float64 vector or matrix (transform
    applied to each column) and returns it; any other input raises
    ValueError rather than being transformed in a copy.  Self-inverse up
    to a factor of n.

    The levels whose butterflies stay within ``FWHT_BLOCK_FLOATS``-float
    row blocks run block by block, the rest over the whole array.  Every
    entry takes the same adds in the same order either way, so the result
    does not depend on the block size.
    """
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.flags.c_contiguous and v.flags.writeable):
        raise ValueError("fwht_inplace needs a writable C-contiguous "
                         "float64 array")
    n = v.shape[0]
    if not _is_power_of_two(n):
        raise NotPowerOfTwo(f"length {n} is not a power of two")
    flat = v.reshape(n, -1)
    d = flat.shape[1]
    rows = max(2, FWHT_BLOCK_FLOATS // max(d, 1))
    block = min(n, 1 << (rows.bit_length() - 1))
    tmp = np.empty(n // 2 * d)
    for start in range(0, n, block):
        _butterflies(flat[start:start + block], 1, block, tmp)
    _butterflies(flat, block, n, tmp)
    return v


@dataclass(frozen=True)
class SrhtDraw:
    signs: np.ndarray      # +-1, length n_padded
    sample: SketchDraw     # uniform draw over the padded rows
    n_original: int
    n_padded: int
    rotated: np.ndarray | None = None  # H D A / sqrt(n) of the A sketched


def srht_draw(n: int, m: int, seed: int) -> SrhtDraw:
    """Random signs plus a uniform row sample for an n-row input."""
    n_padded = next_power_of_two(n)
    signs = rsrng.generator(seed, 0).integers(0, 2, size=n_padded) * 2.0 - 1.0
    plan = SamplingPlan(PlanKind.UNIFORM, np.full(n_padded, 1.0 / n_padded),
                        d_eff=float(n_padded))
    sample = draw(plan, m, rsrng.split(seed, 1))
    return SrhtDraw(signs=signs, sample=sample, n_original=n,
                    n_padded=n_padded)


def _rotate(signs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """H D A_padded / sqrt(n_padded), padded to the length of ``signs``."""
    n, d = A.shape
    n_padded = signs.shape[0]
    padded = np.zeros((n_padded, d))
    padded[:n] = A
    padded *= signs[:, None]
    fwht_inplace(padded)
    padded /= np.sqrt(n_padded)
    return padded


def srht_apply(sketch: SrhtDraw, A: np.ndarray) -> np.ndarray:
    """The m-by-d sketched matrix S H D A / sqrt(n)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[0] != sketch.n_original:
        raise ValueError(
            f"rows(A)={A.shape[0]} does not match draw n={sketch.n_original}")
    return apply_sketch(sketch.sample, _rotate(sketch.signs, A))


def _scores_of_rotation(rotated: np.ndarray, A: np.ndarray,
                        C: np.ndarray) -> np.ndarray:
    """Leverage scores given C of ``rotated`` = H D A / sqrt(n): the squared
    row norms of rotated (A^T A + C)^(-1/2)."""
    BR = rotated @ inv_sqrt(gram(A) + C)
    return np.einsum("ij,ij->i", BR, BR)


def rotated_leverage_scores(A: np.ndarray, C: np.ndarray,
                            signs: np.ndarray) -> np.ndarray:
    """Leverage scores of H D A / sqrt(n) given C.

    The rotation is orthogonal, so the scores sum to the effective
    dimension of A itself.
    """
    A = np.asarray(A, dtype=np.float64)
    return _scores_of_rotation(
        _rotate(np.asarray(signs, dtype=np.float64), A), A, C)


@dataclass(frozen=True)
class SrhtPlan:
    """The Hadamard sketch as a plan: uniform row sampling of the rotated
    matrix H D A / sqrt(n), with fresh signs for every sketch.

    The rotation is orthogonal, so ``d_eff`` is the exact effective
    dimension of A.  Only scalar debiasing applies: row weights of A do not
    carry over to the rows of the rotated matrix.
    """
    d_eff: float
    kind: ClassVar[PlanKind] = PlanKind.SRHT
    scores: ClassVar[None] = None
    exact: ClassVar[None] = None

    def sketch(self, A: np.ndarray, m: int, spec: DebiasSpec, seed: int):
        """Draw signs and m rows, debias them by ``spec`` and apply them
        to A; returns the m x d sketched matrix and the debiased draw,
        which keeps the rotation of A for ``rho_max``."""
        if spec.row_weights is not None:
            raise ValueError(SRHT_SCALAR_ONLY)
        sd = srht_draw(A.shape[0], m, seed)
        rotated = _rotate(sd.signs, A)
        sd = replace(sd, sample=apply_debias(sd.sample, spec),
                     rotated=rotated)
        return apply_sketch(sd.sample, rotated), sd

    def sketch_many(self, A: np.ndarray, m: int, spec: DebiasSpec,
                    seeds) -> np.ndarray:
        """The T x m x d stack of ``sketch(A, m, spec, s)[0]`` over the T
        ``seeds``: trial by trial, as each trial's signs come from its own
        ``Generator.integers`` stream."""
        return np.stack([self.sketch(A, m, spec, s)[0] for s in seeds])

    def rho_max(self, A: np.ndarray, C: np.ndarray, exact,
                drawn: SrhtDraw) -> float:
        """rho_max of uniform sampling from the rotation ``drawn`` used,
        from the rotation of A that ``sketch`` kept on it; ``exact`` is
        unread."""
        if drawn.rotated is None:
            raise ValueError("rho_max needs the draw returned by sketch")
        rot = _scores_of_rotation(drawn.rotated, A, C)
        return float(rot.max() * drawn.n_padded / self.d_eff)

    def row_weights(self, scores: np.ndarray | None, m: int) -> np.ndarray:
        raise ValueError(SRHT_SCALAR_ONLY)
