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


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 0.

    Accepts a vector or a matrix (transform applied to each column).
    Self-inverse up to a factor of n.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    n = v.shape[0]
    if not _is_power_of_two(n):
        raise NotPowerOfTwo(f"length {n} is not a power of two")
    flat = v.reshape(n, -1)
    h = 1
    while h < n:
        y = flat.reshape(n // (2 * h), 2, h, flat.shape[1])
        top = y[:, 0].copy()
        y[:, 0] += y[:, 1]
        y[:, 1] = top - y[:, 1]
        h *= 2
    return flat.reshape(v.shape)


@dataclass(frozen=True)
class SrhtDraw:
    signs: np.ndarray      # +-1, length n_padded
    sample: SketchDraw     # uniform draw over the padded rows
    n_original: int
    n_padded: int


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


def rotated_leverage_scores(A: np.ndarray, C: np.ndarray,
                            signs: np.ndarray) -> np.ndarray:
    """Leverage scores of H D A / sqrt(n) given C.

    The rotation is orthogonal, so the scores sum to the effective
    dimension of A itself.
    """
    A = np.asarray(A, dtype=np.float64)
    R = inv_sqrt(gram(A) + C)
    B = _rotate(np.asarray(signs, dtype=np.float64), A @ R)
    return np.einsum("ij,ij->i", B, B)


@dataclass(frozen=True)
class SrhtPlan:
    """The Hadamard sketch as a plan: uniform row sampling of the rotated
    matrix H D A / sqrt(n), with fresh signs for every sketch.

    The rotation is orthogonal, so ``d_eff`` is the exact effective
    dimension of A.  Only scalar debiasing applies: row weights of A do not
    carry over to the rows of the rotated matrix.
    """
    d_eff: float
    exact: np.ndarray    # exact leverage scores of A given C
    kind: ClassVar[PlanKind] = PlanKind.SRHT
    scores: ClassVar[None] = None

    def sketch(self, A: np.ndarray, m: int, spec: DebiasSpec, seed: int):
        """Draw signs and m rows, debias them by ``spec`` and apply them
        to A; returns the m x d sketched matrix and the debiased draw."""
        if spec.row_weights is not None:
            raise ValueError(SRHT_SCALAR_ONLY)
        sd = srht_draw(A.shape[0], m, seed)
        sd = replace(sd, sample=apply_debias(sd.sample, spec))
        return srht_apply(sd, A), sd

    def sketch_many(self, A: np.ndarray, m: int, spec: DebiasSpec,
                    seeds) -> np.ndarray:
        """The T x m x d stack of ``sketch(A, m, spec, s)[0]`` over the T
        ``seeds``: trial by trial, as each trial's signs come from its own
        ``Generator.integers`` stream."""
        return np.stack([self.sketch(A, m, spec, s)[0] for s in seeds])

    def rho_max(self, A: np.ndarray, C: np.ndarray, exact: np.ndarray,
                drawn: SrhtDraw) -> float:
        """rho_max of uniform sampling from the rotation ``drawn`` used."""
        rot = rotated_leverage_scores(A, C, drawn.signs)
        return float(rot.max() * drawn.n_padded / exact.sum())

    def row_weights(self, scores: np.ndarray | None, m: int) -> np.ndarray:
        raise ValueError(SRHT_SCALAR_ONLY)
