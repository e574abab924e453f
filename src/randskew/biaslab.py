"""Monte-Carlo estimation of the inversion bias of sketched inverses.

For a sketching scheme producing A-tilde, the bias of interest is

    || H^{1/2} ( E[(A~^T A~ + C)^{-1}] - H^{-1} ) H^{1/2} ||,  H = A^T A + C,

measured in spectral norm and estimated by averaging over independent
trials, with A and C the plan's own.  Trials whose sketched Gram is
numerically singular are discarded and counted; this operationalizes the
conditioning event of the theory.

With H = L L^T (Cholesky) and Q the mean kept inverse, the bias is
max |lambda - 1| over the eigenvalues lambda of L^T Q L, and ``eps_def5``
is max(lambda_max - 1, 1/lambda_min - 1, 0): one ``eigvalsh`` gives both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack as lapack
from . import rng as rsrng
from .debias import DebiasMode, DebiasSpec, make_debias_spec
from .errors import AllTrialsSingular
from .linalg import accepted_inverses
from .parallel import pmap

JACKKNIFE_BATCH = 64  # fixed for reproducibility
# floats in one sub-block's m x d sketches: 2 MiB, one core's L2 on the
# Xeon it was tuned on (64, 32 and 16 trials per call at m = 128, 256 and
# 512 with d = 32); a group's stacked inverses take at most
# JACKKNIFE_BATCH d x d more
SUBBLOCK_FLOATS = 2 ** 18


@dataclass(frozen=True)
class BiasEstimate:
    m: int
    trials: int
    discarded: int
    bias: float
    stderr_proxy: float
    eps_two_sided: float  # smallest two-sided PSD sandwich factor minus one


def estimate_bias(plan, debias: DebiasSpec, m: int, trials: int,
                  seed: int) -> BiasEstimate:
    """Monte-Carlo inversion-bias estimate for one configuration.

    ``plan`` is any built plan; its hessian's L whitens the bias.
    Deterministic given ``seed``; per-trial streams are split by trial
    index.  Trials are sketched and inverted in stacks of at most
    ``SUBBLOCK_FLOATS`` sketched entries, cut inside the jackknife groups;
    each group's kept inverses are summed once, in trial order, so where a
    group's sub-blocks are cut does not change the result.  The cell draws
    through one ``plan.sketcher`` into buffers it allocates once.
    """
    if trials < 2:
        raise ValueError("need trials >= 2")
    sketch = plan.sketcher(m, debias)  # refuses m < 1 or no (A, C)
    C, d, L = plan.hessian.C, plan.hessian.A.shape[1], plan.hessian.L

    group_sums: list[np.ndarray] = []
    group_kept: list[int] = []
    discarded = 0
    step = max(1, SUBBLOCK_FLOATS // (m * d))
    # the cell's buffers: sketches and gram(At) + C
    size = min(step, JACKKNIFE_BATCH, trials)
    stack, grams = np.empty((size, m, d)), np.empty((size, d, d))

    for start in range(0, trials, JACKKNIFE_BATCH):
        stop = min(start + JACKKNIFE_BATCH, trials)
        kept_Qs = []
        for lo in range(start, stop, step):
            k = min(lo + step, stop) - lo
            At = sketch([rsrng.split(seed, t) for t in range(lo, lo + k)],
                        out=stack[:k])
            # gram(At) + C in the cell's buffer, by one BLAS gemm per trial
            # on the stack itself: its Grams are exactly symmetric, so
            # gram's symmetrization is skipped (pinned by
            # test_stacked_sketch_grams_are_exactly_symmetric)
            G = lapack.dgram_stack(At, grams[:k])
            M = np.add(G, C, out=G)
            Qs, ok = accepted_inverses(M)
            discarded += int(np.count_nonzero(~ok))
            kept_Qs.append(Qs)
        Qs = np.concatenate(kept_Qs)
        group_sums.append(Qs.sum(axis=0))
        group_kept.append(len(Qs))

    kept = trials - discarded
    if kept == 0:
        raise AllTrialsSingular(
            f"all {trials} trials produced singular sketched Grams")
    grand = sum(group_sums)

    def whitened_eigenvalues(S, k):
        """Eigenvalues of L^T (S / k) L, ascending."""
        W = L.T @ S @ L
        return np.linalg.eigvalsh((W + W.T) / 2.0 / k)

    lam = whitened_eigenvalues(grand, kept)
    bias = np.abs(lam - 1.0).max()
    eps = (float("inf") if lam[0] <= 0
           else max(lam[-1] - 1.0, 1.0 / lam[0] - 1.0, 0.0))

    thetas = [np.abs(whitened_eigenvalues(grand - bs, kept - bk) - 1.0).max()
              for bs, bk in zip(group_sums, group_kept) if bk < kept]
    stderr = 0.0
    nb = len(thetas)
    if nb > 1:
        th = np.asarray(thetas)
        stderr = float(np.sqrt((nb - 1) / nb * np.sum((th - th.mean()) ** 2)))

    return BiasEstimate(m=m, trials=trials, discarded=discarded,
                        bias=float(bias), stderr_proxy=stderr,
                        eps_two_sided=float(eps))


@dataclass(frozen=True)
class BiasSweepRow:
    scheme: str
    debias: DebiasMode
    estimate: BiasEstimate


def bias_sweep(plans, debias_modes, m_grid, trials: int,
               seed: int) -> list[BiasSweepRow]:
    """Cross product of (plan, debias mode, m) cells, deterministic order.

    Each row's ``scheme`` is its plan's ``kind.value``; seeds are
    stream-split per cell so cells are independent of each other.  Scalar
    debiasing reads d_eff, trace(H^-1 G) by the hessian's L, so a scalar
    cell whitens no rows of A in any process.  Cells run through
    :func:`~randskew.parallel.pmap`, largest m first, so the rows depend
    on neither its worker count nor its dispatch order.  Each plan
    hessian's L, which every cell reads, is formed here, before any
    worker forks, so a singular H is refused before any cell runs, and so
    are its exact scores for a sampling plan with fine_grained_exact cells.
    """
    m_grid, plans = list(m_grid), list(plans)
    if not m_grid or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError("m grid must be nonempty and ascending")

    cells = [(pi, di, mi, plan, mode, m)
             for pi, plan in enumerate(plans)
             for di, mode in enumerate(debias_modes)
             for mi, m in enumerate(m_grid)]
    fine_exact = any(c[4] is DebiasMode.FINE_GRAINED_EXACT for c in cells)
    for plan in plans:   # read to form them: once per hessian, cached
        if plan.hessian is not None:
            plan.hessian.L
            if fine_exact and plan.kind.has_probs:
                plan.hessian.exact

    def run_cell(cell) -> BiasSweepRow:
        pi, di, mi, plan, mode, m = cell
        spec = make_debias_spec(mode, plan, m)
        est = estimate_bias(plan, spec, m, trials,
                            rsrng.split(seed, pi, di, mi))
        return BiasSweepRow(plan.kind.value, mode, est)

    return pmap(run_cell, cells, cost=lambda cell: cell[-1])
