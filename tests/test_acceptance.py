"""End-to-end acceptance suite.

Each test prints one summary line; Monte-Carlo heavy checks reuse the
library's per-trial seeded draws, with closed-form fast paths verified
against the full pipeline on a subsample before being trusted.
"""

import json
import math

import numpy as np
import pytest

from randskew import rng as rsrng
from randskew.biaslab import bias_sweep, estimate_bias
from randskew.cli import main as cli_main
from randskew.data import (SyntheticKind, SyntheticSpec,
                           counterexample_matrix, synthetic_matrix)
from randskew.debias import (DebiasMode, DebiasSpec, fine_grained_weights,
                             make_debias_spec, solve_fixed_point_d)
from randskew.hadamard import fwht_inplace
from randskew.linalg import gram, inv_sqrt
from randskew.optim import (GlmProblem, ProblemKind, SsnMethod, StepRule,
                            objective_eval, reference_point,
                            reference_solution, run_solver)
from randskew.sampling import (PlanHessian, PlanKind, SketchDraw,
                               apply_sketch, approximation_factors,
                               build_plan, draw, exact_leverage_scores)

from oracles import (gaussian_sketch, hessian_sqrt, psd_relative_error,
                     sampled_rows, spd_inverse)

D = 4
A_CE = counterexample_matrix(D)
C0 = np.zeros((D, D))


def report(name, detail):
    print(f"[acceptance] {name}: {detail}")


def coherent_matrix(n=1024, d=32, heavy=64, seed=42):
    gen = rsrng.generator(seed, 7)
    A = gen.standard_normal((n, d))
    A[:heavy] *= 10.0
    return A


CE_BLOCK = 8192  # trials drawn at once, to bound memory


def ce_coordinate_counts(plan, m, trials, seed):
    """Coordinate hit counts b_j for sketches of the skewed-pair matrix.

    Under an exact-leverage plan every draw adds exactly d/m to the
    diagonal Gram entry of its coordinate, so the sketched Gram is
    diag(d*b_j/m).  That identity is re-verified against the full
    apply_sketch pipeline on the first 200 trials before being used.
    Trial t draws ``draw(plan, m, split(seed, t))``, taken in blocks by
    ``sampled_rows``, which is bitwise the same.
    """
    d = plan.probs.shape[0] // 2
    counts = np.empty((trials, d), dtype=np.int64)
    for lo in range(0, trials, CE_BLOCK):
        hi = min(lo + CE_BLOCK, trials)
        indices, weights = sampled_rows(
            plan, m, [rsrng.split(seed, t) for t in range(lo, hi)])
        coords = np.where(indices < 2, 0, indices // 2)
        # one bincount for the block: trial k's coordinates shifted by k*d
        coords += d * np.arange(hi - lo)[:, None]
        counts[lo:hi] = np.bincount(coords.ravel(),
                                    minlength=(hi - lo) * d).reshape(-1, d)
        for t in range(lo, min(hi, 200)):
            sk = SketchDraw(m=m, indices=indices[t - lo],
                            weights=weights[t - lo])
            G = gram(apply_sketch(sk, counterexample_matrix(d)))
            assert np.abs(G - np.diag(d * counts[t] / m)).max() < 1e-12
    return counts


def test_criterion_01_counterexample_leverage_scores(tmp_path):
    cfg = tmp_path / "lev.cfg"
    cfg.write_text("data = synthetic\nsynthetic = counterexample\n"
                   "n = 8\nd = 4\nlambda = 0.0\nplans = uniform\n")
    out = tmp_path / "lev.csv"
    assert cli_main(["lev", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    scores = np.array([float(line.split(",")[1]) for line in lines[1:9]])
    expected = np.r_[0.25, 0.75, np.full(6, 0.5)]
    worst = np.abs(scores - expected).max()
    assert worst < 1e-12
    report("criterion 1", f"max score deviation {worst:.2e}")


def test_criterion_02_uniform_approximation_factors():
    plan = build_plan(PlanKind.UNIFORM, PlanHessian(A_CE, C0))
    fac = approximation_factors(plan)
    assert abs(fac.rho_min - 0.5) < 1e-12
    assert abs(fac.rho_max - 1.5) < 1e-12
    report("criterion 2", f"(rho_min, rho_max) = ({fac.rho_min}, {fac.rho_max})")


def test_criterion_03_inverse_wishart_oracle():
    d, m, T = 3, 30, 100_000
    A = np.eye(d)
    sketches = np.empty((T, m, d))
    for t in range(T):
        sketches[t] = gaussian_sketch(A, m, rsrng.split(101, t))
    grams = np.einsum("tmi,tmj->tij", sketches, sketches)
    mean_inv = np.linalg.inv(grams).mean(axis=0)
    want = m / (m - d - 1) * np.eye(d)
    worst = np.abs(mean_inv - want).max()
    assert worst < 0.01 * (m / (m - d - 1))
    report("criterion 3", f"max entrywise deviation {worst:.4f} "
           f"(1% of target = {0.01 * m / (m - d - 1):.4f})")


def test_criterion_04_zero_bias_counterexample():
    m, trials = 16, 1_000_000
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
    counts = ce_coordinate_counts(plan, m, trials, seed=202)
    alive = np.all(counts > 0, axis=1)
    half = trials // 2

    # stage 1: estimate the conditioned zero-bias factor from the first half
    first = counts[:half][alive[:half]]
    gamma = (m / D) * np.mean(1.0 / first)

    # stage 2: conditioned mean of (gamma * sketched Gram)^{-1}, second half
    second = counts[half:][alive[half:]]
    mean_inv_diag = np.mean(m / (D * second.astype(np.float64)),
                            axis=0) / gamma
    eps = psd_relative_error(np.diag(mean_inv_diag), np.eye(D))
    assert eps < 0.01
    report("criterion 4", f"gamma = {gamma:.6f}, eps = {eps:.5f}, "
           f"discarded = {np.count_nonzero(~alive)}")


def test_criterion_05_fixed_point_characterization():
    # (a) closed form on the identity with a uniform plan
    d_id, m_id = 6, 15
    plan_id = build_plan(PlanKind.UNIFORM,
                         PlanHessian(np.eye(d_id), np.zeros((d_id, d_id))))
    fp_id = solve_fixed_point_d(plan_id, m_id)
    closed = np.abs(fp_id.diag - (m_id - d_id) / m_id).max()
    assert closed < 1e-10

    # (b) Monte-Carlo mean inverse vs (A^T D A)^{-1} at m = 20d
    m, trials = 20 * D, 500_000
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
    fp = solve_fixed_point_d(plan, m)
    counts = ce_coordinate_counts(plan, m, trials, seed=303)
    alive = np.all(counts > 0, axis=1)
    kept = counts[alive]
    empirical = np.diag(np.mean(m / (D * kept.astype(np.float64)), axis=0))
    dvec = fp.diag
    predicted_diag = np.r_[0.25 * dvec[0] + 0.75 * dvec[1],
                           0.5 * (dvec[2::2] + dvec[3::2])]
    predicted = spd_inverse(np.diag(predicted_diag))
    eps = psd_relative_error(predicted, empirical)
    assert eps < 0.02

    # (c) the proven range holds on a spread of plans and sketch sizes
    for kind in (PlanKind.UNIFORM, PlanKind.EXACT_LEVERAGE,
                 PlanKind.SHRINKAGE):
        p = build_plan(kind, PlanHessian(A_CE, C0), mix=0.5)
        fac = approximation_factors(p)
        for mm in (16 * D, 32 * D):
            sol = solve_fixed_point_d(p, mm)
            lo = mm / (mm + 2 * fac.rho_max * D)
            hi = mm / (mm + fac.rho_min * D)
            assert np.all(sol.diag >= lo - 1e-9)
            assert np.all(sol.diag <= hi + 1e-9)
    report("criterion 5", f"closed-form dev {closed:.2e}, "
           f"Monte-Carlo eps {eps:.5f}, range bound held on 6 solves")


def test_criterion_06_debias_efficacy_sweep():
    A = coherent_matrix()
    d = A.shape[1]
    C = 1e-2 * np.eye(d)
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A, C))
    d_eff = plan.hessian.d_eff
    m_grid = [int(np.ceil(k * d_eff)) for k in (4, 8, 16, 32)]
    rows = bias_sweep([plan], [DebiasMode.NONE, DebiasMode.SCALAR], m_grid,
                      trials=500, seed=404)
    none = [r.estimate.bias for r in rows if r.debias is DebiasMode.NONE]
    scal = [r.estimate.bias for r in rows if r.debias is DebiasMode.SCALAR]
    assert all(s < n for s, n in zip(scal, none))
    assert all(b < a for a, b in zip(none, none[1:]))
    assert all(b < a for a, b in zip(scal, scal[1:]))
    report("criterion 6",
           f"undebiased {['%.4f' % b for b in none]}, "
           f"scalar {['%.4f' % b for b in scal]}")


def test_criterion_07_scalar_fine_grained_coincidence():
    plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A_CE, C0))
    m = 8 * D
    scalar_mult = np.sqrt(m / (m - plan.hessian.d_eff))
    fine = fine_grained_weights(plan, plan.scores, m)
    assert np.all(fine[plan.probs > 0] == scalar_mult)
    sk = draw(plan, m, seed=77)
    from randskew.debias import apply_debias
    a = apply_debias(sk, DebiasSpec.scalar(m, plan.hessian.d_eff))
    fine_spec = make_debias_spec(DebiasMode.FINE_GRAINED_EXACT, plan, m)
    b = apply_debias(sk, fine_spec)
    assert np.array_equal(a.weights, b.weights)
    report("criterion 7", "weights bitwise identical")


def test_criterion_08_subspace_embedding():
    eps, delta, trials = 0.5, 0.1, 200
    gen = rsrng.generator(55)
    matrices = [
        ("gaussian", gen.standard_normal((64, 8)), np.zeros((8, 8))),
        ("coherent", coherent_matrix(n=256, d=8, heavy=16),
         1e-2 * np.eye(8)),
        ("skewed-pairs", counterexample_matrix(16), np.zeros((16, 16))),
    ]
    rates = {}
    for name, A, C in matrices:
        plan = build_plan(PlanKind.EXACT_LEVERAGE, PlanHessian(A, C))
        d_eff = plan.hessian.d_eff
        m = int(np.ceil(8 * 1.0 * d_eff * np.log(d_eff / delta) / eps ** 2))
        AC = A @ inv_sqrt(gram(A) + C)
        target = gram(AC)
        failures = 0
        for t in range(trials):
            sk = draw(plan, m, rsrng.split(66, t))
            if psd_relative_error(gram(apply_sketch(sk, AC)), target) > eps:
                failures += 1
        rates[name] = failures / trials
        assert rates[name] <= delta
    report("criterion 8", f"failure rates {rates}")


def test_criterion_09_ssn_rate():
    n, d, lam = 4096, 32, 1e-2
    gen = rsrng.generator(88)
    A = gen.standard_normal((n, d))
    y = A @ gen.standard_normal(d) + 0.1 * gen.standard_normal(n)
    p = GlmProblem(A, y, lam, ProblemKind.LEAST_SQUARES)
    ref = reference_point(p, reference_solution(p)[0])
    C = lam * np.eye(d)
    d_eff = float(exact_leverage_scores(
        hessian_sqrt(objective_eval(p, ref.beta)), C).sum())
    m = int(np.ceil(32 * d_eff))
    iters = 5

    def contraction(debias):
        method = SsnMethod(plan_kind=PlanKind.EXACT_LEVERAGE, m=m,
                           debias=debias)
        rates = []
        for s in range(20):
            trace = run_solver(p, method, np.zeros(d), iters,
                               seed=s).scored(ref)
            final = trace.records[-1].rel_error_H
            rates.append(final ** (1.0 / iters))
        return float(np.median(rates))

    debiased = contraction(DebiasMode.SCALAR)
    plain = contraction(DebiasMode.NONE)
    bound = 2.0 * d_eff / m
    assert debiased <= bound
    assert debiased < plain
    report("criterion 9", f"debiased {debiased:.5f} <= bound {bound:.5f}; "
           f"undebiased {plain:.5f}")


# the largest median contraction of one debiased step over the data kinds,
# over the smallest: the paper's rate does not depend on the problem
RATE_SPREAD = 1.5


def test_ssn_rate_is_the_same_across_data():
    # criterion 09's claim on three data kinds at m = 8 d_eff: each
    # debiased step's median contraction stays under 2 d_eff / m and
    # within RATE_SPREAD over the kinds, and debias helps exact leverage
    # on every kind; uniform sampling, whose rate depends on the data,
    # misses the bound on the coherent kind
    n, d, lam, iters = 4096, 32, 1e-2, 5
    data = {"gaussian": SyntheticSpec(SyntheticKind.GAUSSIAN_IID, n, d,
                                      seed=1),
            "spiked": SyntheticSpec(SyntheticKind.SPIKED, n, d, decay=0.1,
                                    seed=1),
            "coherent": SyntheticSpec(SyntheticKind.COHERENT, n, d,
                                      heavy_row_count=32, seed=1)}
    steps = {"leverage": (PlanKind.EXACT_LEVERAGE, DebiasMode.SCALAR,
                          StepRule.ANALYTIC),
             "srht": (PlanKind.SRHT, DebiasMode.SCALAR, StepRule.FIXED),
             "leverage, no debias": (PlanKind.EXACT_LEVERAGE,
                                     DebiasMode.NONE, StepRule.ANALYTIC),
             "uniform": (PlanKind.UNIFORM, DebiasMode.SCALAR,
                         StepRule.FIXED)}
    medians, bounds = {}, {}
    for name, spec in data.items():
        A = synthetic_matrix(spec)
        gen = rsrng.generator(1, 3)
        y = A @ gen.standard_normal(d) + 0.1 * gen.standard_normal(n)
        p = GlmProblem(A, y, lam, ProblemKind.LEAST_SQUARES)
        ref = reference_point(p, reference_solution(p)[0])
        d_eff = PlanHessian(hessian_sqrt(objective_eval(p, ref.beta)),
                            lam * np.eye(d)).d_eff
        m = math.ceil(8 * d_eff)
        bounds[name] = 2.0 * d_eff / m
        for step, (kind, debias, rule) in steps.items():
            if step == "uniform" and name != "coherent":
                continue
            method = SsnMethod(plan_kind=kind, m=m, debias=debias,
                               step_rule=rule)
            medians[name, step] = float(np.median([
                run_solver(p, method, np.zeros(d), iters, seed=s)
                .scored(ref).records[-1].rel_error_H ** (1.0 / iters)
                for s in range(10)]))
    for step in ("leverage", "srht"):
        rates = [medians[name, step] for name in data]
        assert all(r <= bounds[name] for r, name in zip(rates, data))
        assert max(rates) <= RATE_SPREAD * min(rates)
    for name in data:
        assert medians[name, "leverage"] < medians[name, "leverage, no debias"]
    assert medians["coherent", "uniform"] > bounds["coherent"]
    report("rate across data", ", ".join(
        f"{name}/{step} {rate:.3f}" for (name, step), rate in medians.items()))


def test_criterion_10_fwht_and_srht_debias():
    for k in range(11):
        n = 2 ** k
        M = np.eye(n)
        fwht_inplace(M)
        fwht_inplace(M)
        assert np.array_equal(M, n * np.eye(n))

    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, 6))
    signs = rsrng.generator(9).integers(0, 2, size=64) * 2.0 - 1.0
    rotated = A * signs[:, None]
    H = np.eye(64)
    fwht_inplace(H)
    rotated = (H @ rotated) / np.sqrt(64)
    gram_dev = np.linalg.norm(gram(rotated) - gram(A))
    assert gram_dev < 1e-10 * np.linalg.norm(gram(A))

    Ac = coherent_matrix()
    d = Ac.shape[1]
    C = 1e-2 * np.eye(d)
    d_eff = float(exact_leverage_scores(Ac, C).sum())
    m = int(np.ceil(16 * d_eff))
    scheme = build_plan(PlanKind.SRHT, PlanHessian(Ac, C))
    none = estimate_bias(scheme, DebiasSpec.none(), m, 500, seed=21)
    scal = estimate_bias(scheme, DebiasSpec.scalar(m, d_eff), m, 500,
                         seed=21)
    assert scal.bias < none.bias
    report("criterion 10", f"gram dev {gram_dev:.2e}; srht bias "
           f"{scal.bias:.4f} (scalar) < {none.bias:.4f} (none)")


def test_criterion_11_cli_determinism(tmp_path):
    base = ("data = synthetic\nsynthetic = coherent\nn = 128\nd = 8\n"
            "heavy_rows = 16\nlambda = 0.01\ntiming = zero\n")
    configs = {
        "lev": base + "plans = uniform, exact_leverage\napprox = sjlt\nm1 = 64\n",
        "bias": base + ("plans = exact_leverage, srht\ndebias = none, scalar\n"
                        "m_grid = 32, 64\ntrials = 100\n"),
        "solve": base + ("problem = logistic\nmethod = ssn\n"
                         "plan = exact_leverage\ndebias = scalar\n"
                         "step = armijo\nm = 64\niters = 4\n"),
        "sweep": base + ("problem = least_squares\nmethod = ssn\n"
                         "plan = exact_leverage\ndebias = scalar\n"
                         "step = analytic\nm_grid = 32,64\nreplicates = 3\n"
                         "iters = 3\n"),
    }
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}.csv"
            assert cli_main([command, "--config", str(cfg), "--seed", "17",
                             "--out", str(out)]) == 0
            sidecar = json.loads(
                out.with_suffix(".csv.json").read_text())
            outs.append((out.read_bytes(), sidecar))
        assert outs[0][0] == outs[1][0], f"{command} output differs"
        assert outs[0][1] == outs[1][1], f"{command} sidecar differs"
    report("criterion 11", "all four commands bitwise reproducible")
