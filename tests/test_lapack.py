"""The LAPACK binding's two routes, and what importing the CLI loads.

``randskew._lapack`` takes ``potrf``, ``potrs``, ``trtri`` and ``trmm`` from
numpy's bundled OpenBLAS, and from ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` when that lookup fails.
The ``route`` fixture runs a test on each route; the scipy route is made
by failing the symbol lookup and binding the routines again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

import randskew
from randskew import _lapack, linalg
from randskew.errors import NotPositiveDefinite
from randskew.sampling import exact_leverage_scores

from oracles import spd_inverse

_SRC = str(Path(randskew.__file__).resolve().parents[1])
_ROUTINES = ("dpotrf_stack", "dpotrs", "dtrtri_stack", "dtrmm")
# norm-wise relative distance allowed between the routes' results: the two
# OpenBLAS builds round differently, and these inputs have cond <= 1e3 and
# d <= 32, so cond * d * eps is about 7e-12
ROUTE_RTOL = 1e-10


def _native_route() -> bool:
    try:
        _lapack._symbol("scipy_dpotrf_")
    except AttributeError:
        return False
    return True


def _use_scipy_route(monkeypatch) -> dict:
    """Fail the symbol lookup and rebind the routines; returns a count of
    the calls each ``scipy.linalg`` routine then receives."""
    modules = {"dpotrf": scipy.linalg.lapack, "dpotrs": scipy.linalg.lapack,
               "dtrtri": scipy.linalg.lapack, "dtrmm": scipy.linalg.blas}
    calls = dict.fromkeys(modules, 0)
    for name, module in modules.items():
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def missing(name):
        raise AttributeError(name)
    monkeypatch.setattr(_lapack, "_symbol", missing)
    for name, fn in zip(_ROUTINES, _lapack._routines()):
        monkeypatch.setattr(_lapack, name, fn)
    return calls


@pytest.fixture(params=["openblas", "scipy"])
def route(request, monkeypatch):
    if request.param == "scipy":
        _use_scipy_route(monkeypatch)
    elif not _native_route():
        pytest.skip("numpy bundles no OpenBLAS with these LAPACK routines")
    return request.param


def _spd(d, rng, cond=1e3):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (Q * np.geomspace(1.0, cond, d)) @ Q.T


def _results():
    """What each linalg entry point that reaches LAPACK returns on fixed
    inputs."""
    rng = np.random.default_rng(3)
    M = _spd(32, rng)
    B = rng.standard_normal((32, 3))
    stack = np.stack([_spd(32, rng) for _ in range(4)] + [np.zeros((32, 32))])
    A = rng.standard_normal((200, 32))
    Q, ok = linalg.accepted_inverses(stack)
    assert list(ok) == [True] * 4 + [False]
    return {"cholesky": linalg.cholesky(M),
            "solve_spd": linalg.solve_spd(M, B),
            "solve_spd_vector": linalg.solve_spd(M, B[:, 0]),
            "spd_inverse": spd_inverse(M),
            "whiten": linalg.whiten(A, M),
            "inverse_quadratic_forms": linalg.inverse_quadratic_forms(A, M),
            "accepted_inverses": Q,
            "exact_leverage_scores": exact_leverage_scores(A, 0.1 * np.eye(32))}


def test_scipy_route_is_taken_and_agrees_with_the_openblas_route(monkeypatch):
    if not _native_route():
        pytest.skip("numpy bundles no OpenBLAS with these LAPACK routines")
    primary = _results()
    calls = _use_scipy_route(monkeypatch)
    fallback = _results()
    assert all(calls.values()), calls
    for name, want in primary.items():
        got = fallback[name]
        assert got.shape == want.shape, name
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= ROUTE_RTOL, (name, rel)


class TestErrorContract:
    def test_potrf_stop(self, route):
        with pytest.raises(NotPositiveDefinite) as err:
            linalg.cholesky(np.diag([1.0, 2.0, -1.0, 1.0]))
        assert err.value.pivot_index == 2

    def test_pivot_below_threshold(self, route):
        with pytest.raises(NotPositiveDefinite) as err:
            linalg.cholesky(np.diag([1.0, 1e-16, 1.0]))
        assert err.value.pivot_index == 1

    def test_trtri_status(self, route):
        Z = np.stack([np.triu(np.ones((4, 4))), np.triu(np.ones((4, 4)))])
        Z[1, 2, 2] = 0.0
        with pytest.raises(NotPositiveDefinite, match="factor 1") as err:
            linalg._invert_upper(Z, "factor")
        assert err.value.pivot_index == 2

    def test_trtri_stack_inverts_in_place(self, route):
        rng = np.random.default_rng(5)
        Z = np.ascontiguousarray(
            [np.linalg.cholesky(_spd(6, rng)).T for _ in range(3)])
        Z[2, 4, 4] = 0.0
        want = [np.linalg.inv(Zt) for Zt in Z[:2]]
        status = _lapack.dtrtri_stack(Z)
        assert list(status) == [0, 0, 5]
        np.testing.assert_allclose(Z[:2], want, rtol=1e-10, atol=1e-12)

    def test_potrf_stack_factors_in_place(self, route):
        rng = np.random.default_rng(6)
        M = np.stack([_spd(6, rng) for _ in range(3)])
        M[2, 3, 3] = -1.0
        Z = np.ascontiguousarray(M.transpose(0, 2, 1))
        status = _lapack.dpotrf_stack(Z)
        assert list(status) == [0, 0, 4]
        want = np.linalg.cholesky(M[:2]).transpose(0, 2, 1)
        np.testing.assert_allclose(np.triu(Z[:2]), want, rtol=1e-10,
                                   atol=1e-12)

    def test_trtri_stack_refuses_a_stack_not_in_c_order(self, route):
        with pytest.raises(ValueError):
            _lapack.dtrtri_stack(np.ones((2, 3, 3)).transpose(0, 2, 1))

    def test_potrf_stack_refuses_a_stack_not_in_c_order(self, route):
        with pytest.raises(ValueError):
            _lapack.dpotrf_stack(np.ones((2, 3, 3)).transpose(0, 2, 1))

    def test_trmm_multiplies_rows_by_the_upper_factor_in_place(self, route):
        rng = np.random.default_rng(7)
        Z = np.triu(rng.standard_normal((5, 5)))
        X = rng.standard_normal((9, 5))
        want = X @ Z
        _lapack.dtrmm(X, Z)
        np.testing.assert_allclose(X, want, rtol=1e-12, atol=1e-12)
        empty = np.empty((0, 5))
        _lapack.dtrmm(empty, Z)

    @pytest.mark.parametrize("X, Z", [
        (np.ones((4, 3)).T, np.eye(4)),
        (np.ones((3, 4)), np.eye(4).T[:, ::-1]),
        (np.ones((3, 4), dtype=np.float32), np.eye(4)),
        (np.ones((3, 4)), np.eye(3)),
        (np.ones(4), np.eye(4)),
    ], ids=["rows-not-c-order", "factor-not-c-order", "float32",
            "shape-mismatch", "vector"])
    def test_trmm_refuses_what_it_cannot_multiply(self, route, X, Z):
        before = X.copy()
        with pytest.raises(ValueError):
            _lapack.dtrmm(X, Z)
        assert np.array_equal(X, before)

    def test_trmm_refuses_read_only_rows(self, route):
        X = np.ones((3, 4))
        X.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            _lapack.dtrmm(X, np.eye(4))

    @pytest.mark.parametrize("name", ["dpotrf_stack", "dtrtri_stack"])
    def test_stack_routines_refuse_a_read_only_stack(self, route, name):
        Z = np.array([[[2.0, 1.0], [0.0, 4.0]]])
        Z.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            getattr(_lapack, name)(Z)
        assert np.array_equal(Z, [[[2.0, 1.0], [0.0, 4.0]]])


def _accepts(M):
    try:
        linalg.cholesky(M)
    except NotPositiveDefinite:
        return False
    return True


def test_stacked_verdicts_are_cholesky_verdicts_at_the_pivot_threshold(route):
    """A^T A with its last squared pivot moved halfway between numpy's and
    scipy's, which often differ in the last bits: a stack of one is
    accepted exactly when :func:`linalg.cholesky` accepts the matrix."""
    for seed in range(1, 41):
        A = np.random.default_rng(seed).standard_normal((40, 32))
        M = A.T @ A
        p_np = np.linalg.cholesky(M)[-1, -1] ** 2
        p_sp = scipy.linalg.lapack.dpotrf(M, lower=1)[0][-1, -1] ** 2
        M[-1, -1] += linalg._pivot_threshold(M) - (p_np + p_sp) / 2
        assert linalg.accepted_inverses(M[None])[1][0] == _accepts(M), seed


_PROBE = """
import json, sys
import randskew.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv), scipy_modules()]
print(json.dumps(seen))
"""

_DATA = "data = synthetic\nsynthetic = coherent\nn = 128\nd = 8\n"
_BIAS = _DATA + ("lambda = 0\nplans = exact_leverage,shrinkage\n"
                 "debias = none,scalar,fine_exact\nm_grid = 32,64\n"
                 "trials = 16\n")
_SOLVE = _DATA + ("lambda = 0.01\nproblem = logistic\nmethod = ssn\n"
                  "step = armijo\nm = 64\niters = 3\n")


def test_cli_runs_without_scipy_linalg(tmp_path):
    """Importing the CLI, a ``bias`` run and an SRHT ``solve`` load no scipy
    module; an ``approx_leverage`` solve loads ``scipy.sparse`` only."""
    if not _native_route():
        pytest.skip("numpy bundles no OpenBLAS with these LAPACK routines")
    runs = []
    for name, text, overrides in [
            ("bias", _BIAS, []),
            ("srht", _SOLVE, ["plan=srht", "debias=scalar"]),
            ("sjlt", _SOLVE, ["plan=approx_leverage", "debias=fine_approx"])]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        command = "bias" if name == "bias" else "solve"
        runs.append((name, [command, "--config", str(cfg), "--seed", "1",
                            "--out", str(tmp_path / f"{name}.csv"),
                            *overrides]))
    # a set thread count keeps pmap's work in this process, where
    # sys.modules can see what it imports
    env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert all(rc == 0 for rc, _ in seen.values()), proc.stderr
    for name in ("import", "bias", "srht"):
        assert seen[name][1] == [], name
    loaded = seen["sjlt"][1]
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith("scipy.linalg")], loaded
