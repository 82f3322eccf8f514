"""KSP-style CG solver: convergence, preconditioners, edge cases, and the
compiled solve against its NumPy target, bit for bit."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import KSPSolver
from repro.fem import solver as solver_mod
from repro.translator import native

SRC = str(Path(__file__).resolve().parents[2] / "src")
NATIVE = native.compiler() is not None
needs_cc = pytest.mark.skipif(not NATIVE, reason="no C compiler")


def spd_matrix(n, rng, density=0.2):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)))
    a = a + a.T + 2.0 * n * sp.eye(n)
    return a.tocsr()


@pytest.mark.parametrize("pc", ["jacobi", "none"])
def test_cg_solves_spd_system(pc, rng):
    a = spd_matrix(60, rng)
    x_true = rng.normal(size=60)
    b = a @ x_true
    res = KSPSolver(a, pc=pc, rtol=1e-12).solve(b)
    assert res.converged
    np.testing.assert_allclose(res.x, x_true, rtol=1e-8, atol=1e-8)


def test_initial_guess_speeds_convergence(rng):
    a = spd_matrix(80, rng)
    x_true = rng.normal(size=80)
    b = a @ x_true
    cold = KSPSolver(a, rtol=1e-10).solve(b)
    warm = KSPSolver(a, rtol=1e-10).solve(b, x0=x_true + 1e-8)
    assert warm.iterations <= cold.iterations


def test_zero_rhs_returns_zero(rng):
    a = spd_matrix(10, rng)
    res = KSPSolver(a).solve(np.zeros(10))
    assert res.converged
    np.testing.assert_allclose(res.x, 0.0)


def test_max_iterations_respected(rng):
    a = spd_matrix(50, rng)
    b = rng.normal(size=50)
    res = KSPSolver(a, pc="none", rtol=1e-16, atol=0.0, max_it=2).solve(b)
    assert res.iterations <= 2


def test_max_it_zero_runs_no_iteration(rng, target):
    a = spd_matrix(20, rng)
    b = rng.normal(size=20)
    res = KSPSolver(a, max_it=0).solve(b)
    assert res.iterations == 0 and not res.converged
    np.testing.assert_array_equal(res.x, 0.0)


def test_negative_max_it_rejected(rng):
    with pytest.raises(ValueError, match="max_it"):
        KSPSolver(spd_matrix(4, rng), max_it=-1)


def test_rhs_shape_checked(rng):
    a = spd_matrix(5, rng)
    with pytest.raises(ValueError):
        KSPSolver(a).solve(np.zeros(6))


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        KSPSolver(sp.random(3, 4, density=0.5).tocsr())


def test_unknown_pc_rejected(rng):
    with pytest.raises(ValueError):
        KSPSolver(spd_matrix(4, rng), pc="multigrid")


def test_callable_pc_rejected(rng):
    with pytest.raises(ValueError, match="unknown preconditioner"):
        KSPSolver(spd_matrix(4, rng), pc=lambda r: r)


def test_jacobi_rejects_zero_diagonal():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        KSPSolver(a)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_diagonal_rejected(bad):
    a = sp.csr_matrix(np.array([[bad, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        KSPSolver(a)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_rhs_and_guess_rejected(rng, target, bad):
    a = spd_matrix(6, rng)
    b = rng.normal(size=6)
    b[2] = bad
    with pytest.raises(ValueError, match="rhs has non-finite"):
        KSPSolver(a).solve(b)
    with pytest.raises(ValueError, match="initial guess has non-finite"):
        KSPSolver(a).solve(np.ones(6), x0=b)


def test_jacobi_application():
    a = sp.diags([2.0, 4.0, 8.0]).tocsr()
    np.testing.assert_array_equal(KSPSolver(a).inv_diag, [0.5, 0.25, 0.125])
    assert KSPSolver(a, pc="none").inv_diag is None


def test_pc_accelerates_ill_conditioned():
    n = 100
    diag = np.logspace(0, 4, n)
    a = sp.diags(diag).tocsr()
    b = np.ones(n)
    plain = KSPSolver(a, pc="none", rtol=1e-10).solve(b)
    jac = KSPSolver(a, pc="jacobi", rtol=1e-10).solve(b)
    assert jac.iterations < plain.iterations


# -- the C call against the NumPy target -----------------------------------------


def both_targets(make, b, x0=None):
    """``(native result, NumPy result)`` of one solve on fresh solvers."""
    got = make().solve(b, x0)
    saved, native.CC = native.CC, None
    try:
        want = make().solve(b, x0)
    finally:
        native.CC = saved
    return got, want


def assert_bit_equal(got, want):
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.float64(got.residual_norm).tobytes() \
        == np.float64(want.residual_norm).tobytes()
    assert got.x.tobytes() == want.x.tobytes()


@needs_cc
@pytest.mark.parametrize("n", [1, 2, 17, 300])
@pytest.mark.parametrize("pc", ["jacobi", "none"])
@pytest.mark.parametrize("guess", [False, True])
def test_native_is_bit_equal_to_numpy(rng, n, pc, guess):
    a = spd_matrix(n, rng, density=min(1.0, 6.0 / n))
    b = rng.normal(size=n)
    x0 = rng.normal(size=n) if guess else None
    got, want = both_targets(lambda: KSPSolver(a, pc=pc, rtol=1e-12), b, x0)
    assert got.converged and got.iterations > 0
    assert_bit_equal(got, want)


@needs_cc
@pytest.mark.parametrize("pc", ["jacobi", "none"])
def test_native_zero_rhs_and_capped_solves_match(rng, pc):
    a = spd_matrix(40, rng)
    make = lambda: KSPSolver(a, pc=pc, rtol=1e-15, atol=0.0,  # noqa: E731
                             max_it=3)
    got, want = both_targets(make, np.zeros(40))
    assert got.iterations == 0 and got.converged
    assert_bit_equal(got, want)
    got, want = both_targets(make, rng.normal(size=40))
    assert got.iterations == 3 and not got.converged
    assert_bit_equal(got, want)


@needs_cc
@pytest.mark.parametrize("pc", ["jacobi", "none"])
def test_indefinite_direction_stops_both_targets(pc):
    a = sp.diags([1.0, -1.0, 3.0]).tocsr()
    got, want = both_targets(lambda: KSPSolver(a, pc=pc),
                             np.array([1.0, 2.0, 0.5]))
    assert got.iterations == 0 and not got.converged
    assert_bit_equal(got, want)


# -- binding ---------------------------------------------------------------------


@needs_cc
def test_replaced_arrays_rebind_and_revalidate(rng, monkeypatch):
    checks = []
    real = solver_mod._csr_problem
    monkeypatch.setattr(solver_mod, "_csr_problem",
                        lambda *a: checks.append(1) or real(*a))
    a = spd_matrix(30, rng)
    b = rng.normal(size=30)
    ksp = KSPSolver(a)
    first = ksp.solve(b)
    for _ in range(5):
        ksp.solve(b)
    assert len(checks) == 1 and ksp.fallback is None
    ksp.a.data = ksp.a.data.copy()              # same values, new array
    assert_bit_equal(ksp.solve(b), first)
    ksp.a.indptr = ksp.a.indptr.astype(np.int64)
    ksp.a.indices = ksp.a.indices.astype(np.int64)
    assert_bit_equal(ksp.solve(b), first)
    assert len(checks) == 3 and ksp.fallback is None
    ksp.a.data = ksp.a.data.astype(np.float32)
    assert ksp.solve(b).converged
    assert ksp.fallback == "matrix values are not a contiguous float64 array"


def test_csr_checks_keep_the_c_function_in_bounds():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    inv = np.ones(2)
    assert solver_mod._csr_problem(a, inv) is None
    bad_col = a.copy()
    bad_col.indices[3] = 2
    assert "column index" in solver_mod._csr_problem(bad_col, inv)
    bad_col.indices[3] = -1
    assert "column index" in solver_mod._csr_problem(bad_col, inv)
    for ptr in ([0, 3, 2], [1, 2, 4], [0, 2, 5], [0, 2]):
        bad_ptr = a.copy()
        bad_ptr.indptr = np.array(ptr, dtype=np.int32)
        assert "row pointers" in solver_mod._csr_problem(bad_ptr, inv)
    assert "inverse diagonal" in solver_mod._csr_problem(a, np.ones(3))


# -- build and fallback ----------------------------------------------------------


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """Nothing loaded, no compiler found yet, an empty cache directory."""
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "CC", False)
    monkeypatch.setattr(native, "CACHE", False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    return tmp_path / "repro-oppic"


def test_no_compiler_falls_back_with_a_reason(fresh, monkeypatch, rng):
    monkeypatch.setenv("CC", "/bin/false")
    a = spd_matrix(12, rng)
    ksp = KSPSolver(a)
    res = ksp.solve(rng.normal(size=12))
    assert res.converged
    assert ksp.fallback.startswith("no C compiler")
    assert native.CC is None and not fresh.exists()


_PROBE = """
import json
import numpy as np
import scipy.sparse as sp
from repro.fem import KSPSolver
a = sp.diags([4.0, 5.0, 6.0]) + sp.eye(3, k=1) + sp.eye(3, k=-1)
ksp = KSPSolver(a.tocsr())
res = ksp.solve(np.array([1.0, 2.0, 3.0]))
print(json.dumps([ksp.fallback, res.x.tolist()]))
"""


@needs_cc
def test_truncated_cached_object_is_rebuilt_not_loaded(tmp_path):
    """Each solve is its own process, as the damage would be found."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    env.pop("CC", None)

    def solve_in_a_new_process():
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    first = solve_in_a_new_process()
    assert first[0] is None
    (obj,) = (tmp_path / "repro-oppic").iterdir()
    assert obj.name.startswith("ksp_pcg-")
    blob = obj.read_bytes()
    obj.write_bytes(blob[:len(blob) // 2])
    assert solve_in_a_new_process() == first
    assert len(obj.read_bytes()) == len(blob)       # rebuilt in place
