"""The Newton system: its in-place diagonal update against a fresh
assembly, and the compiled nonlinear solve against its NumPy form."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import DirichletSystem, KSPSolver, NewtonPattern, \
    NewtonSystem, build_stiffness
from repro.fem import newton as newton_mod
from repro.mesh import duct_mesh
from repro.translator import native

NATIVE = native.compiler() is not None
needs_cc = pytest.mark.skipif(not NATIVE, reason="no C compiler")

#: Boltzmann constants near the FemPIC smoke config's, none of them 1.0,
#: so every product and quotient of the formulae rounds
PLASMA = dict(spwt=20.0, ion_charge=1.3, n0=2.0e3, phi0=0.1, kTe=0.9,
              eps0=0.7)


@pytest.fixture(scope="module")
def world():
    mesh = duct_mesh(3, 3, 5, 1.0, 1.0, 1.5)
    k = build_stiffness(mesh.points, mesh.cell2node)
    dn = np.sort(np.concatenate([mesh.tags["inlet_nodes"],
                                 mesh.tags["wall_nodes"]]))
    nvol = np.random.default_rng(7).uniform(0.5, 1.5, k.shape[0]) \
        / k.shape[0]
    return k, DirichletSystem(k, dn, np.where(dn % 2, 2.0, 0.0)), nvol


def system(ds, rtol=1e-10, **plasma):
    return NewtonSystem(ds, **{**PLASMA, **plasma}, rtol=rtol)


def fresh_solve(k, free, jdiag, rhs, rtol):
    """The assemble-slice-construct sequence the drivers used to run."""
    a = (k + sp.diags(jdiag)).tocsr()
    return KSPSolver(a[free][:, free], pc="jacobi", rtol=rtol).solve(rhs)


def test_in_place_update_matches_fresh_assembly(world, rng):
    k, ds, _ = world
    newton = system(ds, rtol=1e-8)
    for scale in (1e-3, 1.0, 50.0, 1e-6, 7.0):
        jdiag = scale * rng.random(k.shape[0]) + 1e-12
        rhs = rng.normal(size=ds.free.size)
        got = newton.solve(jdiag[ds.free], rhs)
        want = fresh_solve(k, ds.free, jdiag, rhs, 1e-8)
        assert got.converged
        assert got.iterations == want.iterations
        assert got.residual_norm == want.residual_norm
        np.testing.assert_array_equal(got.x, want.x)


def test_systems_from_one_matrix_do_not_alias(world, rng):
    k, ds, _ = world
    k_ff_before = ds.k_ff.data.copy()
    one, two = system(ds), system(ds)
    rhs = rng.normal(size=ds.free.size)
    j_one = rng.random(k.shape[0])
    j_two = 100.0 * rng.random(k.shape[0])
    first = one.solve(j_one[ds.free], rhs)
    two.solve(j_two[ds.free], rhs)
    assert not np.shares_memory(one.a.data, two.a.data)
    assert not np.shares_memory(one.a.data, ds.k_ff.data)
    np.testing.assert_array_equal(ds.k_ff.data, k_ff_before)
    np.testing.assert_array_equal(one.a.diagonal(),
                                  ds.k_ff.diagonal() + j_one[ds.free])
    # `one` still holds its own diagonal: a plain re-solve on its solver
    # object reproduces its result
    again = one.ksp.solve(rhs)
    np.testing.assert_array_equal(again.x, first.x)


def test_zero_diagonal_rejected(world):
    _, ds, _ = world
    newton = system(ds)
    shift = np.ones(ds.free.size)
    shift[3] = -newton.kdiag[3]
    with pytest.raises(ValueError, match="zero diagonal"):
        newton.solve(shift, np.ones(ds.free.size))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_shift_rejected(world, bad):
    _, ds, _ = world
    newton = system(ds)
    shift = np.ones(ds.free.size)
    shift[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        newton.solve(shift, np.ones(ds.free.size))


def test_pattern_without_diagonal_entry_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    with pytest.raises(ValueError, match="diagonal entry"):
        system(DirichletSystem(a, [], []))


def test_rhs_shape_checked(world):
    _, ds, _ = world
    with pytest.raises(ValueError, match="rhs has shape"):
        system(ds).solve(np.ones(ds.free.size), np.ones(ds.free.size + 1))


# -- the nonlinear solve: the C call against the NumPy target ---------------------


def start(ds, nvol, rng, charge):
    """``(phi, nw, nvol)`` as dim-1 node dats hold them: Dirichlet values
    set, a random interior guess, ``charge``-scaled node weights."""
    phi = np.zeros((ds.n, 1))
    phi[ds.free, 0] = 0.3 * rng.random(ds.free.size)
    phi[ds.dirichlet_nodes, 0] = ds.dirichlet_values
    return phi, charge * rng.random((ds.n, 1)), nvol[:, None].copy()


def potential_both_targets(make, phi, nw, nvol):
    """``((phi, result) native, (phi, result) NumPy)`` of one
    ``solve_potential`` on fresh systems from the same start."""
    out = []
    for cc in (native.CC, None):
        saved, native.CC = native.CC, cc
        try:
            newton, p = make(), phi.copy()
            out.append((p, newton.solve_potential(p, nw, nvol)))
        finally:
            native.CC = saved
    return out


def assert_solves_bit_equal(got, want):
    (phi_got, res_got), (phi_want, res_want) = got, want
    assert res_got.iterations == res_want.iterations
    assert np.array(res_got.residual_norms).tobytes() \
        == np.array(res_want.residual_norms).tobytes()
    assert phi_got.tobytes() == phi_want.tobytes()


@needs_cc
@pytest.mark.parametrize("charge", [0.0, 1.0, 40.0, 120.0])
@pytest.mark.parametrize("iters", [1, 2, 5])
def test_native_potential_is_bit_equal_to_numpy(world, rng, charge, iters):
    _, ds, nvol = world
    for kte in (0.25, 1.0, 3.0):
        phi, nw, vol = start(ds, nvol, rng, charge)
        make = lambda: system(ds, rtol=1e-8, kTe=kte,  # noqa: E731
                              newton_iters=iters, phi0=0.1 * kte)
        got, want = potential_both_targets(make, phi, nw, vol)
        assert len(got[1].iterations) == iters
        assert sum(got[1].iterations) > 0
        assert_solves_bit_equal(got, want)


@needs_cc
def test_native_potential_is_bit_equal_to_numpy_over_repeated_calls(world,
                                                                   rng):
    """A warm system — the diagonal of its last iteration still in the
    matrix — keeps matching, as a field solve per step runs it."""
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 30.0)
    warm = [system(ds, rtol=1e-8), system(ds, rtol=1e-8)]
    phis = [phi.copy(), phi.copy()]
    for step in range(4):
        nw = 30.0 * rng.random((ds.n, 1))
        results = []
        for newton, p, cc in zip(warm, phis, (native.CC, None)):
            saved, native.CC = native.CC, cc
            try:
                results.append((p, newton.solve_potential(p, nw, vol)))
            finally:
                native.CC = saved
        assert warm[0].fallback is None
        assert_solves_bit_equal(*results)


def test_potential_matches_the_per_iteration_form(world, rng):
    """``solve_potential`` is ``solve`` on the residual and Jacobian the
    FemPIC kernels computed, written out here with ``math.exp``."""
    import math
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 50.0)
    want = phi[:, 0].copy()
    oracle = system(ds, rtol=1e-8)
    c = PLASMA
    inv_eps0 = 1.0 / c["eps0"]
    its = []
    for _ in range(2):
        kphi = ds.k_full @ want
        f1, jd = np.zeros(ds.n), np.zeros(ds.n)
        for i in range(ds.n):
            e = math.exp((want[i] - c["phi0"]) / c["kTe"])
            f1[i] = kphi[i] - (nw[i, 0] * c["spwt"] * c["ion_charge"]
                               - vol[i, 0] * c["n0"] * e) * inv_eps0
            jd[i] = vol[i, 0] * c["n0"] * inv_eps0 / c["kTe"] * e
        step = oracle.solve(jd[ds.free], -f1[ds.free])
        want[ds.free] += step.x
        its.append(step.iterations)
    got = system(ds, rtol=1e-8).solve_potential(phi, nw, vol)
    assert got.iterations == its
    assert phi[:, 0].tobytes() == want.tobytes()


def test_nan_charge_rejected_on_both_targets(world, rng, target):
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 1.0)
    nw[ds.free[4], 0] = np.nan
    with pytest.raises(ValueError, match="^rhs has non-finite entries$"):
        system(ds).solve_potential(phi, nw, vol)


def test_exp_overflow_rejected_on_both_targets(world, rng, target):
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 1.0)
    phi[ds.free[2], 0] = 800.0          # exp(800) overflows a double
    with pytest.raises(ValueError,
                       match="^matrix has non-finite diagonal entries$"):
        system(ds).solve_potential(phi, nw, vol)
    assert phi[ds.free[2], 0] == 800.0     # rejected before any step


def test_node_vectors_checked(world, rng, target):
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 1.0)
    newton = system(ds)
    for bad in (phi[:-1], phi.astype(np.float32), np.asfortranarray(
            np.repeat(phi, 2, axis=1)), phi[::2]):
        with pytest.raises(ValueError, match="phi must be"):
            newton.solve_potential(bad, nw, vol)
    with pytest.raises(ValueError, match="nvol must be"):
        newton.solve_potential(phi, nw, vol.ravel().tolist())


@pytest.mark.parametrize("corrupt, why", [
    (lambda s: setattr(s, "free", s.free[::-1].copy()), "strictly"),
    (lambda s: setattr(s, "free", np.r_[s.free[:-1], s.n]), "within"),
    (lambda s: setattr(s, "free", s.free[1:].copy()), "free is not"),
    (lambda s: setattr(s, "diag_pos", s.diag_pos + s.a.nnz),
     "outside its row"),
    (lambda s: setattr(s, "diag_pos", s.diag_pos.astype(np.int32)),
     "diag_pos is not"),
    (lambda s: setattr(s, "kdiag", s.kdiag[:-1].copy()), "kdiag is not"),
])
def test_bind_rejects_corrupted_indices(world, rng, target, corrupt, why):
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 1.0)
    newton = system(ds)
    newton.solve_potential(phi, nw, vol)
    corrupt(newton)                 # a new array object: the next call binds
    with pytest.raises(ValueError, match=f"cannot bind.*{why}"):
        newton.solve_potential(phi, nw, vol)


@needs_cc
def test_binding_happens_once(world, rng, monkeypatch):
    checks = []
    real = newton_mod._csr_problem
    monkeypatch.setattr(newton_mod, "_csr_problem",
                        lambda *a: checks.append(1) or real(*a))
    _, ds, nvol = world
    phi, nw, vol = start(ds, nvol, rng, 1.0)
    newton = system(ds)
    for _ in range(5):
        newton.solve_potential(phi, nw, vol)
    assert len(checks) == 2 and newton.fallback is None     # K and a
    newton.k = newton.k.astype(np.float32)
    newton.solve_potential(phi, nw, vol)
    assert newton.fallback == \
        "matrix values are not a contiguous float64 array"


def test_numpy_target_reports_why(world, rng, monkeypatch):
    monkeypatch.setattr(native, "CC", None)
    _, ds, nvol = world
    newton = system(ds)
    newton.solve_potential(*start(ds, nvol, rng, 1.0))
    assert newton.fallback


# -- systems sharing one pattern ---------------------------------------------------


def pattern_bytes(pattern):
    return [arr.tobytes() for arr in (
        pattern.a.data, pattern.a.indices, pattern.a.indptr, pattern.k.data,
        pattern.diag_pos, pattern.kdiag, pattern.free) + pattern.indices]


def test_pattern_arrays_are_shared_and_read_only(world):
    _, ds, _ = world
    pattern = NewtonPattern(ds)
    one, two = system(pattern), system(pattern, kTe=2.0)
    for arr in (pattern.a.data, pattern.diag_pos, pattern.kdiag) \
            + pattern.indices:
        assert not arr.flags.writeable
    assert np.shares_memory(one.a.indices, two.a.indices)
    assert np.shares_memory(one.a.indptr, pattern.a.indptr)
    assert one.k is two.k is pattern.k
    assert not np.shares_memory(one.a.data, two.a.data)
    assert not np.shares_memory(one.ksp.inv_diag, two.ksp.inv_diag)
    for mine in (one, two):
        assert not np.shares_memory(mine.a.data, pattern.a.data)


PHYSICS = [dict(kTe=0.9, spwt=20.0, newton_iters=2, rtol=1e-8),
           dict(kTe=2.5, spwt=7.0, newton_iters=3, rtol=1e-6)]


def test_systems_on_one_pattern_match_their_own_cold_builds(world, rng,
                                                            target):
    """Two physics on one pattern, solved alternately, are each bit-equal
    to a system that derived its own pattern."""
    _, ds, nvol = world
    pattern = NewtonPattern(ds)
    before = pattern_bytes(pattern)
    shared = [system(pattern, **p) for p in PHYSICS]
    cold = [system(ds, **p) for p in PHYSICS]
    phi, _, vol = start(ds, nvol, rng, 1.0)
    phis = [[phi.copy(), phi.copy()] for _ in PHYSICS]
    for _ in range(4):
        nw = 40.0 * rng.random((ds.n, 1))
        for one, oracle, (p_one, p_oracle) in zip(shared, cold, phis):
            got = one.solve_potential(p_one, nw, vol)
            want = oracle.solve_potential(p_oracle, nw, vol)
            assert_solves_bit_equal((p_one, got), (p_oracle, want))
            assert len(got.iterations) == one.newton_iters
    assert pattern_bytes(pattern) == before


@pytest.mark.parametrize("spoil", ["nan_charge", "exp_overflow"])
def test_a_failed_solve_leaves_nothing_for_the_next_system(world, rng,
                                                           target, spoil):
    """A system that solved once (its diagonal written) and then failed
    leaves the pattern as built: the next system on it is bit-equal to a
    cold one."""
    _, ds, nvol = world
    pattern = NewtonPattern(ds)
    before = pattern_bytes(pattern)
    phi, nw, vol = start(ds, nvol, rng, 30.0)
    failing = system(pattern, rtol=1e-8, kTe=0.5)
    failing.solve_potential(phi.copy(), nw, vol)
    bad_phi, bad_nw = phi.copy(), nw.copy()
    if spoil == "nan_charge":
        bad_nw[ds.free[4], 0] = np.nan
    else:
        bad_phi[ds.free[2], 0] = 800.0
    with pytest.raises(ValueError, match="non-finite"):
        failing.solve_potential(bad_phi, bad_nw, vol)
    assert pattern_bytes(pattern) == before
    got_phi, want_phi = phi.copy(), phi.copy()
    got = system(pattern, rtol=1e-8).solve_potential(got_phi, nw, vol)
    want = system(ds, rtol=1e-8).solve_potential(want_phi, nw, vol)
    assert_solves_bit_equal((got_phi, got), (want_phi, want))


@needs_cc
def test_a_system_on_a_pattern_binds_without_checks(world, rng,
                                                    monkeypatch):
    """The pattern checked its arrays once; a system built on it checks
    nothing and loads nothing on its first solve."""
    _, ds, nvol = world
    pattern = NewtonPattern(ds)
    calls = []
    for owner, name in ((newton_mod, "_csr_problem"),
                        (newton_mod, "_index_problem"),
                        (native, "_library")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    newton = system(pattern)
    newton.solve_potential(*start(ds, nvol, rng, 1.0))
    assert calls == [] and newton.fallback is None
