"""Fixed-pattern Newton system: in-place diagonal update vs fresh assembly."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import DirichletSystem, KSPSolver, NewtonSystem, \
    build_stiffness
from repro.mesh import duct_mesh


@pytest.fixture(scope="module")
def world():
    mesh = duct_mesh(3, 3, 5, 1.0, 1.0, 1.5)
    k = build_stiffness(mesh.points, mesh.cell2node)
    dn = np.sort(np.concatenate([mesh.tags["inlet_nodes"],
                                 mesh.tags["wall_nodes"]]))
    return k, DirichletSystem(k, dn, np.zeros(dn.size))


def fresh_solve(k, free, jdiag, rhs, rtol):
    """The assemble-slice-construct sequence the drivers used to run."""
    a = (k + sp.diags(jdiag)).tocsr()
    return KSPSolver(a[free][:, free], pc="jacobi", rtol=rtol).solve(rhs)


def test_in_place_update_matches_fresh_assembly(world, rng):
    k, ds = world
    system = NewtonSystem(ds.k_ff, rtol=1e-8)
    for scale in (1e-3, 1.0, 50.0, 1e-6, 7.0):
        jdiag = scale * rng.random(k.shape[0]) + 1e-12
        rhs = rng.normal(size=ds.free.size)
        got = system.solve(jdiag[ds.free], rhs)
        want = fresh_solve(k, ds.free, jdiag, rhs, 1e-8)
        assert got.converged
        assert got.iterations == want.iterations
        assert got.residual_norm == want.residual_norm
        np.testing.assert_array_equal(got.x, want.x)


def test_systems_from_one_matrix_do_not_alias(world, rng):
    k, ds = world
    k_ff_before = ds.k_ff.data.copy()
    one, two = NewtonSystem(ds.k_ff), NewtonSystem(ds.k_ff)
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
    _, ds = world
    system = NewtonSystem(ds.k_ff)
    shift = np.ones(ds.free.size)
    shift[3] = -system.kdiag[3]
    with pytest.raises(ValueError, match="zero diagonal"):
        system.solve(shift, np.ones(ds.free.size))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_shift_rejected(world, bad):
    _, ds = world
    system = NewtonSystem(ds.k_ff)
    shift = np.ones(ds.free.size)
    shift[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        system.solve(shift, np.ones(ds.free.size))


def test_pattern_without_diagonal_entry_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    with pytest.raises(ValueError, match="diagonal entry"):
        NewtonSystem(a)


def test_rhs_shape_checked(world):
    _, ds = world
    with pytest.raises(ValueError, match="rhs has shape"):
        NewtonSystem(ds.k_ff).solve(np.ones(ds.free.size),
                                    np.ones(ds.free.size + 1))
