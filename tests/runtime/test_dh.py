"""Direct-hop relocation: single-rank assignment and the distributed
global move."""
import numpy as np
import pytest

from repro.core.api import decl_dat, decl_map, decl_particle_set, decl_set
from repro.mesh import StructuredOverlay, duct_mesh
from repro.runtime import (DirectHopGlobalMover, SimComm, build_rank_meshes,
                           direct_hop_assign, partition)


@pytest.fixture(scope="module")
def mesh():
    return duct_mesh(3, 3, 6, 1.0, 1.0, 2.0)


def test_direct_hop_assign_reduces_walk(mesh, rng):
    overlay = StructuredOverlay.build(mesh, 10)
    pts = rng.uniform([0, 0, 0], [1, 1, 2], size=(100, 3))
    truth = mesh.locate(pts)

    cells = decl_set(mesh.n_cells)
    parts = decl_particle_set(cells, 100)
    p2c = decl_map(parts, cells, 1, np.zeros((100, 1), dtype=int))
    pos = decl_dat(parts, 3, np.float64, pts)

    before = p2c.p2c.copy()
    assert direct_hop_assign(overlay, parts, pos, p2c) is None
    assert (p2c.p2c != before).any()
    # every guess is within a short finishing walk of the truth
    finish = mesh.locate(pts, guesses=p2c.p2c.copy())
    np.testing.assert_array_equal(finish, truth)


def test_direct_hop_assign_skips_dead_particles(mesh):
    overlay = StructuredOverlay.build(mesh, 4)
    cells = decl_set(mesh.n_cells)
    parts = decl_particle_set(cells, 2)
    p2c = decl_map(parts, cells, 1, [[0], [-1]])
    pos = decl_dat(parts, 3, np.float64, np.full((2, 3), 0.1))
    direct_hop_assign(overlay, parts, pos, p2c)
    assert p2c.p2c[1] == -1


def test_empty_particle_set_noop(mesh):
    overlay = StructuredOverlay.build(mesh, 4)
    cells = decl_set(mesh.n_cells)
    parts = decl_particle_set(cells, 0)
    p2c = decl_map(parts, cells, 1, None)
    pos = decl_dat(parts, 3, np.float64)
    before = p2c._raw.copy()
    assert direct_hop_assign(overlay, parts, pos, p2c) is None
    assert parts.size == 0
    np.testing.assert_array_equal(p2c._raw, before)


def test_global_mover_requires_rank_map(mesh):
    overlay = StructuredOverlay.build(mesh, 4)
    comm = SimComm(2)
    owner = partition("principal_direction", 2, centroids=mesh.centroids)
    meshes, plan = build_rank_meshes(mesh.c2c, owner, 2)
    with pytest.raises(ValueError):
        DirectHopGlobalMover(overlay, comm, plan, meshes)


def test_global_move_relocates_to_owner(mesh, rng):
    nranks = 2
    comm = SimComm(nranks)
    owner = partition("principal_direction", nranks,
                      centroids=mesh.centroids)
    meshes, plan = build_rank_meshes(mesh.c2c, owner, nranks)
    overlay = StructuredOverlay.build(mesh, 10).with_rank_map(owner)
    mover = DirectHopGlobalMover(overlay, comm, plan, meshes)

    # all particles start on rank 0; positions spread over the full duct
    pts = rng.uniform([0, 0, 0], [1, 1, 2], size=(60, 3))
    psets, p2cs, poss = [], [], []
    for r in range(nranks):
        cells = decl_set(meshes[r].n_local_cells)
        cells.owned_size = meshes[r].n_owned_cells
        n0 = 60 if r == 0 else 0
        parts = decl_particle_set(cells, n0)
        p2c = decl_map(parts, cells, 1,
                       np.zeros((n0, 1), dtype=int) if n0 else None)
        pos = decl_dat(parts, 3, np.float64, pts if n0 else None)
        psets.append(parts)
        p2cs.append(p2c)
        poss.append(pos)

    received = mover.global_move(psets, poss, p2cs,
                                 [[poss[r]] for r in range(nranks)])
    assert psets[0].size + psets[1].size == 60
    assert psets[1].size > 0              # some particles crossed
    assert received[1] is not None
    assert comm.stats.rma_ops > 0         # rank-map lookups went via RMA
    # every particle now sits on the rank the overlay says owns its bin
    for r in range(nranks):
        live = p2cs[r].p2c[: psets[r].size]
        assert (live >= 0).all()
        ranks = overlay.lookup_rank(poss[r].data[: psets[r].size])
        assert (ranks == r).all()


def test_local_cell_lookup_matches_a_dict(mesh):
    """The dense global→local table answers as a dict of each rank's
    cells would: the local id where the rank holds the cell, else -1."""
    nranks = 3
    owner = partition("principal_direction", nranks,
                      centroids=mesh.centroids)
    meshes, plan = build_rank_meshes(mesh.c2c, owner, nranks)
    overlay = StructuredOverlay.build(mesh, 6).with_rank_map(owner)
    mover = DirectHopGlobalMover(overlay, SimComm(nranks), plan, meshes)
    every = np.arange(mesh.n_cells)
    for r, rm in enumerate(meshes):
        g2l = {int(g): loc for loc, g in enumerate(rm.cells_global)}
        want = np.array([g2l.get(int(g), -1) for g in every])
        assert (want >= 0).any() and (want < 0).any()
        np.testing.assert_array_equal(mover._local_cells(r, every), want)
        shuffled = every[::-1].copy()
        np.testing.assert_array_equal(mover._local_cells(r, shuffled),
                                      want[::-1])


def test_overlay_memory_reported(mesh):
    comm = SimComm(4)
    owner = partition("principal_direction", 4, centroids=mesh.centroids)
    meshes, plan = build_rank_meshes(mesh.c2c, owner, 4)
    overlay = StructuredOverlay.build(mesh, 6).with_rank_map(owner)
    mover = DirectHopGlobalMover(overlay, comm, plan, meshes,
                                 ranks_per_node=2)
    # two node copies of (cell_map + rank_map)
    assert mover.overlay_nbytes == 2 * (overlay.cell_map.nbytes
                                        + overlay.rank_map.nbytes)
