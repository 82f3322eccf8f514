"""Direct-hop vs multi-hop relocation equivalence.

The paper's DH optimisation only changes *where the walk starts* (the
structured-overlay guess), never where it ends: after an
``opp_particle_move``, both strategies must assign every particle to the
same cell and leave particle data identical.  Checked two ways — on a
randomized periodic hex brick with a hand-rolled walk kernel, and on the
full FemPic app (tet mesh) via its ``move_strategy`` switch.
"""
import numpy as np
import pytest

from repro.core.api import (OPP_READ, OPP_WRITE, Context, arg_dat,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set, particle_move, push_context)
from repro.mesh import HexMesh, StructuredOverlay
from repro.runtime.dh import direct_hop_assign


def hex_walk(move, pos, bounds, res):
    """Face-neighbour walk on a hex brick; ``bounds`` is the current
    cell's [lox, loy, loz, hix, hiy, hiz]."""
    if pos[0] < bounds[0]:
        move.move_to(move.c2c[0])
    elif pos[0] >= bounds[3]:
        move.move_to(move.c2c[1])
    elif pos[1] < bounds[1]:
        move.move_to(move.c2c[2])
    elif pos[1] >= bounds[4]:
        move.move_to(move.c2c[3])
    elif pos[2] < bounds[2]:
        move.move_to(move.c2c[4])
    elif pos[2] >= bounds[5]:
        move.move_to(move.c2c[5])
    else:
        res[0] = move.cell * 1.0
        move.done()


def build_hex_world(mesh: HexMesh, positions, start_cells):
    n = len(positions)
    cells = decl_set(mesh.n_cells, "cells")
    parts = decl_particle_set(cells, n, "parts")
    c2c = decl_map(cells, cells, 6, mesh.face_c2c, "c2c")
    p2c = decl_map(parts, cells, 1, start_cells.reshape(-1, 1), "p2c")
    i, j, k = mesh.cell_ijk(np.arange(mesh.n_cells))
    lo = np.stack([i * mesh.dx, j * mesh.dy, k * mesh.dz], axis=1)
    bounds = decl_dat(cells, 6, np.float64,
                      np.hstack([lo, lo + [mesh.dx, mesh.dy, mesh.dz]]),
                      "bounds")
    pos = decl_dat(parts, 3, np.float64, positions, "pos")
    res = decl_dat(parts, 1, np.float64, np.full(n, -1.0), "res")
    return parts, c2c, p2c, bounds, pos, res


def identity_overlay(mesh: HexMesh) -> StructuredOverlay:
    # one bin per cell: bin_of flattens (k*ny + j)*nx + i, exactly
    # HexMesh.cell_id's x-fastest ordering, so the identity cell map
    # makes the overlay's guess the true containing cell
    return StructuredOverlay([0.0, 0.0, 0.0],
                             [mesh.lx, mesh.ly, mesh.lz],
                             [mesh.nx, mesh.ny, mesh.nz],
                             np.arange(mesh.n_cells))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hex_dh_and_mh_agree(seed):
    rng = np.random.default_rng(100 + seed)
    mesh = HexMesh(nx=int(rng.integers(3, 6)), ny=int(rng.integers(3, 6)),
                   nz=int(rng.integers(2, 5)))
    n = 200
    positions = rng.uniform([0, 0, 0], [mesh.lx, mesh.ly, mesh.lz],
                            size=(n, 3))
    # random start cells force genuinely multi-cell hops for MH
    start = rng.integers(0, mesh.n_cells, size=n).astype(np.int64)

    def run(strategy):
        with push_context(Context("seq")):
            parts, c2c, p2c, bounds, pos, res = build_hex_world(
                mesh, positions, start)
            if strategy == "dh":
                overlay = identity_overlay(mesh)
                direct_hop_assign(overlay, parts, pos, p2c)
                np.testing.assert_array_equal(
                    p2c.p2c, overlay.lookup_cell(pos.data[:parts.size]))
            mres = particle_move(hex_walk, "hex_walk", parts, c2c, p2c,
                                 arg_dat(pos, OPP_READ),
                                 arg_dat(bounds, p2c, OPP_READ),
                                 arg_dat(res, OPP_WRITE))
            return p2c.p2c.copy(), res.data.copy(), mres.total_hops

    mh_cells, mh_res, mh_hops = run("mh")
    dh_cells, dh_res, dh_hops = run("dh")

    # no removals on a periodic brick: element-wise comparable
    assert np.array_equal(mh_cells, dh_cells)
    assert np.array_equal(mh_res, dh_res)
    # the walks really converged on the containing cell
    expected = mesh.cell_id(*((positions
                               / [mesh.dx, mesh.dy, mesh.dz])
                              .astype(np.int64)).T)
    assert np.array_equal(mh_cells, expected)
    # DH's whole point: the identity overlay needs one hop per particle
    assert dh_hops == len(positions)
    assert dh_hops <= mh_hops


def test_hex_dh_agrees_across_backends():
    rng = np.random.default_rng(77)
    mesh = HexMesh(nx=4, ny=3, nz=3)
    n = 120
    positions = rng.uniform([0, 0, 0], [mesh.lx, mesh.ly, mesh.lz],
                            size=(n, 3))
    start = rng.integers(0, mesh.n_cells, size=n).astype(np.int64)

    def run(backend):
        with push_context(Context(backend)):
            parts, c2c, p2c, bounds, pos, res = build_hex_world(
                mesh, positions, start)
            direct_hop_assign(identity_overlay(mesh), parts, pos, p2c)
            particle_move(hex_walk, "hex_walk", parts, c2c, p2c,
                          arg_dat(pos, OPP_READ),
                          arg_dat(bounds, p2c, OPP_READ),
                          arg_dat(res, OPP_WRITE))
            return p2c.p2c.copy(), res.data.copy()

    seq_cells, seq_res = run("seq")
    for backend in ("vec", "sanitizer"):
        cells, res = run(backend)
        assert np.array_equal(seq_cells, cells), backend
        assert np.array_equal(seq_res, res), backend


@pytest.mark.slow
def test_fempic_dh_matches_mh_end_to_end():
    """Full app on the tet duct mesh: identical physics under both
    relocation strategies, including injected/removed particles."""
    from repro.apps.fempic.config import FemPicConfig
    from repro.apps.fempic.simulation import FemPicSimulation

    def run(strategy):
        cfg = FemPicConfig.smoke().scaled(move_strategy=strategy)
        sim = FemPicSimulation(cfg)
        hist = sim.run()
        n = sim.parts.size
        state = np.hstack([sim.pos.data[:n], sim.vel.data[:n],
                           sim.p2c.p2c[:n].reshape(-1, 1)])
        # hole-filling order may differ between strategies: compare the
        # particle population as a sorted multiset
        order = np.lexsort(state.T)
        return hist, state[order]

    mh_hist, mh_state = run("mh")
    dh_hist, dh_state = run("dh")
    assert mh_hist["n_particles"] == dh_hist["n_particles"]
    np.testing.assert_allclose(mh_hist["field_energy"],
                               dh_hist["field_energy"],
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(mh_state, dh_state,
                               rtol=1e-12, atol=1e-14)
