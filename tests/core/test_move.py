"""Particle-move semantics: walking, removal, deposits along the path,
foreign-cell pausing, hop accounting — on both elemental and vector
drivers."""
import numpy as np
import pytest

from repro.core.api import (OPP_INC, OPP_READ, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set, decl_set,
                            particle_move, push_context)
from repro.core.move import MoveLoop
from repro.core.types import MoveStatus

BACKENDS = ["seq", "vec", "cuda"]


def chain_world(n_cells=6, positions=(0.5, 3.2, 5.9)):
    """1-D chain of unit cells [i, i+1); c2c = [left, right]."""
    cells = decl_set(n_cells)
    c2c_data = [[i - 1, i + 1 if i + 1 < n_cells else -1]
                for i in range(n_cells)]
    c2c = decl_map(cells, cells, 2, c2c_data)
    parts = decl_particle_set(cells, len(positions))
    p2c = decl_map(parts, cells, 1, np.zeros((len(positions), 1), dtype=int))
    pos = decl_dat(parts, 1, np.float64, list(positions))
    visits = decl_dat(cells, 1, np.float64)
    return cells, c2c, parts, p2c, pos, visits


def walk_kernel(move, p):
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def walk_count_kernel(move, p, v):
    v[0] += 1.0
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


@pytest.mark.parametrize("backend", BACKENDS)
def test_walk_finds_destination_cells(backend):
    with push_context(Context(backend)):
        _, c2c, parts, p2c, pos, _ = chain_world()
        res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                            arg_dat(pos, OPP_READ))
        assert p2c.p2c.tolist() == [0, 3, 5]
        assert res.n_removed == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_domain_particles_removed(backend):
    with push_context(Context(backend)):
        _, c2c, parts, p2c, pos, _ = chain_world(
            positions=(0.5, 7.5, 2.5))  # 7.5 beyond the chain
        res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                            arg_dat(pos, OPP_READ))
        assert res.n_removed == 1
        assert parts.size == 2
        assert sorted(p2c.p2c.tolist()) == [0, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_deposit_along_path_counts_every_cell(backend):
    """INC through the current cell must land once per hop — the
    electromagnetic deposit pattern."""
    with push_context(Context(backend)):
        _, c2c, parts, p2c, pos, visits = chain_world(positions=(3.5,))
        particle_move(walk_count_kernel, "walk", parts, c2c, p2c,
                      arg_dat(pos, OPP_READ),
                      arg_dat(visits, p2c, OPP_INC))
        # particle starts in cell 0, visits 0,1,2,3
        assert visits.data[:, 0].tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_hop_accounting(backend):
    with push_context(Context(backend)):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(0.5, 2.5))
        res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                            arg_dat(pos, OPP_READ))
        # 0.5 needs 1 kernel call; 2.5 needs 3 (cells 0,1,2)
        assert res.total_hops == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_unassigned_particles_skipped(backend):
    with push_context(Context(backend)):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(0.5, 1.5))
        p2c.p2c[1] = -1
        res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                            arg_dat(pos, OPP_READ))
        assert p2c.p2c.tolist() == [0, -1]
        assert parts.size == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_foreign_cell_mask_pauses_walk(backend):
    ctx = Context(backend)
    with push_context(ctx):
        cells, c2c, parts, p2c, pos, _ = chain_world(positions=(4.5,))
        loop = MoveLoop(walk_kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ)])
        loop.foreign_cell_mask = np.array([False, False, False,
                                           True, True, True])
        res = ctx.backend.execute_move(loop)
        assert res.n_foreign == 1
        assert res.foreign_cells.tolist() == [3]
        assert p2c.p2c.tolist() == [3]  # paused at the first foreign cell


@pytest.mark.parametrize("backend", BACKENDS)
def test_deferred_removal_returns_indices(backend):
    ctx = Context(backend)
    with push_context(ctx):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(0.5, 9.9))
        loop = MoveLoop(walk_kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ)])
        loop.defer_removal = True
        res = ctx.backend.execute_move(loop)
        assert parts.size == 2          # not deleted yet
        assert res.removed_indices.tolist() == [1]
        assert res.n_removed == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_only_indices_restricts_move(backend):
    ctx = Context(backend)
    with push_context(ctx):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(2.5, 3.5))
        loop = MoveLoop(walk_kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ)],
                        only_indices=np.array([1]))
        ctx.backend.execute_move(loop)
        assert p2c.p2c.tolist() == [0, 3]  # particle 0 untouched


def _move_outcome(backend, defer):
    """Two particles leave the chain, two pause at the foreign cell 4:
    the move's result fields and the set it leaves behind."""
    ctx = Context(backend)
    with push_context(ctx):
        _, c2c, parts, p2c, pos, _ = chain_world(
            n_cells=8, positions=(0.5, -0.5, 6.5, 2.5, -2.0, 3.2, 4.5))
        loop = MoveLoop(walk_kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ)])
        loop.foreign_cell_mask = np.arange(8) == 4
        loop.defer_removal = defer
        res = ctx.backend.execute_move(loop)
        n = parts.size
        return {"n_removed": res.n_removed,
                "removed": res.removed_indices.tolist(),
                "foreign": res.foreign_particles.tolist(),
                "foreign_cells": res.foreign_cells.tolist(),
                "hops": res.total_hops, "size": n,
                "p2c": p2c.p2c[:n].tolist(),
                "pos": pos.data[:n, 0].tolist()}, res


@pytest.mark.parametrize("defer", [False, True])
@pytest.mark.parametrize("walker", ["native", "numpy", "sanitizer"])
def test_every_walker_ends_its_move_as_seq_does(walker, defer,
                                                monkeypatch):
    """The result and the removal that follow the walk — deleted with
    hole filling, or handed back when deferred — are seq's on native
    ``vec``, the NumPy target and the sanitizer."""
    from repro.translator import native
    want, _ = _move_outcome("seq", defer)
    assert want["n_removed"] == 2 and want["foreign"] == [2, 6]
    assert want["removed"] == ([1, 4] if defer else [])
    assert want["size"] == (7 if defer else 5)
    backend = "sanitizer" if walker == "sanitizer" else "vec"
    if walker == "numpy":
        monkeypatch.setattr(native, "CC", None)
    elif walker == "native" and native.compiler() is None:
        pytest.skip("no C compiler")
    got, res = _move_outcome(backend, defer)
    assert got == want
    if walker == "native":
        assert "fallback" not in res.extras


def test_max_hops_guard():
    decl_const("unused", 0)
    with push_context(Context("seq")):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(5.5,))
        with pytest.raises(RuntimeError):
            particle_move(walk_kernel, "walk", parts, c2c, p2c,
                          arg_dat(pos, OPP_READ), max_hops=2)


def test_move_status_semantics():
    from repro.core.move import MoveContext
    m = MoveContext()
    m.reset(3, np.array([1, 2]), 0)
    assert m.status == MoveStatus.MOVE_DONE
    m.move_to(5)
    assert m.status == MoveStatus.NEED_MOVE and m.next_cell == 5
    m.move_to(-1)
    assert m.status == MoveStatus.NEED_REMOVE
    m.remove()
    assert m.status == MoveStatus.NEED_REMOVE


def test_move_validates_maps():
    cells = decl_set(3)
    nodes = decl_set(3)
    parts = decl_particle_set(cells, 1)
    p2c = decl_map(parts, cells, 1, [[0]])
    bad_map = decl_map(cells, nodes, 1, [[0], [1], [2]])
    pos = decl_dat(parts, 1, np.float64, [0.5])
    with pytest.raises(ValueError):
        particle_move(walk_kernel, "walk", parts, bad_map, p2c,
                      arg_dat(pos, OPP_READ))


def test_move_rejects_global_reductions():
    from repro.core.api import OPP_INC, arg_gbl, decl_global
    with push_context(Context("seq")):
        _, c2c, parts, p2c, pos, _ = chain_world(positions=(0.5,))
        g = decl_global(1)
        with pytest.raises(ValueError):
            particle_move(walk_kernel, "walk", parts, c2c, p2c,
                          arg_dat(pos, OPP_READ), arg_gbl(g, OPP_INC))


def test_bytes_per_hop_model():
    with push_context(Context("seq")):
        _, c2c, parts, p2c, pos, visits = chain_world(positions=(0.5,))
        from repro.core.move import MoveLoop
        loop = MoveLoop(walk_count_kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ),
                         arg_dat(visits, p2c, OPP_INC)])
        # p2c read (8) + c2c row (16) + pos read (8) + visits inc (16)
        assert loop.bytes_per_hop() == 8 + 16 + 8 + 16
