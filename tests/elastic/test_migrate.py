"""Live migration: a rebalance must move ownership without changing the
assembled global state — bit for bit — for every distributed app."""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig
from repro.apps.cabana.distributed import DistributedCabana
from repro.apps.fempic import FemPicConfig
from repro.apps.fempic.distributed import DistributedFemPic
from repro.apps.twod.config import TwoDConfig
from repro.apps.twod.distributed import DistributedTwoD
from repro.dist.driver import run_distributed
from repro.elastic import rebalance
from repro.elastic.migrate import node_owners
from repro.runtime import SimComm


def _assemble(app):
    """Global view of everything a migration is allowed to touch:
    owned mesh rows scattered by global id, particles as a canonically
    sorted row set."""
    spec = app._migration_spec()
    comm = app.comm
    out = {}
    for name in spec.get("cell", ()):
        out[f"cell:{name}"] = _owned_rows(
            app, name, lambda m: (m.cells_global, m.n_owned_cells),
            len(app.cell_owner))
    if spec.get("node"):
        n_nodes = node_owners(spec["c2n"], app.cell_owner,
                              comm.nranks).size
        for name in spec["node"]:
            out[f"node:{name}"] = _owned_rows(
                app, name, lambda m: (m.nodes_global, m.n_owned_nodes),
                n_nodes)
    cols, gcells = [], []
    for r in range(comm.nranks):
        rk = app.ranks[r]
        n = rk.parts.size
        gcells.append(app.meshes[r].cells_global[
            rk.p2c.p2c[:n]])
        dats = [getattr(rk, name).data for name in spec.get("part", ())]
        cols.append(np.column_stack(
            [d[:n].reshape(n, int(np.prod(d.shape[1:], dtype=np.int64)))
             for d in dats]))
    rows = np.concatenate(cols) if cols else np.empty((0, 0))
    gcells = np.concatenate(gcells) if gcells else np.empty(0, np.int64)
    table = np.column_stack([gcells.astype(np.float64), rows])
    out["particles"] = table[np.lexsort(table.T[::-1])]
    return out


def _owned_rows(app, name, pick, n_global):
    g = None
    for r in range(app.comm.nranks):
        ids, n = pick(app.meshes[r])
        arr = getattr(app.ranks[r], name).data
        if g is None:
            g = np.zeros((n_global,) + arr.shape[1:], dtype=arr.dtype)
        g[ids[:n]] = arr[:n]
    return g


def _skewed_owner(app):
    """A genuinely different target partition: load rank 0's cells."""
    weights = np.where(np.asarray(app.cell_owner) == 0, 8.0, 1.0)
    return app._elastic_partition(weights)


def _check_rebalance_preserves(app, steps):
    for _ in range(steps):
        app.step()
    before = _assemble(app)
    old_owner = np.asarray(app.cell_owner).copy()
    report = rebalance(app, _skewed_owner(app))
    assert report.n_cells_moved > 0
    assert not np.array_equal(app.cell_owner, old_owner)
    after = _assemble(app)
    assert before.keys() == after.keys()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key],
                                      err_msg=key)
    app.step()                  # and the app still runs
    return report


def test_fempic_rebalance_preserves_state():
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    app = DistributedFemPic(cfg, comm=SimComm(3))
    report = _check_rebalance_preserves(app, steps=4)
    assert report.n_nodes_moved > 0
    assert report.n_particles_moved > 0


def test_twod_rebalance_preserves_state():
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(3))
    report = _check_rebalance_preserves(app, steps=3)
    assert report.n_particles_moved > 0


def test_cabana_rebalance_preserves_state():
    app = DistributedCabana(CabanaConfig.smoke(), comm=SimComm(3))
    report = _check_rebalance_preserves(app, steps=3)
    assert report.n_particles_moved > 0


def test_rebalanced_ranks_do_not_reuse_cached_construction_products():
    """With the objcache on (a warm service worker), per-rank products
    are cached against the *construction* partition; a rank mesh built
    by a rebalance must derive its own."""
    from repro.runtime import objcache
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    objcache.enable()
    try:
        app = DistributedFemPic(cfg, comm=SimComm(2))
        again = DistributedFemPic(cfg, comm=SimComm(2))
        assert again.ranks[0].inlet is app.ranks[0].inlet     # cache hit
        app.step()
        # move every cell but the last z layer onto rank 0: the inlet
        # cells get new local ids there
        z = app.mesh.centroids[:, 2]
        rebalance(app, (z > z.max() - 0.5 * cfg.lz / cfg.nz).astype(int))
        third = DistributedFemPic(cfg, comm=SimComm(2))
    finally:
        objcache.disable()
    rk = app.ranks[0]
    assert rk.inlet is not again.ranks[0].inlet
    owned = rk.rm.cells_global[: rk.rm.n_owned_cells]
    np.testing.assert_array_equal(
        np.sort(owned[rk.inlet.cells]),
        np.sort(app.mesh.tags["inlet_faces"][:, 0]))
    # and the construction partition's entry still serves new apps
    assert third.ranks[0].inlet is again.ranks[0].inlet


def test_rebalance_same_owner_is_noop():
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    app.step()
    report = rebalance(app, np.asarray(app.cell_owner).copy())
    assert (report.n_cells_moved, report.n_nodes_moved,
            report.n_particles_moved) == (0, 0, 0)


def test_node_owner_is_min_adjacent_cell_owner():
    # two triangles sharing nodes 1, 2; cells owned by ranks 1 and 0
    c2n = np.array([[0, 1, 2], [1, 2, 3]])
    owners = node_owners(c2n, np.array([1, 0]), nranks=2)
    np.testing.assert_array_equal(owners, [1, 0, 0, 0])


def _assert_histories_close(base: dict, other: dict):
    """Integer histories exactly; float histories to the
    reduction-reassociation tolerance (per-rank sums regroup when
    ownership moves)."""
    assert base.keys() == other.keys()
    for key in base:
        a, b = np.asarray(base[key]), np.asarray(other[key])
        if np.issubdtype(a.dtype, np.integer):
            np.testing.assert_array_equal(a, b, err_msg=key)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-9, err_msg=key)


def test_controller_rebalances_and_keeps_histories():
    """With the cost gate opened (threshold 0) the controller must
    actually migrate, and the physics must be preserved."""
    from repro.elastic import ElasticController
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    base = DistributedFemPic(cfg, comm=SimComm(3))
    for _ in range(6):
        base.step()

    app = DistributedFemPic(cfg, comm=SimComm(3))
    ctl = ElasticController(app, mode="always", check_every=2,
                            threshold=0.0, min_particles=1)
    ctl.run(6)
    assert ctl.n_rebalances >= 1
    stats = ctl.stats()
    assert stats["cells_moved"] > 0
    assert stats["rebalances"] == ctl.n_rebalances
    _assert_histories_close(base.history, app.history)


def test_driver_rebalance_always_keeps_histories():
    """The driver-level `rebalance=always` path (trigger timing depends
    on measured busy seconds, so the migration count is not asserted)."""
    cfg = FemPicConfig.smoke().scaled(n_steps=6, dt=0.2)
    base = run_distributed("fempic", cfg, nranks=2, seed_ppc=4)
    reb = run_distributed("fempic", cfg, nranks=2, seed_ppc=4,
                          rebalance="always")
    assert reb.elastic is not None
    assert reb.elastic["mode"] == "always"
    assert reb.rank_load_imbalance() >= 1.0
    _assert_histories_close(base.history, reb.history)


def test_proc_rebalance_always_keeps_histories():
    cfg = FemPicConfig.smoke().scaled(n_steps=6, dt=0.2)
    base = run_distributed("fempic", cfg, nranks=2, seed_ppc=4)
    reb = run_distributed("fempic", cfg, nranks=2, seed_ppc=4,
                          transport="proc", rebalance="always")
    assert reb.elastic is not None
    _assert_histories_close(base.history, reb.history)
