"""Ablation (paper §3.2.1): redundant computation over MPI halos vs
ghost reduction for indirect-increment mesh loops.

The paper's OP2 lineage resolves distributed increment races "with
redundant computations over MPI halos"; the alternative implemented by
the particle path is accumulate-into-ghosts + reduce.  The trade-off:
redundant execution recomputes the (vertex-deep) halo cells every call
but sends nothing; reduction computes owned work only but ships every
ghost target row both ways.
"""
import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, Context,
                            arg_dat, decl_dat, decl_map, decl_set,
                            push_context)
from repro.core.loops import par_loop
from repro.mesh import duct_mesh
from repro.runtime import (SimComm, build_rank_meshes, partition,
                           reduce_node_halos)

from .common import write_result

NRANKS = 4


def node_charge_kernel(cv, n0, n1, n2, n3):
    n0[0] += 0.25 * cv[0]
    n1[0] += 0.25 * cv[0]
    n2[0] += 0.25 * cv[0]
    n3[0] += 0.25 * cv[0]


def build(halo_mode):
    mesh = duct_mesh(3, 3, 16, 1.0, 1.0, 4.0)
    owner = partition("principal_direction", NRANKS,
                      centroids=mesh.centroids)
    meshes, plan = build_rank_meshes(mesh.c2c, owner, NRANKS,
                                     c2n=mesh.cell2node,
                                     halo_mode=halo_mode)
    ranks = []
    for rm in meshes:
        ctx = Context("vec")
        cells = decl_set(rm.n_local_cells)
        cells.owned_size = rm.n_owned_cells
        nodes = decl_set(rm.n_local_nodes)
        nodes.owned_size = rm.n_owned_nodes
        c2n = decl_map(cells, nodes, 4, rm.local_c2n)
        cv = decl_dat(cells, 1, np.float64, rm.cells_global + 1.0)
        nd = decl_dat(nodes, 1, np.float64)
        ranks.append((ctx, cells, nodes, c2n, cv, nd, rm))
    truth = np.zeros(mesh.n_nodes)
    np.add.at(truth, mesh.cell2node.ravel(),
              np.repeat(0.25 * (np.arange(mesh.n_cells) + 1.0), 4))
    return meshes, plan, ranks, truth


def run_exec_halo():
    meshes, plan, ranks, truth = build("vertex")
    redundant = 0
    for ctx, cells, nodes, c2n, cv, nd, rm in ranks:
        cells.exec_halo_size = rm.n_halo_cells
        redundant += rm.n_halo_cells
        with push_context(ctx):
            par_loop(node_charge_kernel, "deposit", cells, OPP_ITERATE_ALL,
                     arg_dat(cv, OPP_READ),
                     arg_dat(nd, 0, c2n, OPP_INC),
                     arg_dat(nd, 1, c2n, OPP_INC),
                     arg_dat(nd, 2, c2n, OPP_INC),
                     arg_dat(nd, 3, c2n, OPP_INC))
    _check(ranks, truth)
    return redundant, 0, 0     # redundant cells, messages, bytes


def run_reduce():
    meshes, plan, ranks, truth = build("face")
    comm = SimComm(NRANKS)
    for ctx, cells, nodes, c2n, cv, nd, rm in ranks:
        with push_context(ctx):
            par_loop(node_charge_kernel, "deposit", cells, OPP_ITERATE_ALL,
                     arg_dat(cv, OPP_READ),
                     arg_dat(nd, 0, c2n, OPP_INC),
                     arg_dat(nd, 1, c2n, OPP_INC),
                     arg_dat(nd, 2, c2n, OPP_INC),
                     arg_dat(nd, 3, c2n, OPP_INC))
    reduce_node_halos([r[5] for r in ranks], plan, comm)
    _check(ranks, truth)
    return 0, comm.stats.total_messages, comm.stats.total_bytes


def _check(ranks, truth):
    for ctx, cells, nodes, c2n, cv, nd, rm in ranks:
        owned = rm.nodes_global[: rm.n_owned_nodes]
        np.testing.assert_allclose(nd.data[: rm.n_owned_nodes, 0],
                                   truth[owned], rtol=1e-12)


def test_ablation_exec_halo_vs_reduce(benchmark):
    redundant, _, _ = run_exec_halo()
    _, msgs, nbytes = run_reduce()
    benchmark(run_exec_halo)

    write_result(
        "ablation_exec_halo",
        "Ablation — redundant halo execution vs ghost reduction "
        f"({NRANKS} ranks, cell→node deposit)\n"
        f"exec-halo : {redundant} redundant cells/loop, 0 messages\n"
        f"reduce    : 0 redundant cells, {msgs} messages / "
        f"{nbytes} bytes per loop")

    # both are exact (asserted inside the runners); the trade-off is real:
    assert redundant > 0
    assert msgs > 0 and nbytes > 0
