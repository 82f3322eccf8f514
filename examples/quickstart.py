"""Quickstart: the OP-PIC API in ~80 lines.

Declares the 3×3-cell mesh of the paper's Figure 2, a handful of
particles, and runs the three loop archetypes — a mesh loop with indirect
reads (paper Figure 5 top), a particle loop with a double-indirect
increment (Figure 5 bottom), and a particle move (Figure 6) — on every
backend, showing that the declaration never changes.

Run:  python examples/quickstart.py
"""
import numpy as np

from repro.core.api import (CONST, OPP_INC, OPP_ITERATE_ALL, OPP_READ,
                            OPP_RW, OPP_WRITE, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set, decl_set,
                            par_loop, particle_move, set_backend)


# -- elemental kernels (the "science source") ----------------------------------

def average_node_potential(cell_avg, np0, np1, np2, np3):
    cell_avg[0] = 0.25 * (np0[0] + np1[0] + np2[0] + np3[0])


def deposit_charge(w, n0, n1, n2, n3):
    n0[0] += 0.25 * w[0]
    n1[0] += 0.25 * w[0]
    n2[0] += 0.25 * w[0]
    n3[0] += 0.25 * w[0]


def drift_kernel(pos):
    pos[0] = pos[0] + CONST.dt * CONST.vx


def move_kernel(move, pos):
    """1-D walk over the 3x3 grid: each cell spans one unit in x."""
    col = move.cell % 3
    if pos[0] < col:
        move.move_to(move.c2c[0])       # west neighbour (or off-mesh)
    elif pos[0] >= col + 1.0:
        move.move_to(move.c2c[1])       # east neighbour
    else:
        move.done()


def build():
    """Figure 2's mesh: 9 cells (3x3), 16 nodes, plus 6 particles."""
    cells = decl_set(9, "cells")
    nodes = decl_set(16, "nodes")
    parts = decl_particle_set(cells, 6, "particles")

    c2n, c2c = [], []
    for r in range(3):
        for c in range(3):
            n0 = r * 4 + c
            c2n.append([n0, n0 + 1, n0 + 4, n0 + 5])
            i = r * 3 + c
            c2c.append([i - 1 if c > 0 else -1, i + 1 if c < 2 else -1])
    cn = decl_map(cells, nodes, 4, c2n, "cell_to_nodes")
    cc = decl_map(cells, cells, 2, c2c, "cell_to_cells_x")
    p2c = decl_map(parts, cells, 1, [[0], [1], [4], [4], [7], [8]],
                   "particle_to_cell")

    npot = decl_dat(nodes, 1, np.float64, np.arange(16.0), "node_potential")
    cavg = decl_dat(cells, 1, np.float64, None, "cell_average")
    ncharge = decl_dat(nodes, 1, np.float64, None, "node_charge")
    w = decl_dat(parts, 1, np.float64, np.ones(6), "particle_weight")
    pos = decl_dat(parts, 1, np.float64,
                   [0.4, 1.2, 1.6, 1.1, 1.5, 2.8], "x_position")
    return cells, nodes, parts, cn, cc, p2c, npot, cavg, ncharge, w, pos


def main():
    decl_const("dt", 1.0)
    decl_const("vx", 0.9)

    for backend in ("seq", "vec", "omp", "cuda", "hip"):
        set_backend(backend)
        (cells, nodes, parts, cn, cc, p2c,
         npot, cavg, ncharge, w, pos) = build()

        # 1. loop over mesh elements, indirect reads (opp_par_loop)
        par_loop(average_node_potential, "AverageNodePotential", cells,
                 OPP_ITERATE_ALL,
                 arg_dat(cavg, OPP_WRITE),
                 arg_dat(npot, 0, cn, OPP_READ),
                 arg_dat(npot, 1, cn, OPP_READ),
                 arg_dat(npot, 2, cn, OPP_READ),
                 arg_dat(npot, 3, cn, OPP_READ))

        # 2. loop over particles, double-indirect increment
        par_loop(deposit_charge, "DepositCharge", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(ncharge, 0, cn, p2c, OPP_INC),
                 arg_dat(ncharge, 1, cn, p2c, OPP_INC),
                 arg_dat(ncharge, 2, cn, p2c, OPP_INC),
                 arg_dat(ncharge, 3, cn, p2c, OPP_INC))

        # 3. drift + particle move (opp_particle_move)
        par_loop(drift_kernel, "Drift", parts, OPP_ITERATE_ALL,
                 arg_dat(pos, OPP_RW))
        res = particle_move(move_kernel, "Move", parts, cc, p2c,
                            arg_dat(pos, OPP_READ))

        print(f"[{backend:>4}] cell averages {cavg.data[:3, 0]} | "
              f"node charge total {ncharge.data.sum():.1f} | "
              f"{parts.size} particles left "
              f"(removed {res.n_removed}), cells {p2c.p2c.tolist()}")


if __name__ == "__main__":
    main()
