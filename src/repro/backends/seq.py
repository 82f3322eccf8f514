"""Sequential reference backend.

Executes elemental kernels one element at a time, exactly as the science
source is written.  This is the semantic oracle every other backend is
tested against (OP-PIC's ``seq`` target plays the same role).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.args import ArgKind
from ..core.loops import ParLoop
from ..core.move import MoveContext, MoveLoop, MoveResult, finish_move
from ..core.types import MoveStatus
from .base import Backend

__all__ = ["SeqBackend"]


class SeqBackend(Backend):
    name = "seq"

    #: the oracle itself needs no special conformance configuration
    conformance_options: dict = {}

    def execute(self, loop: ParLoop, start: int, end: int) -> Optional[dict]:
        kernel = loop.kernel.fn
        args = loop.args
        # Pre-resolve array and map references out of the hot loop.
        views = []
        for a in args:
            if a.is_global:
                views.append(("gbl", a.dat.data, None, None))
            elif a.kind == ArgKind.DIRECT:
                views.append(("direct", a.dat.data, None, None))
            elif a.kind == ArgKind.INDIRECT:
                views.append(("map", a.dat.data, a.map.values, a.map_idx))
            elif a.kind == ArgKind.P2C:
                views.append(("p2c", a.dat.data, a.p2c.p2c, None))
            else:  # DOUBLE
                views.append(("double", a.dat.data,
                              (a.p2c.p2c, a.map.values), a.map_idx))
        for i in range(start, end):
            params = []
            for kind, data, mapping, midx in views:
                if kind == "gbl":
                    params.append(data)
                elif kind == "direct":
                    params.append(data[i])
                elif kind == "map":
                    params.append(data[mapping[i, midx]])
                elif kind == "p2c":
                    params.append(data[mapping[i]])
                else:
                    p2c, mesh = mapping
                    params.append(data[mesh[p2c[i], midx]])
            kernel(*params)
        return None

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        kernel = loop.kernel.fn
        p2c = loop.p2c_map.p2c
        c2c = loop.c2c_map.values
        foreign = loop.foreign_cell_mask
        move = MoveContext()

        removed = []
        foreign_p = []
        foreign_c = []
        total_hops = 0

        cell_views = []  # (arg_position, dat_data, map_values, map_idx) per hop
        fixed = []       # (arg_position, value) computed once per particle
        for pos, a in enumerate(loop.args):
            if a.is_global:
                fixed.append((pos, a.dat.data))
            elif a.kind == ArgKind.DIRECT:
                cell_views.append((pos, "direct", a.dat.data, None, None))
            elif a.kind == ArgKind.P2C:
                cell_views.append((pos, "cell", a.dat.data, None, None))
            elif a.kind == ArgKind.DOUBLE:
                cell_views.append((pos, "cellmap", a.dat.data,
                                   a.map.values, a.map_idx))
            else:
                raise ValueError("move kernels address data directly, via "
                                 "the current cell, or doubly-indirectly")

        nparams = len(loop.args) + 1
        params = [None] * nparams

        for p in loop.iter_indices():
            cell = p2c[p]
            if cell < 0:
                continue
            hop = 0
            while True:
                if foreign is not None and foreign[cell]:
                    foreign_p.append(p)
                    foreign_c.append(cell)
                    p2c[p] = cell
                    break
                move.reset(int(cell), c2c[cell], hop)
                params[0] = move
                for pos, kind, data, mesh, midx in cell_views:
                    if kind == "direct":
                        params[pos + 1] = data[p]
                    elif kind == "cell":
                        params[pos + 1] = data[cell]
                    else:
                        params[pos + 1] = data[mesh[cell, midx]]
                for pos, value in fixed:
                    params[pos + 1] = value
                kernel(*params)
                hop += 1
                total_hops += 1
                if move.status == MoveStatus.MOVE_DONE:
                    p2c[p] = cell
                    break
                if move.status == MoveStatus.NEED_REMOVE:
                    removed.append(p)
                    p2c[p] = -1
                    break
                cell = move.next_cell
                if hop >= loop.max_hops:
                    raise RuntimeError(
                        f"particle {p} exceeded {loop.max_hops} hops in move "
                        f"loop {loop.name!r}; mesh walk is not converging")

        return finish_move(loop, np.asarray(removed, dtype=np.int64),
                           np.asarray(foreign_p, dtype=np.int64),
                           np.asarray(foreign_c, dtype=np.int64), total_hops)
