"""Mini-FEM-PIC at N ranks: the definition in
:mod:`repro.apps.fempic.simulation`, with the rank count, the partitioner
and the rank transport chosen by the caller."""
from __future__ import annotations

from typing import Optional

from repro.runtime.comm import SimComm

from .config import FemPicConfig
from .simulation import FemPicSimulation

__all__ = ["DistributedFemPic"]


class DistributedFemPic(FemPicSimulation):
    """N-rank Mini-FEM-PIC with halo exchange and particle migration.

    ``comm`` selects the rank transport: ``None`` builds the in-process
    :class:`SimComm` (one program drives all ranks); an SPMD transport
    (``repro.dist.proc.ProcTransport``) makes this instance host exactly
    one rank — the global mesh, partition and halo plan are rebuilt
    deterministically in every rank process, but per-rank sets/dats exist
    only for the resident rank.
    """

    def __init__(self, config: Optional[FemPicConfig] = None,
                 nranks: int = 2,
                 partition_method: str = "principal_direction",
                 ranks_per_node: Optional[int] = None,
                 comm=None):
        self._build(config or FemPicConfig(),
                    comm if comm is not None else SimComm(nranks),
                    partition_method, ranks_per_node)
