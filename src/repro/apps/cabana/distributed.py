"""CabanaPIC at N ranks: the definition in
:mod:`repro.apps.cabana.simulation`, with the rank count, the partitioner
and the rank transport chosen by the caller."""
from __future__ import annotations

from typing import Optional

from repro.runtime.comm import SimComm

from .config import CabanaConfig
from .simulation import CabanaSimulation

__all__ = ["DistributedCabana"]


class DistributedCabana(CabanaSimulation):
    """N-rank CabanaPIC: halo refresh / reduction and particle migration
    run between the same loops.  ``comm`` selects the rank transport (see
    :class:`~repro.apps.fempic.distributed.DistributedFemPic`)."""

    def __init__(self, config: Optional[CabanaConfig] = None,
                 nranks: int = 2,
                 partition_method: str = "principal_direction",
                 comm=None):
        self._build(config or CabanaConfig(),
                    comm if comm is not None else SimComm(nranks),
                    partition_method)
