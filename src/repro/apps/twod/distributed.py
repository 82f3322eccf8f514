"""The 2-D sheet model at N ranks: the definition in
:mod:`repro.apps.twod.simulation` with the rank count and the rank
transport chosen by the caller.  With it every mesh family runs
distributed: tetrahedra (Mini-FEM-PIC), bricks (CabanaPIC), quads
(advection) and triangles."""
from __future__ import annotations

from typing import Optional

from repro.runtime.comm import SimComm

from .config import TwoDConfig
from .simulation import TwoDSheetModel

__all__ = ["DistributedTwoD"]


class DistributedTwoD(TwoDSheetModel):
    """N-rank 2-D sheet model.  ``comm`` selects the rank transport (see
    :class:`~repro.apps.fempic.distributed.DistributedFemPic`)."""

    def __init__(self, config: Optional[TwoDConfig] = None,
                 nranks: int = 2, comm=None):
        self._build(config or TwoDConfig(),
                    comm if comm is not None else SimComm(nranks))
