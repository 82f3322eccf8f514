"""The rank-transport interface.

Everything the distributed runtime (halo exchange, particle migration,
the DH global move, the gathered field solves) needs from a communicator
is collected in :class:`Transport`.  Two implementations exist:

``sim``
    :class:`repro.runtime.comm.SimComm` — all ranks live in one process
    and one program drives them; "messages" are buffer copies between
    per-rank mailboxes.  ``my_rank is None`` and every rank is local.

``proc``
    :class:`repro.dist.proc.ProcTransport` — each rank is a real OS
    process (SPMD).  ``my_rank`` is the single resident rank,
    ``local_ranks`` has one entry, and point-to-point/collective calls
    move frames rank to rank over one socket per rank pair; the ranks
    complete collectives themselves, and the launching process keeps
    the control plane only (results, liveness, ``RANK_DOWN`` notices).

Algorithm code never branches on the transport kind: it iterates
``local_ranks`` and guards sends/recvs with ``is_local``, which makes
the same loop a full simulation under ``sim`` and one SPMD rank's share
under ``proc``.

:class:`RankFailure` is the structured error every fault path resolves
to — a dead peer, an expired per-operation deadline, an oversized or
forged frame, ranks in different collectives — surface as an exception
naming the rank and failure kind, never as a hang.
"""
from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..runtime.comm import CommStats, SimComm

__all__ = ["Transport", "RankFailure", "create_transport",
           "TRANSPORT_KINDS"]

TRANSPORT_KINDS = ("sim", "proc")


class RankFailure(RuntimeError):
    """A distributed operation failed in a structured, attributable way.

    Parameters
    ----------
    rank:
        The rank the failure is attributed to (the dead peer, the rank
        whose deadline expired, the sender of the oversized frame).
    kind:
        One of ``"rank-dead"``, ``"timeout"``, ``"oversized-frame"``,
        ``"protocol"``, ``"launch"``.
    detail:
        Human-readable context.
    """

    def __init__(self, rank: int, kind: str, detail: str = ""):
        self.rank = int(rank)
        self.kind = str(kind)
        self.detail = str(detail)
        msg = f"rank {rank}: {kind}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # keep rank/kind across pickling (ERROR frames ship these back)
        return (self.__class__, (self.rank, self.kind, self.detail))


@runtime_checkable
class Transport(Protocol):
    """Structural interface shared by ``SimComm`` and ``ProcTransport``.

    Implementations must also expose ``nranks`` and a :class:`CommStats`
    ledger as ``stats`` (swappable via :meth:`swap_stats` so solver
    traffic can be accounted separately).
    """

    nranks: int
    stats: CommStats
    #: resident rank for SPMD transports, ``None`` when this process
    #: hosts the whole simulation
    my_rank: Optional[int]

    @property
    def local_ranks(self) -> Sequence[int]:
        """Ranks whose sets/dats live in this process."""
        ...

    def is_local(self, rank: int) -> bool:
        ...

    def send(self, src: int, dst: int, payload: np.ndarray,
             tag: int = 0) -> None:
        ...

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        ...

    def allreduce(self, per_rank_values: Sequence, op: str = "sum"):
        """Reduce one value per rank.  The list always has ``nranks``
        entries; an SPMD rank contributes only its own slot (the others
        may be zeros/placeholders) and the reduction is applied in rank
        order so floating-point results match the simulation bitwise."""
        ...

    def alltoall_counts(self, counts: np.ndarray) -> np.ndarray:
        ...

    def barrier(self) -> None:
        ...

    def swap_stats(self, stats: CommStats) -> CommStats:
        ...


def create_transport(kind: str, nranks: int, **options):
    """Build an in-process transport by name.

    ``sim`` returns a ready :class:`SimComm`.  ``proc`` cannot be built
    free-standing — rank processes, their sockets and their router come
    from :class:`repro.dist.proc.ProcCluster` (or, at the application level,
    :func:`repro.dist.driver.run_distributed`) — so asking for it here
    raises with that pointer rather than half-working.
    """
    if kind == "sim":
        if options:
            raise TypeError(f"sim transport takes no options, got "
                            f"{sorted(options)}")
        return SimComm(nranks)
    if kind == "proc":
        raise ValueError(
            "proc transports live inside rank processes; launch them "
            "with repro.dist.ProcCluster or repro.dist.run_distributed")
    raise ValueError(f"unknown transport {kind!r}; expected one of "
                     f"{TRANSPORT_KINDS}")
