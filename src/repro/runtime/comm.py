"""Simulated MPI: in-process ranks with counted communication.

Every distributed algorithm of OP-PIC (halo exchange, particle packing and
migration, RMA-based global move, reductions) runs here unchanged over N
in-process ranks; only the wire is replaced by direct buffer copies.  The
:class:`SimComm` records message counts and bytes per rank pair, which the
performance model turns into communication time for the weak-scaling and
utilization reproductions.

:class:`SimComm` is one implementation of the rank-transport interface
(see :mod:`repro.dist.transport`); ``repro.dist.proc`` provides the other
one — real OS rank processes over sockets.  The locality API
(:attr:`SimComm.my_rank` / :meth:`SimComm.local_ranks` /
:meth:`SimComm.is_local`) lets the same algorithm code drive all ranks
from one program (simulation) or exactly one rank per process (SPMD).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["SimComm", "CommStats"]


class CommStats:
    """Message/byte counters, indexable by (src, dst).

    One ledger serves both execution styles: the simulated communicator
    counts every rank's traffic in a single instance, while each SPMD
    rank process counts only the rows it sent — :meth:`merge` folds the
    per-rank ledgers back into the program-level view, and the result is
    identical to the simulated ledger for the same algorithm.
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.msg_count = np.zeros((nranks, nranks), dtype=np.int64)
        self.msg_bytes = np.zeros((nranks, nranks), dtype=np.int64)
        self.collectives = 0
        self.rma_ops = 0
        self.rma_bytes = 0

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.msg_count[src, dst] += 1
        self.msg_bytes[src, dst] += nbytes

    @property
    def total_messages(self) -> int:
        return int(self.msg_count.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.msg_bytes.sum())

    def bytes_sent_by(self, rank: int) -> int:
        return int(self.msg_bytes[rank].sum())

    def reset(self) -> None:
        self.msg_count[:] = 0
        self.msg_bytes[:] = 0
        self.collectives = 0
        self.rma_ops = 0
        self.rma_bytes = 0

    def merge(self, other: "CommStats") -> "CommStats":
        """Fold another rank's ledger into this one (in place).

        Point-to-point and RMA traffic is disjoint between SPMD ranks
        (each rank records only what it initiated), so those counters
        add.  Collectives are *operations*, not per-participant events —
        every rank of a lockstep SPMD program counts each collective
        once, and the program-level ledger also counts it once — so the
        merged value is the maximum, not the sum.
        """
        if other.nranks != self.nranks:
            raise ValueError(f"cannot merge stats for {other.nranks} ranks "
                             f"into stats for {self.nranks}")
        self.msg_count += other.msg_count
        self.msg_bytes += other.msg_bytes
        self.collectives = max(self.collectives, other.collectives)
        self.rma_ops += other.rma_ops
        self.rma_bytes += other.rma_bytes
        return self

    def to_dict(self) -> dict:
        """JSON/pickle-friendly snapshot (for shipping rank ledgers to
        the launcher)."""
        return {"nranks": self.nranks,
                "msg_count": self.msg_count.tolist(),
                "msg_bytes": self.msg_bytes.tolist(),
                "collectives": int(self.collectives),
                "rma_ops": int(self.rma_ops),
                "rma_bytes": int(self.rma_bytes)}

    @classmethod
    def from_dict(cls, payload: dict) -> "CommStats":
        stats = cls(int(payload["nranks"]))
        stats.msg_count[:] = np.asarray(payload["msg_count"],
                                        dtype=np.int64)
        stats.msg_bytes[:] = np.asarray(payload["msg_bytes"],
                                        dtype=np.int64)
        stats.collectives = int(payload["collectives"])
        stats.rma_ops = int(payload["rma_ops"])
        stats.rma_bytes = int(payload["rma_bytes"])
        return stats


def reduce_in_rank_order(values: Sequence, op: str):
    """Fold one value per rank, left to right.  Every transport reduces
    through here, which is what makes their results bitwise equal."""
    arr = [np.asarray(v) for v in values]
    if op == "sum":
        return sum(arr[1:], arr[0].copy())
    if op not in ("max", "min"):
        raise ValueError(f"unknown allreduce op {op!r}")
    pick = np.maximum if op == "max" else np.minimum
    out = arr[0].copy()
    for a in arr[1:]:
        out = pick(out, a)
    return out


class SimComm:
    """An in-process communicator over ``nranks`` simulated ranks.

    Point-to-point transfers move real numpy buffers between per-rank
    mailboxes; collectives operate on per-rank value lists.  All traffic is
    counted in :attr:`stats`.
    """

    #: the simulated communicator hosts *all* ranks in one process; SPMD
    #: transports set this to their single resident rank instead
    my_rank: Optional[int] = None

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = int(nranks)
        self.stats = CommStats(self.nranks)
        # mailbox[dst][(src, tag)] = payload
        self._mailbox: List[Dict] = [dict() for _ in range(self.nranks)]

    # -- locality ----------------------------------------------------------------
    #
    # Algorithm code (halo pushes, migration, the DH mover, the apps)
    # iterates ``local_ranks`` and guards sends/recvs with ``is_local`` so
    # the identical code runs under both execution styles: in the
    # simulation every rank is local, in an SPMD rank process exactly one.

    @property
    def local_ranks(self) -> range:
        """Ranks whose data lives in this process (all of them here)."""
        return range(self.nranks)

    def is_local(self, rank: int) -> bool:
        return 0 <= rank < self.nranks

    # -- point-to-point ----------------------------------------------------------

    def send(self, src: int, dst: int, payload: np.ndarray,
             tag: int = 0) -> None:
        """Post a message; like MPI, (src, dst, tag) identifies it."""
        self._check_rank(src)
        self._check_rank(dst)
        key = (src, tag)
        if key in self._mailbox[dst]:
            raise RuntimeError(f"unreceived message already pending for "
                               f"dst={dst} from src={src} tag={tag}")
        payload = np.ascontiguousarray(payload)
        self._mailbox[dst][key] = payload
        self.stats.record(src, dst, payload.nbytes)

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        self._check_rank(src)
        self._check_rank(dst)
        try:
            return self._mailbox[dst].pop((src, tag))
        except KeyError:
            raise RuntimeError(f"no message for dst={dst} from src={src} "
                               f"tag={tag}") from None

    def pending(self, dst: int) -> List:
        return sorted(self._mailbox[dst].keys())

    # -- collectives -------------------------------------------------------------

    def allreduce(self, per_rank_values: Sequence, op: str = "sum"):
        """Reduce one value per rank, returning the reduced scalar/array.

        ``per_rank_values`` must have exactly one entry per rank (the
        caller is the "program" driving all ranks through the collective).
        """
        if len(per_rank_values) != self.nranks:
            raise ValueError(f"allreduce needs {self.nranks} values, got "
                             f"{len(per_rank_values)}")
        self.stats.collectives += 1
        return reduce_in_rank_order(per_rank_values, op)

    def alltoall_counts(self, counts: np.ndarray) -> np.ndarray:
        """``counts[src, dst]`` → per-destination receive counts
        (``MPI_Alltoall`` on message sizes, used before particle moves)."""
        counts = np.asarray(counts)
        if counts.shape != (self.nranks, self.nranks):
            raise ValueError("counts must be (nranks, nranks)")
        self.stats.collectives += 1
        return counts.T.copy()

    def barrier(self) -> None:
        self.stats.collectives += 1

    def swap_stats(self, stats: CommStats) -> CommStats:
        """Redirect traffic accounting (e.g. to separate solver-library
        traffic from PIC halo/migration traffic); returns the old stats."""
        old = self.stats
        self.stats = stats
        return old

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.nranks:
            raise IndexError(f"rank {r} out of range (nranks={self.nranks})")

    def __repr__(self) -> str:
        return f"<SimComm nranks={self.nranks}>"
