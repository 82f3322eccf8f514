"""Real-process distributed runtime (MPI+X execution).

The simulated communicator (:class:`repro.runtime.comm.SimComm`) runs
every rank inside one process; this package provides the second
implementation of the same rank-transport interface —
:class:`~repro.dist.proc.ProcTransport` — where each rank is a real OS
process exchanging length-prefixed frames with its peers over one
socket per rank pair, with per-operation timeouts, dead-rank detection
(by the launching process, over a control pipe) and structured
:class:`~repro.dist.transport.RankFailure` errors instead of hangs.

Because each rank process may use any on-node backend (``seq``, ``vec``,
``omp``, ``cuda``, ``hip``, ``xe``) for its loops, running N rank
processes reproduces the paper's MPI+X configurations (distributed
memory across ranks, an on-node target within each).
"""
from .driver import DistResult, run_distributed
from .proc import ProcCluster, ProcTransport
from .transport import RankFailure, Transport, create_transport

__all__ = ["Transport", "RankFailure", "create_transport",
           "ProcTransport", "ProcCluster",
           "run_distributed", "DistResult"]
