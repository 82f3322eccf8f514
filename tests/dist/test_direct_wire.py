"""The rank-to-rank data plane: frames and collectives move over one
socket per rank pair, the ranks complete collectives themselves, and the
launcher gets every descriptor back."""
import itertools
import multiprocessing as mp
import os
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.dist.proc import ProcCluster
from repro.runtime.comm import CommStats, SimComm

_MIB8 = 1 << 20  # float64 elements in 8 MiB


def _entry_cross_send(t):
    """Both ranks send far more than a socket buffer before either
    receives: only progress-while-sending lets this finish."""
    me, other = t.my_rank, 1 - t.my_rank
    t.send(me, other, np.full(_MIB8, float(me)), tag=1)
    got = t.recv(me, other, tag=1)
    return got.size, float(got[0]), float(got[-1])


def test_large_frames_sent_at_each_other_complete():
    t0 = time.monotonic()
    out = ProcCluster(2, _entry_cross_send, op_timeout=20.0).run()
    assert time.monotonic() - t0 < 10.0
    assert out == [(_MIB8, 1.0, 1.0), (_MIB8, 0.0, 0.0)]


# rank orders in which a left-to-right float sum gives different answers
_NON_ASSOCIATIVE = (1e16, 1.0, -1e16, 1.0)


def _orders(n):
    return list(itertools.permutations(_NON_ASSOCIATIVE[:n]))[:6]


def _collective_suite(comm, n, mine):
    """The same calls under ``sim`` (``mine`` = all ranks) and under
    ``proc`` (``mine`` = the one resident rank)."""
    out = []
    for order in _orders(n):
        vals = [np.array([x, -x, x * 0.5]) if r in mine else np.zeros(3)
                for r, x in enumerate(order)]
        out += [comm.allreduce(vals, op).tobytes()
                for op in ("sum", "max", "min")]
    counts = np.zeros((n, n), dtype=np.int64)
    for r in mine:
        counts[r] = np.arange(n) + 100 * r
    out.append(comm.alltoall_counts(counts).tolist())
    comm.barrier()
    return out


def _entry_collective_suite(t):
    return (_collective_suite(t, t.nranks, (t.my_rank,)),
            t.stats.to_dict())


@pytest.mark.parametrize("n", [3, 4])
def test_rank_side_collectives_bit_identical_to_simcomm(n):
    sim = SimComm(n)
    expect = _collective_suite(sim, n, range(n))
    assert len(set(expect[:-1:3])) > 1, "the sums must depend on the order"

    merged = CommStats(n)
    for got, stats in ProcCluster(n, _entry_collective_suite).run():
        assert got == expect
        merged.merge(CommStats.from_dict(stats))
    assert merged.to_dict() == sim.stats.to_dict()


def _entry_self_send(t):
    me = t.my_rank
    a = np.arange(5.0)
    t.send(me, me, a, tag=4)
    a[:] = -1.0                       # the filed payload is a copy
    return t.recv(me, me, tag=4), t.stats.to_dict()


def test_self_send_is_filed_locally():
    (got, stats), = ProcCluster(1, _entry_self_send).run()
    np.testing.assert_array_equal(got, np.arange(5.0))
    assert stats["msg_count"] == [[1]] and stats["msg_bytes"] == [[40]]


def _entry_rank(t):
    return t.my_rank


_HIGH_FD = 1100


@pytest.fixture
def fds_past_1024():
    """Occupy every descriptor number below ``_HIGH_FD``, so the sockets
    and pipes a cluster creates next get numbers past ``select``'s 1024
    ceiling."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = _HIGH_FD + 256
    if hard != resource.RLIM_INFINITY and hard < want:
        pytest.skip(f"hard RLIMIT_NOFILE {hard} < {want}")
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    dummies = []
    try:
        while not dummies or dummies[-1] < _HIGH_FD:
            dummies.append(os.open(os.devnull, os.O_RDONLY))
        yield
    finally:
        for fd in dummies:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_proc_ranks_with_descriptors_past_1024(fds_past_1024):
    """A rank whose peer sockets and router pipe are numbered past 1024
    runs the same cabana history as ``sim``."""
    from repro.apps.cabana import CabanaConfig
    from repro.dist.driver import run_distributed
    cfg = CabanaConfig.smoke().scaled(n_steps=3)
    sim = run_distributed("cabana", cfg, nranks=2, transport="sim")
    proc = run_distributed("cabana", cfg, nranks=2, transport="proc")
    assert proc.history.keys() == sim.history.keys()
    for key in sim.history:
        np.testing.assert_array_equal(np.asarray(proc.history[key]),
                                      np.asarray(sim.history[key]))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_launcher_gets_every_descriptor_back(start_method):
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"no {start_method} on this platform")
    # spawn's resource tracker is one pipe per launcher process, opened
    # on first use and kept: not part of what a run must give back
    resource_tracker.ensure_running()
    before = len(os.listdir("/proc/self/fd"))
    out = ProcCluster(3, _entry_rank, start_method=start_method).run()
    assert out == [0, 1, 2]
    assert len(os.listdir("/proc/self/fd")) == before
