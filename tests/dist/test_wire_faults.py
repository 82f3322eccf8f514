"""Fault matrix of the direct wire: whatever breaks between two ranks —
a killed peer, a forged or oversized frame, ranks in different
collectives, data sent to the router — ends in a RankFailure naming the
culprit and carrying the router's reason, long before the op timeout."""
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.dist.proc import K_P2P, ProcCluster, encode_frame
from repro.dist.transport import RankFailure


def _entry_two_collectives(t, ops):
    op = ops[t.my_rank]
    if op == "barrier":
        return t.barrier()
    return t.allreduce([np.zeros(1)] * t.nranks, op)


@pytest.mark.parametrize("ops", [("barrier", "sum"), ("sum", "max")])
def test_mismatched_collectives_are_a_protocol_failure(ops):
    with pytest.raises(RankFailure) as exc_info:
        ProcCluster(2, _entry_two_collectives, args=(ops,),
                    op_timeout=8.0).run()
    exc = exc_info.value
    assert exc.kind == "protocol"
    assert exc.rank == 1 and "mismatched collectives" in exc.detail


def _entry_peer_killed(t, blocked_in, report_path):
    """Rank 1 is SIGKILLed while rank 0 is blocked on it; rank 0 leaves
    what it was told in ``report_path``."""
    if t.my_rank == 1:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    t0 = time.monotonic()
    try:
        if blocked_in == "recv":
            t.recv(0, 1, tag=3)
        elif blocked_in == "collective":
            t.allreduce([np.zeros(1)] * t.nranks, "sum")
        else:   # 8 MiB into a socket nobody reads
            t.send(0, 1, np.zeros(1 << 20), tag=3)
    except RankFailure as exc:
        with open(report_path, "w") as fh:
            json.dump({"rank": exc.rank, "kind": exc.kind,
                       "detail": exc.detail,
                       "waited": time.monotonic() - t0}, fh)
        raise
    return "unblocked without a failure"


@pytest.mark.parametrize("blocked_in", ["recv", "collective", "send"])
def test_killed_peer_fails_blocked_rank_fast(blocked_in, tmp_path):
    report = tmp_path / "rank0.json"
    with pytest.raises(RankFailure) as exc_info:
        ProcCluster(2, _entry_peer_killed, op_timeout=30.0,
                    args=(blocked_in, str(report))).run()
    assert (exc_info.value.rank, exc_info.value.kind) == (1, "rank-dead")
    seen = json.loads(report.read_text())
    assert (seen["rank"], seen["kind"]) == (1, "rank-dead")
    # the router's reason, not a bare socket EOF
    assert "exited without a result" in seen["detail"]
    assert seen["waited"] < 10.0


def _entry_raw_bytes(t, case):
    """Rank 0 writes bytes its own ``send`` would never produce."""
    if t.my_rank == 1:
        return t.recv(1, 0, tag=1)
    if t.my_rank == 0:
        if case == "oversized":    # 512 KiB body; the header is enough
            blob = encode_frame(K_P2P, 0, 1, 1, np.zeros(1 << 16))[:4096]
        else:                      # claims to come from rank 2
            blob = encode_frame(K_P2P, 2, 1, 1, np.zeros(4))
        t._peers[1].send(blob)
    return "idle"


@pytest.mark.parametrize("case,kind", [("oversized", "oversized-frame"),
                                       ("forged-src", "protocol")])
def test_receiver_refuses_bad_frames_from_the_header(case, kind):
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        ProcCluster(3, _entry_raw_bytes, args=(case,), op_timeout=8.0,
                    max_frame_bytes=64 * 1024).run()
    exc = exc_info.value
    assert (exc.rank, exc.kind) == (0, kind)   # the socket's other end
    if case == "forged-src":
        assert "src 2" in exc.detail
    assert time.monotonic() - t0 < 8.0


def _entry_data_to_router(t):
    if t.my_rank == 0:
        t._conn.send_bytes(encode_frame(K_P2P, 0, 1, 1, np.zeros(2)))
        return "sent"
    return t.recv(1, 0, tag=1)


def test_data_frame_at_the_router_expels_its_sender():
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        ProcCluster(2, _entry_data_to_router, op_timeout=30.0).run()
    exc = exc_info.value
    assert (exc.rank, exc.kind) == (0, "protocol")
    assert "router" in exc.detail
    assert time.monotonic() - t0 < 10.0


def _entry_killed_with_unread_control_frames(t):
    """Rank 0 fails first, so a RANK_DOWN frame sits unread in rank 1's
    control pipe when rank 2 SIGKILLs it: the router reads a connection
    reset there, not EOF."""
    if t.my_rank == 1:
        t.send(1, 2, np.array([os.getpid()]), tag=1)
        time.sleep(30.0)
    if t.my_rank == 0:
        t.recv(0, 2, tag=2)
        raise RuntimeError("first failure")
    pid = int(t.recv(2, 1, tag=1)[0])
    t.send(2, 0, np.zeros(1), tag=2)
    time.sleep(0.5)         # the router has told rank 1 about rank 0
    os.kill(pid, signal.SIGKILL)
    time.sleep(0.5)
    return "done"


def test_reset_control_connection_is_rank_dead_not_oversized():
    with pytest.raises(RankFailure) as exc_info:
        ProcCluster(3, _entry_killed_with_unread_control_frames,
                    op_timeout=20.0).run()
    exc = exc_info.value
    assert (exc.rank, exc.kind) == (1, "rank-dead")
