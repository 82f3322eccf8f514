"""Real OS rank processes: a direct rank-to-rank data plane under a
parent-process control plane.

Topology: before the ranks start, the launcher creates one
``socket.socketpair()`` per rank pair and one duplex pipe per rank.
**Data** — point-to-point frames and collective contributions — moves
over the pair's socket, rank to rank.  Collectives are completed by the
ranks themselves: each sends its contribution to every peer, collects
one from each and reduces the ``nranks`` values in rank order, so
floating-point results match :class:`~repro.runtime.comm.SimComm`
bitwise.  The parent **router** keeps the control plane only: hello /
result / error frames up the pipe, liveness by EOF, and the
``RANK_DOWN`` broadcast that turns a dying rank into a structured
failure at its peers instead of a silent hang.

Wire format: each message is one length-prefixed frame —

=======  ======================================================
header   ``!4sBBiiiq`` = magic ``OPPC``, version, kind, src,
         dst, tag, body length (a collective's op rides in tag)
body     ``N`` + array header + raw bytes for numpy payloads,
         ``P`` + pickle for control payloads
=======  ======================================================

An array header is plain ``struct`` data, never pickle: one byte of
dtype-string length, the dtype string (``'<f8'``, ``'|b1'``, ...), one
byte ``ndim``, then ``ndim`` big-endian int64 dims.  The decoder refuses
(:class:`FrameError`) an unknown or object dtype, ``ndim > 32``, a
negative dim, and dims whose element count times the item size is not
the body's remaining length.

Fault model (every path ends in a structured
:class:`~repro.dist.transport.RankFailure`, never a deadlock):

* peer process exits before completing → its sockets reach EOF, which
  only marks the peer *closed*; the router sees the same EOF on the
  pipe and broadcasts ``RANK_DOWN`` with the reason, and that is what
  makes blocked ``send``/``recv``/collectives raise ``rank-dead`` (a
  raw socket EOF would pre-empt the root cause the router knows);
* no progress within ``op_timeout`` seconds in any blocking wait,
  a blocked ``send`` included → ``timeout``;
* frame body over ``max_frame_bytes`` → ``oversized-frame``, refused on
  the sender before any bytes move and on the receiver from the header,
  before the body is buffered;
* bad magic / version, a frame whose ``src``/``dst`` do not match the
  socket it arrived on, ranks in different collectives, or a data frame
  written to the router → ``protocol``.

Peer sockets are non-blocking and there are no helper threads: a
``send`` that meets a full socket buffer runs the same progress loop
``recv`` uses (one ``selectors`` selector over the peer sockets and the
router pipe, filing every complete frame), so two ranks sending more
than a socket buffer at each other both finish — the cyclic-buffer
deadlock cannot form.
"""
from __future__ import annotations

import math
import os
import pickle
import selectors
import socket
import struct
import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing import connection as mpc

import numpy as np

from ..runtime.comm import SimComm, reduce_in_rank_order
from .transport import RankFailure

__all__ = ["ProcTransport", "ProcCluster", "FrameError",
           "encode_frame", "decode_frame", "reap_procs",
           "DEFAULT_OP_TIMEOUT", "DEFAULT_MAX_FRAME"]

_MAGIC = b"OPPC"
_VERSION = 1
_HEADER = struct.Struct("!4sBBiiiq")
#: most dims an array header may declare (NumPy's own limit is 64)
_MAX_NDIM = 32

# frame kinds
K_HELLO = 0        # rank -> router: rank is up
K_P2P = 1          # rank -> rank: point-to-point payload
K_COLL = 2         # rank -> rank: collective contribution, op in tag
K_RESULT = 4       # rank -> router: rank finished, body = result
K_ERROR = 5        # rank -> router: rank raised, body = exception
K_RANK_DOWN = 6    # router -> rank: src rank died / was expelled

#: the collective a ``K_COLL`` frame belongs to, carried in its tag
_COLL_OPS = ("sum", "max", "min", "alltoall", "barrier")

DEFAULT_OP_TIMEOUT = 30.0
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
_RECV_CHUNK = 64 * 1024


class FrameError(ValueError):
    """A frame violated the wire protocol (bad magic/version/length)."""


def reap_procs(procs, join_timeout: float = 5.0) -> None:
    """Deterministically reap rank/worker processes.

    Join every process against one shared deadline, escalate stragglers
    through ``terminate`` then ``kill``, and finally ``close`` each
    :class:`multiprocessing.Process` so its OS resources (the process
    object's sentinel fd and zombie entry) are released immediately
    instead of at garbage-collection time.  Shared by
    :class:`ProcCluster` and the service warm pool
    (:mod:`repro.service.pool`), whose repeated pool recycling would
    otherwise leak idle rank processes.
    """
    deadline = time.monotonic() + join_timeout
    for p in procs:
        p.join(timeout=max(0.1, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - last resort
            p.kill()
            p.join(timeout=2.0)
        p.close()


# -- frame codec -------------------------------------------------------------------


def _encode_body(obj) -> bytes:
    """Numpy arrays travel as a struct header + raw bytes (no pickle on
    the hot path); anything else — control dicts, exceptions — is
    pickled."""
    if isinstance(obj, np.ndarray):
        shape = obj.shape  # ascontiguousarray promotes 0-d to 1-d
        a = np.ascontiguousarray(obj)
        dtype = a.dtype.str.encode()
        return b"".join((b"N", bytes((len(dtype),)), dtype,
                         bytes((len(shape),)),
                         struct.pack(f"!{len(shape)}q", *shape),
                         a.tobytes()))
    return b"P" + pickle.dumps(obj)


def _decode_array(body) -> np.ndarray:
    """The array of an ``N`` body (bytes or memoryview)."""
    if len(body) < 2 or len(body) < 3 + body[1]:
        raise FrameError("truncated array header")
    end = 2 + body[1]
    try:
        dtype = np.dtype(bytes(body[2:end]).decode("ascii"))
    except (TypeError, ValueError) as exc:     # UnicodeDecodeError too
        raise FrameError(f"unknown array dtype: {exc}") from None
    if dtype.hasobject:
        raise FrameError(f"object dtype {dtype} does not travel as bytes")
    ndim = body[end]
    if ndim > _MAX_NDIM:
        raise FrameError(f"array header declares {ndim} dims, more than "
                         f"{_MAX_NDIM}")
    start = end + 1 + 8 * ndim
    if len(body) < start:
        raise FrameError("truncated array header")
    shape = struct.unpack_from(f"!{ndim}q", body, end + 1)
    if min(shape, default=0) < 0:
        raise FrameError(f"negative array dim in {shape}")
    count = math.prod(shape)
    if count * dtype.itemsize != len(body) - start:
        raise FrameError(f"array of {shape} {dtype} needs "
                         f"{count * dtype.itemsize} bytes, the body holds "
                         f"{len(body) - start}")
    if not count * dtype.itemsize:
        return np.empty(shape, dtype)
    return np.frombuffer(body, dtype, count, start).reshape(shape).copy()


def _decode_body(body: bytes):
    if not body:
        raise FrameError("empty frame body")
    if body[:1] == b"N":
        return _decode_array(body)
    if body[:1] == b"P":
        return pickle.loads(body[1:])
    raise FrameError(f"unknown body marker {body[:1]!r}")


def encode_frame(kind: int, src: int, dst: int, tag: int, obj,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    body = _encode_body(obj)
    if len(body) > max_frame_bytes:
        raise RankFailure(src, "oversized-frame",
                          f"{len(body)} bytes > limit {max_frame_bytes}")
    return _HEADER.pack(_MAGIC, _VERSION, kind, src, dst, tag,
                        len(body)) + body


def _decode_header(blob) -> Tuple[int, int, int, int, int]:
    """Returns ``(kind, src, dst, tag, body length)`` of the frame that
    starts ``blob``; all a receiver needs to refuse it unread."""
    if len(blob) < _HEADER.size:
        raise FrameError(f"short frame: {len(blob)} bytes")
    magic, version, kind, src, dst, tag, blen = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FrameError(f"protocol version {version}, expected "
                         f"{_VERSION}")
    return kind, src, dst, tag, blen


def decode_frame(blob: bytes) -> Tuple[int, int, int, int, object]:
    """Returns ``(kind, src, dst, tag, payload)``."""
    kind, src, dst, tag, blen = _decode_header(blob)
    body = blob[_HEADER.size:]
    if len(body) != blen:
        raise FrameError(f"length mismatch: header says {blen}, got "
                         f"{len(body)}")
    return kind, src, dst, tag, _decode_body(body)


def _recv_control(conn, max_frame_bytes: int) -> Optional[bytes]:
    """One frame off a control pipe; ``None`` when the other end is gone
    (EOF, or a reset because it died with frames still unread).  The
    ``OSError`` left to escape is the pipe's own bad-message-length."""
    try:
        return conn.recv_bytes(
            maxlength=max_frame_bytes + _HEADER.size + 64)
    except (EOFError, ConnectionError):
        return None


# -- the SPMD transport ------------------------------------------------------------


class ProcTransport(SimComm):
    """One rank process's view of the communicator.

    Inherits the accounting surface (:attr:`stats`, :meth:`swap_stats`)
    from :class:`SimComm` and replaces locality, point-to-point and
    collectives with wire operations: data over ``peers`` (one
    non-blocking socket per other rank), failure notices from the
    router over ``conn``.  Every blocking wait honours
    :attr:`op_timeout`.
    """

    def __init__(self, nranks: int, my_rank: int, conn,
                 peers: Dict[int, socket.socket],
                 op_timeout: float = DEFAULT_OP_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME):
        super().__init__(nranks)
        if not 0 <= my_rank < nranks:
            raise ValueError(f"rank {my_rank} out of range")
        self.my_rank = my_rank
        self.op_timeout = float(op_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self._conn = conn
        #: open peer sockets; a peer that closed its end drops out
        self._peers = dict(peers)
        for sock in self._peers.values():
            sock.setblocking(False)
        self._rank_of = {s: r for r, s in self._peers.items()}
        #: one selector for the transport's life (no fd-number ceiling,
        #: unlike ``select``): the router pipe and every open peer, read
        #: interest always, write interest only while a send is blocked
        self._sel = selectors.DefaultSelector()
        for source in (conn, *self._rank_of):
            self._sel.register(source, selectors.EVENT_READ)
        #: bytes received from each peer that do not make a frame yet
        self._inbuf = {r: bytearray() for r in self._peers}
        self._chunk = memoryview(bytearray(_RECV_CHUNK))
        #: buffered out-of-order P2P frames: (src, tag) -> deque
        self._p2p: Dict[Tuple[int, int], deque] = {}
        #: collective contributions in arrival order: src -> (op, value)
        self._coll = {r: deque() for r in self._peers}
        #: ranks the router declared down, with its reason
        self._dead: Dict[int, str] = {}
        conn.send_bytes(encode_frame(K_HELLO, my_rank, -1, 0, None))

    # -- locality ------------------------------------------------------------------

    @property
    def local_ranks(self) -> Tuple[int, ...]:
        return (self.my_rank,)

    def is_local(self, rank: int) -> bool:
        return rank == self.my_rank

    # -- wire plumbing -------------------------------------------------------------

    def _progress(self, deadline: float, waiting_for: str,
                  writable: Optional[socket.socket] = None) -> None:
        """Block until a peer socket or the router pipe has input (or
        ``writable`` has room) and file every frame that completed."""
        remaining = deadline - time.monotonic()
        events = []
        if remaining > 0:
            if writable is not None:
                self._sel.modify(writable, selectors.EVENT_READ
                                 | selectors.EVENT_WRITE)
            try:
                events = self._sel.select(remaining)
            finally:
                if writable is not None:
                    self._sel.modify(writable, selectors.EVENT_READ)
        if not events:
            raise RankFailure(self.my_rank, "timeout",
                              f"no progress within {self.op_timeout:.1f}s "
                              f"while waiting for {waiting_for}")
        for key, mask in events:
            if not mask & selectors.EVENT_READ:
                continue
            if key.fileobj is self._conn:
                self._read_router()
            else:
                self._read_peer(self._rank_of[key.fileobj])

    def _read_router(self) -> None:
        try:
            blob = _recv_control(self._conn, self.max_frame_bytes)
        except OSError as exc:
            raise RankFailure(self.my_rank, "oversized-frame",
                              f"router frame over "
                              f"{self.max_frame_bytes} bytes") from exc
        if blob is None:
            raise RankFailure(self.my_rank, "rank-dead",
                              "router closed the connection")
        kind, src, _dst, _tag, payload = decode_frame(blob)
        if kind != K_RANK_DOWN:
            raise RankFailure(self.my_rank, "protocol",
                              f"unexpected frame kind {kind} from the "
                              f"router")
        self._dead[src] = str(payload)

    def _close_peer(self, rank: int) -> None:
        """The peer's end is shut: stop watching the socket.  Whether
        the peer *died*, and why, is the router's call (``_dead``)."""
        sock = self._peers.pop(rank, None)
        if sock is not None:
            del self._rank_of[sock]
            self._sel.unregister(sock)
            sock.close()

    def _read_peer(self, rank: int) -> None:
        """Drain what ``rank``'s socket holds and file complete frames."""
        sock, buf = self._peers[rank], self._inbuf[rank]
        while True:
            try:
                n = sock.recv_into(self._chunk)
            except BlockingIOError:
                break
            except ConnectionError:  # it exited with our frames unread
                n = 0
            if n == 0:
                self._close_peer(rank)
                break
            buf += self._chunk[:n]
            if n < _RECV_CHUNK:
                break
        while len(buf) >= _HEADER.size:
            try:
                kind, src, dst, tag, blen = _decode_header(buf)
                if blen > self.max_frame_bytes:
                    raise RankFailure(rank, "oversized-frame",
                                      f"incoming {blen} bytes > limit "
                                      f"{self.max_frame_bytes}")
                if blen < 0 or (src, dst) != (rank, self.my_rank) \
                        or kind not in (K_P2P, K_COLL):
                    raise FrameError(f"kind {kind} src {src} dst {dst} "
                                     f"length {blen} on the socket from "
                                     f"rank {rank}")
                end = _HEADER.size + blen
                if len(buf) < end:
                    return
                # decoded in place; the views die with the call, which
                # is what lets the buffer shrink below
                payload = _decode_body(memoryview(buf)[_HEADER.size:end])
            except FrameError as exc:
                raise RankFailure(rank, "protocol", str(exc)) from exc
            del buf[:end]
            if kind == K_P2P:
                self._p2p.setdefault((src, tag), deque()).append(payload)
            else:
                self._coll[src].append((tag, payload))

    def _send_frame(self, kind: int, dst: int, tag: int, obj) -> None:
        """Write one frame to ``dst``, making progress on input whenever
        its socket buffer is full."""
        left = memoryview(encode_frame(kind, self.my_rank, dst, tag, obj,
                                       self.max_frame_bytes))
        deadline = time.monotonic() + self.op_timeout
        while left:
            if dst in self._dead:
                raise RankFailure(dst, "rank-dead", self._dead[dst])
            sock = self._peers.get(dst)
            if sock is None:
                self._progress(deadline, f"the router's word on rank "
                               f"{dst}, which closed its socket")
                continue
            try:
                left = left[sock.send(left):]
            except BlockingIOError:
                self._progress(deadline, f"room to send to rank {dst}",
                               writable=sock)
            except ConnectionError:
                self._close_peer(dst)

    # -- point-to-point ------------------------------------------------------------

    def send(self, src: int, dst: int, payload: np.ndarray,
             tag: int = 0) -> None:
        self._check_rank(src)
        self._check_rank(dst)
        if src != self.my_rank:
            raise RankFailure(self.my_rank, "protocol",
                              f"rank {self.my_rank} cannot send as "
                              f"rank {src}")
        payload = np.ascontiguousarray(payload)
        if dst == src:
            self._p2p.setdefault((src, tag), deque()).append(
                payload.copy())
        else:
            self._send_frame(K_P2P, dst, tag, payload)
        self.stats.record(src, dst, payload.nbytes)

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        self._check_rank(src)
        self._check_rank(dst)
        if dst != self.my_rank:
            raise RankFailure(self.my_rank, "protocol",
                              f"rank {self.my_rank} cannot recv as "
                              f"rank {dst}")
        key = (src, tag)
        deadline = time.monotonic() + self.op_timeout
        while True:
            q = self._p2p.get(key)
            if q:
                return q.popleft()
            if src in self._dead:
                raise RankFailure(src, "rank-dead", self._dead[src])
            self._progress(deadline, f"message from rank {src} tag {tag}")

    # -- collectives ---------------------------------------------------------------

    def _collective(self, op: str, value: np.ndarray) -> List[np.ndarray]:
        """Send ``value`` to every peer and collect theirs; returns the
        ``nranks`` contributions in rank order."""
        self.stats.collectives += 1
        code = _COLL_OPS.index(op)
        peers = [r for r in range(self.nranks) if r != self.my_rank]
        for r in peers:
            self._send_frame(K_COLL, r, code, value)
        values = [value] * self.nranks
        deadline = time.monotonic() + self.op_timeout
        for r in peers:
            while not self._coll[r]:
                if self._dead:
                    down, why = next(iter(self._dead.items()))
                    raise RankFailure(down, "rank-dead",
                                      f"peer died inside a collective: "
                                      f"{why}")
                self._progress(deadline, f"rank {r} to join {op}")
            theirs, values[r] = self._coll[r].popleft()
            if theirs != code:
                raise RankFailure(
                    r, "protocol", f"mismatched collectives: rank {r} is "
                    f"in {_COLL_OPS[theirs]}, rank {self.my_rank} in {op}")
        return values

    def allreduce(self, per_rank_values: Sequence, op: str = "sum"):
        if len(per_rank_values) != self.nranks:
            raise ValueError(f"allreduce needs {self.nranks} values, "
                             f"got {len(per_rank_values)}")
        if op not in ("sum", "max", "min"):
            raise ValueError(f"unknown allreduce op {op!r}")
        mine = np.asarray(per_rank_values[self.my_rank])
        return np.asarray(reduce_in_rank_order(
            self._collective(op, mine), op))

    def alltoall_counts(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts)
        if counts.shape != (self.nranks, self.nranks):
            raise ValueError("counts must be (nranks, nranks)")
        rows = self._collective("alltoall", counts[self.my_rank].copy())
        return np.stack(rows).T.copy()

    def barrier(self) -> None:
        self._collective("barrier", np.zeros(0))

    def __repr__(self) -> str:
        return f"<ProcTransport rank={self.my_rank}/{self.nranks}>"


# -- rank-process entry ------------------------------------------------------------


def _child_main(entry, rank: int, nranks: int, pipes, socks, opts: dict,
                args: tuple) -> None:
    """Body of every rank process: build the transport, run ``entry``,
    ship the result (or the exception) back, exit."""
    # drop inherited ends that belong to the router or to siblings, so a
    # dying rank produces a clean EOF at the router and at its peers
    for r, (parent_end, child_end) in enumerate(pipes):
        parent_end.close()
        if r != rank:
            child_end.close()
            for sock in socks[r].values():
                sock.close()
    conn = pipes[rank][1]
    try:
        transport = ProcTransport(nranks, rank, conn, socks[rank], **opts)
        payload = entry(transport, *args)
        conn.send_bytes(encode_frame(K_RESULT, rank, -1, 0, payload,
                                     transport.max_frame_bytes))
    except BaseException as exc:  # noqa: BLE001 - shipped to the router
        if not isinstance(exc, RankFailure):
            # the pickled exception loses its traceback; keep it on the
            # inherited stderr for post-mortems
            traceback.print_exc()
        try:
            conn.send_bytes(encode_frame(K_ERROR, rank, -1, 0, exc))
        except Exception:
            pass
        conn.close()
        os._exit(1)
    conn.close()
    os._exit(0)


# -- the launcher / control plane --------------------------------------------------


class ProcCluster:
    """Launches ``nranks`` rank processes, wires every pair of them
    together, and runs their control plane until every rank returned a
    result or failed.

    ``entry(transport, *args)`` runs inside each rank process; its
    return value (any picklable object) becomes that rank's slot in the
    list :meth:`run` returns.
    """

    def __init__(self, nranks: int, entry, args: tuple = (),
                 op_timeout: float = DEFAULT_OP_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME,
                 start_method: Optional[str] = None):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = int(nranks)
        self.entry = entry
        self.args = tuple(args)
        self.op_timeout = float(op_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        if start_method is None:
            start_method = ("fork" if "fork"
                            in mp.get_all_start_methods() else "spawn")
        self._ctx = mp.get_context(start_method)

    def run(self) -> List[object]:
        """Launch, supervise, reap.  Returns per-rank results; raises
        the root-cause :class:`RankFailure` if any rank failed."""
        ctx = self._ctx
        pipes = [ctx.Pipe(duplex=True) for _ in range(self.nranks)]
        # socks[r][peer]: rank r's end of the socket it shares with peer
        socks: List[Dict[int, socket.socket]] = [
            {} for _ in range(self.nranks)]
        for a in range(self.nranks):
            for b in range(a + 1, self.nranks):
                socks[a][b], socks[b][a] = socket.socketpair()
        opts = {"op_timeout": self.op_timeout,
                "max_frame_bytes": self.max_frame_bytes}
        procs = [ctx.Process(target=_child_main,
                             args=(self.entry, r, self.nranks, pipes,
                                   socks, opts, self.args),
                             name=f"rank-{r}")
                 for r in range(self.nranks)]
        conns = [parent_end for parent_end, _child_end in pipes]
        started = []
        try:
            try:
                for p in procs:
                    p.start()
                    started.append(p)
            finally:
                # the ranks hold their own copies now; ours would keep
                # a dead rank's sockets from ever reaching EOF
                for _parent_end, child_end in pipes:
                    child_end.close()
                for mine in socks:
                    for sock in mine.values():
                        sock.close()
            results, errors = self._route(conns)
        finally:
            self._reap(started, conns)
        if errors:
            # prefer the root cause: a dead/expelled rank over the
            # secondary failures its peers raised when they noticed
            for rank, exc in sorted(errors.items()):
                if isinstance(exc, RankFailure) \
                        and exc.kind in ("rank-dead", "oversized-frame") \
                        and exc.rank == rank:
                    raise exc
            rank, exc = sorted(errors.items())[0]
            if isinstance(exc, RankFailure):
                raise exc
            raise RankFailure(rank, "rank-dead",
                              f"rank raised {exc!r}") from exc
        return [results[r] for r in range(self.nranks)]

    # -- control plane -------------------------------------------------------------

    def _route(self, conns) -> Tuple[Dict[int, object],
                                     Dict[int, Exception]]:
        """Read hello / result / error frames and watch for EOF until
        every rank is accounted for.  Healthy ranks are silent here for
        as long as they compute, so silence only counts as a hang once
        a rank has failed: the survivors have been told by then and
        must finish or fail within ``op_timeout``."""
        rank_of = {id(c): r for r, c in enumerate(conns)}
        results: Dict[int, object] = {}
        errors: Dict[int, Exception] = {}
        open_ranks = set(range(self.nranks))   # pipes still read from
        while open_ranks - set(results) - set(errors):
            ready = mpc.wait([conns[r] for r in open_ranks],
                             timeout=self.op_timeout if errors else None)
            if not ready:
                stuck = sorted(open_ranks - set(results) - set(errors))
                raise RankFailure(
                    stuck[0], "timeout",
                    f"ranks {stuck} neither finished nor failed within "
                    f"{self.op_timeout:.1f}s of a peer's failure")
            for conn in ready:
                r = rank_of[id(conn)]
                try:
                    blob = _recv_control(conn, self.max_frame_bytes)
                except OSError:
                    open_ranks.discard(r)
                    self._expel(r, "sent a frame over the size limit",
                                open_ranks, conns, errors,
                                kind="oversized-frame")
                    continue
                if blob is None:
                    open_ranks.discard(r)
                    if r not in results:
                        self._expel(r, "process exited without a result",
                                    open_ranks, conns, errors)
                    continue
                try:
                    kind, _src, _dst, _tag, payload = decode_frame(blob)
                except FrameError as exc:
                    kind, payload = None, exc
                if kind == K_RESULT:
                    results[r] = payload
                elif kind == K_ERROR:
                    exc = payload if isinstance(payload, BaseException) \
                        else RankFailure(r, "rank-dead", repr(payload))
                    self._expel(r, f"rank failed: {exc}", open_ranks,
                                conns, errors, exc=exc)
                elif kind != K_HELLO:
                    # data frames travel rank to rank, never through here
                    open_ranks.discard(r)
                    self._expel(r, f"protocol violation: {payload}"
                                if kind is None else f"unexpected frame "
                                f"kind {kind} at the router", open_ranks,
                                conns, errors, kind="protocol")
        return results, errors

    def _expel(self, r: int, why: str, open_ranks, conns, errors,
               kind: str = "rank-dead",
               exc: Optional[BaseException] = None) -> None:
        """Mark a rank failed and tell every other rank still connected,
        so nobody blocks forever waiting for it."""
        if r in errors:
            return
        errors[r] = exc if exc is not None else RankFailure(r, kind, why)
        down = encode_frame(K_RANK_DOWN, r, -1, 0, why)
        for peer in open_ranks - {r}:
            try:
                conns[peer].send_bytes(down)
            except OSError:
                pass  # it is going too; the read loop will see the EOF

    def _reap(self, procs, conns) -> None:
        for c in conns:
            try:
                c.close()
            except OSError:
                pass
        reap_procs(procs)
