"""Blocking NDJSON client for the PIC service.

One TCP connection, one JSON line per request, responses as JSON
lines.  Deliberately synchronous and dependency-free so tests,
benchmarks and user scripts can drive the asyncio server without
touching an event loop::

    with Client("127.0.0.1", 9321) as c:
        job_id = c.submit({"app": "advec",
                           "params": {"nx": 8, "ny": 8, "n_steps": 20}})
        for event in c.watch(job_id):
            print(event)
        history = c.result(job_id)["result"]["history"]
"""
from __future__ import annotations

import json
import socket
from typing import Iterator, Optional

__all__ = ["Client", "ServiceError"]


class ServiceError(RuntimeError):
    """The server answered ``ok: false``; carries the full response."""

    def __init__(self, response: dict):
        self.response = response
        detail = response.get("error", "request failed")
        if response.get("errors"):
            detail += ": " + "; ".join(
                f"{e.get('field')}: {e.get('error')}"
                for e in response["errors"])
        super().__init__(detail)


class Client:
    """Synchronous client; safe for single-threaded use only."""

    def __init__(self, host: str = "127.0.0.1", port: int = 9321,
                 timeout: Optional[float] = 60.0):
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port),
                                              timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------------------

    def _send(self, req: dict) -> None:
        self._file.write(json.dumps(req).encode() + b"\n")
        self._file.flush()

    def _recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        """One round trip; raises :class:`ServiceError` on ok=false."""
        self._send(req)
        response = self._recv()
        if not response.get("ok", False):
            raise ServiceError(response)
        return response

    # -- operations ----------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def schemas(self) -> dict:
        return self.request({"op": "schemas"})["apps"]

    def submit(self, job: dict) -> str:
        """Submit one job dict; returns its job_id.  Validation
        failures raise :class:`ServiceError` whose ``response["errors"]``
        lists every ``{"field", "error"}`` problem."""
        return self.request({"op": "submit", "job": job})["job_id"]

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "job_id": job_id})

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> dict:
        """Block until the job is terminal; check ``["state"]`` for the
        outcome (done/failed/cancelled).  Raises only on timeout or an
        unknown job_id."""
        old = self._sock.gettimeout()
        if timeout is not None:
            # give the socket headroom beyond the server-side timeout
            self._sock.settimeout(timeout + 10.0)
        else:
            self._sock.settimeout(None)
        try:
            return self.request({"op": "result", "job_id": job_id,
                                 "timeout": timeout})
        finally:
            self._sock.settimeout(old)

    def watch(self, job_id: str, since: int = 0) -> Iterator[dict]:
        """Yield the job's events from sequence number ``since`` (every
        retained one by default), then live ones, until the job reaches
        a terminal state (the terminal event is yielded last)."""
        self._send({"op": "watch", "job_id": job_id, "since": since})
        head = self._recv()
        if not head.get("ok", False):
            raise ServiceError(head)
        old = self._sock.gettimeout()
        self._sock.settimeout(None)
        try:
            while True:
                event = self._recv()
                yield event
                if event.get("event") in ("done", "failed",
                                          "cancelled"):
                    return
        finally:
            self._sock.settimeout(old)

    def cancel(self, job_id: str) -> dict:
        return self.request({"op": "cancel", "job_id": job_id})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def kill_worker(self, worker_id: Optional[int] = None,
                    job_id: Optional[str] = None) -> int:
        """Fault injection: hard-kill a (busy) worker process."""
        req = {"op": "kill-worker"}
        if worker_id is not None:
            req["worker_id"] = worker_id
        if job_id is not None:
            req["job_id"] = job_id
        return self.request(req)["killed"]

    def resize(self, n_workers: int) -> int:
        return self.request({"op": "resize",
                             "n_workers": n_workers})["target_size"]

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        except (ConnectionError, OSError):
            pass

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
