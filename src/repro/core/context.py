"""Execution context: backend selection and instrumentation hooks.

OP-PIC selects a parallelisation at code-generation/compile time; here the
active backend is a property of the :class:`Context`.  A context also owns
the performance recorder that the benchmark harness uses to reproduce the
paper's per-kernel runtime breakdowns and rooflines.

A loop call site is declared in two halves (DESIGN.md §3).  What its
descriptors fix whatever objects they name — the *shape* — is derived
once per process and kept in a bounded table here (:func:`site_shape`);
the declaration that names this run's sets, dats and maps is kept per
context, in :attr:`Context.sites`.
"""
from __future__ import annotations

from typing import Optional

__all__ = ["Context", "get_context", "set_backend", "push_context",
           "site_shape"]

#: most loop call sites one context remembers.  An application has tens;
#: the process-wide default context also sees every throw-away loop a
#: test or script declares under it, so a full memo is emptied wholesale
#: (live sites re-declare on their next launch) instead of growing for
#: the life of the process
MAX_SITES = 256
#: most call-site shapes the process remembers.  A shape holds no set,
#: dat, map or global, so the table pins no job's data; a process that
#: declares ever new kernels or loop names empties it wholesale when
#: full (live declarations keep their shape; new ones derive it again)
MAX_SHAPES = 256

#: structural key -> shape (see :func:`site_shape`)
_shapes: dict = {}


def site_shape(key: tuple, derive):
    """The process-wide shape of a call site: the entry for ``key``, else
    ``derive()`` stored under it.  ``key`` names no object but the
    kernel; a ``derive`` that raises stores nothing."""
    shape = _shapes.get(key)
    if shape is None:
        shape = derive()
        if len(_shapes) >= MAX_SHAPES:
            _shapes.clear()
        _shapes[key] = shape
    return shape


class Context:
    """Holds the active backend instance, the perf recorder and the
    declarations of the loop call sites launched under it."""

    def __init__(self, backend: str = "seq", **backend_options):
        from ..backends import make_backend
        self.backend_name = backend
        self.backend = make_backend(backend, **backend_options)
        from ..perf.timers import PerfRecorder
        self.perf: PerfRecorder = PerfRecorder()
        #: call-site key -> the validated declaration (``ParLoop`` or
        #: the static half of a move) and whatever the backend bound to
        #: it.  Owned here so a site dies with the simulation, rank or
        #: solver context that launched it; the keys hold their kernels,
        #: sets, dats and maps strongly, so no id is reused under a live
        #: entry.  What the declaration shares with every other of its
        #: shape is the process-wide :func:`site_shape`
        self.sites: dict = {}

    def set_backend(self, backend: str, **backend_options) -> None:
        from ..backends import make_backend
        self.backend_name = backend
        self.backend = make_backend(backend, **backend_options)
        self.sites.clear()      # bindings belong to the old backend

    def remember_site(self, key: tuple, declaration) -> None:
        if len(self.sites) >= MAX_SITES:
            self.sites.clear()
        self.sites[key] = declaration

    def __repr__(self) -> str:
        return f"<Context backend={self.backend_name!r}>"


_current: Optional[Context] = None


def get_context() -> Context:
    """The process-wide context (created lazily with the ``seq`` backend)."""
    global _current
    if _current is None:
        _current = Context()
    return _current


def set_backend(backend: str, **backend_options) -> Context:
    """Switch the global context's backend; returns the context."""
    ctx = get_context()
    ctx.set_backend(backend, **backend_options)
    return ctx


class push_context:
    """Context manager that temporarily installs a fresh :class:`Context`.

    Used by tests and by the distributed runtime (each simulated rank runs
    loops under its own context so perf numbers stay per-rank).
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._saved: Optional[Context] = None

    def __enter__(self) -> Context:
        global _current
        self._saved = _current
        _current = self.ctx
        return self.ctx

    def __exit__(self, *exc) -> None:
        global _current
        _current = self._saved
