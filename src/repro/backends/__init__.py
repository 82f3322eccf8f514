"""Execution backends and the backend registry.

Available targets (OP-PIC generates one code path per target; here each is
a backend class driving the same generated kernels differently):

========= =============================================================
``seq``    elemental reference execution (the semantic oracle)
``vec``    generated code: each loop one compiled C call where a C
           compiler exists (bit-equal to ``seq``), else NumPy vector
           code with a configurable reduction strategy
``omp``    simulated OpenMP: chunked threads + scatter arrays
``cuda``   simulated NVIDIA GPU: vector code + safe atomics
``hip``    simulated AMD GPU: vector code + unsafe atomics / seg. red.
``xe``     simulated Intel GPU (Data Center Max): the future-work target
========= =============================================================
"""
from __future__ import annotations

from .base import Backend
from .device import DeviceBackend
from .omp import OmpBackend
from .seq import SeqBackend
from .vec import VecBackend

__all__ = ["Backend", "SeqBackend", "VecBackend", "OmpBackend",
           "DeviceBackend", "make_backend", "available_backends",
           "register_backend"]

def _make_sanitizer(**kw):
    # deferred import: repro.verify imports from repro.backends
    from ..verify.sanitize import SanitizerBackend
    return SanitizerBackend(**kw)


_REGISTRY = {
    "seq": lambda **kw: SeqBackend(**kw),
    "vec": lambda **kw: VecBackend(**kw),
    "omp": lambda **kw: OmpBackend(**kw),
    "cuda": lambda **kw: DeviceBackend(kind="cuda", **kw),
    "hip": lambda **kw: DeviceBackend(kind="hip", **kw),
    # the paper's future work: "extend the code-generation to produce
    # parallelizations for other architectures, such as Intel GPUs"
    "xe": lambda **kw: DeviceBackend(kind="xe", **kw),
    # shadow execution with access-descriptor checking (repro.verify)
    "sanitizer": _make_sanitizer,
}


def available_backends():
    return sorted(_REGISTRY)


def make_backend(name: str, **options) -> Backend:
    """Instantiate a backend by target name (``seq``/``vec``/``omp``/
    ``cuda``/``hip``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; available: "
                         f"{available_backends()}") from None
    return factory(**options)


def register_backend(name: str, factory) -> None:
    """Register a new execution target (paper §3.4: "the system is also
    easily extensible where a new parallelization, or optimization could
    be added as a new template which can then be reused").

    ``factory(**options)`` must return a :class:`Backend`.
    """
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = factory
