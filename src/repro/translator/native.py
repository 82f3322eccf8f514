"""Build cache and launcher of the C target.

:mod:`repro.translator.cgen` writes the C function of one loop; this
module turns it into a callable once per machine and calls it once per
launch: host ``cc`` → shared object in a per-user cache directory →
``ctypes``.  The object's key hashes the kernel source, the descriptor
signature, the emitter's own source, the compiler's version line and the
flags, so a warm process runs neither the emitter nor the compiler; loaded
handles and bound functions are memoised per process.  What a launch
derives from the loop's descriptors is kept on the declaration (a
:class:`_Binding`), so a repeated launch from a call site only reads what
may have changed: each array object (a particle dat that grows past
its capacity gets a new buffer), each row count, the ``CONST`` values.

:func:`library` builds and loads a fixed C source through the same cache
(the KSP solve of :mod:`repro.fem.solver`).

Nothing here raises for a loop it cannot serve: :func:`par_loop` and
:func:`particle_move` return ``(None, reason)`` and the caller stays on
the NumPy target.  There is no switch; what decides is whether a compiler
is found (``$CC``, else ``cc``), whether the kernels translate, and
whether the build succeeds.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import tempfile
from ctypes import addressof, c_char, c_double, c_int64, c_void_p
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.dats import Global
from ..core.kernel import CONST
from ..core.maps import Map
from . import cgen
from .parser import KernelLanguageError

__all__ = ["CC", "CACHE", "FLAGS", "compiler", "cache_dir", "library",
           "address", "par_loop", "particle_move"]

#: no ``-ffast-math`` and no contraction: the generated loop must round
#: exactly like the elemental Python it was translated from; no
#: ``-march=native``: the cache directory may be shared between hosts
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: the host compiler, ``(argv prefix, version line)``; ``False`` until the
#: first launch looks for one, ``None`` when there is none.  Setting this
#: to ``None`` pins every loop to the NumPy target — what the tests of
#: that target and the ablation scripts do (as with ``blocked.BLOCK``)
CC = False
#: the directory shared objects live in; ``False`` until first needed,
#: ``None`` when no usable directory exists
CACHE = False

_no_cc = "no C compiler (native.CC is pinned to None)"
_no_cache = ""
#: object key -> loaded ctypes.CDLL; :func:`library` also files it under
#: ``(name, source, compiler version)``
_LIBS: dict = {}
_emitter_hash = ""


class _Declined(Exception):
    """This loop stays on the NumPy target; ``str(exc)`` says why."""


def _find_compiler():
    """``((argv prefix, version line), "")`` or ``(None, why not)``."""
    argv = shlex.split(os.environ.get("CC") or "cc")
    exe = shutil.which(argv[0]) if argv else None
    if exe is None:
        return None, f"no C compiler: {' '.join(argv) or '$CC'!r} not found"
    try:
        probe = subprocess.run([exe, *argv[1:], "--version"],
                               capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"no C compiler: {exe} --version failed ({exc})"
    if probe.returncode != 0 or not probe.stdout.strip():
        return None, (f"no C compiler: {exe} --version exited "
                      f"{probe.returncode}")
    version = probe.stdout.decode(errors="replace").splitlines()[0]
    return ([exe, *argv[1:]], version), ""


def compiler() -> Optional[Tuple[List[str], str]]:
    """Find the host C compiler, once per process."""
    global CC, _no_cc
    if CC is False:
        CC, why = _find_compiler()
        if CC is None:
            _no_cc = why
    return CC


def cache_dir() -> Optional[str]:
    """``$XDG_CACHE_HOME/repro-oppic``, else ``~/.cache/repro-oppic``,
    else a per-uid directory under the temp dir; created ``0700`` and
    refused unless the current user owns it (a shared object found there
    is code this process will run)."""
    global CACHE, _no_cache
    if CACHE is False:
        CACHE = None
        xdg = os.environ.get("XDG_CACHE_HOME")
        home = os.path.expanduser("~")
        if xdg:
            candidates = [os.path.join(xdg, "repro-oppic")]
        else:
            candidates = [os.path.join(tempfile.gettempdir(),
                                       f"repro-oppic-{os.getuid()}")]
            if os.path.isabs(home):
                candidates.insert(0, os.path.join(home, ".cache",
                                                  "repro-oppic"))
        for path in candidates:
            try:
                os.makedirs(path, mode=0o700, exist_ok=True)
                if os.stat(path).st_uid != os.getuid():
                    raise PermissionError("owned by another user")
                CACHE = path
                break
            except OSError as exc:
                _no_cache = f"cache directory {path} is unusable: {exc}"
    return CACHE


# -- build ------------------------------------------------------------------------


def _open(path: str) -> Optional[ctypes.CDLL]:
    """Load a cached object whose trailing sha256 matches its body; a
    truncated or foreign file is reported as absent (and rebuilt), never
    handed to ``dlopen``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) <= 32 \
                or hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
            return None
        return ctypes.CDLL(path)
    except OSError:
        return None


def _build(cc: List[str], source: str, path: str) -> None:
    """Compile ``source`` to ``path``.  The object is written under a
    temporary name, sealed with its digest and ``os.replace``d, so two
    ranks building the same loop never see a half-written file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise _Declined(f"cache directory is not writable: {exc}") from None
    try:
        proc = subprocess.run(
            [*cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source.encode(), capture_output=True, timeout=300)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-200:]
            raise _Declined(f"{cc[0]} exited {proc.returncode}"
                            + (f": {tail}" if tail else ""))
        with open(tmp, "rb") as fh:
            blob = fh.read()
        if not blob:
            raise _Declined(f"{cc[0]} wrote no object")
        with open(tmp, "ab") as fh:
            fh.write(hashlib.sha256(blob).digest())
        os.replace(tmp, path)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _Declined(f"build failed: {exc}") from None
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def _library(name: str, key: tuple, emit: Callable[[], str]) -> ctypes.CDLL:
    """The loaded shared object for ``key``: from this process, else from
    the cache directory, else built (the only case that runs ``emit``)."""
    global _emitter_hash
    cc, version = compiler()
    if not _emitter_hash:
        with open(cgen.__file__, "rb") as fh:
            _emitter_hash = hashlib.sha256(fh.read()).hexdigest()
    digest = hashlib.sha256(repr(
        (key, _emitter_hash, version, FLAGS)).encode()).hexdigest()[:32]
    lib = _LIBS.get(digest)
    if lib is not None:
        return lib
    cache = cache_dir()
    if cache is None:
        raise _Declined(_no_cache)
    path = os.path.join(
        cache, f"{re.sub(r'[^A-Za-z0-9_]', '_', name)}-{digest}.so")
    lib = _open(path)
    if lib is None:
        try:
            source = emit()
        except KernelLanguageError as exc:
            raise _Declined(f"does not translate to C: {exc}") from None
        _build(cc, source, path)
        lib = _open(path)
        if lib is None:
            raise _Declined(f"built object {path} does not load")
    _LIBS[digest] = lib
    return lib


def library(name: str, source: str
            ) -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """A fixed C ``source`` built and loaded as a generated loop is (same
    cache, flags and seal check) → ``(library, None)``, or ``(None,
    reason)`` when there is no compiler or the build is declined.  A
    loaded library is found again by its name and source alone."""
    if not CC and compiler() is None:
        return None, _no_cc
    memo = (name, source, CC[1])        # no re-hash of the source
    lib = _LIBS.get(memo)
    if lib is None:
        try:
            lib = _LIBS[memo] = _library(name, ("source", source),
                                         lambda: source)
        except _Declined as exc:
            return None, str(exc)
    return lib, None


class _Launcher:
    """One loop's bound C function and the ``CONST`` names it reads."""

    __slots__ = ("fn", "consts", "Table")

    def __init__(self, lib: ctypes.CDLL, head: list, nslots: int,
                 tail: int, consts):
        self.fn = lib[cgen.ENTRY]
        self.fn.restype = c_int64
        self.fn.argtypes = (head + [c_void_p, c_int64] * nslots
                            + [c_void_p] * tail)
        self.consts = tuple(consts)
        self.Table = c_double * max(len(self.consts), 1)


def _source_key(kernel) -> tuple:
    return (kernel.name, kernel.source, kernel.generated("c").literals)


def _launcher(ckernels, key: tuple, make: Callable[[], _Launcher]):
    """This process's launcher for ``key`` → ``(launcher, reason)``; a
    declined signature is settled once and remembered with its reason."""
    memo = ckernels[0].launchers
    found = memo.get(key)
    if found is None:
        try:
            for ck in ckernels:
                if ck.reason is not None:
                    raise _Declined(ck.reason)
            found = make()
        except _Declined as exc:
            found = str(exc)
        memo[key] = found
    if isinstance(found, str):
        return None, found
    return found, None


def _check_dtypes(sig) -> None:
    for entry in sig:
        if entry[3] not in cgen.DTYPES:
            raise _Declined(f"dat dtype {np.dtype(entry[3]).name} is "
                            "not float64 / int64")


# -- launch -----------------------------------------------------------------------


def address(a: np.ndarray) -> int:
    """The address of ``a``'s first element, for a ``c_void_p`` slot."""
    try:        # four times cheaper than ``a.ctypes.data``
        return addressof(c_char.from_buffer(a))
    except (TypeError, ValueError, BufferError):   # empty or read-only
        return a.ctypes.data


_INT64 = np.dtype(np.int64).char


class _Binding:
    """What the native launches of one declaration share: its launcher
    and, per ``(pointer, rows)`` slot of the generated function, the
    object behind it and the array it last held with that array's
    address.  Holding the array is what makes "same object, same address"
    true (``ndarray.resize`` refuses while a reference exists)."""

    __slots__ = ("launcher", "slots", "held", "argv", "values", "table")

    def __init__(self, launcher: _Launcher, objs: list):
        self.launcher = launcher
        #: per slot: the object, the set whose size is its row count
        #: (None for a ``Global``: always ``dim`` rows), and the dtype
        #: char and trailing shape the generated code assumes
        self.slots = []
        self.argv = []
        for o in objs:
            if type(o) is Global:
                self.slots.append((o, None, o.dtype.char, ()))
                self.argv += [0, o.dim]
            elif type(o) is Map:
                self.slots.append((o, o.from_set, _INT64, (o.arity,)))
                self.argv += [0, 0]
            else:
                self.slots.append((o, o.set, o.dtype.char, (o.dim,)))
                self.argv += [0, 0]
        self.held = [None] * len(objs)
        self.values = self.table = None

    def refresh(self) -> Optional[list]:
        """The function's slot arguments as of now: row counts are read
        again (particle sets grow and shrink every step), an address only
        when the array is not the one held (a particle dat grown past its
        capacity).  None when a new array is not a C-contiguous
        buffer of the dtype and row shape the loop was generated for."""
        argv, held = self.argv, self.held
        for k, (o, rows_of, char, trailing) in enumerate(self.slots):
            if rows_of is None:
                arr = o.data
            else:
                arr = o.raw
                argv[2 * k + 1] = rows_of.size
            if arr is not held[k]:
                if not (arr.flags.c_contiguous and arr.dtype.char == char
                        and arr.shape[1:] == trailing):
                    return None
                held[k] = arr
                argv[2 * k] = address(arr)
        return argv

    def constants(self):
        """The ``CONST`` table of this launch (None when a value is not a
        numeric scalar): the table of the previous launch while the
        registry still holds the values it was built from.  ``==`` does
        not tell ``-0.0`` from ``0.0``, so a table with a zero in it is
        built again."""
        values = CONST.values(self.launcher.consts)
        try:
            if values != self.values or 0.0 in values:
                self.table = self.launcher.Table(*values)
                self.values = values
        except (TypeError, ValueError):     # e.g. a string, an array
            return None
        return self.table


_UNBOUND = ("an argument array is not a C-contiguous buffer of its dat's "
            "dtype and dim, or a CONST value is not a numeric scalar")


def _arguments(loop, variant, derive: Callable):
    """``(binding, slot arguments)`` of a declared loop's native function
    (``loop.bindings`` is its declaration's, shared by every launch) with
    every slot current, or ``(None, reason)``.  ``derive(loop, variant)``
    returns ``(launcher, objs)`` or ``(None, reason)``; it runs on the
    first launch, and again when an array stopped fitting the binding —
    the loop's dats are then read from scratch, and decline if they
    must."""
    binding = loop.bindings.get(variant)
    argv = None if binding is None else binding.refresh()
    if argv is None:
        loop.bindings.pop(variant, None)
        launcher, objs = derive(loop, variant)
        if launcher is None:
            return None, objs
        binding = _Binding(launcher, objs)
        argv = binding.refresh()
        if argv is None:
            return None, _UNBOUND
        loop.bindings[variant] = binding
    return binding, argv


def _derive_par_loop(loop, _variant=None):
    kernel = loop.kernel
    ck = kernel.generated("c")
    objs: list = []
    sig = cgen.signature(loop.args, objs)

    def make() -> _Launcher:
        _check_dtypes(sig)
        lib = _library(kernel.name, ("par_loop", _source_key(kernel), sig),
                       lambda: cgen.emit_par_loop(kernel, sig, len(objs)))
        return _Launcher(lib, [c_int64, c_int64], len(objs), 2, ck.consts)

    launcher, reason = _launcher([ck], sig, make)
    return launcher, (objs if launcher is not None else reason)


_Out2 = c_int64 * 2
_Out7 = c_int64 * 7


def par_loop(loop, start: int, end: int
             ) -> Tuple[Optional[dict], Optional[str]]:
    """Run ``loop`` over ``[start, end)`` as one native call → ``(perf
    extras, None)``, or ``(None, reason)`` when it stays on the NumPy
    target."""
    if not CC and compiler() is None:
        return None, _no_cc
    binding, argv = _arguments(loop, None, _derive_par_loop)
    if binding is None:
        return None, argv
    table = binding.constants()
    if table is None:
        return None, _UNBOUND
    out = _Out2()
    if binding.launcher.fn(start, end, *argv, table, out):
        raise IndexError(f"loop {loop.name!r}: iteration {out[1]} addresses "
                         "a row outside its dat or map")
    return {"collisions": out[0], "strategy": "in_place"}, None


def _derive_move(loop, has_foreign: bool):
    kernel = loop.kernel
    ck = kernel.generated("c")
    objs = [loop.p2c_map, loop.c2c_map]
    sig = cgen.signature(loop.args, objs)
    arity = loop.c2c_map.arity

    def make() -> _Launcher:
        _check_dtypes(sig)
        key = ("particle_move", _source_key(kernel), sig, arity,
               has_foreign)
        lib = _library(kernel.name, key, lambda: cgen.emit_move(
            kernel, sig, len(objs), arity, has_foreign))
        return _Launcher(lib, [c_int64, c_void_p, c_int64, c_void_p],
                         len(objs), 5, ck.consts)

    launcher, reason = _launcher([ck], (sig, arity, has_foreign), make)
    return launcher, (objs if launcher is not None else reason)


def particle_move(loop) -> Tuple[Optional[tuple], Optional[str]]:
    """Run a move loop as one native call → ``((removed, foreign
    particles, foreign cells, total hops, relocated, collisions), None)``
    with the lists in particle order as ``seq`` returns them, or ``(None,
    reason)`` as :func:`par_loop`.  The generated function differs with
    and without a foreign-cell mask, so a declaration binds each."""
    if not CC and compiler() is None:
        return None, _no_cc
    foreign = loop.foreign_cell_mask
    has_foreign = foreign is not None
    binding, argv = _arguments(loop, has_foreign, _derive_move)
    if binding is None:
        return None, argv
    table = binding.constants()
    if table is None or (has_foreign and not (
            foreign.dtype == np.bool_ and foreign.flags.c_contiguous
            and foreign.size >= loop.c2c_map.from_set.size)):
        return None, _UNBOUND
    index = loop.only_indices
    if index is not None:
        index = np.ascontiguousarray(index, dtype=np.int64)
    count = loop.pset.size if index is None else index.size
    lists = np.empty((3, max(count, 1)), dtype=np.int64)
    base, row = address(lists), lists.strides[0]
    out = _Out7()
    err = binding.launcher.fn(
        count, None if index is None else address(index), loop.max_hops,
        address(foreign) if has_foreign else None,
        *argv, table, base, base + row, base + 2 * row, out)
    n_removed, n_foreign, hops, relocated, coll, over, bad = out
    if err:
        raise IndexError(f"move loop {loop.name!r}: particle {bad} addresses "
                         "a row or cell out of range")
    if over:
        raise RuntimeError(f"{over} particles exceeded {loop.max_hops} hops "
                           f"in move loop {loop.name!r}")
    return (lists[0, :n_removed].copy(), lists[1, :n_foreign].copy(),
            lists[2, :n_foreign].copy(), hops, relocated, coll), None
