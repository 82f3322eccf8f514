"""Build cache and launcher of the C target.

:mod:`repro.translator.cgen` writes the C function of one loop; this
module turns it into a callable once per machine and calls it once per
launch: host ``cc`` → shared object in a per-user cache directory →
``ctypes``.  The object's key hashes the kernel source, the descriptor
signature, the emitter's own source, the compiler's version line and the
flags, so a warm process runs neither the emitter nor the compiler; loaded
handles and bound functions are memoised per process.  The bound
function of a call-site *shape* (a :class:`_Launcher`, with the layout of
the argument block it reads) is kept on the process-wide shape, so a new
job's declaration of a known shape derives nothing; what binds it to
that declaration's objects is kept on the declaration (a
:class:`_Binding`), so a repeated launch from a call site only reads what
may have changed: each array object (a particle dat that grows past
its capacity gets a new buffer), each row count, the ``CONST`` registry's
version.  Every generated function takes one packed ``int64`` argument
block the binding owns, the constant table and an ``out`` block, so the
call converts three pointers whatever the loop's arity.

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

from ..core.args import ArgKind
from ..core.kernel import CONST
from ..core.move import NO_INDICES
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


_INT64 = np.dtype(np.int64).char
#: what a slot's array is, by how its row count is read
_DAT, _MAP, _GLOBAL = 0, 1, 2


class _Launcher:
    """One loop's bound C function, the ``CONST`` names it reads and the
    layout of the argument block it reads: per slot, what kind of object
    is behind it, the dtype char and trailing shape the code assumes,
    its ``dim`` (a ``Global``'s row count) and where its ``(address,
    rows)`` pair sits."""

    __slots__ = ("fn", "consts", "Table", "layout", "Block", "Out")

    def __init__(self, lib: ctypes.CDLL, consts, sig, nobjs: int,
                 frame: tuple, maps: tuple = ()):
        self.fn = lib[cgen.ENTRY]
        self.fn.restype = c_int64
        #: every generated function takes (block, K, out): three ctypes
        #: arrays the binding owns (``c_void_p`` passes them without the
        #: element-type check a ``POINTER`` type adds to every call)
        self.fn.argtypes = (c_void_p, c_void_p, c_void_p)
        self.consts = tuple(consts)
        self.Table = c_double * max(len(self.consts), 1)
        head, tail, nout = frame
        self.Block = c_int64 * (head + 2 * nobjs + tail)
        self.Out = c_int64 * nout
        # a move's first slots are its two maps, named by no argument
        slots = {k: (_MAP, _INT64, (arity,), 0)
                 for k, arity in enumerate(maps)}
        for kind, _access, dim, char, d, m, arity, _idx, p in sig:
            slots.setdefault(d, (_GLOBAL, char, (), dim)
                             if kind == ArgKind.GLOBAL
                             else (_DAT, char, (dim,), dim))
            if m >= 0:
                slots.setdefault(m, (_MAP, _INT64, (arity,), 0))
            if p >= 0:
                slots.setdefault(p, (_MAP, _INT64, (1,), 0))
        self.layout = tuple(slots[k] + (head + 2 * k,)
                            for k in range(nobjs))


def _source_key(kernel) -> tuple:
    return (kernel.name, kernel.source, kernel.generated("c").literals)


def _launcher(ck, key: tuple, make: Callable[[], _Launcher]):
    """This process's launcher for ``key``, or the reason there is none:
    a declined signature is settled once and remembered with its
    reason."""
    found = ck.launchers.get(key)
    if found is None:
        try:
            if ck.reason is not None:
                raise _Declined(ck.reason)
            found = make()
        except _Declined as exc:
            found = str(exc)
        ck.launchers[key] = found
    return found


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


class _Binding:
    """What the native launches of one declaration share: its launcher,
    the packed argument block the generated function reads (launch
    words, ``(address, rows)`` per slot, a move's list words) and, per
    slot, the object behind it and the array it last held.  Holding the
    array is what makes "same object, same address" true
    (``ndarray.resize`` refuses while a reference exists), so an address
    is written into the block only when the array changed."""

    __slots__ = ("launcher", "slots", "held", "block", "out", "version",
                 "table")

    def __init__(self, launcher: _Launcher, objs: list):
        self.launcher = launcher
        self.block = launcher.Block()
        self.out = launcher.Out()
        #: per slot: the object, the set whose size is its row count
        #: (None for a ``Global``: always ``dim`` rows), the dtype char
        #: and trailing shape the generated code assumes, and where its
        #: address sits in the block
        self.slots = []
        for o, (what, char, trailing, dim, at) in zip(objs,
                                                      launcher.layout):
            if what == _GLOBAL:
                rows_of = None
                self.block[at + 1] = dim
            else:
                rows_of = o.set if what == _DAT else o.from_set
            self.slots.append((o, rows_of, char, trailing, at))
        self.held = [None] * len(objs)
        #: the ``CONST`` version the table was built at (-1: none yet)
        self.version = -1
        self.table = None

    def refresh(self) -> bool:
        """Bring the block's slots up to date: row counts are read again
        (particle sets grow and shrink every step), an address only when
        the array is not the one held (a particle dat grown past its
        capacity).  False when a new array is not a C-contiguous buffer of
        the dtype and row shape the loop was generated for."""
        block, held = self.block, self.held
        for k, (o, rows_of, char, trailing, at) in enumerate(self.slots):
            if rows_of is None:
                arr = o.data
            else:
                arr = o.raw
                block[at + 1] = rows_of.size
            if arr is not held[k]:
                if not (arr.flags.c_contiguous and arr.dtype.char == char
                        and arr.shape[1:] == trailing):
                    return False
                held[k] = arr
                block[at] = address(arr)
        return True

    def constants(self):
        """The ``CONST`` table of this launch, built again only when the
        registry's version moved since it was built (None when a value is
        not a numeric scalar; nothing is remembered then, so the next
        launch looks again)."""
        version = CONST.version
        if version != self.version:
            try:
                self.table = self.launcher.Table(
                    *CONST.values(self.launcher.consts))
            except (TypeError, ValueError):     # e.g. a string, an array
                return None
            self.version = version
        return self.table


_UNBOUND = ("an argument array is not a C-contiguous buffer of its dat's "
            "dtype and dim, or a CONST value is not a numeric scalar")


def _bind(loop, variant, derive: Callable):
    """``(binding, None)`` for a declared loop's native function
    (``loop.bindings`` is its declaration's, shared by every launch) with
    every slot current, or ``(None, reason)``.  The launcher is the
    loop's shape's (``loop.shape.launchers``, shared by every
    declaration of that shape in the process); ``derive(loop, variant)``
    finds it, or the reason there is none, the first time the process
    launches the shape.  A declaration binds its own objects to it: a
    fresh block with this declaration's addresses, made on its first
    launch and again when an array stopped fitting the binding."""
    binding = loop.bindings.get(variant)
    if binding is not None and binding.refresh():
        return binding, None
    loop.bindings.pop(variant, None)
    launchers = loop.shape.launchers
    launcher = launchers.get(variant)
    if launcher is None:
        launcher = launchers[variant] = derive(loop, variant)
    if type(launcher) is str:
        return None, launcher
    binding = _Binding(launcher, loop.objs)
    if not binding.refresh():
        return None, _UNBOUND
    loop.bindings[variant] = binding
    return binding, None


#: block words before and after the slots, and ``out`` words
_PAR_LOOP = (2, 0, 2)
_MOVE = (4, 3, 6)


def _derive_par_loop(loop, _variant=None):
    kernel = loop.kernel
    ck = kernel.generated("c")
    sig = cgen.signature(loop.args, [])
    nobjs = len(loop.objs)

    def make() -> _Launcher:
        _check_dtypes(sig)
        lib = _library(kernel.name, ("par_loop", _source_key(kernel), sig),
                       lambda: cgen.emit_par_loop(kernel, sig, nobjs))
        return _Launcher(lib, ck.consts, sig, nobjs, _PAR_LOOP)

    return _launcher(ck, sig, make)


def par_loop(loop, start: int, end: int
             ) -> Tuple[Optional[int], Optional[str]]:
    """Run ``loop`` over ``[start, end)`` as one native call → ``(its
    collision depth, None)``, or ``(None, reason)`` when it stays on the
    NumPy target."""
    if not CC and compiler() is None:
        return None, _no_cc
    binding, why = _bind(loop, None, _derive_par_loop)
    if binding is None:
        return None, why
    table = binding.constants()
    if table is None:
        return None, _UNBOUND
    block, out = binding.block, binding.out
    block[0] = start
    block[1] = end
    if binding.launcher.fn(block, table, out):
        raise IndexError(f"loop {loop.name!r}: iteration {out[1]} addresses "
                         "a row outside its dat or map")
    return out[0], None


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
        return _Launcher(lib, ck.consts, sig, len(objs), _MOVE, (1, arity))

    return _launcher(ck, (sig, arity, has_foreign), make)


def particle_move(loop) -> Tuple[Optional[tuple], Optional[str]]:
    """Run a move loop as one native call → ``((removed, foreign
    particles, foreign cells, total hops, collisions), None)`` with the
    lists in particle order as ``seq`` returns them, or ``(None, reason)``
    as :func:`par_loop`.  The generated function differs with
    and without a foreign-cell mask, so a declaration binds each."""
    if not CC and compiler() is None:
        return None, _no_cc
    foreign = loop.foreign_cell_mask
    has_foreign = foreign is not None
    binding, why = _bind(loop, has_foreign, _derive_move)
    if binding is None:
        return None, why
    table = binding.constants()
    if table is None or (has_foreign and not (
            foreign.dtype == np.bool_ and foreign.flags.c_contiguous
            and foreign.size >= loop.c2c_map.from_set.size)):
        return None, _UNBOUND
    block = binding.block
    index = loop.only_indices
    if index is None:
        count = loop.pset.size
        block[1] = 0
    else:
        index = np.ascontiguousarray(index, dtype=np.int64)
        count = index.size
        block[1] = address(index) if count else 0
    # per launch, not held: a buffer held by the binding stays resident
    # and costs a 2-rank Cabana rank 0.3 MB of peak RSS
    lists = np.empty((3, max(count, 1)), dtype=np.int64)
    base, row, at = address(lists), lists.strides[0], len(block) - 3
    block[at], block[at + 1], block[at + 2] = base, base + row, base + 2 * row
    block[0] = count
    block[2] = loop.max_hops
    block[3] = address(foreign) if has_foreign else 0
    out = binding.out
    err = binding.launcher.fn(block, table, out)
    n_removed, n_foreign, hops, coll, over, bad = out
    if err:
        raise IndexError(f"move loop {loop.name!r}: particle {bad} addresses "
                         "a row or cell out of range")
    if over:
        raise RuntimeError(f"{over} particles exceeded {loop.max_hops} hops "
                           f"in move loop {loop.name!r}")
    return (_prefix(lists[0], n_removed), _prefix(lists[1], n_foreign),
            _prefix(lists[2], n_foreign), hops, coll), None


def _prefix(row: np.ndarray, n: int) -> np.ndarray:
    """A copy of a list's live prefix, so the result does not hold the
    whole buffer (the shared empty array when there is none)."""
    return row[:n].copy() if n else NO_INDICES
