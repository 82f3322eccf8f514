"""Simulation state: one contract for every snapshot.

OP-PIC declares everything a loop touches — ``opp_decl_set``,
``opp_decl_dat``, ``opp_decl_map`` — so the declarations already say
what a simulation's state is.  :func:`state` reads it off rank ``r``'s
records as a flat name → array dict, and :func:`restore` writes it back
bit-exactly, so a restored run continues the original trajectory:

* every set the rank declared (``rk.sets``): its sizes, every dat in
  ``Set.dats`` and, for a particle set, its ``p2c_map`` —
  ``set__`` / ``dat__`` / ``pmap__`` + the declared name
  (:func:`state_key`);
* every RNG stream the rank draws from (``rk.streams``), as the JSON
  text of ``bit_generator.state`` under ``__<name>__`` — a snapshot is
  outside input, and nothing read from one is ever unpickled;
* the app's one extras hook, ``_snapshot_extras(r)`` /
  ``_restore_extras(r, extras)`` (scalar carries and the like), under
  ``extra__<name>``;
* ``__step__`` (``step_count``) and ``__const__`` (the kernel constants,
  ``CONST.snapshot()`` as JSON text).

Checkpoint files, service job checkpoints, a service worker's held
simulations and the distributed rank files
(:mod:`repro.elastic.recover`) are all this state.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..core.dats import Dat
from ..core.kernel import CONST
from ..core.maps import Map

__all__ = ["state", "restore", "state_key", "state_nbytes",
           "save_checkpoint", "load_checkpoint", "rng_state_array",
           "set_rng_state", "CHECKPOINT_FORMAT"]

#: 3: the state is the declared sets, RNG streams, extras and constants
#: (format 2 walked the object's attributes; format 1 pickled the RNG)
CHECKPOINT_FORMAT = 3


def _json_array(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def rng_state_array(rng: np.random.Generator) -> np.ndarray:
    """A generator's state as uint8 JSON text (an npz-storable array)."""
    return _json_array(rng.bit_generator.state)


def set_rng_state(rng: np.random.Generator, payload,
                  source: str = "checkpoint") -> None:
    """Restore what :func:`rng_state_array` stored; anything else —
    including the pickle bytes of a format-1 file — is a ``ValueError``."""
    try:
        state = json.loads(np.asarray(payload, dtype=np.uint8).tobytes())
        if not isinstance(state, dict):
            raise TypeError(f"expected an object, got "
                            f"{type(state).__name__}")
        rng.bit_generator.state = state
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{source}: malformed RNG state "
                         f"({exc})") from None


def state_key(obj) -> str:
    """The state entry of a declared set (its sizes), dat (its rows) or
    particle map (its cells)."""
    kind = "dat" if isinstance(obj, Dat) else \
        "pmap" if isinstance(obj, Map) else "set"
    return f"{kind}__{obj.name}"


def _rank(app, r: int):
    ranks = getattr(app, "ranks", None) or [None]
    rk = ranks[r] if r < len(ranks) else None
    if rk is None or not getattr(rk, "sets", None):
        raise ValueError(f"{type(app).__name__} has no declared sets on "
                         f"rank {r}; nothing to snapshot")
    return rk


def _arrays(rk):
    """(key, array) of each declared set's sizes, dats and particle map;
    the arrays are the live views."""
    for s in rk.sets:
        yield state_key(s), np.array([s.size, s.owned_size])
        for d in s.dats:
            yield state_key(d), d.data
        pmap = getattr(s, "p2c_map", None)
        if pmap is not None:
            yield state_key(pmap), pmap.p2c


def state(app, r: int = 0) -> Dict[str, np.ndarray]:
    """Rank ``r``'s restartable state as a flat name → array dict that
    shares no memory with the simulation (see the module docstring)."""
    rk = _rank(app, r)
    out = {"__step__": np.array([getattr(app, "step_count", 0)]),
           "__const__": _json_array(CONST.snapshot())}
    for key, arr in _arrays(rk):
        if key in out:
            raise ValueError(f"two declarations on rank {r} share the "
                             f"state entry {key!r}")
        out[key] = arr.copy()
    for name, rng in rk.streams.items():
        out[f"__{name}__"] = rng_state_array(rng)
    hook = getattr(app, "_snapshot_extras", None)
    if hook is not None:
        for name, value in hook(r).items():
            out[f"extra__{name}"] = np.array(value)
    return out


def restore(app, data, r: int = 0, source: str = "checkpoint",
            rows: bool = True) -> int:
    """Put a :func:`state` of rank ``r`` back into ``app``, a simulation
    built from the same configuration (fresh, or stepped on since);
    ``data`` may be the dict or an open npz file.  ``rows=False``
    leaves the declared sets alone (a resized restore scatters them
    itself).  Returns the restored step count."""
    rk = _rank(app, r)
    keys = data.files if hasattr(data, "files") else data

    def get(key):
        if key not in keys:
            raise ValueError(f"{source}: state lacks {key!r} — "
                             "configuration mismatch")
        return data[key]

    if rows:
        sizes = [(s, int(get(state_key(s))[0])) for s in rk.sets]
        for s, size in sizes:   # every size checked before a row is written
            if not s.is_particle_set and s.size != size:
                raise ValueError(f"{source}: mesh set {s.name!r} has "
                                 f"{s.size} elements, the state has {size}")
        for s, size in sizes:
            if s.is_particle_set:
                s.ensure_capacity(size)
                s.size = s.injected_start = size
            for d in s.dats:
                d.data[:] = get(state_key(d))
            pmap = getattr(s, "p2c_map", None)
            if pmap is not None:
                pmap.p2c[:] = get(state_key(pmap))
    for name, rng in rk.streams.items():
        set_rng_state(rng, get(f"__{name}__"), source)
    hook = getattr(app, "_restore_extras", None)
    if hook is not None:
        hook(r, {k[len("extra__"):]: data[k] for k in keys
                 if k.startswith("extra__")})
    CONST.restore(json.loads(get("__const__").tobytes()))
    step = int(get("__step__")[0])
    if hasattr(app, "step_count"):
        app.step_count = step
    return step


def state_nbytes(app, r: int = 0) -> int:
    """Bytes rank ``r``'s declared dats and particle maps allocate,
    capacity rows included: what holding the simulation keeps alive."""
    total = 0
    for s in _rank(app, r).sets:
        total += sum(d.raw.nbytes for d in s.dats)
        pmap = getattr(s, "p2c_map", None)
        if pmap is not None:
            total += pmap.raw.nbytes
    return total


def save_checkpoint(sim, path: Union[str, Path]) -> Path:
    """Write the full restartable state of ``sim`` to ``path`` (.npz)."""
    path = Path(path)
    np.savez_compressed(path, __format__=np.array([CHECKPOINT_FORMAT]),
                        **state(sim))
    return path


def load_checkpoint(sim, path: Union[str, Path]) -> int:
    """Restore ``sim`` (a freshly constructed simulation with the same
    configuration) from a checkpoint; returns the restored step count."""
    path = Path(path)
    with np.load(path) as data:
        fmt = int(data["__format__"][0])
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unsupported checkpoint format {fmt} "
                             f"(expected {CHECKPOINT_FORMAT})")
        return restore(sim, data, source=str(path))
