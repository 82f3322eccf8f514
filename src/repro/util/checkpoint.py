"""Checkpoint / restart for OP-PIC simulations.

Long-running HPC PIC codes checkpoint their full state; here a checkpoint
captures every dat, the particle-to-cell map, the particle set size and
the RNG state of a simulation object, and restores them bit-exactly so a
restarted run continues the original trajectory.

Works with any object that exposes its DSL handles as attributes — a
single-rank simulation, or one rank record of a distributed app; the
dats and maps are discovered automatically.  The payload/restore
helpers are shared with the distributed per-rank snapshots of
:mod:`repro.elastic.recover`.

RNG state travels as the JSON text of ``bit_generator.state`` — a
checkpoint file is outside input, and nothing read from one is ever
unpickled.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..core.dats import Dat
from ..core.maps import Map
from ..core.sets import ParticleSet, Set

__all__ = ["save_checkpoint", "load_checkpoint", "state_payload",
           "restore_state", "state_nbytes", "rng_state_array",
           "set_rng_state", "CHECKPOINT_FORMAT"]

#: 2: RNG state is JSON (format 1 pickled it)
CHECKPOINT_FORMAT = 2
_FORMAT = CHECKPOINT_FORMAT


def rng_state_array(rng: np.random.Generator) -> np.ndarray:
    """A generator's state as uint8 JSON text (an npz-storable array)."""
    return np.frombuffer(json.dumps(rng.bit_generator.state).encode(),
                         dtype=np.uint8)


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


def _handles(sim):
    """Discover the object's sets, dats and particle maps."""
    sets, dats, pmaps = {}, {}, {}
    for name, obj in vars(sim).items():
        if isinstance(obj, Dat):
            dats[name] = obj
        elif isinstance(obj, Map) and obj.is_particle_map:
            pmaps[name] = obj
        elif isinstance(obj, Set):
            sets[name] = obj
    if not dats:
        raise ValueError("object exposes no DSL dats; nothing to "
                         "checkpoint")
    return sets, dats, pmaps


def state_payload(sim) -> dict:
    """The restartable state of one object's DSL handles as a flat
    name → array dict (``set__``/``dat__``/``pmap__`` keys)."""
    sets, dats, pmaps = _handles(sim)
    payload = {}
    for name, s in sets.items():
        payload[f"set__{name}"] = np.array([s.size, s.owned_size])
    for name, d in dats.items():
        payload[f"dat__{name}"] = d.data.copy()
    for name, m in pmaps.items():
        payload[f"pmap__{name}"] = m.p2c.copy()
    return payload


def state_nbytes(sim) -> int:
    """Bytes the object's dats and particle maps allocate, capacity rows
    included: the restartable state holding the object keeps alive."""
    _, dats, pmaps = _handles(sim)
    return sum(d.raw.nbytes for d in dats.values()) \
        + sum(m.raw.nbytes for m in pmaps.values())


def restore_state(sim, data, source: str = "checkpoint") -> None:
    """Restore an object's DSL handles from a :func:`state_payload`-style
    mapping (``data`` may be an open npz file or a plain dict)."""
    sets, dats, pmaps = _handles(sim)
    files = data.files if hasattr(data, "files") else data.keys()
    # restore particle-set sizes first so dat views cover the rows
    for name, s in sets.items():
        key = f"set__{name}"
        if key not in files:
            raise ValueError(f"{source}: checkpoint lacks set {name!r} — "
                             "configuration mismatch")
        size, owned = (int(v) for v in data[key])
        if isinstance(s, ParticleSet):
            s.ensure_capacity(size)
            s.size = size
            s.injected_start = size
        elif s.size != size:
            raise ValueError(f"{source}: mesh set {name!r} has {s.size} "
                             f"elements, checkpoint has {size}")
    for name, d in dats.items():
        arr = data[f"dat__{name}"]
        d.data[:] = arr
    for name, m in pmaps.items():
        m.p2c[:] = data[f"pmap__{name}"]


def save_checkpoint(sim, path: Union[str, Path]) -> Path:
    """Write the full restartable state of ``sim`` to ``path`` (.npz)."""
    path = Path(path)
    payload = {"__format__": np.array([_FORMAT]),
               "__step__": np.array([getattr(sim, "step_count", 0)])}
    payload.update(state_payload(sim))
    rng = getattr(sim, "rng", None)
    if rng is not None:
        payload["__rng__"] = rng_state_array(rng)
    np.savez_compressed(path, **payload)
    return path


def load_checkpoint(sim, path: Union[str, Path]) -> int:
    """Restore ``sim`` (a freshly constructed simulation with the same
    configuration) from a checkpoint; returns the restored step count."""
    path = Path(path)
    with np.load(path) as data:
        if int(data["__format__"][0]) != _FORMAT:
            raise ValueError(f"{path}: unsupported checkpoint format "
                             f"{int(data['__format__'][0])} (expected "
                             f"{_FORMAT})")
        restore_state(sim, data, source=str(path))
        if "__rng__" in data.files and getattr(sim, "rng", None) is not None:
            set_rng_state(sim.rng, data["__rng__"], source=str(path))
        step = int(data["__step__"][0])
    if hasattr(sim, "step_count"):
        sim.step_count = step
    return step
