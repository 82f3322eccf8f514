"""Distributed snapshots and rank-failure recovery.

Snapshot layout under a checkpoint directory::

    ckpt/
      step_000040/
        rank00000.npz     per-rank state (repro.util.checkpoint.state)
        rank00001.npz
        global.npz        cell_owner + replicated history
        manifest.json     written *last*, atomically — its presence marks
                          the snapshot consistent

Every rank writes its own ``rank*.npz``; a barrier separates the rank
files from rank 0 writing ``global.npz`` and the manifest, so a crash at
any instant leaves either a previous complete snapshot or a manifest-less
(hence ignored) partial one.  The manifest carries the elastic
controller's policy/monitor state so a recovered run keeps its learned
cost model.

Two restore paths:

* **same rank count** — rebuild the saved partition (no data movement),
  then overwrite every rank's state from its own file: bit-exact, a
  recovered run reproduces the uninterrupted run's history to the bit;
* **fewer ranks** — assemble the global dynamic state from *all* old
  rank files (owned rows scattered by global id, particles concatenated
  in old-rank order) and scatter it onto the new, smaller partition:
  physically consistent, not bit-identical (sums reassociate).
"""
from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..util.checkpoint import restore, state, state_key
from .migrate import rebuild_partition

__all__ = ["write_snapshot", "restore_snapshot", "latest_snapshot",
           "snapshot_step_dir", "SNAPSHOT_FORMAT"]

#: 3: a rank file is the rank's declared state (format 2 walked its
#: attributes; format 1 pickled the RNG extras)
SNAPSHOT_FORMAT = 3
_MANIFEST = "manifest.json"


def snapshot_step_dir(ckpt_dir: Union[str, Path], step: int) -> Path:
    return Path(ckpt_dir) / f"step_{step:06d}"


def _rank_file(snap_dir: Path, rank: int) -> Path:
    return snap_dir / f"rank{rank:05d}.npz"


def write_snapshot(app, step: int, ckpt_dir: Union[str, Path],
                   elastic_state: Optional[dict] = None,
                   keep: int = 2) -> Path:
    """Write one consistent snapshot of a distributed app at ``step``."""
    comm = app.comm
    snap = snapshot_step_dir(ckpt_dir, step)
    snap.mkdir(parents=True, exist_ok=True)
    for r in comm.local_ranks:
        np.savez_compressed(_rank_file(snap, r), **state(app, r))
    comm.barrier()         # every rank file exists before the manifest
    if comm.is_local(0):
        gpayload = {"cell_owner": np.asarray(app.cell_owner,
                                             dtype=np.int64)}
        for key, vals in app.history.items():
            gpayload[f"hist__{key}"] = np.asarray(vals)
        np.savez_compressed(snap / "global.npz", **gpayload)
        manifest = {"format": SNAPSHOT_FORMAT, "step": int(step),
                    "nranks": int(comm.nranks),
                    "app": type(app).__name__,
                    "elastic": elastic_state}
        tmp = snap / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=1))
        os.replace(tmp, snap / _MANIFEST)       # atomic commit point
        _prune(Path(ckpt_dir), keep)
    comm.barrier()         # no rank races ahead of the commit point
    return snap


def _prune(ckpt_dir: Path, keep: int) -> None:
    """Drop all but the newest ``keep`` *consistent* snapshots (dirs
    without a manifest are in-flight and left alone)."""
    done = sorted(d for d in ckpt_dir.glob("step_*")
                  if (d / _MANIFEST).is_file())
    for d in done[:-keep] if keep > 0 else []:
        shutil.rmtree(d, ignore_errors=True)


def _read_manifest(snap_dir: Path) -> Optional[dict]:
    try:
        return json.loads((snap_dir / _MANIFEST).read_text())
    except (OSError, ValueError):
        return None


def latest_snapshot(ckpt_dir: Union[str, Path]
                    ) -> Optional[Tuple[int, Path]]:
    """The newest consistent snapshot of this format under ``ckpt_dir``,
    or ``None``."""
    best = None
    for d in Path(ckpt_dir).glob("step_*"):
        manifest = _read_manifest(d)
        if manifest is None or manifest.get("format") != SNAPSHOT_FORMAT:
            continue
        step = int(manifest["step"])
        if best is None or step > best[0]:
            best = (step, d)
    return best


def restore_snapshot(app, snap_dir: Union[str, Path]
                     ) -> Tuple[int, Optional[dict]]:
    """Restore a freshly constructed app from a snapshot.

    Returns ``(step, elastic_state)``; the app's history is replaced by
    the saved one and its particle/mesh state by the snapshot's.
    """
    snap_dir = Path(snap_dir)
    manifest = _read_manifest(snap_dir)
    if manifest is None:
        raise ValueError(f"{snap_dir}: no consistent snapshot manifest")
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{snap_dir}: snapshot manifest has format "
                         f"{manifest.get('format')!r} (expected "
                         f"{SNAPSHOT_FORMAT})")
    old_nranks = int(manifest["nranks"])
    comm = app.comm
    if comm.nranks > old_nranks:
        raise ValueError(
            f"cannot restore a {old_nranks}-rank snapshot onto "
            f"{comm.nranks} ranks (growing is not supported)")
    with np.load(snap_dir / "global.npz") as g:
        saved_owner = g["cell_owner"]
        history = {k[len("hist__"):]: g[k].tolist()
                   for k in g.files if k.startswith("hist__")}

    if comm.nranks == old_nranks:
        if not np.array_equal(saved_owner, app.cell_owner):
            rebuild_partition(app, saved_owner)
        for r in comm.local_ranks:
            with np.load(_rank_file(snap_dir, r)) as data:
                restore(app, data, r, source=str(snap_dir))
    else:
        _restore_resized(app, snap_dir, saved_owner, old_nranks)

    app.history = history
    return int(manifest["step"]), manifest.get("elastic")


def _restore_resized(app, snap_dir: Path, saved_owner: np.ndarray,
                     old_nranks: int) -> None:
    """Scatter an ``old_nranks`` snapshot onto the app's (smaller)
    current partition: assemble the dynamic global state from all old
    rank files, then distribute it by the app's own cell ownership."""
    comm = app.comm
    spec = app._migration_spec()
    old_meshes, _ = app._build_partition(saved_owner, nranks=old_nranks)
    # the spec names rank attributes; a rank file keys each entry on the
    # declaration's name, which every rank shares
    rk = app.ranks[comm.local_ranks[0]]

    def key(name):
        return state_key(getattr(rk, name))

    files = [np.load(_rank_file(snap_dir, rr))
             for rr in range(old_nranks)]
    try:
        gcell_dats = _assemble_rows(
            files, key, spec.get("cell", ()), saved_owner.size,
            [m.cells_global[: m.n_owned_cells] for m in old_meshes],
            [m.n_owned_cells for m in old_meshes])
        for r in comm.local_ranks:
            cg = app.meshes[r].cells_global
            for name, g in gcell_dats.items():
                getattr(app.ranks[r], name).data[:] = g[cg]
        node_names = spec.get("node", ())
        if node_names:
            from .migrate import node_owners
            n_nodes = int(node_owners(spec["c2n"], saved_owner,
                                      old_nranks).size)
            gnode_dats = _assemble_rows(
                files, key, node_names, n_nodes,
                [m.nodes_global[: m.n_owned_nodes] for m in old_meshes],
                [m.n_owned_nodes for m in old_meshes])
            for r in comm.local_ranks:
                ng = app.meshes[r].nodes_global
                for name, g in gnode_dats.items():
                    getattr(app.ranks[r], name).data[:] = g[ng]
        _scatter_particles(app, files, key, spec.get("part", ()),
                           old_meshes)
        for r in comm.local_ranks:       # streams, extras, step, constants
            restore(app, files[r], r, source=str(snap_dir), rows=False)
    finally:
        for f in files:
            f.close()


def _assemble_rows(files, key, names, n_global: int, owned_ids,
                   owned_counts):
    """Owned rows of every old rank scattered to global element ids."""
    out = {}
    for name in names:
        g = None
        for rr, f in enumerate(files):
            arr = f[key(name)]
            if g is None:
                g = np.zeros((n_global,) + arr.shape[1:], dtype=arr.dtype)
            n = owned_counts[rr]
            g[owned_ids[rr]] = arr[:n]
        out[name] = g
    return out


def _scatter_particles(app, files, key, names, old_meshes) -> None:
    """Concatenate every old rank's particles (old-rank order) and
    re-append them onto the current partition's owners."""
    comm = app.comm
    all_rows = {name: [] for name in names}
    all_gcells = []
    for rr, f in enumerate(files):
        n = int(f[key("parts")][0])
        p2c = f[key("p2c")][:n]
        all_gcells.append(old_meshes[rr].cells_global[p2c])
        for name in names:
            all_rows[name].append(f[key(name)][:n])
    gcells = (np.concatenate(all_gcells) if all_gcells
              else np.empty(0, dtype=np.int64))
    dest = np.asarray(app.cell_owner)[gcells]
    for r in comm.local_ranks:
        rk = app.ranks[r]
        parts = rk.parts
        parts.size = 0                      # drop construction seeding
        parts.injected_start = 0
        rows = np.flatnonzero(dest == r)
        cg = app.meshes[r].cells_global
        g2l = np.full(len(app.cell_owner), -1, dtype=np.int64)
        g2l[cg] = np.arange(cg.size)
        sl = parts.add_particles(rows.size, cell_indices=g2l[gcells[rows]])
        for name in names:
            getattr(rk, name).data[sl] = np.concatenate(all_rows[name])[rows]
        parts.end_injection()
