"""Failure modes of the native tier's build cache.  Each one must end on
the NumPy target with one recorded reason — never an exception out of
``par_loop`` — and a good cache must come back by itself."""
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import (OPP_ITERATE_ALL, OPP_READ, OPP_WRITE, Context,
                            arg_dat, decl_dat, decl_set, par_loop,
                            push_context)
from repro.core.kernel import Kernel
from repro.translator import native

SRC = str(Path(__file__).resolve().parents[2] / "src")
needs_cc = pytest.mark.skipif(native.compiler() is None,
                              reason="no C compiler")


def cache_probe_kernel(x, out):
    out[0] = 3.0 * x[0] - 1.0


def _launch():
    """One loop through a *fresh* kernel record (no memoised launcher);
    returns (result is right, the row's fallback reason or None)."""
    ctx = Context("vec")
    with push_context(ctx):
        rows = decl_set(6)
        x = decl_dat(rows, 1, np.float64, np.arange(6.0))
        out = decl_dat(rows, 1, np.float64)
        par_loop(Kernel(cache_probe_kernel), "probe", rows, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(out, OPP_WRITE))
        right = np.array_equal(out.data[:, 0], 3.0 * np.arange(6.0) - 1.0)
    return right, ctx.perf.get("probe").extras.get("fallback")


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A process-like clean slate: nothing loaded, nothing found yet, an
    empty cache directory of its own."""
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "CC", False)
    monkeypatch.setattr(native, "CACHE", False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    return tmp_path / "repro-oppic"


def _compiler_children():
    mine = str(os.getpid())
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)
            comm = fields[0].split("(", 1)[1]
            if fields[1].split()[1] == mine \
                    and comm in ("cc", "gcc", "cc1", "as", "ld", "collect2"):
                found.append((pid, comm))
        except (OSError, IndexError):
            continue
    return found


@needs_cc
def test_cold_build_then_warm_load_and_the_compiler_is_reaped(fresh):
    assert _launch() == (True, None)
    objects = sorted(fresh.iterdir())
    assert [p.suffix for p in objects] == [".so"]       # no temp left over
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o700
    assert _compiler_children() == []
    before = objects[0].stat().st_mtime_ns
    native._LIBS.clear()                                 # "a new process"
    assert _launch() == (True, None)
    assert objects[0].stat().st_mtime_ns == before       # loaded, not built


_PROBE = """
import json, sys
sys.path.insert(0, {tests!r})
import test_native_cache as t
print(json.dumps(t._launch()))
"""


@needs_cc
@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_damaged_object_is_rebuilt_not_loaded(tmp_path, damage):
    """Each launch is its own process, as the damage would be found: a
    process that already mapped the object keeps its mapping."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    env.pop("CC", None)

    def launch_in_a_new_process():
        proc = subprocess.run(
            [sys.executable, "-c",
             _PROBE.format(tests=str(Path(__file__).parent))],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    assert launch_in_a_new_process() == [True, None]
    (obj,) = (tmp_path / "repro-oppic").iterdir()
    blob = obj.read_bytes()
    obj.write_bytes(blob[:len(blob) // 2] if damage == "truncate"
                    else os.urandom(len(blob)))
    assert launch_in_a_new_process() == [True, None]
    assert len(obj.read_bytes()) == len(blob)       # rebuilt in place


@pytest.mark.parametrize("cc", ["/bin/false", "/nonexistent/cc"])
def test_no_usable_compiler_means_the_numpy_target(fresh, monkeypatch, cc):
    monkeypatch.setenv("CC", cc)
    right, reason = _launch()
    assert right and reason.startswith("no C compiler")
    assert native.CC is None and not fresh.exists()


def _fake_cc(tmp_path, body: str) -> str:
    path = tmp_path / "fakecc"
    path.write_text("#!/bin/sh\nif [ \"$1\" = --version ]; then "
                    "echo 'fakecc 1.0'; exit 0; fi\n" + body + "\n")
    path.chmod(0o755)
    return str(path)


@pytest.mark.parametrize("body, why", [
    ("echo 'internal compiler error' >&2; exit 4", "exited 4"),
    ("exit 0", "wrote no object"),
    ("while [ \"$1\" != -o ]; do shift; done; echo junk > \"$2\"",
     "does not load"),
])
def test_broken_compiler_is_one_recorded_reason(fresh, monkeypatch,
                                                tmp_path, body, why):
    monkeypatch.setenv("CC", _fake_cc(tmp_path, body))
    right, reason = _launch()
    assert right and why in reason, reason
    assert not [p for p in fresh.iterdir() if p.suffix != ".so"]
    assert _compiler_children() == []


@needs_cc
def test_unusable_cache_directories(fresh, monkeypatch, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))      # cannot mkdir
    right, reason = _launch()
    assert right and "is unusable" in reason

    monkeypatch.setattr(native, "CACHE", False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)      # someone else's
    right, reason = _launch()
    assert right and "owned by another user" in reason
    monkeypatch.setattr(os, "getuid", lambda: uid)

    monkeypatch.setattr(native, "CACHE", str(tmp_path / "vanished"))
    right, reason = _launch()
    assert right and "not writable" in reason


_TWO_RANKS = """
import json, os, sys
from repro.apps.cabana import CabanaConfig
from repro.dist.driver import run_distributed
out = {}
for transport in ("proc", "sim"):       # proc first: both ranks build cold
    res = run_distributed("cabana", CabanaConfig.smoke().scaled(backend="vec"),
                          nranks=2, transport=transport, n_steps=3)
    out[transport] = {
        "history": {k: [float(v).hex() for v in series]
                    for k, series in res.history.items()},
        "fallbacks": sorted({str(st.extras["fallback"])
                             for perf in res.rank_perf.values()
                             for st in perf.loops.values()
                             if "fallback" in st.extras})}
out["children"] = [pid for pid in os.listdir("/proc") if pid.isdigit()
                   and open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1]
                   .split()[1] == str(os.getpid())]
print(json.dumps(out))
"""


@needs_cc
def test_two_ranks_build_the_same_loops_from_an_empty_cache(tmp_path):
    """A 2-rank ``proc`` cabana run from an empty cache directory: the
    rank processes compile the same loops at the same time, and the
    history is bit-equal to the in-process ``sim`` transport's."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    env.pop("CC", None)
    proc = subprocess.run([sys.executable, "-c", _TWO_RANKS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["proc"]["history"] == out["sim"]["history"]
    assert out["proc"]["fallbacks"] == out["sim"]["fallbacks"] == []
    assert out["children"] == []
    names = [p.name for p in (tmp_path / "repro-oppic").iterdir()]
    assert names and all(n.endswith(".so") for n in names)
