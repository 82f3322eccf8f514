"""Golden history digests recorded from the commit *before* each app was
written once (``python tests/apps/test_golden_histories.py --record``
against that checkout's ``src``): the one-rank classes must reproduce the
old single-rank classes bit for bit, and N-rank Cabana / TwoD the old
``distributed.py`` copies.  N-rank FemPIC changed on purpose (DESIGN.md,
"writing an app once") and is held to the single-rank run instead.

``vec`` has two codegen targets.  The native one is ``seq``'s algorithm
compiled, so with a compiler every single-rank ``*/vec`` run must produce
the ``*/seq`` digests; the recorded ``*/vec`` digests are those of the
NumPy target (``native.CC`` pinned to ``None``) and keep the fall-back
path from drifting.  The ``*/vec/{2,3}r`` entries are recorded from the
native tier (per-rank summation order differs from the NumPy target's).

The ``field_energy`` digests of the ``fempic*`` and ``twod*`` entries
(``fempic``, ``-dh``, ``-seeded`` on ``seq``; ``-seeded`` and
``-thermal`` on ``vec``; all four ``twod``) were re-recorded when the KSP
solve stopped summing through BLAS ``ddot``, whose blocked order depends
on the CPU kernel: its dot products and norms are now sequential sums,
bit-equal between the compiled solve and the NumPy one.  The old solver
is kept as an oracle in ``tests/fem/test_against_blas_cg.py``; every
other series, and every ``cabana*`` digest, is unchanged.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.translator import native

GOLDEN = Path(__file__).with_name("golden_histories.json")


def digests(history) -> dict:
    """Per-key sha256 of the exact float64/int64 bytes of a history."""
    out = {}
    for key, series in history.items():
        arr = np.asarray(series)
        arr = arr.astype(np.int64 if arr.dtype.kind in "iu" else np.float64)
        out[key] = hashlib.sha256(arr.tobytes()).hexdigest()
    return out


def _fempic(backend, nranks=None, ppc=None, **overrides):
    from repro.apps.fempic import FemPicConfig, FemPicSimulation
    from repro.apps.fempic.distributed import DistributedFemPic
    cfg = FemPicConfig.smoke().scaled(dt=0.2, backend=backend, **overrides)
    sim = (FemPicSimulation(cfg) if nranks is None
           else DistributedFemPic(cfg, nranks=nranks))
    if ppc:
        sim.seed_uniform_plasma(ppc)
    return sim.run(8)


def _cabana(backend, nranks=None, **overrides):
    from repro.apps.cabana import CabanaConfig, CabanaSimulation
    from repro.apps.cabana.distributed import DistributedCabana
    cfg = CabanaConfig.smoke().scaled(backend=backend, **overrides)
    sim = (CabanaSimulation(cfg) if nranks is None
           else DistributedCabana(cfg, nranks=nranks))
    return sim.run(6)


def _twod(backend, nranks=None):
    from repro.apps.twod import DistributedTwoD, TwoDConfig, TwoDSheetModel
    cfg = TwoDConfig(nx=8, ny=4, ppc=4, backend=backend)
    sim = (TwoDSheetModel(cfg) if nranks is None
           else DistributedTwoD(cfg, nranks=nranks))
    return sim.run(10)


#: single-rank runs of the old ``simulation.py`` classes
SINGLE = {
    "fempic": lambda b: _fempic(b),
    "fempic-seeded": lambda b: _fempic(b, ppc=5),
    "fempic-dh": lambda b: _fempic(b, move_strategy="dh"),
    "fempic-collisions": lambda b: _fempic(b, collision_frequency=2.0),
    "fempic-thermal": lambda b: _fempic(b, injection_temperature=0.04),
    "cabana": lambda b: _cabana(b),
    "cabana-vay": lambda b: _cabana(b, pusher="vay"),
    "twod": lambda b: _twod(b),
}
#: N-rank runs of the old ``distributed.py`` classes that must not move
RANKED = {"cabana": _cabana, "twod": _twod}


def _cases():
    for name, run in SINGLE.items():
        for backend in ("seq", "vec"):
            yield f"{name}/{backend}", (lambda run=run, b=backend: run(b))
    for name, run in RANKED.items():
        for nranks in (2, 3):
            yield (f"{name}/vec/{nranks}r",
                   lambda run=run, n=nranks: run("vec", nranks=n))


CASES = dict(_cases())
NATIVE = native.compiler() is not None


@pytest.mark.parametrize("case", sorted(CASES))
def test_history_is_bit_equal_to_the_recorded_parent(case, monkeypatch):
    if case.endswith("/vec"):
        monkeypatch.setattr(native, "CC", None)     # the NumPy target
    elif case.endswith("r") and not NATIVE:
        pytest.skip("N-rank vec histories are recorded from the native tier")
    want = json.loads(GOLDEN.read_text())[case]
    got = digests(CASES[case]())
    # the written-once classes report the single-rank key superset, so a
    # recorded N-rank history may know fewer keys than today's
    assert {k: got.get(k) for k in want} == want


@pytest.mark.skipif(not NATIVE, reason="no C compiler")
@pytest.mark.parametrize("name", sorted(SINGLE))
def test_native_vec_reproduces_the_seq_history(name):
    want = json.loads(GOLDEN.read_text())[f"{name}/seq"]
    assert digests(SINGLE[name]("vec")) == want


@pytest.mark.parametrize("case, run", [
    ("fempic", _fempic), ("cabana", _cabana), ("twod", _twod),
    ("fempic-seeded", lambda b, nranks: _fempic(b, nranks, ppc=5))])
def test_one_rank_distributed_class_is_the_single_rank_run(case, run):
    single = "seq" if NATIVE else "vec"     # what plain vec reproduces
    want = json.loads(GOLDEN.read_text())[f"{case}/{single}"]
    assert digests(run("vec", nranks=1)) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_histories.py --record")
    if not NATIVE:
        raise SystemExit("recording the N-rank entries needs a C compiler")
    recorded, cc = {}, native.compiler()
    for case, run in sorted(CASES.items()):
        native.CC = None if case.endswith("/vec") else cc
        recorded[case] = digests(run())
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} histories into {GOLDEN}")
