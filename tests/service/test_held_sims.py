"""Held simulations (repro.service.pool.HeldSims): a warm worker restores
a state into the simulation it built for a spec instead of building it
again, and every such job must reproduce a cold build bit-for-bit."""
import multiprocessing as mp

import numpy as np
import pytest

from repro.dist.proc import DEFAULT_MAX_FRAME, _recv_control, decode_frame
from repro.service import jobs
from repro.service import pool as pool_mod
from repro.service.pool import PK_DONE, PK_FAIL, HeldSims

CASES = {
    "advec": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 3,
              "flow": "rotation"},
    "fempic": {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 1234.5,
               "n0": 2000.0, "n_steps": 3},
    "cabana": {"nx": 8, "ny": 2, "nz": 2, "ppc": 4, "n_steps": 3},
    "twod": {"nx": 4, "ny": 4, "ppc": 2, "n_steps": 3},
}


def spec_of(app, backend="vec", **params):
    return jobs.validate_job({"app": app, "params": dict(
        CASES[app], backend=backend, **params)})


def cold(spec) -> dict:
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    return history


def run(held: HeldSims, spec, ckpt=None) -> dict:
    """One job through the table, as the worker runs it."""
    sim, history, start = held.start(spec, ckpt)
    jobs.run_steps(spec, sim, history, start, spec.n_steps)
    held.keep()
    return {k: list(v) for k, v in history.items()}


@pytest.mark.parametrize("backend", ["seq", "vec"])
@pytest.mark.parametrize("app", sorted(CASES))
def test_reuse_after_other_apps_built_is_bit_equal(app, backend):
    """Each app's constants are process-global: a reused sim must get
    its own back after the other apps' builds declared theirs."""
    spec = spec_of(app, backend)
    oracle = cold(spec)
    held = HeldSims()
    assert run(held, spec) == oracle
    for other in sorted(set(CASES) - {app}):
        run(held, spec_of(other, backend))
    assert run(held, spec) == oracle
    assert held.stats() == {"held": len(CASES), "hits": 1,
                            "misses": len(CASES)}


@pytest.mark.parametrize("app", ["fempic", "cabana"])
def test_checkpoint_resumes_into_a_dirtied_sim(app):
    spec = spec_of(app, n_steps=8)
    oracle = cold(spec)
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, 2)
    ckpt = jobs.job_checkpoint(spec, sim, history, 2)

    held = HeldSims()
    run(held, spec)                  # the held sim now sits at step 8
    assert run(held, spec, ckpt) == oracle
    assert held.stats()["hits"] == 1
    # twice from the step-0 snapshot: the first run must not have
    # stepped the snapshot's own state
    assert run(held, spec) == oracle
    assert run(held, spec) == oracle


def _run_job(spec):
    parent, child = mp.Pipe(duplex=True)
    try:
        pool_mod._run_job(child, 0, 3, {"job_id": "j", "spec": spec,
                                        "checkpoint": None})
        kind, _, _, _, payload = decode_frame(
            _recv_control(parent, DEFAULT_MAX_FRAME))
    finally:
        parent.close()
        child.close()
    return kind, payload


def test_failed_job_spec_is_rebuilt_not_reused(monkeypatch):
    spec = spec_of("fempic")
    oracle = cold(spec)
    monkeypatch.setattr(pool_mod, "_HELD", HeldSims())
    real = pool_mod.step_once
    calls = []

    def failing(spec, sim, history):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        real(spec, sim, history)

    monkeypatch.setattr(pool_mod, "step_once", failing)
    kind, payload = _run_job(spec)
    assert kind == PK_FAIL and "injected" in payload["error"]
    assert pool_mod._HELD.stats() == {"held": 0, "hits": 0, "misses": 1}

    monkeypatch.setattr(pool_mod, "step_once", real)
    kind, done = _run_job(spec)
    assert kind == PK_DONE and done["history"] == oracle
    assert done["cache"]["sims"] == {"held": 1, "hits": 0, "misses": 2}
    kind, again = _run_job(spec)
    assert kind == PK_DONE and again["history"] == oracle
    assert again["cache"]["sims"] == {"held": 1, "hits": 1, "misses": 2}


def test_lru_evicts_past_its_byte_bound():
    a, b = spec_of("advec", seed=1), spec_of("advec", seed=2)
    oracle_a, oracle_b = cold(a), cold(b)
    held = HeldSims()
    assert run(held, a) == oracle_a
    # room for one sim of this size, and the two specs are the same size
    held.max_bytes = held.nbytes
    assert run(held, b) == oracle_b
    assert held.stats() == {"held": 1, "hits": 0, "misses": 2}
    assert run(held, b) == oracle_b          # b stayed, a went
    assert run(held, a) == oracle_a
    assert held.stats() == {"held": 1, "hits": 1, "misses": 3}
    held.max_bytes = 0
    assert run(held, a) == oracle_a
    assert held.stats() == {"held": 0, "hits": 2, "misses": 3}


def test_landau_repeat_is_restored_into_its_held_sim():
    """Landau's species are particle sets of their own: the repeat job
    restores every one of them into the held sim."""
    spec = jobs.validate_job({"app": "landau", "params": {
        "nz": 24, "ppc": 30, "n_steps": 2}})
    held = HeldSims()
    assert run(held, spec) == run(held, spec) == cold(spec)
    assert held.stats() == {"held": 1, "hits": 1, "misses": 1}


def test_fempic_after_a_cabana_build_gets_its_constants_back():
    """Both apps declare a kernel constant ``dt``; the held FemPIC sim's
    state carries its own, so nothing but the restore puts it back."""
    from repro.core.kernel import CONST
    fem = spec_of("fempic", dt=0.3)
    oracle = cold(fem)
    held = HeldSims()
    run(held, fem)
    run(held, spec_of("cabana"))
    assert CONST.dt != 0.3
    assert run(held, fem) == oracle
    assert CONST.dt == 0.3


def test_a_corrupted_held_sim_is_restored_whole():
    """NaN written between jobs into a static mesh dat and a particle
    dat of the held sim: the next job restores every declared dat, so
    it still matches the cold build."""
    spec = spec_of("fempic")
    oracle = cold(spec)
    held = HeldSims()
    assert run(held, spec) == oracle
    (entry,) = held._sims.values()
    entry.sim.xform.data[:] = np.nan
    entry.sim.vel.raw[:] = np.nan
    assert run(held, spec) == oracle
