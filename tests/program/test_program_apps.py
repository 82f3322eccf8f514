"""Apps driven through the program optimizer (`cfg.program="fuse"`):
optimized runs must be bit-equal to eager runs on every backend, a
deferred move must reuse its call site's declaration, and the
distributed driver must coalesce halo pushes.
"""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, CabanaSimulation
from repro.apps.fempic import FemPicConfig, FemPicSimulation


def run_fempic(backend, mode, steps=3):
    cfg = FemPicConfig.smoke().scaled(backend=backend, n_steps=steps,
                                      program=mode)
    sim = FemPicSimulation(cfg)
    sim.run()
    return sim


def run_cabana(backend, mode, steps=4):
    cfg = CabanaConfig.smoke().scaled(backend=backend, n_steps=steps,
                                      program=mode)
    sim = CabanaSimulation(cfg)
    sim.run()
    return sim


def test_fempic_program_seq_bit_equal():
    plain = run_fempic("seq", "off")
    fused = run_fempic("seq", "fuse")
    assert fused.parts.size == plain.parts.size
    for attr in ("phi", "ncd", "nw", "ef"):
        assert np.array_equal(getattr(fused, attr).data,
                              getattr(plain, attr).data), attr
    assert fused.history["field_energy"] == plain.history["field_energy"]
    assert fused.program is not None and fused.program.n_flushes > 0
    assert plain.program is None


def test_fempic_program_vec_matches(monkeypatch):
    """vec is bit-equal too, on the native tier and on the NumPy target:
    every loop and move of the optimized step runs as the app wrote
    it."""
    from repro.translator import native
    for target in ("native", "numpy"):
        if target == "numpy":
            monkeypatch.setattr(native, "CC", None)
        plain = run_fempic("vec", "off")
        fused = run_fempic("vec", "fuse")
        assert fused.parts.size == plain.parts.size, target
        for attr in ("phi", "ncd", "nw", "ef", "pos", "vel", "lc"):
            assert np.array_equal(getattr(fused, attr).data,
                                  getattr(plain, attr).data), \
                (target, attr)
        assert fused.history == plain.history, target


@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_cabana_program_bit_equal(backend):
    plain = run_cabana(backend, "off")
    fused = run_cabana(backend, "fuse")
    assert fused.history["e_energy"] == plain.history["e_energy"]
    assert fused.history["b_energy"] == plain.history["b_energy"]
    for attr in ("e", "b", "j", "acc"):
        assert np.array_equal(getattr(fused, attr).data,
                              getattr(plain, attr).data), attr


def test_deferred_move_is_declared_once(monkeypatch):
    """A deferred move goes through its context's call-site memo like an
    eager move: once warm, a flush declares nothing, derives no
    descriptor signature and looks up no launcher."""
    from repro.core.move import MoveDecl
    from repro.translator import cgen, native

    cfg = FemPicConfig.smoke().scaled(backend="vec", program="fuse")
    sim = FemPicSimulation(cfg)
    sim.run(3)
    calls = {"MoveDecl": 0, "signature": 0, "launcher": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MoveDecl, "__init__",
                        counting("MoveDecl", MoveDecl.__init__))
    monkeypatch.setattr(cgen, "signature",
                        counting("signature", cgen.signature))
    monkeypatch.setattr(native, "_launcher",
                        counting("launcher", native._launcher))
    sim.run(10)
    assert calls == {"MoveDecl": 0, "signature": 0, "launcher": 0}
    assert any(g.name == "Move" for p in sim.program.plans
               for g in p.groups if g.kind == "move")


@pytest.mark.parametrize("run, flushes, groups, fused", [
    (run_fempic, 9, [1, 5, 2], 0), (run_cabana, 3, [8], 0)])
def test_one_rank_step_flushes_where_the_single_rank_step_did(
        run, flushes, groups, fused):
    """Flush counts recorded from the last commit with a separate
    single-rank class: written on the rank-count-agnostic base, the
    one-rank step still hands the optimizer the same flush shapes (no
    exchange adds a trace node or a host observation).  Every loop and
    move is a group of its own.  FemPIC's field solve is one compiled
    call and launches no loop, so its step is three flushes of one, five
    and two groups."""
    prog = run("vec", "fuse", steps=3).program
    assert prog.n_flushes == flushes
    assert [len(p.groups) for p in prog.plans] == groups
    assert sum(g.fused for p in prog.plans for g in p.groups) == fused


def test_program_survives_multiple_run_calls():
    """run() may be called repeatedly; the Program persists across
    recording spans."""
    cfg = CabanaConfig.smoke().scaled(backend="vec", n_steps=2,
                                      program="fuse")
    sim = CabanaSimulation(cfg)
    sim.run()
    first = sim.program.n_flushes
    sim.run(2)
    assert sim.program.n_flushes > first

    eager = CabanaSimulation(cfg.scaled(program="off"))
    eager.run()
    eager.run(2)
    assert sim.history["e_energy"] == eager.history["e_energy"]


def test_distributed_cabana_coalesces_pushes():
    """2-rank run: the step's adjacent e/b ghost pushes merge into one
    message per neighbour pair — msg_count strictly drops, bytes do not
    grow, physics is bit-equal."""
    from repro.apps.cabana.distributed import DistributedCabana

    def run(mode):
        cfg = CabanaConfig(nx=4, ny=4, nz=8, ppc=8, n_steps=3,
                           backend="vec", program=mode)
        sim = DistributedCabana(cfg, nranks=2)
        sim.run()
        return sim

    off, fuse = run("off"), run("fuse")
    assert fuse.history["e_energy"] == off.history["e_energy"]
    assert int(fuse.comm.stats.msg_count.sum()) < \
        int(off.comm.stats.msg_count.sum())
    assert int(fuse.comm.stats.msg_bytes.sum()) <= \
        int(off.comm.stats.msg_bytes.sum())
    assert "coalesced" in fuse.program.explain()
