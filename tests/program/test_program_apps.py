"""Apps under `cfg.program="fuse"`: bit-equal to `"off"` on every
backend; at N ranks a push that names several fields sends one frame per
neighbour pair, and the halo perf row times it.
"""
import time

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
    # a one-rank app has no exchanges, so it coalesces nothing
    assert fused.program.mode == "fuse" and fused.program.plans == []
    assert plain.program is None


def test_fempic_program_vec_matches(monkeypatch):
    """vec is bit-equal too, on the native tier and on the NumPy
    target."""
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


def run_dist(mode, nranks=2, steps=3, app="cabana"):
    if app == "cabana":
        from repro.apps.cabana.distributed import DistributedCabana as cls
        cfg = CabanaConfig(nx=4, ny=4, nz=8, ppc=8, n_steps=steps,
                           backend="vec", program=mode)
    else:
        from repro.apps.fempic.distributed import DistributedFemPic as cls
        cfg = FemPicConfig.smoke().scaled(n_steps=steps, program=mode)
    sim = cls(cfg, nranks=nranks)
    sim.run()
    return sim


def test_program_survives_multiple_run_calls():
    """run() may be called repeatedly; the Program persists and keeps
    counting the coalesced push."""
    sim = run_dist("fuse", steps=2)
    prog = sim.program
    (plan,) = prog.plans
    assert plan.groups[0].calls == 2
    sim.run(2)
    assert sim.program is prog and plan.groups[0].calls == 4

    eager = run_dist("off", steps=2)
    eager.run(2)
    assert sim.history["e_energy"] == eager.history["e_energy"]


def _wire(sim):
    stats = sim.comm.stats
    return int(stats.msg_count.sum()), int(stats.msg_bytes.sum())


@pytest.mark.parametrize("app, nranks, off_msgs, fuse_msgs, pushes", [
    ("cabana", 2, 30, 24, [("cell_push", ("e", "b"), 3)]),
    ("cabana", 3, 90, 72, [("cell_push", ("e", "b"), 3)]),
    ("fempic", 2, 20, 20, [])], ids=["cabana-2r", "cabana-3r", "fempic-2r"])
def test_distributed_cabana_coalesces_pushes(app, nranks, off_msgs,
                                             fuse_msgs, pushes):
    """3 steps: Cabana's ``push_cells("e", "b")`` sends one frame per
    neighbour pair instead of two, with the same bytes and bit-equal
    physics.  FemPIC's pushes each name one field, so both modes send
    the same frames and nothing is coalesced."""
    off, fuse = (run_dist(mode, nranks, app=app) for mode in ("off", "fuse"))
    (n_off, bytes_off), (n_fuse, bytes_fuse) = _wire(off), _wire(fuse)
    assert (n_off, n_fuse) == (off_msgs, fuse_msgs)
    assert bytes_fuse == bytes_off
    assert fuse.history == off.history
    assert [(g.op, g.fields, g.calls) for p in fuse.program.plans
            for g in p.groups if g.fused] == pushes


def test_fuse_halo_row_times_the_grouped_push(monkeypatch):
    """Under fuse the ``Update_Ghosts`` row has off's call count (one per
    field per push) and its seconds include the grouped push."""
    from repro.runtime import ranked
    delay = 0.02
    grouped = ranked.push_halos_grouped

    def slow(*args):
        time.sleep(delay)
        grouped(*args)

    monkeypatch.setattr(ranked, "push_halos_grouped", slow)
    rows = {mode: run_dist(mode).ranks[0].ctx.perf.get(
        "Update_Ghosts") for mode in ("off", "fuse")}
    assert rows["fuse"].calls == rows["off"].calls == 15
    # three slowed pushes, each spread over two ranks' rows
    assert rows["fuse"].seconds >= 3 * delay / 2
