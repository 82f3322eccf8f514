"""The ``program`` record: its modes and what it notes per push."""
import pytest

from repro import program


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="program mode"):
        program.Program("sideways")


def test_mode_off_is_a_passthrough(monkeypatch):
    """Under ``"off"`` a push of several fields sends each field on its
    own (the grouped push is never called) and nothing is recorded."""
    from repro.apps.cabana import CabanaConfig
    from repro.apps.cabana.distributed import DistributedCabana
    from repro.runtime import ranked

    def refuse(*_args):
        raise AssertionError("program='off' took the grouped push")

    monkeypatch.setattr(ranked, "push_halos_grouped", refuse)
    cfg = CabanaConfig(nx=4, ny=4, nz=8, ppc=8, n_steps=2, program="off")
    sim = DistributedCabana(cfg, nranks=2)
    sim.run()
    assert sim.program is None


def test_each_distinct_push_is_one_fused_group():
    prog = program.Program("fuse")
    for _ in range(3):
        prog.note_push("cell_push", ("e", "b"))
    prog.note_push("node_push", ("phi", "rho"))
    groups = [g for p in prog.plans for g in p.groups]
    assert [(g.op, g.fields, g.fused, g.calls) for g in groups] == [
        ("cell_push", ("e", "b"), True, 3),
        ("node_push", ("phi", "rho"), True, 1)]
