"""The fused move+deposit is one the app writes as a single kernel:
CabanaPIC's ``Move_Deposit`` walks each particle and deposits its
segment current into every cell it crosses.  It is an ordinary
``particle_move`` for the runtime's bookkeeping.
"""
from repro.apps.cabana import CabanaConfig, CabanaSimulation


def test_fused_move_dirties_particle_order():
    """Relocations inside a fused move must feed the order tracker just
    like a plain move's."""
    sim = CabanaSimulation(CabanaConfig.smoke().scaled(backend="vec",
                                                       n_steps=3))
    sim.run()
    assert sim.ctx.perf.get("Move_Deposit").hops > 0
    assert sim.parts.order.mutations > 0
