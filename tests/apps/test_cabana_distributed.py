"""Distributed CabanaPIC vs the structured reference."""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, StructuredCabanaReference
from repro.apps.cabana.distributed import DistributedCabana

CFG = CabanaConfig.smoke()


@pytest.fixture(scope="module")
def reference():
    ref = StructuredCabanaReference(CFG)
    ref.run()
    return ref


@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
def test_matches_reference(reference, nranks):
    dist = DistributedCabana(CFG, nranks=nranks)
    dist.run()
    a = np.array(dist.history["e_energy"])
    b = np.array(reference.history["e_energy"])
    assert np.abs(a - b).max() / b.max() < 1e-12


def test_particles_conserved_across_ranks(reference):
    dist = DistributedCabana(CFG, nranks=4)
    dist.run()
    assert sum(rk.parts.size for rk in dist.ranks) == CFG.n_particles


def test_migration_happens(reference):
    """Beams stream along z across slab boundaries — particle payload
    messages must flow."""
    dist = DistributedCabana(CFG, nranks=2)
    dist.run()
    assert dist.comm.stats.total_messages > 0
    # update-ghost traffic was timed
    for rk in dist.ranks:
        assert rk.ctx.perf.get("Update_Ghosts") is not None


def test_update_ghosts_in_breakdown(reference):
    dist = DistributedCabana(CFG, nranks=2)
    dist.run()
    names = set(dist.ranks[0].ctx.perf.loops)
    assert {"Interpolate", "Move_Deposit", "AccumulateCurrent", "AdvanceB",
            "AdvanceE", "Update_Ghosts"} <= names


@pytest.mark.parametrize("nranks", [1, 2, 3])
@pytest.mark.parametrize("override", [{"program": "fuse"},
                                      {"pusher": "vay"}])
def test_config_fields_are_honoured_at_n_ranks(nranks, override):
    """``program`` and ``pusher`` are read by the step every rank count
    shares: the N-rank run coalesces its e/b push (one fused group; a
    one-rank run has no push) and runs the configured pusher as its own
    loop."""
    from repro.apps.cabana import CabanaSimulation
    cfg = CFG.scaled(n_steps=4, **override)
    single = CabanaSimulation(cfg)
    single.run()
    dist = DistributedCabana(cfg, nranks=nranks)
    dist.run()
    for key in ("e_energy", "b_energy"):
        np.testing.assert_allclose(dist.history[key], single.history[key],
                                   rtol=1e-10, atol=1e-18, err_msg=key)
    if "program" in override:
        fused = [g for p in dist.program.plans for g in p.groups
                 if g.fused]
        assert len(fused) == (1 if nranks > 1 else 0)
    else:
        assert dist.ranks[0].ctx.perf.get("PushParticles") is not None


def test_unknown_pusher_rejected_at_n_ranks():
    with pytest.raises(ValueError, match="pusher"):
        DistributedCabana(CFG.scaled(pusher="leapfrog"), nranks=2)
