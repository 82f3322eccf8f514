"""Memory-footprint accounting."""

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.perf import memory_report


def test_fempic_memory_report():
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(move_strategy="dh"))
    sim.seed_uniform_plasma(50)
    sim.run(2)
    rep = memory_report(sim)
    assert rep.total > 0
    assert rep.mesh_dats > 0
    assert rep.particle_dats > 0
    assert rep.maps > 0
    assert rep.overlay > 0           # DH bookkeeping is visible
    kinds = {k for _, k, _ in rep.rows}
    assert "particle dat" in kinds and "mesh dat" in kinds
    text = rep.report()
    assert "TOTAL" in text and "DH bookkeeping" in text
    # rows sorted by size
    sizes = [n for _, _, n in rep.rows]
    assert sizes == sorted(sizes, reverse=True)


def test_exact_dat_accounting():
    sim = FemPicSimulation(FemPicConfig.smoke())
    rep = memory_report(sim)
    # the 12-wide xform dat over all cells is 12*8 bytes per cell
    xf = next(n for name, _, n in rep.rows if name == "cell_xform")
    assert xf == sim.mesh.n_cells * 12 * 8
    assert rep.overlay == 0          # MH run: no DH bookkeeping


def test_plan_cache_counted(numpy_target):
    sim = FemPicSimulation(FemPicConfig.smoke())
    sim.run(2)                       # vec backend builds mesh-loop plans
    rep = memory_report(sim)
    assert rep.plan_cache > 0
