"""Each of fempic, cabana, twod and advec is written once: one per-rank
declaration and one step, run by ``FemPicSimulation`` /
``CabanaSimulation`` / ``TwoDSheetModel`` / ``AdvecSimulation`` at one
rank and by the ``Distributed*`` classes at N."""
import ast
from collections import defaultdict
from pathlib import Path

import pytest

import repro.apps
from repro.apps.advec import AdvecConfig
from repro.apps.cabana import CabanaConfig
from repro.apps.fempic import FemPicConfig
from repro.apps.twod import TwoDConfig
from repro.dist.driver import APP_NAMES, _build_app, run_distributed
from repro.runtime import SimComm

LOOP_CALLS = {"par_loop": 1, "particle_move": 1, "move_particles": 1,
              "mpi_particle_move": 5}


APPS_DIR = Path(repro.apps.__file__).parent
PACKAGES = sorted(p.name for p in APPS_DIR.iterdir()
                  if (p / "__init__.py").is_file())


def _loop_names(path: Path):
    """``(name, line)`` of every string literal passed as the loop name
    to a loop-declaring call."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        pos = LOOP_CALLS.get(called)
        if pos is not None and len(node.args) > pos \
                and isinstance(node.args[pos], ast.Constant) \
                and isinstance(node.args[pos].value, str):
            yield node.args[pos].value, node.lineno


@pytest.mark.parametrize("app", PACKAGES)
def test_every_loop_is_declared_in_one_module(app):
    """... and at one call site in it: a loop name that two calls
    declare is a second copy of that loop."""
    sites = defaultdict(list)
    for path in sorted((APPS_DIR / app).rglob("*.py")):
        for name, line in _loop_names(path):
            sites[name].append(f"{path.name}:{line}")
    assert sites, "the walker found no loop declarations at all"
    twice = {name: where for name, where in sites.items()
             if len(where) > 1}
    assert not twice, f"{app} declares loops at more than one call site"


def test_the_walker_sees_positional_and_method_calls(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text('par_loop(k, "A", s, ALL)\n'
                   'self.move_particles(k, "B", "c2c", args)\n'
                   'exchange.mpi_particle_move(c, p, m, x, k, "C", ps)\n'
                   'par_loop(k, name, s, ALL)\n')
    assert sorted(_loop_names(src)) == [("A", 1), ("B", 2), ("C", 3)]


CONFIGS = {"fempic": FemPicConfig.smoke().scaled(n_steps=4, dt=0.2),
           "cabana": CabanaConfig.smoke().scaled(n_steps=4),
           "twod": TwoDConfig(nx=8, ny=4, ppc=4, n_steps=4),
           "advec": AdvecConfig(nx=8, ny=8, ppc=2, n_steps=4)}


@pytest.mark.parametrize("app", APP_NAMES)
def test_two_rank_processes_equal_two_simulated_ranks(app):
    spec = {"app": app, "config": CONFIGS[app]}
    sim = _build_app(spec, SimComm(2)).run()
    proc = run_distributed(app, CONFIGS[app], nranks=2, transport="proc")
    assert proc.history == sim
