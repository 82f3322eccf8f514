"""Each of fempic, cabana and twod is written once: one per-rank
declaration and one step, run by ``FemPicSimulation`` /
``CabanaSimulation`` / ``TwoDSheetModel`` at one rank and by the
``Distributed*`` classes at N."""
import ast
from collections import defaultdict
from pathlib import Path

import pytest

import repro.apps
from repro.apps.cabana import CabanaConfig
from repro.apps.fempic import FemPicConfig
from repro.apps.twod import TwoDConfig
from repro.dist.driver import APP_NAMES, _build_app, run_distributed
from repro.runtime import SimComm

LOOP_CALLS = {"par_loop": 1, "particle_move": 1, "move_particles": 1,
              "mpi_particle_move": 5}


def _loop_names(path: Path):
    """String literals passed as the loop name to a loop-declaring call."""
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
            yield node.args[pos].value


@pytest.mark.parametrize("app", APP_NAMES)
def test_every_loop_is_declared_in_one_module(app):
    modules = defaultdict(set)
    for path in sorted((Path(repro.apps.__file__).parent / app)
                       .glob("*.py")):
        for name in _loop_names(path):
            modules[name].add(path.name)
    assert modules, "the walker found no loop declarations at all"
    twice = {name: sorted(where) for name, where in modules.items()
             if len(where) > 1}
    assert not twice, f"{app} declares loops in more than one module"


def test_the_walker_sees_positional_and_method_calls(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text('par_loop(k, "A", s, ALL)\n'
                   'self.move_particles(k, "B", "c2c", args)\n'
                   'exchange.mpi_particle_move(c, p, m, x, k, "C", ps)\n'
                   'par_loop(k, name, s, ALL)\n')
    assert sorted(_loop_names(src)) == ["A", "B", "C"]


CONFIGS = {"fempic": FemPicConfig.smoke().scaled(n_steps=4, dt=0.2),
           "cabana": CabanaConfig.smoke().scaled(n_steps=4),
           "twod": TwoDConfig(nx=8, ny=4, ppc=4, n_steps=4)}


@pytest.mark.parametrize("app", APP_NAMES)
def test_two_rank_processes_equal_two_simulated_ranks(app):
    spec = {"app": app, "config": CONFIGS[app]}
    sim = _build_app(spec, SimComm(2)).run()
    proc = run_distributed(app, CONFIGS[app], nranks=2, transport="proc")
    assert proc.history == sim
