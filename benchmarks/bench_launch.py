"""What one warm launch costs: microseconds per ``par_loop`` /
``particle_move`` call from a call site that has run before, on loops so
small (8 elements) that the kernel's own work is noise.

A call site is declared, validated and bound on its first launch
(DESIGN.md §3, "declaration vs launch"); this bench times what is left
afterwards, written the way an application writes it (``arg_dat`` is
called at every launch, and returns the descriptor it memoised), for 1 / 3 / 6-argument direct,
indirect and double-indirect loops and a one-hop move, on ``seq``, on
plain ``vec`` (the native tier) and on ``vec`` pinned to its NumPy target.
Two last rows time the field solve of the ``fempic_dispatch`` rung
(``FemPicConfig().scaled(seed=1)``, 108 free nodes) after three steps,
as the C call and on the NumPy target: a warm ``KSPSolver.solve`` of its
last Newton iteration's linear system, and a warm
``FemPicSimulation.field_solve`` (both Newton iterations).  A "warm
FemPIC build" line times a smoke ``FemPicSimulation`` build plus its
first field solve with the object cache off and on.  A "hole
fill" line times ``ParticleSet.remove_particles`` of 2 430 sorted rows
from a 100 000-ion set with FemPIC's particle dats, on fresh (cache-cold)
arrays, median of 30.

The table (also ``results/launch_cost.txt``) is this host's reading and
gates nothing.  The exit code is a **count**: over 100 warm launches of
every site, nothing that belongs to a declaration may run again —
``Arg.__init__`` (the descriptors are memoised), ``Arg.validate_against``,
``Kernel.check_arity``, ``ConstRegistry.values`` (the constants do not
change, so no launcher builds its table again), and on the native tier
``cgen.signature``, ``Kernel.generated`` and ``native._launcher`` are
called 0 times; over 100 warm solves and 100 warm field solves
``native.compiler``, ``native._library`` and the CSR (and Newton index)
validation are called 0 times, and the field solve launches no
``par_loop``; over 100 removals of sorted indices ``np.unique`` and
``np.setdiff1d`` are called 0 times; over 100 warm FemPIC builds and
first field solves with the object cache on, as a service worker runs
them, ``DirichletSystem.__init__``, ``NewtonPattern.__init__``, the
Newton index and CSR validation and ``native._library`` are called 0
times.

    PYTHONPATH=src python benchmarks/bench_launch.py
"""
import sys
import time

import numpy as np

from repro.core.api import CONST

try:
    from .common import write_result
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import write_result

N = 8                   # elements / particles per set
WARM = 100              # launches the zero-call gate counts over
REPEATS, LAUNCHES = 7, 200
BUILDS = 20             # FemPIC builds per timed repeat
# hole fill: a FemPIC-sized removal (≈ 2.4 % of the ions in one step)
HOLE_N, HOLE_K, HOLE_CELLS, HOLE_REPEATS = 100_000, 2_430, 1152, 30


def k1(a):
    a[0] += 1.0


def k3(a, b, c):
    c[0] += a[0] * b[0] + CONST.launch_shift


def k6(a, b, c, d, e, f):
    f[0] += a[0] * b[0] + c[0] * d[0] + e[0]


def hop_once(move, pos):
    if move.hop == 0 and pos[0] > 0.5:
        move.move_to(move.c2c[0])
    else:
        move.done()


KERNELS = {1: k1, 3: k3, 6: k6}
#: what the gate counts on every leg; the rest only on the native tier
EVERY_LEG = ("Arg.__init__", "Arg.validate_against", "Kernel.check_arity",
             "ConstRegistry.values")


def build_sites():
    """``{label: launch()}`` over one small world declared under the
    active context; each label is one call site."""
    from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, arg_dat,
                                decl_const, decl_dat, decl_map,
                                decl_particle_set, decl_set, par_loop,
                                particle_move)
    rng = np.random.default_rng(0)
    # a zero: equal to -0.0 under ``==``, the case a value compare
    # cannot tell apart
    decl_const("launch_shift", 0.0)
    cells, nodes = decl_set(N, "cells"), decl_set(N + 3, "nodes")
    parts = decl_particle_set(cells, N, "parts")
    c2n = decl_map(cells, nodes, 4, rng.integers(0, N + 3, (N, 4)), "c2n")
    c2c = decl_map(cells, cells, 2, rng.integers(0, N, (N, 2)), "c2c")
    p2c = decl_map(parts, cells, 1, rng.integers(0, N, (N, 1)), "p2c")
    on = {"direct": [decl_dat(cells, 1, np.float64, name=f"c{i}")
                     for i in range(6)],
          "indirect": [decl_dat(nodes, 1, np.float64, name=f"n{i}")
                       for i in range(6)]}
    on["double"] = on["indirect"]
    pos = decl_dat(parts, 1, np.float64, np.linspace(0.0, 1.0, N), "pos")

    def args_of(kind, nargs):
        def build():
            out = []
            for i, dat in enumerate(on[kind][:nargs]):
                access = OPP_INC if i == nargs - 1 else OPP_READ
                if kind == "direct":
                    out.append(arg_dat(dat, access))
                elif kind == "indirect":
                    out.append(arg_dat(dat, i % 4, c2n, access))
                else:
                    out.append(arg_dat(dat, i % 4, c2n, p2c, access))
            return out
        return build

    sites = {}
    for kind in ("direct", "indirect", "double"):
        iterset = parts if kind == "double" else cells
        for nargs, kernel in KERNELS.items():
            name, build = f"{kind}{nargs}", args_of(kind, nargs)
            sites[f"{kind}, {nargs} arg"] = (
                lambda kernel=kernel, name=name, iterset=iterset,
                build=build: par_loop(kernel, name, iterset,
                                      OPP_ITERATE_ALL, *build()))
    sites["move, one hop"] = lambda: particle_move(
        hop_once, "hop", parts, c2c, p2c, arg_dat(pos, OPP_READ))
    return sites


def launch_targets():
    """What a warm launch must not call again."""
    from repro.core.args import Arg
    from repro.core.kernel import ConstRegistry, Kernel
    from repro.translator import cgen, native
    return [(Arg, "__init__"), (Arg, "validate_against"),
            (Kernel, "check_arity"), (ConstRegistry, "values"),
            (cgen, "signature"), (Kernel, "generated"),
            (native, "_launcher")]


def solve_targets():
    """What a warm solve must not call again: the compiler probe, the
    build cache and the CSR validation of a (re)binding."""
    from repro.fem import solver
    from repro.translator import native
    return [(native, "compiler"), (native, "_library"),
            (solver, "_csr_problem")]


class CallCounts:
    """Count calls of ``targets``, ``[(owner, attribute)]``, while
    active."""

    def __init__(self, targets):
        self.targets = targets
        self.calls = {}

    def __enter__(self):
        self.saved = []
        for owner, attr in self.targets:
            real = getattr(owner, attr)
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self.calls[label] = 0

            def counting(*args, _real=real, _label=label, **kwargs):
                self.calls[_label] += 1
                return _real(*args, **kwargs)

            self.saved.append((owner, attr, real))
            setattr(owner, attr, counting)
        return self

    def __exit__(self, *exc):
        for owner, attr, real in self.saved:
            setattr(owner, attr, real)


def measure(backend: str, pin_numpy: bool):
    """``({label: µs per warm launch}, {function: calls in WARM warm
    launches of every site})`` on a fresh context."""
    from repro.core.api import Context, push_context
    from repro.translator import native
    saved = native.CC
    if pin_numpy:
        native.CC = None
    try:
        with push_context(Context(backend)):
            sites = build_sites()
            for launch in sites.values():       # declare, build, bind
                for _ in range(3):
                    launch()
            with CallCounts(launch_targets()) as counts:
                for launch in sites.values():
                    for _ in range(WARM):
                        launch()
            cost = {}
            for label, launch in sites.items():
                samples = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    for _ in range(LAUNCHES):
                        launch()
                    samples.append((time.perf_counter() - t0) / LAUNCHES)
                cost[label] = 1e6 * min(samples)
            return cost, counts.calls
    finally:
        native.CC = saved


def field_targets():
    """What a warm field solve must not call: a node loop, anything a
    warm solve must not, or the Newton system's own bind checks."""
    from repro.apps.fempic import simulation
    from repro.fem import newton
    return ([(simulation, "par_loop")] + solve_targets()
            + [(newton, "_csr_problem"), (newton, "_index_problem")])


def dispatch_rung():
    """The ``fempic_dispatch`` rung after three steps, with the
    right-hand side of its last Newton iteration.  The steps run on the
    NumPy target, whose Newton loop hands each linear system to
    ``NewtonSystem.solve`` (the C call takes the same steps inside)."""
    from repro.apps.fempic.config import FemPicConfig
    from repro.apps.fempic.simulation import FemPicSimulation
    from repro.translator import native
    sim = FemPicSimulation(FemPicConfig().scaled(seed=1))
    last, real = [], sim.newton.solve

    def recording(shift, rhs):
        last.append(rhs)
        return real(shift, rhs)

    sim.newton.solve = recording
    saved, native.CC = native.CC, None
    try:
        sim.run(3)
    finally:
        native.CC = saved
    del sim.newton.solve
    return sim, last[-1]


def measure_warm(call, targets, pin_numpy: bool, launches=LAUNCHES):
    """``(µs per warm call(), {function: calls in WARM warm calls})``,
    the best of ``REPEATS`` means over ``launches`` calls."""
    from repro.translator import native
    saved = native.CC
    if pin_numpy:
        native.CC = None
    try:
        for _ in range(3):
            call()
        with CallCounts(targets) as counts:
            for _ in range(WARM):
                call()
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(launches):
                call()
            samples.append((time.perf_counter() - t0) / launches)
        return 1e6 * min(samples), counts.calls
    finally:
        native.CC = saved


def build_targets():
    """What a warm worker's FemPIC build and first field solve must not
    run again: the Dirichlet reduction, the Newton pattern derivation,
    their checks and the build cache."""
    from repro.fem import DirichletSystem, NewtonPattern, newton
    from repro.translator import native
    return [(DirichletSystem, "__init__"), (NewtonPattern, "__init__"),
            (newton, "_index_problem"), (newton, "_csr_problem"),
            (native, "_library")]


def measure_build(cached: bool):
    """``(µs per smoke FemPIC build plus first field solve, {function:
    calls in WARM of them})`` with the object cache on (as a warm service
    worker has it) or off (a fresh build every time)."""
    from repro.apps.fempic.config import FemPicConfig
    from repro.apps.fempic.simulation import FemPicSimulation
    from repro.runtime import objcache

    def build_and_solve():
        FemPicSimulation(FemPicConfig.smoke()).field_solve()

    if cached:
        objcache.enable()
    try:
        return measure_warm(build_and_solve, build_targets(), False,
                            launches=BUILDS)
    finally:
        objcache.disable()


def hole_fill_world(seed: int):
    """A fresh ``HOLE_N``-ion set with FemPIC's particle dats (position,
    velocity, weights, the particle-to-cell map) and ``HOLE_K`` sorted
    removal indices, as a move hands them over."""
    from repro.core.api import (decl_dat, decl_map, decl_particle_set,
                                decl_set)
    rng = np.random.default_rng(seed)
    cells = decl_set(HOLE_CELLS, "cells")
    ions = decl_particle_set(cells, HOLE_N, "ions")
    for dim, name in ((3, "position"), (3, "velocity"), (4, "weights")):
        decl_dat(ions, dim, np.float64, rng.random((HOLE_N, dim)), name)
    decl_map(ions, cells, 1, rng.integers(0, HOLE_CELLS, (HOLE_N, 1)),
             "particle_to_cell")
    return ions, np.sort(rng.choice(HOLE_N, HOLE_K, replace=False))


def measure_hole_fill():
    """``(µs per remove_particles, {function: calls in WARM sorted
    removals})``: the median over ``HOLE_REPEATS`` fresh (cache-cold)
    sets, then the count on one set."""
    samples = []
    for seed in range(HOLE_REPEATS):
        ions, kill = hole_fill_world(seed)
        t0 = time.perf_counter()
        ions.remove_particles(kill)
        samples.append(time.perf_counter() - t0)
    ions, _ = hole_fill_world(HOLE_REPEATS)
    rng = np.random.default_rng(0)
    per = HOLE_K // 10
    kills = [np.sort(rng.choice(HOLE_N - per * i, per, replace=False))
             for i in range(WARM)]
    with CallCounts([(np, "unique"), (np, "setdiff1d")]) as counts:
        for kill in kills:
            ions.remove_particles(kill)
    return 1e6 * float(np.median(samples)), counts.calls


def main() -> int:
    from repro.core.api import push_context
    from repro.translator import native
    legs = [("seq", "seq", False), ("vec numpy", "vec", True)]
    if native.compiler() is not None:
        legs.insert(1, ("vec native", "vec", False))
    results = {leg: measure(backend, pin) for leg, backend, pin in legs}
    sim, rhs = dispatch_rung()
    ksp = sim.newton.ksp
    solves = {leg: measure_warm(lambda: ksp.solve(rhs), solve_targets(), pin)
              for leg, _backend, pin in legs if leg != "seq"}
    # the rung's own context; phi converges, so every call does the work
    # of a steady-state step's field solve
    with push_context(sim.ctx):
        fields = {leg: measure_warm(sim.field_solve, field_targets(), pin)
                  for leg, _backend, pin in legs if leg != "seq"}
    builds = {leg: measure_build(cached)
              for leg, cached in (("cache off", False), ("cache on", True))}
    hole_us, hole_calls = measure_hole_fill()

    labels = list(next(iter(results.values()))[0])
    lines = [f"Warm launch cost, microseconds per call ({N}-element sets; "
             f"best of {REPEATS} x {LAUNCHES} launches)",
             f"{'call site':<18}" + "".join(f"{leg:>12}" for leg in results)]
    for label in labels:
        lines.append(f"{label:<18}" + "".join(
            f"{results[leg][0][label]:>12.1f}" for leg in results))
    lines.append(f"{'KSP solve, n=' + str(rhs.size):<18}{'':>12}" + "".join(
        f"{solves[leg][0]:>12.1f}" for leg in results if leg != "seq"))
    lines.append(f"{'field solve':<18}{'':>12}" + "".join(
        f"{fields[leg][0]:>12.1f}" for leg in results if leg != "seq"))
    if "vec native" not in results:
        lines.append("(no C compiler: the native column is absent)")
    lines.append("warm FemPIC build: " + ", ".join(
        f"{cost:.0f} us with the object cache {leg.split()[-1]}"
        for leg, (cost, _calls) in builds.items())
        + " (smoke config, build plus first field solve)")
    lines.append(f"hole fill: {hole_us:.0f} us per remove_particles of "
                 f"{HOLE_K} of {HOLE_N} ions (FemPIC's dats, fresh arrays, "
                 f"median of {HOLE_REPEATS})")
    lines.append("")
    lines.append(f"declaration-time calls in {WARM} warm launches of every "
                 "site (gate: all 0)")

    failed = []
    for leg, (_cost, calls) in results.items():
        # the NumPy target fetches its generated batch function from the
        # kernel record on every launch; that is its launch path
        gated = {name: n for name, n in calls.items()
                 if leg == "vec native" or name in EVERY_LEG}
        lines.append(f"{leg:<12}" + "  ".join(f"{name}={n}"
                                              for name, n in gated.items()))
        failed += [f"{leg}: {name} called {n} times"
                   for name, n in gated.items() if n]
    lines.append("")
    for what, measured in (("solves", solves), ("field solves", fields)):
        lines.append(f"loop / compiler / build / validation calls in {WARM} "
                     f"warm {what} (gate: all 0)")
        for leg, (_cost, calls) in measured.items():
            lines.append(f"{leg:<12}" + "  ".join(
                f"{name}={n}" for name, n in calls.items()))
            failed += [f"{leg} {what}: {name} called {n} times"
                       for name, n in calls.items() if n]
        lines.append("")
    lines.append(f"field-solver set-up calls in {WARM} warm FemPIC builds "
                 "and first field solves, object cache on (gate: all 0)")
    calls = builds["cache on"][1]
    lines.append("cache on    " + "  ".join(f"{name}={n}" for name, n
                                            in calls.items()))
    failed += [f"warm FemPIC build: {name} called {n} times"
               for name, n in calls.items() if n]
    lines.append("")
    lines.append(f"calls in {WARM} sorted removals (gate: all 0)")
    lines.append("hole fill   " + "  ".join(f"{name}={n}" for name, n
                                            in hole_calls.items()))
    failed += [f"hole fill: {name} called {n} times"
               for name, n in hole_calls.items() if n]
    write_result("launch_cost", "\n".join(lines))
    for line in failed:
        print("FAIL", line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
