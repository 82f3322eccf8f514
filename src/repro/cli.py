"""Command-line interface.

The paper's artifact runs applications as ``<app_binary> <config_file>``;
the equivalent here::

    python -m repro fempic [config.cfg] [--steps N] [--backend vec] ...
    python -m repro fempic --ranks 4 --transport proc --backend omp ...
    python -m repro cabana [config.cfg] [--ppc N] ...
    python -m repro mesh --nx 4 --ny 4 --nz 12 --out duct.dat

``--ranks N`` runs the distributed driver; ``--transport`` picks the
rank transport (``sim`` = in-process simulated ranks, ``proc`` = real
OS rank processes), and ``--backend`` then selects each rank's on-node
backend — the MPI+X matrix.

Config files use the OP-PIC key=value format (see
:mod:`repro.util.config`); command-line flags override file values.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main"]


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", type=int, default=None, metavar="N",
                   help="run distributed over N ranks")
    p.add_argument("--transport", default="sim",
                   choices=["sim", "proc"],
                   help="rank transport for --ranks: in-process "
                   "simulated ranks or real OS rank processes")
    p.add_argument("--rebalance", default="never",
                   choices=["never", "auto", "always"],
                   help="online load rebalancing with live mesh/"
                   "particle migration (auto = only when the EWMA cost "
                   "model says a repartition amortises)")
    p.add_argument("--rebalance-every", type=int, default=1, metavar="N",
                   help="check the rebalance policy every N steps")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="write a distributed snapshot every N steps")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="snapshot directory (default: ./ckpt_<app>)")
    p.add_argument("--recover", action="store_true",
                   help="resume from the newest snapshot in "
                   "--checkpoint-dir; under --transport proc also "
                   "relaunch dead ranks from it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OP-PIC reproduction applications")
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fempic", help="run Mini-FEM-PIC")
    fp.add_argument("config", nargs="?", help="key=value config file")
    fp.add_argument("--steps", type=int, default=None)
    fp.add_argument("--backend", default=None,
                    choices=["seq", "vec", "omp", "cuda", "hip", "xe"])
    fp.add_argument("--move", default=None, choices=["mh", "dh"])
    fp.add_argument("--program", default=None, choices=["off", "fuse"],
                    help="fuse: a halo push of several fields sends one "
                    "frame per neighbour pair (--ranks > 1)")
    fp.add_argument("--mesh-file", default=None)
    fp.add_argument("--vtk", default=None, metavar="DIR",
                    help="write mesh+particle VTK files here at the end")
    _add_dist_flags(fp)
    fp.add_argument("--quiet", action="store_true")

    cb = sub.add_parser("cabana", help="run CabanaPIC (two-stream)")
    cb.add_argument("config", nargs="?", help="key=value config file")
    cb.add_argument("--steps", type=int, default=None)
    cb.add_argument("--ppc", type=int, default=None)
    cb.add_argument("--backend", default=None,
                    choices=["seq", "vec", "omp", "cuda", "hip", "xe"])
    cb.add_argument("--pusher", default=None,
                    choices=["boris", "velocity_verlet", "vay",
                             "higuera_cary"])
    cb.add_argument("--program", default=None, choices=["off", "fuse"],
                    help="fuse: a halo push of several fields sends one "
                    "frame per neighbour pair (--ranks > 1)")
    cb.add_argument("--validate", action="store_true",
                    help="also run the structured reference and compare")
    _add_dist_flags(cb)
    cb.add_argument("--quiet", action="store_true")

    ad = sub.add_parser("advec", help="run the advection mini-app")
    ad.add_argument("config", nargs="?", help="key=value config file")
    ad.add_argument("--steps", type=int, default=None)
    ad.add_argument("--flow", default=None,
                    choices=["uniform", "rotation"])
    ad.add_argument("--quiet", action="store_true")

    td = sub.add_parser("twod", help="run the 2-D sheet model")
    td.add_argument("config", nargs="?", help="key=value config file")
    td.add_argument("--steps", type=int, default=None)
    _add_dist_flags(td)
    td.add_argument("--quiet", action="store_true")

    vf = sub.add_parser(
        "verify", help="descriptor sanitizer / backend conformance")
    vf.add_argument("--app", default=None,
                    choices=["fempic", "cabana", "advec", "twod", "all"],
                    help="run this app's smoke problem under the "
                    "sanitizer backend and report descriptor violations")
    vf.add_argument("--steps", type=int, default=None,
                    help="override the app's smoke step count")
    vf.add_argument("--conformance", action="store_true",
                    help="run the differential backend-conformance sweep")
    vf.add_argument("--dist-conformance", action="store_true",
                    help="run the distributed-op conformance sweep "
                    "(random mini-worlds on 2-3 ranks vs the 1-rank "
                    "oracle)")
    vf.add_argument("--transport", default="sim",
                    choices=["sim", "proc"],
                    help="rank transport for --dist-conformance")
    vf.add_argument("--cases", type=int, default=60, metavar="N",
                    help="number of generated conformance cases")
    vf.add_argument("--seed", type=int, default=0,
                    help="base seed; case i uses seed+i")
    vf.add_argument("--backends", nargs="+", default=None,
                    metavar="NAME",
                    help="backends to check against the seq oracle "
                    "(default: vec omp)")
    vf.add_argument("--strategy", default=None, metavar="NAME",
                    help="force this reduction strategy on every "
                    "backend under test during --conformance "
                    "(e.g. coloring); the seq oracle is never forced")
    vf.add_argument("--no-shrink", action="store_true",
                    help="report the first failing case without "
                    "minimising it")
    vf.add_argument("--quiet", action="store_true")

    va = sub.add_parser(
        "validate", help="physics gates: measured rates vs theory")
    va.add_argument("--app", default="all",
                    choices=["landau", "twostream", "multispecies",
                             "all"],
                    help="which oracle app to gate (default: all)")
    va.add_argument("--backend", default="vec",
                    choices=["seq", "vec", "omp", "cuda", "hip", "xe"])
    va.add_argument("--transport", default=None,
                    choices=["sim", "proc"],
                    help="route the twostream gate through the "
                    "distributed driver over this transport")
    va.add_argument("--profile", default="ci", choices=["ci", "full"],
                    help="resolution/tolerance profile")
    va.add_argument("--json", action="store_true",
                    help="print machine-readable reports")
    va.add_argument("--quiet", action="store_true")

    sv = sub.add_parser(
        "serve", help="run the multi-tenant PIC job service")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=9321,
                    help="TCP port (0 = pick an ephemeral port)")
    sv.add_argument("--pool-ranks", type=int, default=2, metavar="N",
                    help="warm worker processes in the shared pool")
    sv.add_argument("--backend", default=None,
                    choices=["seq", "vec", "omp"],
                    help="default on-node backend for jobs that do not "
                    "request one")
    sv.add_argument("--smoke", action="store_true",
                    help="self-test: start the service, submit a tiny "
                    "job mix through the client (including a mid-job "
                    "worker kill), verify recovery, shut down")
    sv.add_argument("--quiet", action="store_true")

    ms = sub.add_parser("mesh", help="generate a duct mesh file")
    ms.add_argument("--nx", type=int, default=4)
    ms.add_argument("--ny", type=int, default=4)
    ms.add_argument("--nz", type=int, default=12)
    ms.add_argument("--lx", type=float, default=1.0)
    ms.add_argument("--ly", type=float, default=1.0)
    ms.add_argument("--lz", type=float, default=4.0)
    ms.add_argument("--out", required=True,
                    help="output path (.dat or .npz)")
    return parser


def _overlay(cfg, args, fields) -> object:
    from repro.util import apply_to_dataclass, load_config
    if getattr(args, "config", None):
        cfg = apply_to_dataclass(load_config(args.config), cfg)
    overrides = {dst: getattr(args, src)
                 for src, dst in fields.items()
                 if getattr(args, src, None) is not None}
    return cfg.scaled(**overrides) if overrides else cfg


def _run_dist_app(app: str, cfg, args) -> int:
    """The single distributed entry point every app subcommand routes
    through when ``--ranks`` is given."""
    from repro.dist.driver import run_distributed
    from repro.dist.transport import RankFailure
    ckpt_dir = args.checkpoint_dir
    if ckpt_dir is None and (args.checkpoint_every or args.recover):
        ckpt_dir = f"ckpt_{app}"
    try:
        res = run_distributed(app, cfg, nranks=args.ranks,
                              transport=args.transport,
                              rebalance=args.rebalance,
                              rebalance_every=args.rebalance_every,
                              checkpoint_every=args.checkpoint_every,
                              checkpoint_dir=ckpt_dir,
                              recover=args.recover)
    except RankFailure as failure:
        print(f"distributed run FAILED: {failure}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"{app}: {res.nranks} ranks over {res.transport!r} "
              f"transport, backend={cfg.backend}")
        for key, series in res.history.items():
            if len(series):
                print(f"final {key}: {series[-1]}")
        print(f"comm: {int(res.stats.msg_count.sum())} msgs / "
              f"{res.stats.total_bytes} B, "
              f"{res.stats.collectives} collectives, "
              f"{res.stats.rma_ops} RMA ops")
        busy = res.busy_seconds_per_rank()
        print("busy seconds per rank: "
              + ", ".join(f"r{r}={b:.3f}" for r, b in enumerate(busy)))
        print(f"load imbalance (max/mean busy): "
              f"{res.rank_load_imbalance():.2f}")
        print(f"critical path {res.critical_path_seconds:.3f} s, "
              f"wall {res.wall_seconds:.3f} s")
        if res.elastic is not None:
            el = res.elastic
            print(f"elastic: mode={el['mode']} "
                  f"rebalances={el['rebalances']} skips={el['skips']} "
                  f"snapshots={el['snapshots']} "
                  f"cells_moved={el['cells_moved']} "
                  f"particles_moved={el['particles_moved']}"
                  + (f" restarts={res.restarts}" if res.restarts
                     else ""))
        print(res.perf.report())
    return 0


def _run_fempic(args) -> int:
    from repro.apps.fempic import FemPicConfig, FemPicSimulation
    cfg = _overlay(FemPicConfig(), args,
                   {"steps": "n_steps", "backend": "backend",
                    "move": "move_strategy", "mesh_file": "mesh_file",
                    "program": "program"})
    if args.ranks:
        if args.vtk:
            raise SystemExit("error: --vtk is not supported with --ranks")
        return _run_dist_app("fempic", cfg, args)
    sim = FemPicSimulation(cfg)
    sim.run()
    if not args.quiet:
        h = sim.history
        print(f"Mini-FEM-PIC: {sim.mesh.n_cells} cells, "
              f"{cfg.n_steps} steps, move={cfg.move_strategy}, "
              f"backend={cfg.backend}")
        print(f"final: {h['n_particles'][-1]} ions, field energy "
              f"{h['field_energy'][-1]:.6g}")
        print(sim.ctx.perf.report())
    if args.vtk:
        from repro.util.vtk import write_vtk_mesh, write_vtk_particles
        out = Path(args.vtk)
        out.mkdir(parents=True, exist_ok=True)
        write_vtk_mesh(out / "fempic_mesh.vtk", sim.mesh.points,
                       sim.mesh.cell2node,
                       cell_data={"electric_field": sim.ef.data},
                       point_data={"potential": sim.phi.data,
                                   "charge_density": sim.ncd.data})
        write_vtk_particles(out / "fempic_ions.vtk",
                            sim.pos.data[: sim.parts.size],
                            fields={"velocity":
                                    sim.vel.data[: sim.parts.size]})
        if not args.quiet:
            print(f"VTK written to {out}/")
    return 0


def _run_cabana(args) -> int:
    from repro.apps.cabana import (CabanaConfig, CabanaSimulation,
                                   StructuredCabanaReference)
    cfg = _overlay(CabanaConfig(), args,
                   {"steps": "n_steps", "ppc": "ppc",
                    "backend": "backend", "pusher": "pusher",
                    "program": "program"})
    if args.ranks:
        if args.validate:
            raise SystemExit(
                "error: --validate is not supported with --ranks")
        return _run_dist_app("cabana", cfg, args)
    sim = CabanaSimulation(cfg)
    sim.run()
    if not args.quiet:
        print(f"CabanaPIC: {cfg.n_cells} cells, {cfg.n_particles} "
              f"particles, {cfg.n_steps} steps, pusher={cfg.pusher}, "
              f"backend={cfg.backend}")
        print(f"final E-field energy {sim.history['e_energy'][-1]:.6e}")
        print(sim.ctx.perf.report())
    if args.validate:
        import numpy as np
        ref = StructuredCabanaReference(cfg)
        ref.run()
        err = (np.abs(np.array(sim.history["e_energy"])
                      - np.array(ref.history["e_energy"])).max()
               / max(ref.history["e_energy"]))
        print(f"validation vs structured original: max relative E-energy "
              f"error {err:.2e}")
        if err > 1e-12:
            print("VALIDATION FAILED", file=sys.stderr)
            return 1
    return 0


def _run_advec(args) -> int:
    import numpy as np

    from repro.apps.advec import AdvecConfig, AdvecSimulation
    cfg = _overlay(AdvecConfig(), args, {"steps": "n_steps",
                                         "flow": "flow"})
    sim = AdvecSimulation(cfg)
    start = sim.positions_xy().copy()
    sim.run()
    if not args.quiet:
        drift = np.abs(sim.positions_xy() - start).mean()
        move = sim.ctx.perf.get("Advect")
        print(f"advection: {cfg.n_particles} tracers, {cfg.n_steps} "
              f"steps, flow={cfg.flow}")
        print(f"mean displacement {drift:.4f}; {move.hops} hops "
              f"({move.hops / max(move.n_total, 1):.2f} per "
              "particle-step)")
    return 0


def _run_twod(args) -> int:
    from repro.apps.twod import TwoDConfig, TwoDSheetModel
    cfg = _overlay(TwoDConfig(), args, {"steps": "n_steps"})
    if args.ranks:
        return _run_dist_app("twod", cfg, args)
    sim = TwoDSheetModel(cfg)
    sim.run()
    if not args.quiet:
        e = sim.history["field_energy"]
        print(f"2-D sheet model: {cfg.n_particles} electrons on "
              f"{cfg.n_cells} triangles, ωp = {cfg.plasma_frequency:.3f}")
        print(f"field energy first/min/max: {e[0]:.3e} / {min(e):.3e} "
              f"/ {max(e):.3e}")
    return 0


def _verify_app(app: str, steps: Optional[int], quiet: bool) -> int:
    """Run one app's smoke problem under the sanitizer backend at one
    rank and at two."""
    from repro.apps.advec import AdvecConfig, DistributedAdvec
    from repro.apps.cabana import CabanaConfig
    from repro.apps.cabana.distributed import DistributedCabana
    from repro.apps.fempic import FemPicConfig
    from repro.apps.fempic.distributed import DistributedFemPic
    from repro.apps.twod import DistributedTwoD, TwoDConfig
    cls, cfg = {
        "fempic": (DistributedFemPic, FemPicConfig.smoke()),
        "cabana": (DistributedCabana, CabanaConfig.smoke()),
        "twod": (DistributedTwoD, TwoDConfig(nx=4, ny=4, ppc=2,
                                             n_steps=5)),
        "advec": (DistributedAdvec, AdvecConfig(nx=6, ny=6, ppc=2,
                                                n_steps=5)),
    }[app]
    cfg = cfg.scaled(backend="sanitizer", n_steps=steps or cfg.n_steps)
    status = 0
    for nranks in (1, 2):
        sim = cls(cfg, nranks=nranks)
        sim.run()
        for rk in sim.ranks:
            backend = rk.ctx.backend
            if not quiet or backend.violations:
                where = f" rank {rk.r}/{nranks}" if nranks > 1 else ""
                print(f"{app}{where}: {backend.report()}")
            status |= bool(backend.violations)
    return status


def _run_verify(args) -> int:
    if not args.app and not args.conformance and not args.dist_conformance:
        print("error: verify needs --app, --conformance and/or "
              "--dist-conformance", file=sys.stderr)
        return 2
    status = 0
    if args.app:
        apps = (["fempic", "cabana", "advec", "twod"]
                if args.app == "all" else [args.app])
        for app in apps:
            status |= _verify_app(app, args.steps, args.quiet)
    if args.conformance:
        from repro.verify import ConformanceFailure, run_conformance
        from repro.verify.conformance import DEFAULT_BACKENDS
        progress = None if args.quiet else print
        try:
            report = run_conformance(
                n_cases=args.cases, seed=args.seed,
                backends=tuple(args.backends) if args.backends else
                DEFAULT_BACKENDS,
                progress=progress, shrink=not args.no_shrink,
                strategy=args.strategy)
        except ConformanceFailure as failure:
            print(f"conformance FAILED:\n{failure}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"conformance: {report['cases']} cases x "
                  f"{len(report['backends'])} backend(s) "
                  f"({report['executions']} executions) all match seq")
            tier = report["native"]
            if "vec" in report["backends"]:
                print(f"  native vec: {tier['exact_cases']} case(s) "
                      "bit-equal to seq (rtol = atol = 0), "
                      f"{tier['inexact_cases']} with a named inexact op, "
                      f"{tier['declined_cases']} declined")
                for reason, count in sorted(tier["declined"].items()):
                    print(f"    declined in {count} case(s): {reason}")
    if args.dist_conformance:
        from repro.verify import (DistConformanceFailure,
                                  run_dist_conformance)
        progress = None if args.quiet else print
        try:
            report = run_dist_conformance(
                n_cases=args.cases, seed=args.seed,
                transport=args.transport, progress=progress,
                shrink=not args.no_shrink)
        except DistConformanceFailure as failure:
            print(f"distributed conformance FAILED:\n{failure}",
                  file=sys.stderr)
            return 1
        if not args.quiet:
            counts = "/".join(f"{r}-rank"
                              for r in report["rank_counts"])
            print(f"distributed conformance: {report['cases']} cases "
                  f"({counts}, {'/'.join(report['backends'])}) over "
                  f"{report['transport']!r} transport all match the "
                  "1-rank seq oracle")
    return status


def _run_validate(args) -> int:
    import json

    from repro.validate import GATE_APPS, run_physics_gates
    apps = GATE_APPS if args.app == "all" else (args.app,)
    status = 0
    for app in apps:
        if args.transport is not None and app != "twostream":
            continue      # transports only apply to the dist-capable app
        report = run_physics_gates(
            app, backend=args.backend, transport=args.transport,
            profile=args.profile)
        if args.json:
            print(json.dumps(report.to_dict()))
        elif not args.quiet or not report.ok:
            print(report.summary())
        status |= 0 if report.ok else 1
    return status


def _serve_smoke(args) -> int:
    """End-to-end self-test of the job service on an ephemeral port:
    a tiny multi-tenant job mix, then an injected mid-job worker kill
    whose recovered result must be bit-equal to the uninterrupted run."""
    from repro.service import Client, start_server_thread
    say = (lambda *a: None) if args.quiet else print
    handle = start_server_thread(host=args.host, port=0,
                                 n_workers=max(2, args.pool_ranks),
                                 default_backend=args.backend)
    status = 0
    try:
        with Client(handle.host, handle.port) as client:
            client.ping()
            say(f"service up on {handle.host}:{handle.port} with "
                f"{max(2, args.pool_ranks)} workers; apps: "
                f"{sorted(client.schemas())}")
            tiny = [client.submit(
                {"app": "advec", "tenant": f"tenant{i % 2}",
                 "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 10}})
                for i in range(4)]
            tiny.append(client.submit(
                {"app": "landau", "tenant": "tenant2",
                 "params": {"nz": 24, "ppc": 30, "n_steps": 10}}))
            for job_id in tiny:
                res = client.result(job_id, timeout=120)
                say(f"  {job_id} [{res['app']}]: done "
                    f"({res['result']['steps']} steps)")
            fem = {"app": "fempic", "tenant": "tenant3",
                   "params": {"nx": 2, "ny": 2, "nz": 6,
                              "plasma_den": 2000.0, "n0": 2000.0,
                              "n_steps": 12},
                   "checkpoint_every": 3}
            baseline = client.result(client.submit(fem), timeout=300)
            injected = dict(fem, die_at_step=8)
            recovered = client.result(client.submit(injected),
                                      timeout=300)
            same = (recovered["result"]["history"]
                    == baseline["result"]["history"])
            say(f"  kill-recovery: rescues={recovered['rescues']} "
                f"placements={recovered['placements']} "
                f"history bit-equal={same}")
            if recovered["rescues"] < 1 or not same:
                print("serve --smoke FAILED: recovered fempic run "
                      "does not match the uninterrupted baseline",
                      file=sys.stderr)
                status = 1
            stats = client.stats()
            say(f"  stats: {stats['counters']}")
            client.shutdown()
    finally:
        handle.stop()
    if status == 0:
        say("serve --smoke OK")
    return status


def _run_serve(args) -> int:
    if args.smoke:
        return _serve_smoke(args)
    import asyncio

    from repro.service.server import ServiceServer

    async def _main() -> None:
        server = ServiceServer(host=args.host, port=args.port,
                               n_workers=args.pool_ranks,
                               default_backend=args.backend)
        await server.start()
        if not args.quiet:
            print(f"PIC service listening on {server.host}:"
                  f"{server.port} ({args.pool_ranks} warm workers"
                  + (f", default backend {args.backend}"
                     if args.backend else "") + ")")
            print("submit NDJSON jobs with repro.service.Client; "
                  "stop with the 'shutdown' op or Ctrl-C")
        try:
            await server.stopped.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _run_mesh(args) -> int:
    from repro.mesh import duct_mesh, save_mesh
    mesh = duct_mesh(args.nx, args.ny, args.nz, args.lx, args.ly, args.lz)
    path = save_mesh(mesh, args.out)
    print(f"wrote {mesh.n_cells} cells / {mesh.n_nodes} nodes to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fempic":
        return _run_fempic(args)
    if args.command == "cabana":
        return _run_cabana(args)
    if args.command == "advec":
        return _run_advec(args)
    if args.command == "twod":
        return _run_twod(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "serve":
        return _run_serve(args)
    return _run_mesh(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
