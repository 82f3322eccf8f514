"""Locality-engine regression gate: sorted segmented deposits vs
atomics, bitwise conformance, and the fused move+deposit step time.

Three claims the CI gate pins (``BENCH_locality.json``):

1. on a cell-sorted particle set the ``segmented_presorted`` fast path
   beats the atomics (``np.add.at``) deposit by a healthy margin —
   the tentpole's reason to exist;
2. the fast path is *bit-identical* to the sequential oracle on
   integer-valued data (on general floats ``np.add.reduceat``
   reassociates segment sums, so exactness-under-integer-data is the
   strongest machine-checkable form of "same sums, different order");
3. fusing the FEM-PIC deposit into the move loop reproduces the
   unfused physics and does not regress the step time.

Script mode (what CI runs)::

    python benchmarks/bench_locality.py --out /tmp/locality.json
    python benchmarks/check_regression.py BENCH_locality.json \
        /tmp/locality.json --tolerance 0.25

``--sparse`` runs the Matrix-PIC section instead: the cabana current
deposit under a *moving* particle population (a slice of the set changes
cell every step, exactly what the push does), comparing the maintained
``sparse_csr`` operator against ``segmented_presorted`` — which must
re-sort every step to keep its segments — and against plain atomics.
The committed ``BENCH_sparse.json`` baseline gates the ≥2× claim via
``check_regression.py --min-ratio``::

    python benchmarks/bench_locality.py --sparse --out /tmp/sparse.json
    python benchmarks/check_regression.py BENCH_sparse.json \
        /tmp/sparse.json --tolerance 0.4 \
        --min-ratio seconds.deposit_segmented/seconds.deposit_sparse=2.0

Every arm here — the ``atomics`` ones included — runs on ``vec``'s
**NumPy target** (``native.CC = None``): the sorted-segment and
Matrix-PIC engines are mechanisms of that target, and the gates compare
them with *its* atomics deposit.  (Plain ``vec`` would otherwise run the
atomics arm as compiled C; that comparison is recorded once, in
docs/performance_model.md "Native tier", and is not a gate.)
"""
import time

import numpy as np

try:
    from .common import write_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import write_json

N_PARTS = 120_000
N_CELLS = 400          # ~300 particles per cell: deep atomic collisions
DEPOSIT_REPEATS = 5


def deposit_kernel(w, acc):
    acc[0] += w[0]
    acc[1] += 2.0 * w[0]
    acc[2] += w[0] * w[0]


def build_world(n_parts=N_PARTS, n_cells=N_CELLS, seed=0):
    from repro.core.api import (decl_dat, decl_map, decl_particle_set,
                                decl_set, sort_particles_by_cell)
    rng = np.random.default_rng(seed)
    cells = decl_set(n_cells)
    parts = decl_particle_set(cells, n_parts)
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, n_cells, size=(n_parts, 1)))
    # integer-valued floats: every partial sum is exact, so segment-sum
    # reassociation cannot show up as a bit difference
    w = decl_dat(parts, 1, np.float64,
                 rng.integers(-8, 9, size=n_parts).astype(np.float64))
    acc = decl_dat(cells, 3, np.float64)
    sort_particles_by_cell(parts)
    return parts, p2c, w, acc


def timed_deposit(backend_options, repeats=DEPOSIT_REPEATS):
    """Best-of-N wall time of one sorted deposit loop; returns the
    final accumulator of the last run for the conformance check."""
    from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ,
                                Context, arg_dat, par_loop, push_context)
    ctx = Context(**backend_options)
    best = float("inf")
    with push_context(ctx):
        parts, p2c, w, acc = build_world()
        for _ in range(repeats):
            acc.data[:] = 0.0
            t0 = time.perf_counter()
            par_loop(deposit_kernel, "LocalityDeposit", parts,
                     OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                     arg_dat(acc, p2c, OPP_INC))
            best = min(best, time.perf_counter() - t0)
    return best, acc.data.copy()


def timed_fempic(fused: bool, steps: int = 6):
    from repro.apps.fempic import FemPicConfig, FemPicSimulation
    cfg = FemPicConfig(nx=2, ny=2, nz=6, n_steps=steps, dt=0.3,
                       plasma_den=2e3, n0=2e3, backend="vec",
                       move_strategy="dh", fuse_move=fused)
    cell_volume = (cfg.lx * cfg.ly * cfg.lz) / cfg.n_cells
    cfg = cfg.scaled(spwt=cfg.n0 * cell_volume / 150)
    sim = FemPicSimulation(cfg)
    sim.seed_uniform_plasma(150)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, sim


def _pin_numpy_target() -> None:
    from repro.translator import native
    native.CC = None


def locality_payload() -> dict:
    _pin_numpy_target()
    # the oracle: elemental seq execution, strict left-to-right order
    _, acc_seq = timed_deposit({"backend": "seq"}, repeats=1)
    # atomics slow path (np.add.at) vs the sorted fast path, identical
    # sorted particle state in both
    t_atomics, acc_atomics = timed_deposit(
        {"backend": "vec", "strategy": "atomics"})
    t_sorted, acc_sorted = timed_deposit(
        {"backend": "vec", "locality": "always"})

    t_plain, plain = timed_fempic(fused=False)
    t_fused, fused = timed_fempic(fused=True)
    fused_ok = plain.parts.size == fused.parts.size and all(
        np.allclose(getattr(fused, a).data, getattr(plain, a).data,
                    rtol=1e-9, atol=1e-18)
        for a in ("phi", "ncd", "nw", "ef", "pos", "vel", "lc"))

    return {
        "bench": "locality",
        "config": {"n_parts": N_PARTS, "n_cells": N_CELLS,
                   "deposit_repeats": DEPOSIT_REPEATS,
                   "fempic_steps": 6, "fempic_ppc": 150},
        "seconds": {
            "deposit_atomics": t_atomics,
            "deposit_sorted": t_sorted,
            "fempic_step_unfused": t_plain,
            "fempic_step_fused": t_fused,
        },
        "metrics": {
            "speedup_sorted_deposit_vs_atomics": t_atomics / t_sorted,
            "bit_equal_presorted":
                bool(np.array_equal(acc_sorted, acc_seq)
                     and np.array_equal(acc_atomics, acc_seq)),
            "allclose_fused_vs_unfused": fused_ok,
            "fused_move_step_speedup": t_plain / t_fused,
            "n_particles_final": int(fused.parts.size),
        },
        #: metrics check_regression.py gates on (direction-aware)
        "gates": [
            {"metric": "speedup_sorted_deposit_vs_atomics",
             "direction": "higher"},
            {"metric": "bit_equal_presorted", "direction": "bool"},
            {"metric": "allclose_fused_vs_unfused", "direction": "bool"},
            {"metric": "fused_move_step_speedup", "direction": "higher"},
        ],
    }


# -- the Matrix-PIC sparse-operator section (--sparse) -----------------------
#
# The deposit above measures a *static* sorted population — the best case
# for segmented_presorted.  Real PIC steps move particles, and that is
# where the operator formulation wins: segmented must re-sort the whole
# set (argsort + permuting every particle dat) to restore its segments,
# while the CSR operator patches only the rows whose cell changed and
# runs one compiled P.T @ q product.

SPARSE_N_PARTS = 150_000     # ≥ 1e5 per the acceptance criterion
SPARSE_N_CELLS = 1_000
SPARSE_STEPS = 6
SPARSE_MOVE_FRAC = 0.05      # fraction of particles changing cell per step


def build_sparse_world(n_parts=SPARSE_N_PARTS, n_cells=SPARSE_N_CELLS,
                       seed=3):
    from repro.core.api import (decl_dat, decl_map, decl_particle_set,
                                decl_set, sort_particles_by_cell)
    rng = np.random.default_rng(seed)
    cells = decl_set(n_cells)
    parts = decl_particle_set(cells, n_parts)
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, n_cells, size=(n_parts, 1)))
    # integer-valued floats: every reduction order gives bit-identical
    # sums, so cross-strategy equality is machine-checkable
    seg = decl_dat(parts, 3, np.float64,
                   rng.integers(-8, 9, size=(n_parts, 3)).astype(np.float64))
    acc = decl_dat(cells, 3, np.float64)
    ef = decl_dat(cells, 3, np.float64, rng.standard_normal((n_cells, 3)))
    pf = decl_dat(parts, 3, np.float64)
    # rider dats matching the real cabana particle record (position,
    # displacement, velocity, weight, interpolation coefficients): every
    # re-sort must permute them all, which is precisely the cost the
    # operator formulation avoids
    for dim in (3, 3, 3, 1, 12):
        decl_dat(parts, dim, np.float64)
    sort_particles_by_cell(parts)
    return parts, p2c, seg, acc, ef, pf


def gather_field_kernel(e, out):
    out[0] = e[0]
    out[1] = e[1]
    out[2] = e[2]


def timed_sparse_scenario(backend_options, steps=SPARSE_STEPS,
                          move_frac=SPARSE_MOVE_FRAC, seed=7):
    """Per-step deposit + gather cost of one strategy under churn.

    Every step relocates ``move_frac`` of the particles (what the push
    does to the cell map), then runs the cabana current-deposit loop and
    a field-gather loop.  Returns per-step deposit/gather seconds —
    including whatever re-sorting or operator refreshing the strategy
    triggers inside the loop — plus bit-equality of the final deposit
    and gather against a straight ``np.add.at`` / fancy-index reference
    on the same particle state.
    """
    from repro.apps.cabana.kernels import deposit_current_kernel
    from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ,
                                OPP_WRITE, Context, arg_dat, par_loop,
                                push_context)
    ctx = Context(**backend_options)
    t_dep = t_gat = 0.0
    with push_context(ctx):
        parts, p2c, seg, acc, ef, pf = build_sparse_world()
        rng = np.random.default_rng(seed)
        n = parts.size

        def run_loops():
            acc.data[:] = 0.0
            t0 = time.perf_counter()
            par_loop(deposit_current_kernel, "SparseBenchDeposit", parts,
                     OPP_ITERATE_ALL, arg_dat(seg, OPP_READ),
                     arg_dat(acc, p2c, OPP_INC))
            t1 = time.perf_counter()
            par_loop(gather_field_kernel, "SparseBenchGather", parts,
                     OPP_ITERATE_ALL, arg_dat(ef, p2c, OPP_READ),
                     arg_dat(pf, OPP_WRITE))
            t2 = time.perf_counter()
            return t1 - t0, t2 - t1

        run_loops()             # warm-up: codegen + plan/operator build
        for _ in range(steps):
            k = int(move_frac * n)
            idx = rng.choice(n, size=k, replace=False)
            p2c.p2c[idx] = rng.integers(0, SPARSE_N_CELLS, size=k)
            parts.order.note_relocated(k)
            dt_dep, dt_gat = run_loops()
            t_dep += dt_dep
            t_gat += dt_gat

        # sorting permutes particle storage, so the reference is computed
        # against each run's *own* final state (bitwise, not cross-run)
        ref_acc = np.zeros_like(acc.data)
        np.add.at(ref_acc, p2c.p2c, seg.data)
        dep_ok = bool(np.array_equal(acc.data, ref_acc))
        gat_ok = bool(np.array_equal(pf.data, ef.data[p2c.p2c]))
    return t_dep / steps, t_gat / steps, dep_ok, gat_ok


def sparse_payload() -> dict:
    _pin_numpy_target()
    t_seg, g_seg, seg_dep_ok, seg_gat_ok = timed_sparse_scenario(
        {"backend": "vec", "locality": "always"})
    t_sparse, g_sparse, sp_dep_ok, sp_gat_ok = timed_sparse_scenario(
        {"backend": "vec", "strategy": "sparse_csr"})
    t_atomics, g_plain, at_dep_ok, at_gat_ok = timed_sparse_scenario(
        {"backend": "vec", "strategy": "atomics"})

    return {
        "bench": "sparse",
        "config": {"n_parts": SPARSE_N_PARTS, "n_cells": SPARSE_N_CELLS,
                   "steps": SPARSE_STEPS, "move_frac": SPARSE_MOVE_FRAC,
                   "kernel": "cabana deposit_current_kernel"},
        "seconds": {
            "deposit_sparse": t_sparse,
            "deposit_segmented": t_seg,
            "deposit_atomics": t_atomics,
            "gather_sparse": g_sparse,
            "gather_segmented": g_seg,
            "gather_indexed": g_plain,
        },
        "metrics": {
            "speedup_sparse_vs_segmented": t_seg / t_sparse,
            "speedup_sparse_vs_atomics": t_atomics / t_sparse,
            "gather_speedup_sparse_vs_indexed": g_plain / g_sparse,
            "bit_equal_sparse_deposit": sp_dep_ok,
            "bit_equal_segmented_deposit": seg_dep_ok,
            "bit_equal_atomics_deposit": at_dep_ok,
            "bit_equal_gathers":
                bool(sp_gat_ok and seg_gat_ok and at_gat_ok),
        },
        "gates": [
            # the tentpole claim: ≥2× over segmented_presorted on the
            # cabana current deposit under churn (absolute floor, does
            # not drift with the baseline)
            {"direction": "min_ratio",
             "numerator": "seconds.deposit_segmented",
             "denominator": "seconds.deposit_sparse", "min": 2.0},
            {"metric": "bit_equal_sparse_deposit", "direction": "bool"},
            {"metric": "bit_equal_segmented_deposit", "direction": "bool"},
            {"metric": "bit_equal_atomics_deposit", "direction": "bool"},
            {"metric": "bit_equal_gathers", "direction": "bool"},
        ],
    }


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="locality-engine smoke benchmark (JSON payload)")
    parser.add_argument("--out", default=None,
                        help="write payload to this path "
                             "(default results/<bench>.json)")
    parser.add_argument("--sparse", action="store_true",
                        help="run the Matrix-PIC sparse-operator section "
                             "instead of the locality section")
    args = parser.parse_args(argv)
    if args.sparse:
        payload = sparse_payload()
        path = write_json("sparse", payload, out=args.out)
        m = payload["metrics"]
        print(f"wrote {path}")
        print(f"  sparse deposit speedup vs segmented (moving set): "
              f"{m['speedup_sparse_vs_segmented']:.2f}x")
        print(f"  sparse deposit speedup vs atomics: "
              f"{m['speedup_sparse_vs_atomics']:.2f}x")
        print(f"  sparse gather speedup vs indexed: "
              f"{m['gather_speedup_sparse_vs_indexed']:.2f}x")
        print(f"  bit-equal deposits (integer-valued data): "
              f"{m['bit_equal_sparse_deposit']}")
        print(f"  bit-equal gathers: {m['bit_equal_gathers']}")
        return 0
    payload = locality_payload()
    path = write_json("locality", payload, out=args.out)
    m = payload["metrics"]
    print(f"wrote {path}")
    print(f"  sorted-deposit speedup vs atomics: "
          f"{m['speedup_sorted_deposit_vs_atomics']:.2f}x")
    print(f"  bit-equal (integer data): {m['bit_equal_presorted']}")
    print(f"  fused == unfused physics: {m['allclose_fused_vs_unfused']}")
    print(f"  fused step speedup: {m['fused_move_step_speedup']:.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
