"""Particle locality: sorting particles by cell is invisible to the loops.

``sort_particles_by_cell`` only permutes storage, so a gather + deposit
loop must produce the same cell sums and the same per-particle values on
a sorted and an unsorted set, and every backend must match ``seq`` on a
sorted one.  Bit-identity assertions use *integer-valued* float data:
every partial sum is then exact, so no accumulation order can show up as
a bit difference.
"""
import numpy as np
import pytest

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            Context, arg_dat, decl_dat, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            push_context, sort_particles_by_cell)


def gather_deposit_kernel(e, w, acc):
    w[0] = w[0] + e[0]
    acc[0] += w[0]
    acc[1] += 2.0 * w[0]


def build_loop_world(rng, n_parts=600, n_cells=24, sort=False):
    cells = decl_set(n_cells)
    parts = decl_particle_set(cells, n_parts)
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, n_cells, size=(n_parts, 1)))
    e = decl_dat(cells, 1, np.float64,
                 rng.integers(-4, 5, size=n_cells).astype(np.float64))
    w = decl_dat(parts, 1, np.float64,
                 rng.integers(-8, 9, size=n_parts).astype(np.float64))
    acc = decl_dat(cells, 2, np.float64)
    if sort:
        sort_particles_by_cell(parts)
    return parts, p2c, e, w, acc


def run_gather_deposit(backend, rng_seed, sort, **options):
    rng = np.random.default_rng(rng_seed)
    with push_context(Context(backend, **options)):
        parts, p2c, e, w, acc = build_loop_world(rng, sort=sort)
        par_loop(gather_deposit_kernel, "GatherDeposit", parts,
                 OPP_ITERATE_ALL,
                 arg_dat(e, p2c, OPP_READ),
                 arg_dat(w, OPP_RW),
                 arg_dat(acc, p2c, OPP_INC))
    # pair every particle value with its cell so sorted and unsorted
    # runs compare independently of storage order
    pairs = sorted(zip(p2c.p2c.tolist(), w.data[:, 0].tolist()))
    return acc.data.copy(), pairs


@pytest.mark.parametrize("backend,options", [
    ("seq", {}),
    ("vec", {}),
])
def test_sorted_vs_unsorted_bit_identical(backend, options):
    """On integer-valued data, sorting the particles first must not
    change a single INC deposit bit."""
    acc_u, pairs_u = run_gather_deposit(backend, 1234, False, **options)
    acc_s, pairs_s = run_gather_deposit(backend, 1234, True, **options)
    assert np.array_equal(acc_s, acc_u)
    assert pairs_s == pairs_u


@pytest.mark.parametrize("backend,options", [
    ("vec", {}),
    ("omp", {}),
])
def test_backends_match_seq_bitwise_on_sorted_integer_data(backend,
                                                           options):
    acc_seq, pairs_seq = run_gather_deposit("seq", 77, sort=True)
    acc, pairs = run_gather_deposit(backend, 77, sort=True, **options)
    assert np.array_equal(acc, acc_seq)
    assert pairs == pairs_seq
