"""Incremental cell-sortedness tracking (:class:`ParticleOrder`).

The tracker is pure bookkeeping plus one cheap O(n) monotone check, so
these tests drive it both directly (hook-level state transitions) and
through the real mutation paths — injection, hole-filling removal,
sorting — asserting the order dirties and re-validates exactly when the
storage layout actually changes.
"""
import numpy as np
import pytest

from repro.core.api import (ParticleOrder, decl_dat, decl_map,
                            decl_particle_set, decl_set, shuffle_particles,
                            sort_particles_by_cell)


def make(cell_ids):
    cells = decl_set(int(max(cell_ids)) + 1 if len(cell_ids) else 1)
    p = decl_particle_set(cells, len(cell_ids))
    m = decl_map(p, cells, 1, np.asarray(cell_ids).reshape(-1, 1))
    d = decl_dat(p, 1, np.float64, np.arange(float(len(cell_ids))))
    return cells, p, m, d


def test_fresh_set_is_unsorted():
    _, p, _, _ = make([0, 1, 2])
    assert isinstance(p.order, ParticleOrder)
    assert not p.order.claims_sorted
    assert not p.order.is_valid()


def test_sort_marks_valid_and_bumps_epoch():
    _, p, m, _ = make([2, 0, 1, 0])
    epoch = p.order.sort_epoch
    sort_particles_by_cell(p)
    assert p.order.claims_sorted
    assert p.order.is_valid()
    assert p.order.sort_epoch == epoch + 1
    assert p.order.dirty == 0
    assert (np.diff(m.p2c) >= 0).all()


def test_is_valid_verdict_is_cached_per_mutation_state():
    _, p, _, _ = make([1, 0, 2])
    sort_particles_by_cell(p)
    assert p.order.is_valid()
    state = (p.order.mutations, p.size)
    assert p.order._verified_at == state
    # a second call with no mutations hits the cached verdict
    assert p.order.is_valid()
    assert p.order._verified_at == state


def test_direct_p2c_write_is_caught_by_validation():
    """The DH overlay writes p2c directly, bypassing the hooks; a
    claims-sorted order must still fail the live monotone check."""
    _, p, m, _ = make([0, 1, 2, 3])
    sort_particles_by_cell(p)
    assert p.order.is_valid()
    m.p2c[0] = 3          # silently break monotonicity
    p.order.mutations += 1   # any hooked mutation invalidates the cache
    assert not p.order.is_valid()
    assert not p.order.claims_sorted   # check self-invalidated


def test_note_relocated_dirties_but_zero_is_free():
    _, p, _, _ = make([0, 0, 1, 1])
    sort_particles_by_cell(p)
    p.order.note_relocated(0)
    assert p.order.claims_sorted        # nothing actually moved
    p.order.note_relocated(3)
    assert p.order.dirty == 3
    assert not p.order.claims_sorted
    assert p.order.dirty_fraction == pytest.approx(3 / 4)


def test_dirty_fraction_saturates_at_one():
    _, p, _, _ = make([0, 1])
    p.order.note_relocated(100)
    assert p.order.dirty_fraction == 1.0


def test_invalidate_counts_and_resets():
    _, p, _, _ = make([0, 1, 2])
    sort_particles_by_cell(p)
    p.order.invalidate()
    assert p.order.n_invalidations == 1
    assert p.order.dirty == p.size
    assert not p.order.is_valid()
    # invalidating an already-invalid order is not double-counted
    p.order.invalidate()
    assert p.order.n_invalidations == 1


def test_shuffle_invalidates_order():
    _, p, _, _ = make([0, 0, 1, 1, 2, 2])
    sort_particles_by_cell(p)
    shuffle_particles(p, np.random.default_rng(7))
    assert not p.order.claims_sorted


# -- interleavings through the real mutation paths ----------------------------


def test_injection_dirties_then_resort_revalidates():
    cells = decl_set(4)
    p = decl_particle_set(cells, 0)
    m = decl_map(p, cells, 1, None)
    decl_dat(p, 1, np.float64)
    p.add_particles(6, np.array([0, 0, 1, 2, 3, 3]))
    p.end_injection()
    sort_particles_by_cell(p)
    assert p.order.is_valid()
    # inject into an interior cell: appended at the tail => out of order
    p.add_particles(2, np.array([1, 1]))
    p.end_injection()
    assert p.order.dirty == 2
    assert not p.order.is_valid()
    sort_particles_by_cell(p)
    assert p.order.is_valid()
    assert (np.diff(m.p2c[: p.size]) >= 0).all()


def test_tail_removal_keeps_sorted_hole_fill_dirties():
    _, p, m, _ = make([0, 0, 1, 1, 2, 2])
    sort_particles_by_cell(p)
    # removing the tail fills no holes: order survives
    p.remove_particles(np.array([4, 5]))
    assert p.order.claims_sorted
    assert p.order.is_valid()
    # removing from the middle teleports a tail particle into the hole
    p.remove_particles(np.array([0]))
    assert p.order.dirty >= 1
    assert not p.order.claims_sorted
    sort_particles_by_cell(p)
    assert p.order.is_valid()


def test_sort_with_dead_rows_fails_validation():
    """A sort over -1 (dead) p2c rows leaves them in front: the order may
    claim sorted but must not validate as a usable segment layout."""
    _, p, m, _ = make([1, 0, 2])
    m.p2c[1] = -1
    keys = m.p2c[: p.size]
    p.compact_reorder(np.argsort(keys, kind="stable"))
    p.order.mark_sorted()
    assert p.order.claims_sorted
    assert not p.order.is_valid()      # -1 rows sorted to the front


def test_state_key_distinguishes_mutation_states():
    _, p, _, _ = make([0, 1, 2])
    sort_particles_by_cell(p)
    s0 = p.order.state
    p.order.note_relocated(1)
    s1 = p.order.state
    assert s0 != s1
    sort_particles_by_cell(p)
    assert p.order.state not in (s0, s1)


def test_zero_relocation_changes_the_state_key_but_keeps_sorted():
    """Any hooked mutation re-keys what was derived from the order, even
    one that leaves the set sorted."""
    _, p, _, _ = make([1, 0, 1, 0])
    sort_particles_by_cell(p)
    s0 = p.order.state
    p.order.note_relocated(0)
    assert p.order.state != s0
    assert p.order.is_valid()
