"""Sets and particle sets: sizing, capacity, injection, hole filling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import decl_dat, decl_map, decl_particle_set, decl_set


def test_set_basics():
    s = decl_set(10, "cells")
    assert len(s) == 10
    assert s.owned_size == 10
    assert not s.is_particle_set


def test_set_rejects_negative_size():
    with pytest.raises(ValueError):
        decl_set(-1)


def test_owned_size_clamps():
    s = decl_set(10)
    s.owned_size = 7
    assert s.owned_size == 7
    with pytest.raises(ValueError):
        s.owned_size = 11
    with pytest.raises(ValueError):
        s.owned_size = -1


def test_particle_set_requires_mesh_set():
    cells = decl_set(4)
    p = decl_particle_set(cells, 0, "parts")
    with pytest.raises(TypeError):
        decl_particle_set(p, 0, "parts_on_parts")


def test_particle_owned_size_tracks_size():
    cells = decl_set(4)
    p = decl_particle_set(cells, 3)
    assert p.owned_size == 3
    p.add_particles(5)
    assert p.owned_size == 8


def test_add_particles_grows_capacity_and_zeroes():
    cells = decl_set(4)
    p = decl_particle_set(cells, 0)
    d = decl_dat(p, 2, np.float64)
    m = decl_map(p, cells, 1, None)
    p.add_particles(100, cell_indices=np.zeros(100, dtype=int))
    assert p.size == 100
    assert p.capacity >= 100
    assert (d.data == 0).all()
    assert (m.p2c == 0).all()


def test_add_particles_without_cells_marks_unassigned():
    cells = decl_set(4)
    p = decl_particle_set(cells, 0)
    decl_map(p, cells, 1, None)
    p.add_particles(3)
    assert (p.p2c_map.p2c == -1).all()


def test_injection_window():
    cells = decl_set(4)
    p = decl_particle_set(cells, 5)
    p.begin_injection()
    p.add_particles(3)
    assert p.injected_start == 5
    assert p.n_injected == 3
    p.end_injection()
    assert p.n_injected == 0


def test_remove_particles_hole_fill():
    cells = decl_set(4)
    p = decl_particle_set(cells, 6)
    d = decl_dat(p, 1, np.float64, np.arange(6.0))
    m = decl_map(p, cells, 1, np.arange(6) % 4)
    p.remove_particles(np.array([1, 4]))
    assert p.size == 4
    # survivors are {0,2,3,5} in some order
    assert sorted(d.data[:, 0].tolist()) == [0.0, 2.0, 3.0, 5.0]
    # map rows stayed aligned with dat rows
    assert all(int(m.p2c[i]) == int(d.data[i, 0]) % 4 for i in range(4))


def test_remove_all_particles():
    cells = decl_set(2)
    p = decl_particle_set(cells, 4)
    decl_dat(p, 1, np.float64, np.arange(4.0))
    p.remove_particles(np.arange(4))
    assert p.size == 0


def test_remove_out_of_range_raises():
    cells = decl_set(2)
    p = decl_particle_set(cells, 4)
    with pytest.raises(IndexError):
        p.remove_particles(np.array([4]))


def test_compact_reorder_permutes_all_dats():
    cells = decl_set(3)
    p = decl_particle_set(cells, 4)
    d = decl_dat(p, 1, np.float64, np.arange(4.0))
    m = decl_map(p, cells, 1, [[0], [1], [2], [0]])
    p.compact_reorder(np.array([3, 2, 1, 0]))
    assert d.data[:, 0].tolist() == [3.0, 2.0, 1.0, 0.0]
    assert m.p2c.tolist() == [0, 2, 1, 0]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 50),
       frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_remove_particles_preserves_survivor_multiset(n, frac, seed):
    """Property: hole filling never loses or duplicates surviving rows."""
    rng = np.random.default_rng(seed)
    cells = decl_set(4)
    p = decl_particle_set(cells, n)
    d = decl_dat(p, 1, np.float64, np.arange(float(n)))
    kill = np.flatnonzero(rng.random(n) < frac)
    survivors = sorted(set(range(n)) - set(kill.tolist()))
    p.remove_particles(kill)
    assert p.size == len(survivors)
    assert sorted(d.data[:, 0].astype(int).tolist()) == survivors


# -- the hole filler against its earlier form ------------------------------

def oracle_remove(p, indices):
    """The earlier ``remove_particles``: ``np.unique``, ``np.setdiff1d``
    and 2-D fancy row copies.  The new one must match it byte for byte."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return
    indices = np.unique(indices)
    if indices.size and (indices[0] < 0 or indices[-1] >= p.size):
        raise IndexError("particle removal index out of range")
    new_size = p.size - indices.size
    holes = indices[indices < new_size]
    tail = np.arange(new_size, p.size, dtype=np.int64)
    movers = np.setdiff1d(tail, indices[indices >= new_size],
                          assume_unique=True)
    for dat in p.dats:
        dat._raw[holes] = dat._raw[movers]
    if p.p2c_map is not None:
        p.p2c_map._raw[holes] = p.p2c_map._raw[movers]
    p.size = new_size
    p.injected_start = min(p.injected_start, new_size)


def oracle_reorder(p, order):
    """The earlier ``compact_reorder``."""
    order = np.asarray(order, dtype=np.int64)
    for dat in p.dats:
        dat._raw[: p.size] = dat._raw[order]
    if p.p2c_map is not None:
        p.p2c_map._raw[: p.size] = p.p2c_map._raw[order]


def random_bits(rng, shape, dtype):
    """Arbitrary bit patterns: NaNs with payloads, infinities,
    subnormals and ``-0.0`` for float64."""
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=shape, dtype=np.int64, endpoint=True)
    return bits.view(dtype)


def build(layout, n, grow, injected, with_p2c, seed):
    """A particle set of ``n`` live rows (capacity past ``n + grow``) with
    one dat per ``(dtype, dim)`` of ``layout`` filled with random bits,
    the first float64 row holding a NaN payload and ``-0.0``."""
    rng = np.random.default_rng(seed)
    cells = decl_set(7)
    p = decl_particle_set(cells, 0)
    dats = [decl_dat(p, dim, dtype, name=f"d{i}")
            for i, (dtype, dim) in enumerate(layout)]
    if with_p2c:
        decl_map(p, cells, 1, None, "p2c")
    p.add_particles(n + grow)
    for dat in dats:
        dat._raw[...] = random_bits(rng, dat._raw.shape, dat.dtype)
        if dat.dtype == np.float64:
            dat._raw[0, 0] = np.int64(0x7FF0_0000_DEAD_BEEF).view(np.float64)
            dat._raw[-1, -1] = -0.0
    if with_p2c:
        p.p2c_map._raw[...] = rng.integers(-1, 7, p.p2c_map._raw.shape)
    p.size = n
    p.injected_start = min(injected, n)
    return p


def state(p):
    """Everything hole filling may change, as bytes and counters."""
    arrays = [d._raw.tobytes() for d in p.dats]
    if p.p2c_map is not None:
        arrays.append(p.p2c_map._raw.tobytes())
    return arrays, p.size, p.injected_start


def removal_indices(kind, n, rng):
    k = int(rng.integers(1, n + 1))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "all":
        return np.arange(n)
    if kind == "tail":
        return np.arange(n - k, n)
    if kind == "holes":          # every removed row below the new size
        k = int(rng.integers(1, n // 2 + 1)) if n > 1 else 0
        return np.sort(rng.choice(n - k, k, replace=False))
    if kind == "sorted":
        return np.sort(rng.choice(n, k, replace=False))
    if kind == "unsorted":
        return rng.permutation(rng.choice(n, k, replace=False))
    assert kind == "duplicated"
    return rng.integers(0, n, size=k + 2)


LAYOUT = st.lists(st.tuples(st.sampled_from([np.float64, np.int64]),
                            st.integers(1, 4)), min_size=1, max_size=4)
KINDS = ["sorted", "unsorted", "duplicated", "empty", "all", "tail",
         "holes"]


@settings(max_examples=200, deadline=None)
@given(layout=LAYOUT, n=st.integers(1, 60), grow=st.integers(0, 20),
       injected=st.integers(0, 80), with_p2c=st.booleans(),
       kind=st.sampled_from(KINDS), as_list=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_remove_particles_byte_equal_to_oracle(layout, n, grow, injected,
                                               with_p2c, kind, as_list,
                                               seed):
    new = build(layout, n, grow, injected, with_p2c, seed)
    old = build(layout, n, grow, injected, with_p2c, seed)
    assert state(new) == state(old)
    indices = removal_indices(kind, n, np.random.default_rng(seed))
    if as_list:
        indices = indices.tolist()
    new.remove_particles(indices)
    oracle_remove(old, indices)
    assert state(new) == state(old)


def test_remove_particles_with_a_non_contiguous_dat():
    """An array that is not C-contiguous takes plain fancy indexing."""
    sets = []
    for _ in range(2):
        p = build([(np.float64, 3), (np.int64, 2)], 40, 0, 40, True, 5)
        p.dats[0]._raw = np.asfortranarray(p.dats[0]._raw)
        assert not p.dats[0]._raw.flags.c_contiguous
        sets.append(p)
    kill = [3, 39, 0, 17, 17, 30]
    sets[0].remove_particles(kill)
    oracle_remove(sets[1], kill)
    assert state(sets[0]) == state(sets[1])


@pytest.mark.parametrize("bad", [[-1], [3, -2, 5], [40], [0, 41, 2],
                                 [39, 40], [-100, 100]])
def test_bad_removal_index_raises_and_leaves_the_set(bad):
    p = build([(np.float64, 3), (np.int64, 1)], 40, 5, 30, True, 9)
    before = state(p)
    with pytest.raises(IndexError):
        p.remove_particles(np.array(bad))
    assert state(p) == before


@settings(max_examples=50, deadline=None)
@given(layout=LAYOUT, n=st.integers(1, 60), with_p2c=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_compact_reorder_byte_equal_to_oracle(layout, n, with_p2c, seed):
    new = build(layout, n, 3, n, with_p2c, seed)
    old = build(layout, n, 3, n, with_p2c, seed)
    order = np.random.default_rng(seed).permutation(n)
    new.compact_reorder(order)
    oracle_reorder(old, order)
    assert state(new) == state(old)


def test_sorted_removals_call_neither_unique_nor_setdiff1d(monkeypatch):
    """What every move hands in — strictly increasing indices — takes no
    hash ``np.unique`` and no ``np.setdiff1d``."""
    calls = {"unique": 0, "setdiff1d": 0}
    for name in calls:
        real = getattr(np, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    p = build([(np.float64, 3), (np.float64, 3), (np.float64, 4)],
              5000, 0, 5000, True, 1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p.remove_particles(np.sort(rng.choice(p.size, 20, replace=False)))
    assert p.size == 5000 - 100 * 20
    assert calls == {"unique": 0, "setdiff1d": 0}
