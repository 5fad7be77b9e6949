"""Tests for per-VM page state arrays."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import PageSet
from repro.mem.pages import lru_tie_rank


def idx(*vals):
    return np.asarray(vals, dtype=np.int64)


def test_initial_state_untouched():
    ps = PageSet(10)
    assert ps.resident_pages() == 0
    assert ps.swapped_pages() == 0
    assert not (ps.present | ps.swapped).any()
    assert ps.total_bytes == 10 * 4096


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        PageSet(0)
    with pytest.raises(ValueError):
        PageSet(4, page_size=0)


def test_make_resident_and_counts():
    ps = PageSet(10)
    ps.make_resident(idx(1, 3, 5), tick=7)
    assert ps.resident_pages() == 3
    assert ps.resident_bytes() == 3 * 4096
    assert ps.last_access[3] == 7
    ps.check_invariants()


def test_resident_in_range():
    ps = PageSet(10)
    ps.make_resident(idx(0, 1, 2, 8), tick=0)
    assert ps.resident_in(0, 4) == 3
    assert ps.resident_in(4, 10) == 1


def test_swap_out_sets_clean_copy():
    ps = PageSet(4)
    ps.make_resident(idx(0, 1), tick=0)
    ps.swap_out(idx(0))
    assert ps.swapped[0] and not ps.present[0]
    assert ps.swap_clean[0]
    ps.check_invariants()


def test_swap_in_preserves_swap_cache():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.swap_out(idx(0))
    ps.make_resident(idx(0), tick=1)
    # swapped in, not re-dirtied: eviction would be free
    assert ps.present[0] and not ps.swapped[0] and ps.swap_clean[0]


def test_dirty_invalidates_swap_copy():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.swap_out(idx(0))
    ps.make_resident(idx(0), tick=1)
    ps.mark_dirty(idx(0))
    assert ps.dirty[0] and not ps.swap_clean[0]


def test_fresh_page_has_no_swap_copy():
    ps = PageSet(4)
    ps.make_resident(idx(2), tick=0)
    assert not ps.swap_clean[2]


def test_drop_clears_everything():
    ps = PageSet(4)
    ps.make_resident(idx(0, 1), tick=0)
    ps.swap_out(idx(1))
    ps.drop(idx(0, 1))
    assert not (ps.present | ps.swapped).any()
    assert not ps.swap_clean[1]


def test_clear_dirty():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.mark_dirty(idx(0))
    ps.clear_dirty(idx(0))
    assert not ps.dirty[0]


def test_indices_queries():
    ps = PageSet(6)
    ps.make_resident(idx(0, 2), tick=0)
    ps.make_resident(idx(4), tick=0)
    ps.swap_out(idx(4))
    ps.mark_dirty(idx(2))
    assert ps.present_indices().tolist() == [0, 2]
    assert np.flatnonzero(ps.swapped).tolist() == [4]
    assert np.flatnonzero(ps.dirty).tolist() == [2]


def test_lru_candidates_picks_oldest():
    ps = PageSet(5)
    ps.make_resident(idx(0), tick=10)
    ps.make_resident(idx(1), tick=5)
    ps.make_resident(idx(2), tick=20)
    got = set(ps.lru_candidates(2).tolist())
    assert got == {0, 1}


def test_lru_candidates_respects_protect_mask():
    ps = PageSet(5)
    ps.make_resident(idx(0, 1, 2), tick=0)
    protect = np.zeros(5, dtype=bool)
    protect[0] = protect[1] = True
    got = ps.lru_candidates(3, protect=protect)
    assert got.tolist() == [2]


def test_lru_candidates_k_zero_or_empty():
    ps = PageSet(5)
    assert ps.lru_candidates(0).size == 0
    assert ps.lru_candidates(3).size == 0  # nothing resident


def lru_oracle(ps, k, protect=None):
    """The contract by full sort: the ``k`` eligible pages with the
    smallest ``(last_access, tie rank)``, oldest first."""
    eligible = ps.present if protect is None else ps.present & ~protect
    cand = np.flatnonzero(eligible)
    rank = lru_tie_rank(ps.n_pages)
    return cand[np.lexsort((rank[cand], ps.last_access[cand]))][:k]


def random_subset(rng, pool, max_size):
    if pool.size == 0:
        return pool
    size = int(rng.integers(0, min(max_size, pool.size) + 1))
    return rng.choice(pool, size=size, replace=False)


@pytest.mark.parametrize("seed", range(8))
def test_lru_candidates_matches_full_sort_oracle(seed):
    """Lockstep differential: every transition, then the cached order
    must agree with a full sort, including after non-monotonic ticks."""
    rng = np.random.default_rng(seed)
    n = 300
    ps = PageSet(n)
    everything = np.arange(n)
    tick = 0
    for step in range(400):
        tick = max(0, tick + int(rng.integers(-3, 3)))
        op = rng.integers(0, 7)
        if op == 0:
            ps.make_resident(random_subset(rng, everything, 80), tick)
        elif op == 1:
            ps.touch(random_subset(rng, ps.present_indices(), 60), tick)
        elif op == 2:
            ps.swap_out(random_subset(rng, ps.present_indices(), 20))
        elif op == 3:
            ps.drop(random_subset(rng, everything, 10))
        elif op == 4:
            ps.release_resident(random_subset(rng, everything, 10))
        else:
            k = int(rng.integers(0, 60))
            protect = None if step % 3 else rng.random(n) < 0.2
            got = ps.lru_candidates(k, protect=protect)
            want = lru_oracle(ps, k, protect)
            assert got.tolist() == want.tolist(), (seed, step)
            if op == 5:  # evict them, as the memory manager does
                ps.swap_out(got)
        ps.check_invariants()


def test_lru_ties_are_not_broken_by_index():
    """All pages share one tick: the victims are a seeded spread over the
    VM, not the low-index prefix (which would evict the hot write set)."""
    ps = PageSet(1000)
    ps.make_resident(np.arange(1000), tick=3)
    got = ps.lru_candidates(100)
    assert sorted(got.tolist()) != list(range(100))
    assert got.max() > 500
    assert got.tolist() == lru_oracle(ps, 100).tolist()
    other = PageSet(1000)
    other.make_resident(np.arange(1000), tick=3)
    assert other.lru_candidates(100).tolist() == got.tolist()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["resident", "swap_out", "dirty",
                                           "drop"]),
                          st.integers(min_value=0, max_value=19)),
                max_size=60))
def test_invariants_hold_under_any_transition_sequence(ops):
    """Property: no operation sequence can violate PageSet invariants."""
    ps = PageSet(20)
    for op, page in ops:
        i = idx(page)
        if op == "resident":
            ps.make_resident(i, tick=0)
        elif op == "swap_out":
            if ps.present[page]:
                ps.swap_out(i)
        elif op == "dirty":
            if ps.present[page]:
                ps.mark_dirty(i)
        elif op == "drop":
            ps.drop(i)
        ps.check_invariants()
