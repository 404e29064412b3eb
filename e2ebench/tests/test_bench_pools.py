"""Seed -> pool determinism and the fixed novel-typed shares."""

import collections

import pools
import pytest


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_same_seed_same_pool(workload):
    first = pools.pool_for(workload, 7)
    again = pools.pool_for(workload, 7)
    assert first == again
    assert [r.body() for r in first] == [r.body() for r in again]


@pytest.mark.parametrize("workload", sorted(pools.POOLS))
def test_other_seed_other_pool(workload):
    assert pools.pool_for(workload, 7) != pools.pool_for(workload, 8)


def test_pool_sizes():
    assert len(pools.small_keepalive(1)) == 16
    assert len(pools.heavy_cached(1)) == 8
    assert len(pools.novel_typed(1)) == pools.NOVEL_POOL_SIZE
    assert pools.NOVEL_POOL_SIZE == 2.5 * pools.NOVEL_CACHE_CAPACITY


def test_novel_pool_is_distinct_with_fixed_shares_per_block():
    pool = pools.novel_typed(3)
    assert len({r.expr for r in pool}) == len(pool)
    block = len(pools.NOVEL_BLOCK)
    want = collections.Counter(pools.NOVEL_BLOCK)
    for start in range(0, len(pool), block):
        got = collections.Counter(r.kind for r in pool[start:start + block])
        assert got == want
    for r in pool:
        assert r.typecheck == (r.kind in ("typecheck", "type-error"))


def test_fuzz_seeds_are_deterministic_and_spread():
    bases = [pools.fuzz_base_seed(s) for s in range(100)]
    assert bases == [pools.fuzz_base_seed(s) for s in range(100)]
    # Case i uses base + i: runs of ~1000 cases must not overlap.
    ordered = sorted(bases)
    assert all(b - a > 10_000 for a, b in zip(ordered, ordered[1:]))
