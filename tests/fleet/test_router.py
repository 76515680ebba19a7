"""Tests for :class:`repro.fleet.ShardMap` (deterministic routing)."""

from __future__ import annotations

import pytest

from repro.data import FeatureConfig
from repro.fleet import ShardMap
from repro.serving import UnknownSegmentError


class TestShardMap:
    @pytest.mark.parametrize("num_segments,num_shards", [(9, 1), (9, 2), (9, 4), (100, 7), (5, 5)])
    def test_partition_is_contiguous_balanced_and_complete(self, num_segments, num_shards):
        shard_map = ShardMap(num_segments, num_shards)
        covered = []
        sizes = []
        previous_hi = 0
        for shard in range(num_shards):
            lo, hi = shard_map.owned_range(shard)
            assert lo == previous_hi, "ranges must tile the corridor contiguously"
            assert hi > lo, "every shard must own at least one segment"
            previous_hi = hi
            sizes.append(hi - lo)
            covered.extend(range(lo, hi))
        assert covered == list(range(num_segments))
        assert max(sizes) - min(sizes) <= 1, f"unbalanced shard sizes {sizes}"

    def test_shard_of_matches_owned_ranges(self):
        shard_map = ShardMap(17, 4)
        for shard in range(4):
            lo, hi = shard_map.owned_range(shard)
            for segment in range(lo, hi):
                assert shard_map.shard_of(segment) == shard

    def test_map_is_deterministic(self):
        a, b = ShardMap(23, 5), ShardMap(23, 5)
        assert [a.owned_range(s) for s in range(5)] == [b.owned_range(s) for s in range(5)]

    def test_covering_shards_match_clipped_halo(self):
        # On a corridor the covering shards of segment s are the owners
        # of [s - m, s + m] clipped to the corridor: a contiguous range.
        n, m = 68, 2
        rows = FeatureConfig(m=m).window_rows(n)
        for num_shards in (2, 3, 4):
            shard_map = ShardMap(n, num_shards)
            oracle = []
            for s in range(n):
                first = shard_map.shard_of(max(0, s - m))
                last = shard_map.shard_of(min(n - 1, s + m))
                oracle.append(tuple(range(first, last + 1)))
            assert shard_map.covering_shards(rows) == oracle

    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(9, 1)
        assert shard_map.owned_range(0) == (0, 9)
        assert all(shard_map.shard_of(s) == 0 for s in range(9))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="shards"):
            ShardMap(4, 5)
        with pytest.raises(ValueError, match="positive"):
            ShardMap(4, 0)
        with pytest.raises(ValueError, match="positive"):
            ShardMap(0, 1)
        shard_map = ShardMap(9, 2)
        with pytest.raises(UnknownSegmentError, match="outside corridor"):
            shard_map.shard_of(9)
        with pytest.raises(ValueError, match="shard 2"):
            shard_map.owned_range(2)
