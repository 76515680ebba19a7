"""Tests for :func:`parallel_map`."""

from __future__ import annotations

import pytest

from repro.parallel import TaskFailure, parallel_map


def _double(item: int) -> int:
    return item * 2


def _raise_on_three(item: int) -> int:
    if item == 3:
        raise RuntimeError("three is right out")
    return item


class TestParallelMap:
    def test_serial_equals_comprehension(self):
        items = list(range(9))
        assert parallel_map(_double, items, workers=1) == [_double(i) for i in items]

    def test_parallel_equals_serial(self):
        items = list(range(9))
        assert parallel_map(_double, items, workers=3) == parallel_map(
            _double, items, workers=1
        )

    def test_empty(self):
        assert parallel_map(_double, [], workers=3) == []

    @pytest.mark.parametrize("workers", [1, 3])
    def test_return_failures(self, workers):
        results = parallel_map(
            _raise_on_three, range(5), workers=workers, return_failures=True
        )
        assert isinstance(results[3], TaskFailure)
        assert [r for i, r in enumerate(results) if i != 3] == [0, 1, 2, 4]

