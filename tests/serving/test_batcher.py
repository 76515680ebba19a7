"""MicroBatcher: coalescing, chunking, linger, canonical padding, batch reuse, padding fill."""

import numpy as np
import pytest

from repro.serving import MicroBatcher, Telemetry, WindowView


def make_view(seed: int) -> WindowView:
    rng = np.random.default_rng(seed)
    image = rng.random((5, 4))
    day_type = rng.random(4)
    return WindowView(
        segment_id=seed,
        end_step=11,
        target_step=12,
        image=image,
        day_type=day_type,
        flat=np.concatenate([image.reshape(-1), day_type]),
        fingerprint=f"fp{seed}",
        last_speed_kmh=90.0,
    )


def sum_forward(images, day_types, flat):
    """A deterministic stand-in model: row sums of the flat features."""
    return flat.sum(axis=1)


class TestCoalescing:
    def test_flush_resolves_all(self):
        batcher = MicroBatcher(sum_forward, max_batch_size=8)
        views = [make_view(i) for i in range(5)]
        pendings = [batcher.submit(v) for v in views]
        assert not any(p.done for p in pendings)
        assert batcher.flush() == 5
        for view, pending in zip(views, pendings):
            assert pending.done
            assert pending.value == pytest.approx(view.flat.sum())

    def test_auto_flush_on_full_batch(self):
        batcher = MicroBatcher(sum_forward, max_batch_size=3)
        pendings = [batcher.submit(make_view(i)) for i in range(3)]
        assert all(p.done for p in pendings)
        assert len(batcher) == 0

    def test_large_queue_split_into_chunks(self):
        telemetry = Telemetry()
        batcher = MicroBatcher(sum_forward, max_batch_size=4, telemetry=telemetry)
        views = [make_view(i) for i in range(10)]
        pendings = []
        for view in views:
            pendings.append(batcher.submit(view))
        batcher.flush()
        assert all(p.done for p in pendings)
        # 10 requests with max 4 per forward: two full auto-flushed batches
        # of 4 plus the final flush of 2.
        sizes = telemetry.histogram("batch_size")
        assert sizes.count == 3 and sizes.maximum == 4 and sizes.minimum == 2


class TestLinger:
    def test_waits_within_linger(self, fake_clock):
        batcher = MicroBatcher(sum_forward, max_batch_size=8, linger_seconds=5.0, clock=fake_clock)
        pending = batcher.submit(make_view(0))
        assert not pending.done and not batcher.poll()
        fake_clock.advance(4.0)
        assert not batcher.poll()

    def test_flushes_after_linger(self, fake_clock):
        batcher = MicroBatcher(sum_forward, max_batch_size=8, linger_seconds=5.0, clock=fake_clock)
        pending = batcher.submit(make_view(0))
        fake_clock.advance(5.0)
        assert batcher.poll() and pending.done

    def test_late_submit_triggers_flush(self, fake_clock):
        batcher = MicroBatcher(sum_forward, max_batch_size=8, linger_seconds=5.0, clock=fake_clock)
        first = batcher.submit(make_view(0))
        fake_clock.advance(6.0)
        second = batcher.submit(make_view(1))
        assert first.done and second.done


class TestPadding:
    def test_forward_sees_canonical_batch_shape(self):
        seen = []

        def recording_forward(images, day_types, flat):
            seen.append(flat.shape[0])
            return flat.sum(axis=1)

        batcher = MicroBatcher(recording_forward, max_batch_size=16)
        batcher.submit(make_view(0))
        batcher.flush()
        pendings = [batcher.submit(make_view(i)) for i in range(5)]
        batcher.flush()
        assert seen == [16, 16]
        assert all(p.done for p in pendings)

    def test_padding_rows_do_not_leak_into_results(self):
        batcher = MicroBatcher(sum_forward, max_batch_size=16)
        view = make_view(3)
        pending = batcher.submit(view)
        batcher.flush()
        assert pending.value == pytest.approx(view.flat.sum())

    def test_reused_batch_equals_fresh_zero_padding(self):
        # A 5-row flush, then a 2-row flush: the second forward must see
        # exactly the batch a fresh zero-padded allocation would give, so
        # rows 2..4 left over from the first flush are zeroed again.
        seen = []

        def copying_forward(images, day_types, flat):
            seen.append([images.copy(), day_types.copy(), flat.copy()])
            return flat.sum(axis=1)

        batcher = MicroBatcher(copying_forward, max_batch_size=8)
        for chunk in ([make_view(i) for i in range(5)], [make_view(i) for i in (7, 8)]):
            pendings = [batcher.submit(view) for view in chunk]
            batcher.flush()
            fresh = [
                np.zeros((8, 5, 4)),
                np.zeros((8, 4)),
                np.zeros((8, 24)),
            ]
            for row, view in enumerate(chunk):
                fresh[0][row], fresh[1][row], fresh[2][row] = view.image, view.day_type, view.flat
            for got, want in zip(seen[-1], fresh):
                assert got.tobytes() == want.tobytes()
            assert [p.value for p in pendings] == fresh[2][: len(chunk)].sum(axis=1).tolist()


class BlockFill:
    """A padding fill over fixed views: offers them all as one block, once, and keeps what comes back."""

    def __init__(self, views):
        self.views, self.takes, self.given = list(views), 0, []

    def take(self):
        self.takes += 1
        block, self.views = self.views, []
        if not block:
            return None
        return tuple(np.stack([getattr(v, name) for v in block]) for name in ("image", "day_type", "flat"))

    def give(self, values):
        self.given.append(np.array(values))


def padded(views, rows: int) -> list[np.ndarray]:
    """A fresh zero-padded (images, day_types, flat) batch holding ``views`` first."""
    batch = [np.zeros((rows, 5, 4)), np.zeros((rows, 4)), np.zeros((rows, 24))]
    for row, view in enumerate(views):
        batch[0][row], batch[1][row], batch[2][row] = view.image, view.day_type, view.flat
    return batch


class TestFill:
    def test_fill_block_rides_in_the_spare_rows(self):
        seen = []

        def copying_forward(images, day_types, flat):
            seen.append([images.copy(), day_types.copy(), flat.copy()])
            return flat.sum(axis=1)

        telemetry = Telemetry()
        batcher = MicroBatcher(copying_forward, max_batch_size=8, telemetry=telemetry)
        requests = [make_view(i) for i in range(3)]
        extra = [make_view(i) for i in range(10, 24)]
        fill = BlockFill(extra)
        pendings = [batcher.submit(view) for view in requests]
        batcher.flush(fill)
        # 3 requests + 14 fill rows: the requests' spare rows, one full
        # fill-only forward, then the last one zero-padded.
        assert fill.takes == 1 and len(seen) == 3
        rows = requests + extra
        for forward, first in zip(seen, (0, 8, 16)):
            for got, expected in zip(forward, padded(rows[first : first + 8], 8)):
                assert got.tobytes() == expected.tobytes()
        sums = padded(rows, 17)[2].sum(axis=1)
        assert [p.value for p in pendings] == sums[:3].tolist()
        assert [g.tolist() for g in fill.given] == [sums[3:].tolist()]  # one array for the block
        histogram = telemetry.histogram("batch_size")
        assert (histogram.count, histogram.maximum, histogram.minimum) == (3, 8, 1)

        # Shorter flushes, with a smaller fill and then none, see exactly
        # fresh zero padding after their rows.
        smaller = [make_view(i) for i in (20, 21)]
        for fill in (BlockFill(smaller), None):
            for view in requests[:2]:
                batcher.submit(view)
            batcher.flush(fill)
            rows = requests[:2] + (smaller if fill is not None else [])
            for got, expected in zip(seen[-1], padded(rows, 8)):
                assert got.tobytes() == expected.tobytes()

    def test_an_empty_fill_leaves_the_padding(self):
        seen = []

        def recording_forward(images, day_types, flat):
            seen.append(flat.copy())
            return flat.sum(axis=1)

        batcher = MicroBatcher(recording_forward, max_batch_size=4)
        assert batcher.flush(BlockFill([])) == 0 and seen == []  # nothing to forward at all
        fill = BlockFill([])
        view = make_view(0)
        pending = batcher.submit(view)
        batcher.flush(fill)
        assert fill.takes == 1 and fill.given == []
        assert len(seen) == 1 and seen[0].tobytes() == padded([view], 4)[2].tobytes()
        assert pending.value == view.flat.sum()

    def test_a_fill_after_a_full_flush_runs_in_its_own_forwards(self):
        seen = []

        def recording_forward(images, day_types, flat):
            seen.append(flat.copy())
            return flat.sum(axis=1)

        batcher = MicroBatcher(recording_forward, max_batch_size=2)
        requests, extra = [make_view(i) for i in range(2)], [make_view(i) for i in (30, 31, 32)]
        pendings = [batcher.submit(view) for view in requests]  # a full batch flushes at once
        assert all(p.done for p in pendings) and len(seen) == 1
        fill = BlockFill(extra)
        assert batcher.flush(fill) == 0
        assert [f.tobytes() for f in seen[1:]] == [
            padded(extra[:2], 2)[2].tobytes(),
            padded(extra[2:], 2)[2].tobytes(),
        ]
        assert fill.given[0].tolist() == padded(extra, 3)[2].sum(axis=1).tolist()

    def test_output_maps_each_forward_once(self):
        calls = []

        def doubled(values):
            calls.append(len(values))
            return values * 2.0

        batcher = MicroBatcher(sum_forward, max_batch_size=8, output=doubled)
        requests, extra = [make_view(i) for i in range(3)], [make_view(i) for i in (10, 11)]
        fill = BlockFill(extra)
        pendings = [batcher.submit(view) for view in requests]
        batcher.flush(fill)
        assert calls == [5]
        sums = padded(requests + extra, 8)[2].sum(axis=1) * 2.0
        assert [p.value for p in pendings] == sums[:3].tolist()
        assert fill.given[0].tolist() == sums[3:5].tolist()


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(sum_forward, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(sum_forward, linger_seconds=-1)
