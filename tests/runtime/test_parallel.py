"""Unit tests for the ParallelMap executor."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.parallel import (
    BrokenPoolError,
    MapStats,
    ParallelMap,
    _chunk_slices,
    resolve_workers,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _die(x):
    # Kill the worker process outright -- the pool sees a vanished
    # worker and raises BrokenProcessPool, never a task exception.
    import os

    os._exit(13)


class TestResolveWorkers:
    def test_one_is_one(self):
        assert resolve_workers(1) == 1

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_capped_to_available(self):
        assert resolve_workers(10_000) <= resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)


class TestChunking:
    def test_covers_all_items_in_order(self):
        slices = _chunk_slices(10, 3)
        flat = [i for lo, hi in slices for i in range(lo, hi)]
        assert flat == list(range(10))

    def test_near_equal_sizes(self):
        sizes = [hi - lo for lo, hi in _chunk_slices(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        slices = _chunk_slices(2, 8)
        assert len(slices) == 2

    def test_deterministic(self):
        assert _chunk_slices(97, 12) == _chunk_slices(97, 12)


class TestSerial:
    def test_matches_list_comprehension(self):
        pm = ParallelMap(workers=1)
        assert pm.map(_square, range(7)) == [x * x for x in range(7)]
        assert pm.stats.mode == "serial"
        assert pm.stats.n_tasks == 7
        assert len(pm.stats.task_durations) == 7

    def test_empty_items(self):
        pm = ParallelMap(workers=1)
        assert pm.map(_square, []) == []
        assert pm.stats.n_tasks == 0

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            ParallelMap(workers=1).map(_boom, [3])


class TestProcess:
    def test_ordered_and_identical_to_serial(self):
        items = list(range(23))
        serial = ParallelMap(workers=1).map(_square, items)
        pm = ParallelMap(workers=2)
        assert pm.map(_square, items) == serial
        assert pm.stats.fallback_reason is None

    def test_lambda_falls_back_to_serial(self):
        pm = ParallelMap(workers=2)
        # Lambdas don't pickle; the pool failure must degrade gracefully
        # (workers=2 forces a pool even on a 1-core host).
        if pm.workers < 2:
            pm.workers = 2
        assert pm.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert pm.stats.mode == "serial"
        assert pm.stats.fallback_reason is not None

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            ParallelMap(workers=2).map(_boom, list(range(4)))

    def test_one_shot_wrapper(self):
        assert ParallelMap(workers=2).map(_square, [2, 3]) == [4, 9]


class TestStats:
    def test_summary_renders(self):
        pm = ParallelMap(workers=1)
        pm.map(_square, range(3))
        text = pm.stats.summary()
        assert "3 tasks" in text and "serial" in text

    def test_efficiency_bounds(self):
        pm = ParallelMap(workers=1)
        pm.map(_square, range(50))
        assert 0.0 <= pm.stats.parallel_efficiency <= 1.5

    def test_defaults(self):
        stats = MapStats()
        assert stats.mean_task_time == 0.0
        assert stats.total_task_time == 0.0
        assert stats.parallel_efficiency == 0.0


@pytest.mark.skipif(
    resolve_workers(2) < 2,
    reason="needs >= 2 usable cores: with one core ParallelMap(workers=2) "
    "resolves to serial and never attempts the pool",
)
class TestBrokenPool:
    def test_fallback_recovers_and_counts(self):
        from repro.obs import observing

        # A map that dies in the pool but succeeds serially is
        # impossible to build from one function; instead verify the
        # counter + error shape with fallback disabled, and the default
        # fallback path with a healthy function.
        with observing() as obs:
            pm = ParallelMap(workers=2, serial_fallback=False)
            with pytest.raises(BrokenPoolError) as excinfo:
                pm.map(_die, list(range(8)))
            snapshot = obs.metrics.snapshot()
        err = excinfo.value
        assert err.chunk_index == 0
        lo, hi = err.item_range
        assert (lo, hi) == (0, 1)
        assert err.items_preview == ["0"]
        assert "chunk 0" in str(err) and "0:1" in str(err)
        broken = [k for k in snapshot if k.startswith("runtime.parallel.broken_pool")]
        assert broken and snapshot[broken[0]]["value"] == 1

    def test_fallback_enabled_still_returns_results(self):
        # Default serial_fallback=True: a dead pool retries serially.
        # _die would also kill the serial path, so exercise the fallback
        # with an unpicklable callable instead (PicklingError route).
        pm = ParallelMap(workers=2)
        results = pm.map(lambda x: x + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert pm.stats.mode == "serial"
        assert pm.stats.fallback_reason is not None

    def test_no_fallback_propagates_pickling_errors(self):
        pm = ParallelMap(workers=2, serial_fallback=False)
        with pytest.raises(Exception):
            pm.map(lambda x: x + 1, [1, 2, 3])
