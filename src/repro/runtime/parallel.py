"""Ordered parallel map over a process pool, with a serial fallback.

:class:`ParallelMap` is the one dispatch primitive every experiment
layer shares (``run_seeds``, ``downsizing_curve``, the ablation sweeps,
``full_report``).  Design constraints, in order:

1. **Determinism** -- results come back in input order and are
   bit-identical to a serial run; tasks are dispatched in fixed
   contiguous chunks (no work stealing), so the computation itself is
   independent of scheduling.
2. **Graceful degradation** -- ``workers <= 1`` runs inline with zero
   pool overhead, and any *infrastructure* failure (unpicklable
   callable, fork failure, broken pool) silently falls back to serial
   execution; task exceptions still propagate.
3. **Observability** -- per-task wall-clock timings are collected in
   :class:`MapStats` either way, so benchmarks can report speedups and
   stragglers without instrumenting the task function.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..obs import OBS

#: Exceptions that mean "the pool could not run this work" rather than
#: "the task failed" -- these trigger the serial fallback.  AttributeError
#: is how CPython reports an unpicklable local/lambda callable; a task
#: that genuinely raises one of these still propagates, because the
#: serial retry re-raises it.
_POOL_FAILURES = (
    pickle.PicklingError,
    BrokenProcessPool,
    OSError,
    ImportError,
    AttributeError,
)

#: Dispatch granularity: each pool worker receives about this many
#: contiguous chunks.  More chunks smooth out stragglers at the cost of
#: more pickling round-trips.
_CHUNKS_PER_WORKER = 4


class BrokenPoolError(RuntimeError):
    """A worker process died mid-map; names the in-flight chunk.

    A bare ``BrokenProcessPool`` says nothing about *what* was running
    when the worker died (OOM kill, segfault in an extension, ...).
    This wrapper pins the earliest affected chunk: its index, the item
    slice it covered, and a repr preview of those items -- enough to
    reproduce the kill serially.  Counted under
    ``runtime.parallel.broken_pool``; with ``serial_fallback=False`` it
    propagates to the caller instead of retrying serially.
    """

    def __init__(self, chunk_index: int, item_range: tuple[int, int], items):
        self.chunk_index = chunk_index
        self.item_range = item_range
        self.items_preview = [repr(item)[:80] for item in items[:3]]
        lo, hi = item_range
        preview = ", ".join(self.items_preview)
        if hi - lo > len(self.items_preview):
            preview += ", ..."
        super().__init__(
            f"process pool broke while executing chunk {chunk_index} "
            f"(items {lo}:{hi}): [{preview}]"
        )


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` argument to an effective worker count.

    ``None`` and ``0`` mean "use every available core"; negative values
    are rejected; anything is capped to the host's usable CPU count
    (oversubscribing processes only adds overhead).
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    if workers is None or workers == 0:
        return available
    if workers < 0:
        raise ConfigurationError("workers cannot be negative")
    return min(int(workers), max(available, 1))


@dataclass
class MapStats:
    """Timing record of one :meth:`ParallelMap.map` call."""

    #: ``"serial"`` or ``"process"``.
    mode: str = "serial"
    #: Effective worker count used for dispatch.
    workers: int = 1
    #: Number of tasks executed.
    n_tasks: int = 0
    #: Wall-clock of the whole map call (s).
    elapsed: float = 0.0
    #: Per-task wall-clock durations (s), in input order.
    task_durations: list[float] = field(default_factory=list)
    #: Why a process-pool dispatch fell back to serial, if it did.
    fallback_reason: str | None = None
    #: Task count of each dispatched chunk, in submission order.
    chunk_sizes: list[int] = field(default_factory=list)
    #: Worker-side wall-clock of each chunk (s) -- measured inside the
    #: worker process, so it excludes pickling and queue latency.
    chunk_durations: list[float] = field(default_factory=list)
    #: Pid that executed each chunk (the coordinator's own for serial).
    chunk_pids: list[int] = field(default_factory=list)

    @property
    def total_task_time(self) -> float:
        """Sum of per-task durations -- the serial-equivalent work (s)."""
        return sum(self.task_durations)

    @property
    def mean_task_time(self) -> float:
        """Average per-task duration (s)."""
        if not self.task_durations:
            return 0.0
        return self.total_task_time / len(self.task_durations)

    @property
    def parallel_efficiency(self) -> float:
        """``total_task_time / (workers * elapsed)`` -- 1.0 is perfect."""
        if self.elapsed <= 0 or self.workers <= 0:
            return 0.0
        return self.total_task_time / (self.workers * self.elapsed)

    def _chunk_percentile(self, p: float) -> float:
        """Nearest-rank percentile of worker-side chunk wall times (s)."""
        if not self.chunk_durations:
            return 0.0
        ordered = sorted(self.chunk_durations)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    @property
    def chunk_latency_p50(self) -> float:
        """Median worker-side chunk wall time (s)."""
        return self._chunk_percentile(50)

    @property
    def chunk_latency_p95(self) -> float:
        """95th-percentile worker-side chunk wall time (s) -- stragglers."""
        return self._chunk_percentile(95)

    def summary(self) -> str:
        """One-line human-readable digest for benchmark output."""
        text = (
            f"{self.mode} x{self.workers}: {self.n_tasks} tasks in "
            f"{self.elapsed:.3f}s (task mean {1e3 * self.mean_task_time:.2f}ms,"
            f" efficiency {self.parallel_efficiency:.2f})"
        )
        if self.chunk_durations:
            text += (
                f" [chunks {len(self.chunk_durations)}, p50 "
                f"{1e3 * self.chunk_latency_p50:.2f}ms, p95 "
                f"{1e3 * self.chunk_latency_p95:.2f}ms]"
            )
        return text


@dataclass
class ChunkResult:
    """Worker-side record of one executed chunk.

    Carries the results plus the worker's own telemetry -- wall time,
    pid, and (when the coordinator asked for tracing) the worker's
    finished spans as plain dicts, ready for
    :meth:`~repro.obs.tracer.Tracer.adopt`.
    """

    results: list
    task_durations: list[float]
    #: Worker-side wall-clock of the whole chunk (s).
    elapsed: float
    pid: int
    #: Exported span dicts from the worker's local tracer (may be empty).
    spans: list[dict] = field(default_factory=list)
    #: The worker's metrics snapshot, merged into the coordinator registry.
    metrics: dict = field(default_factory=dict)


def _run_chunk(
    fn: Callable,
    items: Sequence,
    chunk_index: int = 0,
    trace_pid: int | None = None,
) -> ChunkResult:
    """Worker-side chunk execution; returns a :class:`ChunkResult`.

    Module-level so it pickles; ``fn`` itself must also be picklable for
    process dispatch (module-level functions and ``functools.partial``
    of them are; lambdas are not and trigger the serial fallback).

    ``trace_pid`` is the coordinator's pid when its telemetry is on.  A
    *worker* process (pid differs -- under ``fork`` it still inherits a
    copy of the coordinator's switchboard, so the pid is the reliable
    discriminator) runs the chunk under an isolated local tracer +
    registry and ships the finished spans and metric snapshot back with
    the results; the coordinator re-parents the spans under its own
    ``parallel.map`` span.  In-process execution (serial mode) spans
    directly onto the live tracer instead.
    """
    from ..obs import observing

    def execute() -> tuple[list, list[float]]:
        results = []
        durations = []
        for item in items:
            t0 = time.perf_counter()
            results.append(fn(item))
            durations.append(time.perf_counter() - t0)
        return results, durations

    t_chunk = time.perf_counter()
    pid = os.getpid()
    if trace_pid is not None and pid != trace_pid:
        with observing() as obs:
            with obs.span(
                "parallel.chunk", chunk_index=chunk_index, n_items=len(items)
            ):
                results, durations = execute()
            spans = obs.tracer.export()
            metrics = obs.metrics.snapshot()
        return ChunkResult(
            results, durations, time.perf_counter() - t_chunk, pid,
            spans, metrics,
        )
    if trace_pid is not None:
        with OBS.span(
            "parallel.chunk", chunk_index=chunk_index, n_items=len(items)
        ):
            results, durations = execute()
    else:
        results, durations = execute()
    return ChunkResult(results, durations, time.perf_counter() - t_chunk, pid)


def _chunk_slices(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Deterministic contiguous chunking: ``n_chunks`` near-equal slices."""
    n_chunks = max(min(n_chunks, n_items), 1)
    base, extra = divmod(n_items, n_chunks)
    slices = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


class ParallelMap:
    """Ordered map over items, optionally fanned out across processes.

    Parameters
    ----------
    workers:
        Process count.  ``<= 1`` executes inline (serial); ``None``/``0``
        uses every available core.
    serial_fallback:
        When True (the default) any pool-infrastructure failure retries
        the whole map serially.  False propagates the failure instead
        -- a dead worker surfaces as :class:`BrokenPoolError` naming
        the in-flight chunk, which callers like long experiment runs
        prefer over silently re-running hours of work inline.

    After each :meth:`map` call, :attr:`stats` describes what happened.
    """

    def __init__(
        self,
        workers: int | None = 1,
        serial_fallback: bool = True,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.serial_fallback = serial_fallback
        self.stats = MapStats()

    # -- execution ---------------------------------------------------------

    def _record_chunk(self, chunk: ChunkResult) -> None:
        stats = self.stats
        stats.task_durations.extend(chunk.task_durations)
        stats.chunk_sizes.append(len(chunk.task_durations))
        stats.chunk_durations.append(chunk.elapsed)
        stats.chunk_pids.append(chunk.pid)
        if OBS.enabled:
            OBS.metrics.histogram("runtime.parallel.chunk_seconds").observe(
                chunk.elapsed
            )
            OBS.metrics.counter("runtime.parallel.chunks_completed").inc()
            if chunk.spans:
                OBS.tracer.adopt(chunk.spans)
            if chunk.metrics:
                OBS.metrics.merge(chunk.metrics)

    def _drop_partial_records(self, exc: BaseException) -> None:
        """Reset chunk telemetry of a failed dispatch before the retry."""
        self.stats.fallback_reason = f"{type(exc).__name__}: {exc}"
        self.stats.task_durations = []
        self.stats.chunk_sizes = []
        self.stats.chunk_durations = []
        self.stats.chunk_pids = []

    def _map_serial(self, fn: Callable, items: Sequence) -> list:
        chunk = _run_chunk(
            fn, items, trace_pid=os.getpid() if OBS.enabled else None
        )
        self.stats.mode = "serial"
        self.stats.workers = 1
        self._record_chunk(chunk)
        return chunk.results

    def _map_processes(self, fn: Callable, items: Sequence) -> list:
        slices = _chunk_slices(len(items), self.workers * _CHUNKS_PER_WORKER)
        trace_pid = os.getpid() if OBS.enabled else None
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(_run_chunk, fn, items[lo:hi], i, trace_pid)
                for i, (lo, hi) in enumerate(slices)
            ]
            # The in-flight gauge lets a live flusher show how much of
            # the fan-out is still outstanding mid-map.
            if trace_pid is not None:
                OBS.metrics.gauge("runtime.parallel.inflight_chunks").set(
                    len(futures)
                )
            results: list = []
            # Collect in submission order: ordering is positional, and a
            # failure surfaces on the earliest affected chunk.
            chunks = []
            for i, future in enumerate(futures):
                try:
                    chunks.append(future.result())
                except BrokenProcessPool as exc:
                    lo, hi = slices[i]
                    raise BrokenPoolError(i, (lo, hi), items[lo:hi]) from exc
                if trace_pid is not None:
                    OBS.metrics.gauge("runtime.parallel.inflight_chunks").set(
                        len(futures) - len(chunks)
                    )
        self.stats.mode = "process"
        self.stats.workers = self.workers
        for chunk in chunks:
            results.extend(chunk.results)
            self._record_chunk(chunk)
        return results

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results in input order.

        Bit-identical to ``[fn(x) for x in items]``: the pool only
        changes *where* each call runs.  Exceptions raised by ``fn``
        propagate; pool-infrastructure failures retry the whole map
        serially (recorded in ``stats.fallback_reason``).
        """
        item_list = list(items)
        self.stats = MapStats(n_tasks=len(item_list))
        t0 = time.perf_counter()
        with OBS.span(
            "parallel.map", n_tasks=len(item_list), workers=self.workers
        ) as span:
            if not item_list:
                results = []
            elif self.workers <= 1:
                results = self._map_serial(fn, item_list)
            else:
                try:
                    results = self._map_processes(fn, item_list)
                except BrokenPoolError as exc:
                    if OBS.enabled:
                        OBS.metrics.counter("runtime.parallel.broken_pool").inc()
                    if not self.serial_fallback:
                        raise
                    self._drop_partial_records(exc)
                    results = self._map_serial(fn, item_list)
                except _POOL_FAILURES as exc:
                    if not self.serial_fallback:
                        raise
                    self._drop_partial_records(exc)
                    results = self._map_serial(fn, item_list)
        self.stats.n_tasks = len(item_list)
        self.stats.elapsed = time.perf_counter() - t0
        if OBS.enabled:
            span.set(mode=self.stats.mode, elapsed_s=self.stats.elapsed)
            OBS.metrics.counter(
                "runtime.parallel.maps", mode=self.stats.mode
            ).inc()
            if self.stats.fallback_reason is not None:
                OBS.metrics.counter("runtime.parallel.fallbacks").inc()
        return results

