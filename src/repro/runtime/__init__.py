"""Experiment runtime: parallel dispatch, memoization, result caching.

The paper's experiments are embarrassingly parallel (independent seeds,
independent sweep points) and hammer a handful of closed-form kernels
(the Eq. 4 fuel map, the Section-3.3 slot solver) with repeated inputs.
This subsystem provides the three layers that turn the serial
reproduction into a scalable experiment engine:

:mod:`repro.runtime.parallel`
    :class:`ParallelMap` -- ordered, chunked fan-out over a
    ``ProcessPoolExecutor`` with a graceful serial fallback and
    per-task timing statistics.  Every process fan-out goes through it,
    ``simulate_batch``'s seed shards included; workers receive their
    inputs as pickled task arguments.
:mod:`repro.runtime.memo`
    In-memory memoization of the hot closed-form paths: a keyed cache
    for :func:`repro.core.optimizer.solve_slot` and an
    ``functools.lru_cache`` behind the linear fuel map.
:mod:`repro.runtime.cache`
    A small on-disk result cache keyed by a stable hash of
    (experiment parameters, code fingerprint), so CLI subcommands and
    benchmarks can skip already-computed experiments.

Everything is stdlib-only and deterministic: parallel execution
preserves result ordering and is bit-identical to serial.
"""

from .cache import CacheStats, ResultCache, cache_key, code_fingerprint
from .memo import (
    clear_solver_cache,
    solve_slot_memo,
    solver_cache_stats,
)
from .parallel import BrokenPoolError, MapStats, ParallelMap, resolve_workers

__all__ = [
    "BrokenPoolError",
    "CacheStats",
    "MapStats",
    "ParallelMap",
    "ResultCache",
    "cache_key",
    "clear_solver_cache",
    "code_fingerprint",
    "resolve_workers",
    "solve_slot_memo",
    "solver_cache_stats",
]
