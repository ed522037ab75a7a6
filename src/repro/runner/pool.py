"""Sharded sweep execution over a persistent warm process pool.

The sweep is embarrassingly parallel: every (workload, protocol) cell is
an independent pure-Python simulation.  :func:`run_jobs` fans
:class:`~repro.runner.jobs.JobSpec`s out to ``multiprocessing`` workers
— only the small specs cross the pipe; workers rebuild workload traces
locally (generators are seeded, so every rebuild is bit-identical) and
memoize them per process.

Warm workers: the pool is a module-level singleton that survives across
:func:`run_jobs`/:func:`sweep` calls instead of being torn down per
call, so worker-side state — the workload-trace memo and every
imported module — stays warm from one sweep to the next.  On platforms with the ``fork`` start method the parent
additionally pre-builds the sweep's traces *before* forking, so every
worker starts with the traces already shared copy-on-write rather than
re-building them per process.  :func:`shutdown_pool` releases the
workers explicitly (tests, benchmarks measuring cold starts).

Store write batching: when a sweep runs against the durable store,
cells are submitted in small contiguous chunks and each worker persists
its chunk's results itself in one batch before returning — the parent
no longer serializes every store write between completions, it only
writes cells that ran serially.

Crash handling: a worker dying (OOM-kill, segfaulting C extension,
interpreter abort) breaks the pool and fails every in-flight future.
The broken pool is discarded, failed cells are retried in a fresh pool
(chunks degrade to single cells on retry, isolating the poison cell),
and whatever still fails after the retry budget runs serially in the
parent as a last resort, so a sweep either completes every cell or
raises the underlying error.

:func:`sweep` layers the durable result store on top; :func:`sweep_grid`
returns the classic ``grid[workload][protocol]`` mapping the analysis
and figure code consume.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ScaleConfig, SystemConfig
from repro.core.simulator import simulate
from repro.core.stats import RunResult
from repro.runner.jobs import DEFAULT_SEED, JobSpec, expand_grid
from repro.runner.store import ResultStore
from repro.workloads import build_workload

Grid = Dict[str, Dict[str, RunResult]]

#: Called after each finished cell: ``progress(outcome, done, total)``.
ProgressFn = Callable[["JobOutcome", int, int], None]


@dataclass
class JobOutcome:
    """One completed cell: its result plus execution metadata."""

    spec: JobSpec
    result: RunResult
    elapsed: float        # seconds spent simulating (0.0 if from cache)
    attempts: int         # pool submissions consumed (0 if from cache)
    from_cache: bool
    build_seconds: float = 0.0   # trace build time (0.0 = memo-warm)
    saved: bool = False          # already durable (worker-side/cache)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process memo of built workload traces, keyed by
#: (name, scale, num_cores, seed) — the complete build input.  Specs
#: arrive workload-major then shape-major, so all protocol cells of one
#: (workload, shape) share a single build; a small LRU (rather than a
#: single slot) keeps neighbouring shapes warm when completion order
#: interleaves cells, without pinning unbounded trace memory.  In the
#: parent the same memo doubles as the fork-time prewarm source: traces
#: built before pool creation are inherited copy-on-write by every
#: worker.
_WORKLOAD_MEMO: "dict" = {}
_WORKLOAD_MEMO_MAX = 8


def _timed_workload(name: str, scale: ScaleConfig, num_cores: int,
                    seed: int):
    """The memoized workload plus the seconds spent building it
    (0.0 on a memo hit)."""
    key = (name, scale, num_cores, seed)
    workload = _WORKLOAD_MEMO.get(key)
    if workload is not None:
        # Refresh LRU position (dicts preserve insertion order).
        _WORKLOAD_MEMO.pop(key)
        _WORKLOAD_MEMO[key] = workload
        return workload, 0.0
    start = time.perf_counter()
    while len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
        _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
    workload = build_workload(name, scale, num_cores=num_cores, seed=seed)
    _WORKLOAD_MEMO[key] = workload
    return workload, time.perf_counter() - start


def _cached_workload(name: str, scale: ScaleConfig, num_cores: int,
                     seed: int):
    return _timed_workload(name, scale, num_cores, seed)[0]


def _execute_timed(spec: JobSpec) -> Tuple[RunResult, float, float]:
    """Simulate one cell; returns (result, sim_seconds, build_seconds)."""
    workload, build_s = _timed_workload(spec.workload, spec.scale,
                                        spec.config.num_tiles, spec.seed)
    start = time.perf_counter()
    result = simulate(workload, spec.protocol, spec.config)
    return result, time.perf_counter() - start, build_s


def execute_job(spec: JobSpec) -> Tuple[RunResult, float]:
    """Simulate one cell; returns the result and its wall-clock time
    (trace build included, the historical contract of this entry)."""
    start = time.perf_counter()
    result, _sim_s, _build_s = _execute_timed(spec)
    return result, time.perf_counter() - start


def _execute_chunk(specs: Sequence[JobSpec],
                   store_dir: Optional[str]) -> List[tuple]:
    """Worker task: simulate a chunk of cells, then persist the whole
    chunk's results in one batch (when a store directory is given)."""
    out = []
    for spec in specs:
        out.append(_execute_timed(spec))
    if store_dir is not None:
        store = ResultStore(store_dir)
        for spec, (result, _sim_s, _build_s) in zip(specs, out):
            store.save(result, spec.store_key())
    return out


def _worker_init() -> None:
    # Pay the import cost at worker start, not inside the first cell.
    # Under the fork start method everything is inherited and this is a
    # no-op; under spawn it front-loads the heavy imports.
    import repro.core.simulator  # noqa: F401


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def _pool_context():
    # fork keeps workers warm (parent memory, including pre-built
    # traces, is shared copy-on-write) and is available on every POSIX
    # platform; fall back to the default (spawn) elsewhere.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shutdown_pool() -> None:
    """Release the persistent worker pool (idempotent).

    The pool otherwise lives until interpreter exit so consecutive
    sweeps reuse warm workers; call this to measure cold starts or to
    free the worker processes early.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _prewarm_traces(specs: Sequence[JobSpec]) -> int:
    """Build the distinct workload traces of ``specs`` into the memo.

    Returns the number of traces built.  The loop counts *distinct memo
    keys*, not scanned specs: a workload-major spec list repeats one
    key for every protocol cell, so counting specs used to exhaust the
    budget on the first workload's cells and leave later workloads'
    traces cold.  Building stops once the memo is full — a further
    build would evict a trace just prewarmed.
    """
    built = 0
    for spec in specs:
        key = (spec.workload, spec.scale, spec.config.num_tiles,
               spec.seed)
        if key in _WORKLOAD_MEMO:
            continue
        if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
            break                # memo full; don't thrash the LRU
        _timed_workload(*key)
        built += 1
    return built


def _warm_pool(workers: int,
               specs: Sequence[JobSpec] = ()) -> ProcessPoolExecutor:
    """The persistent pool, created (and trace-prewarmed) on demand.

    An existing pool is reused when it has at least ``workers`` workers;
    a larger request replaces it.  On creation with the fork start
    method, the distinct workload traces of ``specs`` are built in the
    parent first so every forked worker starts warm, sharing the trace
    pages copy-on-write instead of rebuilding per process.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    shutdown_pool()
    ctx = _pool_context()
    if ctx.get_start_method() == "fork":
        _prewarm_traces(specs)
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                initializer=_worker_init)
    _POOL_WORKERS = workers
    return _POOL


def run_jobs(specs: Sequence[JobSpec],
             jobs: int = 1,
             retries: int = 1,
             notify: Optional[Callable[[int, JobOutcome], None]] = None,
             store_dir: Optional[str] = None,
             ) -> List[JobOutcome]:
    """Execute every spec, returning outcomes in input order.

    ``jobs <= 1`` runs serially in-process (no pool, deterministic
    ordering — the reference path).  ``notify(index, outcome)``, when
    given, fires as each cell completes (completion order).

    Once a sweep has more than 4 cells per worker, the pool takes
    contiguous chunks of up to 4 specs as one task: the worker
    simulates the whole chunk (sharing its memoized trace) and, when
    ``store_dir`` is given, persists the chunk's results itself in one
    batch — those outcomes come back with ``saved=True``.  Retry
    rounds degrade to single-cell tasks so one poison cell cannot take
    healthy neighbours down with it.
    """
    specs = list(specs)
    chunk_size = 1
    if jobs > 1 and len(specs) > jobs * 4:
        chunk_size = min(4, len(specs) // (jobs * 2))
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)

    def finish(index: int, result: RunResult, elapsed: float,
               attempts: int, build_seconds: float = 0.0,
               saved: bool = False) -> None:
        outcomes[index] = JobOutcome(specs[index], result, elapsed,
                                     attempts, from_cache=False,
                                     build_seconds=build_seconds,
                                     saved=saved)
        if notify is not None:
            notify(index, outcomes[index])

    if jobs <= 1 or len(specs) <= 1:
        try:
            for i, spec in enumerate(specs):
                result, elapsed, build_s = _execute_timed(spec)
                finish(i, result, elapsed, attempts=1,
                       build_seconds=build_s)
        finally:
            # The memo exists to keep pool *workers* warm; don't pin a
            # full workload trace in the parent after a serial sweep.
            if _POOL is None:
                _WORKLOAD_MEMO.clear()
        return outcomes  # type: ignore[return-value]

    remaining: List[int] = list(range(len(specs)))
    attempts = [0] * len(specs)
    for _round in range(retries + 1):
        if not remaining:
            break
        failed: List[int] = []
        workers = min(jobs, len(remaining))
        ex = _warm_pool(workers, [specs[i] for i in remaining])
        csize = chunk_size if _round == 0 else 1
        chunks = [remaining[k:k + csize]
                  for k in range(0, len(remaining), csize)]
        futures = {
            ex.submit(_execute_chunk, [specs[i] for i in chunk],
                      store_dir): chunk
            for chunk in chunks}
        broken = False
        for future in as_completed(futures):
            chunk = futures[future]
            for i in chunk:
                attempts[i] += 1
            try:
                results = future.result()
            except BrokenProcessPool:
                broken = True
                failed.extend(chunk)
            except Exception:
                # Job error — queue for the next round / serial
                # fallback.
                failed.extend(chunk)
            else:
                for i, (result, elapsed, build_s) in zip(chunk, results):
                    finish(i, result, elapsed, attempts[i],
                           build_seconds=build_s,
                           saved=store_dir is not None)
        if broken:
            # A dead worker poisons the whole executor; replace it.
            shutdown_pool()
        remaining = failed

    # Last resort: run stragglers in-process so a deterministic job
    # error surfaces with its real traceback.
    try:
        for i in remaining:
            result, elapsed, build_s = _execute_timed(specs[i])
            finish(i, result, elapsed, attempts[i] + 1,
                   build_seconds=build_s)
    finally:
        if _POOL is None:
            _WORKLOAD_MEMO.clear()
    return outcomes  # type: ignore[return-value]


def sweep(specs: Sequence[JobSpec],
          jobs: int = 1,
          store: Optional[ResultStore] = None,
          use_cache: bool = True,
          retries: int = 1,
          progress: Optional[ProgressFn] = None) -> List[JobOutcome]:
    """Run a sweep against the durable store.

    Cells already in the store are served from disk; the rest execute
    through :func:`run_jobs` — serially in this process when
    ``jobs <= 1``, on the warm process pool otherwise.  Any cell a pool
    worker did not persist itself is persisted here as it completes.
    With ``use_cache=False`` nothing is read from or written to disk.
    """
    specs = list(specs)
    store = store if store is not None else ResultStore()
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    total = len(specs)
    done = 0

    def report(outcome: JobOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        cached = (store.load(spec.workload, spec.protocol, spec.store_key())
                  if use_cache else None)
        if cached is not None:
            outcomes[i] = JobOutcome(spec, cached, 0.0, 0, from_cache=True,
                                     saved=True)
            report(outcomes[i])
        else:
            pending.append(i)

    def notify(pending_index: int, outcome: JobOutcome) -> None:
        i = pending[pending_index]
        if use_cache and not outcome.saved:
            store.save(outcome.result, outcome.spec.store_key())
        outcomes[i] = outcome
        report(outcome)

    run_jobs([specs[i] for i in pending], jobs=jobs, retries=retries,
             notify=notify,
             store_dir=os.fspath(store.directory) if use_cache else None)
    return outcomes  # type: ignore[return-value]


def sweep_grid(workloads: Optional[Sequence[str]] = None,
               protocols: Optional[Sequence[str]] = None,
               scale: Optional[ScaleConfig] = None,
               config: Optional[SystemConfig] = None,
               seed: int = DEFAULT_SEED,
               jobs: int = 1,
               store: Optional[ResultStore] = None,
               use_cache: bool = True,
               retries: int = 1,
               progress: Optional[ProgressFn] = None) -> Grid:
    """Sweep the (workload x protocol) grid; returns paper-order results.

    Drop-in data source for the figure/report renderers:
    ``grid[workload][protocol] -> RunResult``.  One machine shape per
    call (the config's); use :func:`sweep_shapes` for a tiles axis.
    """
    specs = expand_grid(workloads, protocols, scale, config, seed=seed)
    outcomes = sweep(specs, jobs=jobs, store=store, use_cache=use_cache,
                     retries=retries, progress=progress)
    grid: Grid = {}
    for outcome in outcomes:
        grid.setdefault(outcome.spec.workload, {})[
            outcome.spec.protocol] = outcome.result
    return grid


def sweep_shapes(tiles: Sequence[int],
                 workloads: Optional[Sequence[str]] = None,
                 protocols: Optional[Sequence[str]] = None,
                 scale: Optional[ScaleConfig] = None,
                 config: Optional[SystemConfig] = None,
                 seed: int = DEFAULT_SEED,
                 jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 use_cache: bool = True,
                 retries: int = 1,
                 progress: Optional[ProgressFn] = None,
                 ) -> Dict[int, Grid]:
    """Sweep the (workload x shape x protocol) grid over a tiles axis.

    Returns ``shapes[num_tiles][workload][protocol] -> RunResult`` in
    the order the ``tiles`` axis was given — the data source for the
    core-count scaling figure (:mod:`repro.analysis.scaling`).
    """
    specs = expand_grid(workloads, protocols, scale, config, seed=seed,
                        tiles=tiles)
    outcomes = sweep(specs, jobs=jobs, store=store, use_cache=use_cache,
                     retries=retries, progress=progress)
    shapes: Dict[int, Grid] = {}
    for outcome in outcomes:
        spec = outcome.spec
        shapes.setdefault(spec.num_tiles, {}).setdefault(
            spec.workload, {})[spec.protocol] = outcome.result
    return shapes
