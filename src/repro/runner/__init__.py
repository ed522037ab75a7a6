"""Parallel sweep-execution subsystem.

Shards the paper's (workload x protocol) simulation grid across a warm
process pool (or runs it serially), persists every cell in a durable
content-addressed store, and exposes the whole pipeline on the command
line via ``python -m repro``.

* :mod:`repro.runner.jobs`  — :class:`JobSpec` and deterministic keys
* :mod:`repro.runner.pool`  — serial and warm-pool execution (:func:`sweep`)
* :mod:`repro.runner.store` — the durable :class:`ResultStore`
* :mod:`repro.runner.cli`   — the ``python -m repro`` entry point
"""

from repro.runner.jobs import (
    DEFAULT_SEED, GRID_VERSION, JobSpec, config_key, expand_grid)
from repro.runner.pool import (
    JobOutcome, execute_job, run_jobs, sweep, sweep_grid, sweep_shapes)
from repro.runner.store import (
    ResultStore, default_cache_dir, register_sidecar, result_from_dict,
    result_to_dict)

__all__ = [
    "DEFAULT_SEED", "GRID_VERSION", "JobOutcome", "JobSpec", "ResultStore",
    "config_key", "default_cache_dir", "execute_job", "expand_grid",
    "register_sidecar", "result_from_dict", "result_to_dict", "run_jobs",
    "sweep", "sweep_grid", "sweep_shapes",
]
