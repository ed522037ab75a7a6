"""Workloads, output checks and metrics of the grid benchmark.

Every workload is a closed loop: one client in this process issues its
next operation when the previous one returns.  The program runs as a
user runs it: the default ``SystemConfig`` with no engine, scheduler or
backend flag, serial ``jobs=1``, gc on, and a fresh private
``ResultStore`` in a temporary directory under the benchmark's work
directory (never ``.repro_cache`` or ``$REPRO_CACHE_DIR``).  The seed
reaches the program only through ``expand_grid(seed=...)``.

* ``mesi-small`` / ``dbypfull-small`` — one operation is a cold serial
  sweep of one rung over :data:`SWEEP_APPS` at ``small`` scale into an
  empty store, followed by :data:`REREADS` warm re-runs of the same
  sweep, which only read the store.
* ``report-warm`` — set-up fills a store with the 54-cell paper grid at
  ``tiny`` scale (one cold serial sweep); one operation then loads the
  grid from that store and renders the report, the calls
  ``python -m repro report --scale tiny`` makes on a warm cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import report
from repro.common.config import ScaleConfig, scaled_system
from repro.runner import (
    DEFAULT_SEED, ResultStore, expand_grid, result_to_dict, sweep,
    sweep_grid)
from repro.waste.profiler import Category

import gridtrace
from hostspeed import CALIBRATION_CODE, HostSpeed, calibrated

#: Apps of the sweep workloads: LU and barnes fit the scaled L2; FFT
#: exceeds it (about 2x).
SWEEP_APPS = ("LU", "barnes", "FFT")
SWEEP_RUNGS = {"mesi-small": "MESI", "dbypfull-small": "DBypFull"}
WORKLOADS = (*SWEEP_RUNGS, "report-warm")

#: Warm re-runs after each cold sweep (store reads only), timed in
#: batches: one sample is the mean of a batch.  A single re-run takes
#: under a millisecond, too short for host-speed compensation to track;
#: the workload's ``probe`` runs between batches.
REREADS = 12000
REREAD_BATCH = 20
#: Fresh-interpreter set-ups per run, each paired with a calibration
#: job (see :mod:`hostspeed`); ``setup_s`` is the median over the pairs.
SETUPS = 11
#: Per-layer metrics of report-warm measured on its report operations;
#: the rest come from its traced set-up sweep.
REPORT_LAYER_METRICS = ("runner.store_load_s", "runner.store_loads",
                        "analysis.report_s", "energy.derive_s")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: (start, end) ``time.perf_counter`` readings around one timed call.
Interval = Tuple[float, float]


class CoverageError(RuntimeError):
    """The traced run saw a layer do work it must not, or miss work."""


def digest(obj) -> str:
    """Short stable digest of a JSON-able value or a string."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Counts operations and checks each one's output digests.

    ``strict`` checkers hold the committed reference (default seed): a
    digest missing from it is a failure.  Otherwise the first digest
    seen under a name becomes the reference for later operations.
    """

    def __init__(self, expected: Dict[str, str], strict: bool) -> None:
        self.expected = dict(expected)
        self.strict = strict
        self.attempted = 0
        self.failed = 0

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def matches(self, digests: Dict[str, str]) -> bool:
        bad = []
        for name, got in sorted(digests.items()):
            want = self.expected.get(name)
            if want is None and not self.strict:
                self.expected[name] = got
            elif want != got:
                bad.append(f"{name}: expected {want}, got {got}")
        if bad:
            print("gridbench: output mismatch\n  " + "\n  ".join(bad),
                  file=sys.stderr)
        return not bad

    def attempt(self, operation: Callable[[], tuple]):
        """Run one operation returning ``(value, digests)``; an
        exception or a digest mismatch counts it as failed.  Returns the
        value, or ``None`` if the operation raised."""
        self.attempted += 1
        try:
            value, digests = operation()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not self.matches(digests):
            self.failed += 1
        return value


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def golden_cells(root: Path) -> Dict[str, str]:
    """Digests of the tiny-grid golden cells, read-only."""
    golden = json.loads(
        (root / "tests" / "golden" / "grid_tiny.json").read_text())["grid"]
    return {f"{w}/{p}": digest(cell)
            for w, cells in golden.items() for p, cell in cells.items()}


def cell_digests(outcomes) -> Dict[str, str]:
    return {f"{o.spec.workload}/{o.spec.protocol}": digest(
        result_to_dict(o.result)) for o in outcomes}


def run_setup(code: str, root: Path) -> float:
    """Run ``code`` in a fresh interpreter against the program in
    ``root/src``; returns when it has exited, with the seconds the
    interpreter spent in ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    timed = ("import time\n_start = time.perf_counter()\n" + code
             + "print(_start, time.perf_counter())\n")
    child = subprocess.run([sys.executable, "-c", timed], cwd=root,
                           env=env, check=True, timeout=120,
                           stdout=subprocess.PIPE, text=True)
    start, end = child.stdout.split()[-2:]
    return float(end) - float(start)


def measure_setups(code: str, root: Path) -> List[Tuple[float, float]]:
    """:data:`SETUPS` ``(set-up seconds, calibration seconds)`` pairs,
    alternating which of the two runs first."""
    pairs = []
    for i in range(SETUPS):
        if i % 2:
            calibration = run_setup(CALIBRATION_CODE, root)
            pairs.append((run_setup(code, root), calibration))
        else:
            setup = run_setup(code, root)
            pairs.append((setup, run_setup(CALIBRATION_CODE, root)))
    return pairs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(samples: Sequence[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class SweepOp:
    """One cold sweep and its warm re-runs."""

    sweep: Interval
    reread_batches: List[Interval]
    outcomes: list

    @property
    def sweep_s(self) -> float:
        return self.sweep[1] - self.sweep[0]


class SweepWorkload:
    """One rung over :data:`SWEEP_APPS` at ``small`` scale."""

    def __init__(self, name: str, seed: int, work_dir: Path,
                 apps: Sequence[str] = SWEEP_APPS) -> None:
        self.name = name
        self.work_dir = work_dir
        rung = SWEEP_RUNGS[name]
        self.specs = expand_grid(workloads=apps, protocols=(rung,),
                                 seed=seed)
        self.setup_code = (
            "from repro.runner import expand_grid\n"
            f"expand_grid(workloads={tuple(apps)!r}, protocols=({rung!r},),"
            f" seed={seed})\n")
        reference = (load_reference().get(name, {})
                     if seed == DEFAULT_SEED else None)
        self.checker = Checker(reference or {}, strict=reference is not None)
        #: Called between re-run batches (a host-speed probe when timed).
        self.probe: Callable[[], None] = lambda: None

    def _op(self):
        store_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            store = ResultStore(store_dir)
            start = time.perf_counter()
            outcomes = sweep(self.specs, jobs=1, store=store)
            cold = (start, time.perf_counter())
            results = [o.result for o in outcomes]
            batches = []
            for _ in range(REREADS // REREAD_BATCH):
                self.probe()
                start = time.perf_counter()
                warm = [sweep(self.specs, jobs=1, store=store)
                        for _ in range(REREAD_BATCH)]
                batches.append((start, time.perf_counter()))
                if any(not o.from_cache or o.result != r
                       for run in warm for o, r in zip(run, results)):
                    raise RuntimeError("a warm re-run did not return the "
                                       "stored cells unchanged")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if not all(r.events > 0 for r in results):
            raise RuntimeError("a cell ran no events")
        return SweepOp(cold, batches, outcomes), cell_digests(outcomes)

    def run_op(self) -> Optional[SweepOp]:
        return self.checker.attempt(self._op)


class ReportWorkload:
    """The 54-cell paper grid at ``tiny`` scale, reported warm."""

    name = "report-warm"

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.seed = seed
        self.scale = ScaleConfig.tiny()
        self.config = scaled_system(self.scale)
        self.specs = expand_grid(scale=self.scale, seed=seed)
        self.store = ResultStore(tempfile.mkdtemp(dir=work_dir))
        self.setup_code = (
            "from repro.analysis import report\n"
            "from repro.common.config import ScaleConfig\n"
            "from repro.runner import expand_grid\n"
            f"expand_grid(scale=ScaleConfig.tiny(), seed={seed})\n")
        if seed == DEFAULT_SEED:
            expected = golden_cells(root)
            expected.update(load_reference().get(self.name, {}))
            self.checker = Checker(expected, strict=True)
        else:
            self.checker = Checker({}, strict=False)
        self.fill_outcomes: list = []

    def _fill(self):
        start = time.perf_counter()
        outcomes = sweep(self.specs, jobs=1, store=self.store)
        return ((start, time.perf_counter()), outcomes), cell_digests(outcomes)

    def fill(self) -> Interval:
        """The cold serial sweep into the empty store.  A fill that
        raised leaves nothing to report on, so it raises."""
        filled = self.checker.attempt(self._fill)
        if filled is None:
            raise RuntimeError("report-warm set-up sweep failed")
        interval, self.fill_outcomes = filled
        return interval

    def _op(self):
        start = time.perf_counter()
        grid = sweep_grid(scale=self.scale, seed=self.seed, jobs=1,
                          store=self.store)
        text = report.generate(grid, energy_config=self.config)
        interval = (start, time.perf_counter())
        digests = {f"{w}/{p}": digest(result_to_dict(r))
                   for w, cells in grid.items() for p, r in cells.items()}
        digests["report"] = digest(text)
        return interval, digests

    def run_op(self) -> Optional[Interval]:
        return self.checker.attempt(self._op)


def make_workload(name: str, seed: int, work_dir: Path, root: Path):
    if name in SWEEP_RUNGS:
        return SweepWorkload(name, seed, work_dir)
    if name == ReportWorkload.name:
        return ReportWorkload(seed, work_dir, root)
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{', '.join(WORKLOADS)}")


def repeat(seconds: float, operation: Callable[[], object],
           between: Callable[[], None] = lambda: None) -> list:
    """Run ``operation`` until ``seconds`` have passed (at least once),
    calling ``between`` after each; returns the values of the operations
    that succeeded."""
    values = []
    deadline = time.perf_counter() + seconds
    while True:
        value = operation()
        between()
        if value is not None:
            values.append(value)
        if time.perf_counter() >= deadline:
            return values


# ----------------------------------------------------------------------
# Timed runs: end-to-end metrics
# ----------------------------------------------------------------------

@dataclass
class RunReport:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)


def measure(workload, seconds: float, root: Path) -> RunReport:
    """A timed (untraced) run: every end-to-end metric, in reference
    seconds (see :mod:`hostspeed`)."""
    setups = measure_setups(workload.setup_code, root)
    speed = HostSpeed()
    if isinstance(workload, SweepWorkload):
        workload.probe = speed.probe
        with speed:
            ops = repeat(seconds, workload.run_op)
        if not ops:
            raise RuntimeError("every operation failed")
        sweeps = [op.sweep for op in ops]
        rates = [_compensated_rate(op.outcomes, op.sweep, speed)
                 for op in ops]
        reads = [batch for op in ops for batch in op.reread_batches]
        per_read = REREAD_BATCH
        notes = [f"{len(ops)} sweeps of {len(workload.specs)} cells; "
                 f"{len(reads)} batches of {REREAD_BATCH} warm re-runs"]
    else:
        with speed:
            fill = workload.fill()
            speed.probe()
            reads = repeat(seconds, workload.run_op, speed.probe)
        if not reads:
            raise RuntimeError("every operation failed")
        sweeps, per_read = [fill], 1
        rates = [_compensated_rate(workload.fill_outcomes, fill, speed)]
        notes = [f"set-up sweep of {len(workload.specs)} cells; "
                 f"{len(reads)} reports"]
    raw_setup = statistics.median(setup for setup, _ in setups)
    raw_sweep = statistics.median(end - start for start, end in sweeps)
    raw_read = statistics.median(end - start for start, end in reads)
    notes.append(f"uncompensated host seconds: set-up {raw_setup:.4g}, "
                 f"sweep {raw_sweep:.4g}, read sample {raw_read:.4g}; "
                 f"{len(speed.samples)} speed probes")
    reads = [speed.seconds(*read) / per_read for read in reads]
    metrics = {
        "setup_s": calibrated(setups),
        "sweep_s": statistics.median(speed.seconds(*s) for s in sweeps),
        "events_per_s": statistics.median(rates),
        "report_ms_p50": 1e3 * statistics.median(reads),
        "report_ms_p90": 1e3 * p90(reads),
        "peak_rss_mb": peak_rss_mb(),
    }
    checker = workload.checker
    return RunReport(metrics, checker.attempted, checker.failed, notes)


def _events_per_s(outcomes) -> float:
    return (sum(o.result.events for o in outcomes)
            / sum(o.elapsed for o in outcomes))


def _compensated_rate(outcomes, interval: Interval, speed: HostSpeed):
    """Events per reference second.  ``JobOutcome.elapsed`` includes the
    probes that ran inside it; they are taken out in proportion."""
    start, end = interval
    net = 1.0 - speed.busy(start, end) / (end - start)
    return _events_per_s(outcomes) / net / speed.scale(start, end)


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(layers: Dict[str, gridtrace.LayerTotals], outcomes,
                  units: int) -> Dict[str, float]:
    """Per-layer metrics per unit of work, from the tracer's totals and
    the outcomes of the same traced phase."""
    empty = gridtrace.LayerTotals()

    def lay(name):
        return layers.get(name, empty)

    results = [o.result for o in outcomes]
    dram = {key: sum(r.dram_stats.get(key, 0) for r in results)
            for key in ("row_hits", "row_misses")}
    l1_total = sum(sum(r.l1_waste.values()) for r in results)
    l1_used = sum(r.l1_waste.get(Category.USED, 0) for r in results)
    cache = lay("cache")
    lookups = cache.method_calls.get("lookup", 0)
    row_accesses = dram["row_hits"] + dram["row_misses"]
    runner = lay("runner")
    per = 1.0 / units
    return {
        "engine.self_s": lay("engine").self_time * per,
        "engine.events": sum(r.events for r in results) * per,
        "coherence.mesi.calls": lay("coherence.mesi").calls * per,
        "coherence.mesi.self_s": lay("coherence.mesi").self_time * per,
        "coherence.denovo.calls": lay("coherence.denovo").calls * per,
        "coherence.denovo.self_s": lay("coherence.denovo").self_time * per,
        "bloom.calls": lay("bloom").calls * per,
        "bloom.self_s": lay("bloom").self_time * per,
        "bloom.clear.calls": lay("bloom").calls_of("clear") * per,
        "cache.calls": cache.calls * per,
        "cache.self_s": cache.self_time * per,
        "cache.lookup_hit_ratio": (cache.method_hits.get("lookup", 0)
                                   / lookups if lookups else 0.0),
        "waste.calls": lay("waste").calls * per,
        "waste.self_s": lay("waste").self_time * per,
        "network.calls": lay("network").calls * per,
        "network.self_s": lay("network").self_time * per,
        "dram.requests": lay("dram").calls_of("read", "write") * per,
        "dram.self_s": lay("dram").self_time * per,
        "dram.row_hit_ratio": (dram["row_hits"] / row_accesses
                               if row_accesses else 0.0),
        "workloads.build_s": sum(o.build_seconds for o in outcomes) * per,
        "runner.sim_s": sum(o.elapsed for o in outcomes) * per,
        "runner.store_save_s": runner.method_self.get("save", 0.0) * per,
        "runner.store_load_s": runner.method_self.get("load", 0.0) * per,
        "runner.store_loads": runner.calls_of("load") * per,
        "analysis.report_s": lay("analysis").self_time * per,
        "energy.derive_s": lay("energy").self_time * per,
        "sim.exec_cycles": sum(r.exec_cycles for r in results) * per,
        "sim.noc_flit_hops": sum(r.energy_counters.get("noc_flit_hops", 0)
                                 for r in results) * per,
        "sim.l1_waste_ratio": ((l1_total - l1_used) / l1_total
                               if l1_total else 0.0),
    }


def check_coverage(name: str, layers, outcomes,
                   report_layers=None, reports: int = 0) -> None:
    """Raise :class:`CoverageError` unless every layer did the work the
    workload implies, and none did work it must not."""
    problems = []

    def calls(layer, table=layers):
        return table[layer].calls if layer in table else 0

    if name == "mesi-small":
        if calls("bloom"):
            problems.append(f"bloom.calls = {calls('bloom')} on MESI")
        if calls("coherence.denovo"):
            problems.append("the DeNovo controller ran on MESI")
        if not calls("coherence.mesi"):
            problems.append("the MESI controller was never called")
    elif name == "dbypfull-small":
        if not calls("bloom"):
            problems.append("bloom.calls = 0 on DBypFull")
        if calls("coherence.mesi"):
            problems.append("the MESI controller ran on DBypFull")
        if not calls("coherence.denovo"):
            problems.append("the DeNovo controller was never called")
    else:
        loads = (report_layers["runner"].calls_of("load")
                 if "runner" in report_layers else 0)
        if loads != 54 * reports:
            problems.append(f"{loads} store loads over {reports} reports, "
                            f"not 54 per report")
        if calls("engine", report_layers):
            problems.append("a report operation ran a simulation")
    requests = (layers["dram"].calls_of("read", "write")
                if "dram" in layers else 0)
    expected = sum(o.result.dram_stats["reads"] + o.result.dram_stats["writes"]
                   for o in outcomes)
    if requests != expected:
        problems.append(f"dram.requests = {requests}, but RunResult "
                        f"dram_stats reads + writes = {expected}")
    for layer in ("engine", "cache", "waste", "network", "dram"):
        if not calls(layer):
            problems.append(f"layer {layer} was never called")
    if problems:
        raise CoverageError("; ".join(problems))


def trace(workload, seconds: float, trace_path: Path) -> RunReport:
    """A traced run: every per-layer metric, plus the tracing overhead.

    The wrappers go in before the first ``System`` of the run is built.
    """
    tracer = gridtrace.Tracer()
    tracer.install()
    try:
        with tracer.span("run"):
            if isinstance(workload, SweepWorkload):
                phases = _trace_sweeps(tracer, workload, seconds)
            else:
                phases = _trace_reports(tracer, workload, seconds)
    finally:
        tracer.uninstall()
    sim_layers, outcomes, units, report_layers, reports, overhead = phases
    check_coverage(workload.name, sim_layers, outcomes, report_layers,
                   reports)
    metrics = layer_metrics(sim_layers, outcomes, units)
    if report_layers is not None:
        per_report = layer_metrics(report_layers, [], max(1, reports))
        metrics.update({k: per_report[k] for k in REPORT_LAYER_METRICS})
    checker = workload.checker
    metrics["trace.overhead_x"] = overhead
    metrics["fail_ratio"] = checker.fail_ratio
    tracer.write(trace_path, extra={"workload": workload.name,
                                    "metrics": metrics})
    table = _layer_table(sim_layers, units, "per sweep")
    if report_layers is not None:
        table += _layer_table(report_layers, max(1, reports), "per report")
    spans = gridtrace.span_self_times(tracer.spans)
    table.append("span self seconds: " + ", ".join(
        f"{name} {seconds:.3f}" for name, seconds in sorted(spans.items())))
    return RunReport(metrics, checker.attempted, checker.failed, table)


def _trace_sweeps(tracer, workload, seconds):
    """Traced sweeps for ``seconds``, then one untraced sweep to compare."""
    ops = repeat(seconds, lambda: _in_span(tracer, "sweep", workload.run_op))
    if not ops:
        raise RuntimeError("every operation failed")
    layers = tracer.layers()
    tracer.uninstall()
    untraced = workload.run_op()
    overhead = (statistics.median(op.sweep_s for op in ops)
                / untraced.sweep_s) if untraced else float("nan")
    outcomes = [o for op in ops for o in op.outcomes]
    return layers, outcomes, len(ops), None, 0, overhead


def _trace_reports(tracer, workload, seconds):
    """The traced set-up sweep, then reports that alternate traced and
    untraced, so host-speed drift cancels out of the overhead."""
    with tracer.span("sweep"):
        workload.fill()
    sim_layers = tracer.layers()
    tracer.reset()
    traced, untraced, reports = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        reports += 1
        _add_duration(traced, workload.run_op())
        report_layers = tracer.layers()
        tracer.uninstall()
        _add_duration(untraced, workload.run_op())
        tracer.install()
        if time.perf_counter() >= deadline:
            break
    overhead = (statistics.median(traced) / statistics.median(untraced)
                if traced and untraced else float("nan"))
    return (sim_layers, workload.fill_outcomes, 1, report_layers, reports,
            overhead)


def _add_duration(durations: List[float], interval: Optional[Interval]):
    if interval is not None:
        durations.append(interval[1] - interval[0])


def _in_span(tracer, name, operation):
    with tracer.span(name):
        return operation()


def _layer_table(layers, units: int, label: str) -> List[str]:
    total = sum(t.self_time for t in layers.values()) or 1.0
    lines = [f"{'layer':<18} {'calls ' + label:>18} {'self s':>10} "
             f"{'share':>7}"]
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1].self_time):
        lines.append(f"{name:<18} {t.calls / units:>18.0f} "
                     f"{t.self_time / units:>10.4f} "
                     f"{100 * t.self_time / total:>6.1f}%")
    return lines
