#!/usr/bin/env python3
"""The repository's benchmark of record: paper-grid sweeps and reports.

Run from the root of a checkout::

    python3 gridbench/run.py --workload mesi-small --seed 1 --trace 0
    python3 gridbench/run.py --all        # every workload, timed and traced

``--trace 0`` times the workload untraced and reports every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` is a separate traced run
that reports every per-layer metric and the tracing overhead, and
writes its spans to ``.gridbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``gridbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".gridbench"
WORKLOADS = ("mesi-small", "dbypfull-small", "report-warm")


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(ns: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"gridbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gridwork

    units = metric_units(bool(ns.trace))
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = gridwork.make_workload(ns.workload, ns.seed, work_dir,
                                          ROOT)
        if ns.trace:
            trace_path = WORK / f"trace-{ns.workload}-s{ns.seed}.json"
            try:
                result = gridwork.trace(workload, ns.seconds, trace_path)
            except gridwork.CoverageError as exc:
                print(f"gridbench: layer coverage check failed on "
                      f"{ns.workload}: {exc}", file=sys.stderr)
                return 3
        else:
            result = gridwork.measure(workload, ns.seconds, ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(result.metrics) != set(units):
        print(f"gridbench: metrics {sorted(result.metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 4
    mode = "traced" if ns.trace else "timed"
    print(f"== {ns.workload} ({mode}, seed {ns.seed}) ==")
    for line in result.notes:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<26} {result.metrics[name]:>16.6g} {unit}")
    print(f"  operations: {result.attempted} attempted, "
          f"{result.failed} failed")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(ns: argparse.Namespace) -> int:
    """Every workload timed, then traced, each in a fresh interpreter;
    their tables stream through, then one summary table."""
    rows, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(ns.seed),
                 "--seconds", str(ns.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode or not lines:
                print(f"gridbench: {workload} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                status = 1
                continue
            rows[workload, trace] = json.loads(lines[-1])
    print("\n== summary ==")
    print(f"{'metric':<26} {'unit':<6}" + "".join(
        f" {w:>15}" for w in WORKLOADS))
    for trace in (0, 1):
        for name, unit in metric_units(bool(trace)).items():
            cells = []
            for workload in WORKLOADS:
                row = rows.get((workload, trace))
                cells.append(f" {row['metrics'][name]['value']:>15.6g}"
                             if row else f" {'-':>15}")
            print(f"{name:<26} {unit:<6}" + "".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload timed and traced")
    ns = parser.parse_args(argv)
    if ns.all:
        return run_all(ns)
    if ns.workload is None:
        parser.error("--workload is required (or pass --all)")
    return run_one(ns)


if __name__ == "__main__":
    sys.exit(main())
