"""Host-speed compensation for the grid benchmark's timed runs.

The machines this benchmark runs on share physical cores with other
tenants. Measured on the baseline host, the speed of a fixed loop
switches between states 1.3-2x apart. A state lasts from a fraction of
a second to minutes. So the same work reads 20-40% apart between runs, and medians
flip between states.

While a timed phase runs, :class:`HostSpeed` times a fixed pure-Python
probe loop every :data:`INTERVAL` seconds. It uses an interval timer
whose signal handler runs in the main thread between bytecodes; no
thread or process is started. Short operations call :meth:`HostSpeed.probe`
between them as well, because the speed also swings within a fraction of
a second and only a probe next to a short timing tracks it. A timing,
less the probes that ran inside it, is then multiplied by ``REFERENCE_S
/ (mean time of the probes inside it and of the nearest probe on either
side)``. The result is in reference seconds: seconds on a host where the
probe takes :data:`REFERENCE_S`.

A fresh interpreter's start-up is bound by imports (file reads,
unmarshalling, class creation), which the probe loop tracks badly. So
set-up times are compensated by a calibration job of the same kind
instead: :data:`CALIBRATION_CODE`, which imports a fixed set of standard
library modules in a fresh interpreter, runs next to each set-up, and
:func:`calibrated` scales each set-up by ``CALIBRATION_REFERENCE_S /
(its calibration job's time)``.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from typing import Dict, List, Tuple

#: Seconds between probes while a timed phase runs.
INTERVAL = 0.1
#: Probe-loop seconds on the reference host; it only sets the unit.
REFERENCE_S = 0.002
#: Probe-loop iterations and JSON round trips (together about
#: REFERENCE_S on the reference host).
PROBE_ITERATIONS = 3000
PROBE_ROUND_TRIPS = 6
#: The probe's JSON document, about the size of a stored cell.
PROBE_DOCUMENT = json.dumps({
    f"k{i}": {"a": i, "b": [i, i + 1.5, "x"], "c": {"d": i * 3}}
    for i in range(40)})

#: Fresh-interpreter calibration job for set-up times: standard library
#: imports only, so no change to the program moves it.
CALIBRATION_CODE = (
    "import argparse, asyncio, concurrent.futures, configparser, csv, "
    "dataclasses, decimal, difflib, email.mime.multipart, email.parser, "
    "fractions, html.parser, http.server, inspect, json, "
    "logging.handlers, multiprocessing.pool, pathlib, pdb, shelve, "
    "sqlite3, statistics, tarfile, tomllib, typing, unittest, uuid, "
    "xml.dom.minidom, xmlrpc.client, zipfile\n")
#: Calibration-job seconds on the reference host; it only sets the unit.
CALIBRATION_REFERENCE_S = 0.15


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe_loop(cells: List[_Cell], table: Dict[int, int]) -> int:
    """Fixed work of the kinds the program does most: attribute reads and
    writes, dict traffic and small calls as in a simulation, then JSON
    round trips as in store reads and reports.  Collection is off while
    it runs, so it never collects the program's heap inside its own
    timing; what it allocates it frees before it returns."""
    total = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(PROBE_ITERATIONS):
            cell = cells[i & 255]
            cell.value = (cell.value + i) & 0xFFFF
            table[cell.key] = table.get(cell.key, 0) ^ cell.value
            total += len(cells)
        for _ in range(PROBE_ROUND_TRIPS):
            total += len(json.dumps(json.loads(PROBE_DOCUMENT),
                                    sort_keys=True))
    finally:
        if enabled:
            gc.enable()
    return total


class HostSpeed:
    """Probes the host's speed while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []   # (start, seconds)
        self._previous = None
        self._cells = [_Cell(key, 0) for key in range(256)]
        self._table = dict.fromkeys(range(256), 0)

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_loop(self._cells, self._table)
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda _sig, _frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``: from
        the probes inside it and the nearest one on either side within
        :data:`INTERVAL` of it; else from the nearest probe."""
        inside = [seconds for at, seconds in self.samples
                  if start <= at <= end]
        before = [(at, seconds) for at, seconds in self.samples
                  if start - INTERVAL <= at < start]
        after = [(at, seconds) for at, seconds in self.samples
                 if end < at <= end + INTERVAL]
        near = inside
        if before:
            near.append(max(before)[1])
        if after:
            near.append(min(after)[1])
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REFERENCE_S / statistics.mean(near)

    def busy(self, start: float, end: float) -> float:
        """Seconds the probes themselves took within ``[start, end]``."""
        return sum(seconds for at, seconds in self.samples
                   if start <= at <= end)

    def seconds(self, start: float, end: float) -> float:
        """``end - start``, less the probes in it, in reference seconds."""
        return (end - start - self.busy(start, end)) * self.scale(start, end)


def calibrated(pairs: List[Tuple[float, float]]) -> float:
    """Median set-up time in reference seconds, from ``(set-up seconds,
    calibration-job seconds)`` pairs measured next to each other."""
    return statistics.median(CALIBRATION_REFERENCE_S * setup / calibration
                             for setup, calibration in pairs)
