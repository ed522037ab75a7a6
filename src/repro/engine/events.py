"""Discrete-event simulation core.

A single event queue drives the whole simulated machine.  Components
schedule callbacks at absolute cycle times; ties are broken by insertion
order so the simulation is fully deterministic.

The scheduler is allocation-light: the fast path is
:meth:`EventQueue.schedule_call`, which takes a callable plus its
arguments and stores them directly in the queue entry, so hot callers
pass bound methods instead of allocating a closure per event.  The
legacy :meth:`EventQueue.schedule` (zero-argument callback) is the same
entry point with an empty argument tuple.

Determinism contract
--------------------

Events fire in ``(when, seq)`` order, where ``seq`` is the global
schedule-call counter — identical streams of schedule calls produce
identical execution orders, whichever of the two entry points each
caller used.  Two interchangeable schedulers honour the contract:

* :class:`EventQueue` — the classic binary heap.  Entries are
  ``(when, seq, fn, args)`` tuples; the contract is enforced by tuple
  comparison.  It is the reference the wheel is checked against
  (``tests/test_events.py``) and a standalone queue for component
  tests; simulations do not run on it.

* :class:`WheelEventQueue` — the scheduler every simulation runs on
  (``SimContext`` builds one per machine): a two-level bucketed
  calendar queue (time wheel).  Near-future cycles (``when - now < _WHEEL_SIZE``) map
  onto a power-of-two ring of flat per-cycle FIFO buckets: an append
  is O(1) and the bucket's list order *is* seq order, so no per-entry
  seq needs to be stored or compared.  A small min-heap of occupied
  cycle numbers (ints — each pushed exactly once, when its bucket goes
  empty → non-empty) finds the next populated bucket without scanning
  the ring.  Far-future events go to an overflow heap keyed
  ``(when, seq)`` and drain into the wheel as the window slides.

  Why the wheel preserves the contract structurally: the window only
  advances inside :meth:`WheelEventQueue.run`, and every advance first
  drains all overflow entries that the new window covers — in
  ``(when, seq)`` heap order — before any callback at the new ``now``
  can run.  A direct in-window append for cycle ``c`` requires
  ``now > c - W``, which can only happen at or after the advance that
  drained ``c``'s overflow entries; those therefore always precede the
  append in the bucket, and both groups are individually seq-ordered
  (the overflow heap by its stored seq, direct appends because the
  schedule-call stream appends chronologically).  Hence each bucket's
  FIFO order equals global ``(when, seq)`` order.

The differential tests in ``tests/test_events.py`` pin the wheel to the
heap's firing order on random and adversarial schedules.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Shared empty argument tuple for legacy zero-argument callbacks.
_NO_ARGS: Tuple = ()

#: Wheel window size (cycles), power of two.  Covers every short-range
#: delay in the model (cache/NoC/DRAM latencies are tens of cycles,
#: barrier release 50, NACK retry 20); only long timers (e.g. the
#: 10k-cycle write-combine timeout) and compute phases overflow.
_WHEEL_BITS = 12
_WHEEL_SIZE = 1 << _WHEEL_BITS
_WHEEL_MASK = _WHEEL_SIZE - 1

class EventQueue:
    """Deterministic discrete-event scheduler keyed by cycle time.

    The reference binary-heap implementation.
    """

    __slots__ = ("_heap", "_seq", "now", "_events_run")

    def __init__(self) -> None:
        # Heap entries are (when, seq, fn, args); comparisons never
        # reach fn/args because seq is unique.
        self._heap: List[tuple] = []
        self._seq = 0
        self.now = 0
        self._events_run = 0

    def schedule_call(self, when: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute cycle ``when`` (>= now).

        The allocation-light fast path: no closure per event, just the
        bound method and its arguments in the heap entry.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule event in the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def schedule(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute cycle ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule event in the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, callback, _NO_ARGS))
        self._seq += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, callback)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; return the final simulation time.

        ``max_events`` bounds the *total* number of callbacks executed
        across all ``run`` calls on this queue and exists purely as a
        safety net against protocol livelock bugs.  The unbounded path
        carries no budget comparison at all; the bounded path counts a
        plain integer down instead of comparing against infinity.
        """
        heap = self._heap
        pop = heapq.heappop
        events_run = self._events_run
        try:
            if max_events is None:
                # Unbounded: no budget check on the hot loop.
                while heap:
                    when, _seq, fn, args = pop(heap)
                    self.now = when
                    events_run += 1
                    fn(*args)
                    # Same-cycle batch drain: events landing on the
                    # current cycle skip the clock update.
                    while heap and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
                        events_run += 1
                        fn(*args)
                return self.now
            remaining = max_events - events_run
            while heap and remaining > 0:
                when, _seq, fn, args = pop(heap)
                self.now = when
                events_run += 1
                remaining -= 1
                fn(*args)
                while remaining > 0 and heap and heap[0][0] == when:
                    _w, _seq, fn, args = pop(heap)
                    events_run += 1
                    remaining -= 1
                    fn(*args)
        finally:
            self._events_run = events_run
        if heap:
            raise RuntimeError(
                f"event budget exhausted after {events_run} events "
                f"at cycle {self.now}; likely a protocol livelock")
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        return self._events_run

    def register_metrics(self, hub) -> None:
        """Register scheduler counters into a ``repro.obs`` hub
        (pull-based; called only when observability is enabled)."""
        hub.add_pull("engine_events", lambda q=self: q._events_run,
                     help="events executed by the scheduler")
        hub.add_pull("engine_pending", lambda q=self: q.pending,
                     kind="gauge", help="events waiting in the queue")


class WheelEventQueue:
    """Two-level bucketed calendar queue.

    Same API and observable behaviour as :class:`EventQueue` — firing
    order, ``now``/``events_run`` evolution, past-scheduling errors and
    the livelock budget all match the heap bit-for-bit (see the module
    docstring for why the ``(when, seq)`` contract holds structurally).

    Cost model versus the heap: an in-window ``schedule_call`` is a
    list append (no tuple comparison, no sift), a fire is a list index;
    the only heap operations left are one int push/pop per *distinct
    occupied cycle* (events per cycle average well above one on the
    coherence hot phases) and the rare far-future overflow entry.
    """

    __slots__ = ("_wheel", "_cycles", "_overflow", "_seq", "_count",
                 "now", "_events_run")

    def __init__(self) -> None:
        # One FIFO bucket per cycle of the [now, now + _WHEEL_SIZE)
        # window, indexed ``when & _WHEEL_MASK``; entries are (fn, args).
        self._wheel: List[list] = [[] for _ in range(_WHEEL_SIZE)]
        # Min-heap of occupied in-window cycle numbers; each occupied
        # cycle appears exactly once (pushed on empty -> non-empty).
        self._cycles: List[int] = []
        # Far-future events: (when, seq, fn, args), drained into the
        # wheel as the window slides.
        self._overflow: List[tuple] = []
        self._seq = 0          # orders overflow entries only
        self._count = 0        # events resident in the wheel
        self.now = 0
        self._events_run = 0

    def schedule_call(self, when: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute cycle ``when`` (>= now)."""
        if when - self.now < _WHEEL_SIZE:
            if when < self.now:
                raise ValueError(f"cannot schedule event in the past "
                                 f"({when} < {self.now})")
            bucket = self._wheel[when & _WHEEL_MASK]
            if not bucket:
                heapq.heappush(self._cycles, when)
            bucket.append((fn, args))
            self._count += 1
        else:
            heapq.heappush(self._overflow, (when, self._seq, fn, args))
            self._seq += 1

    def schedule(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute cycle ``when`` (>= now)."""
        self.schedule_call(when, callback)

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule_call(self.now + delay, callback)

    def _drain_overflow(self, t: int) -> None:
        """Move every overflow entry the window at ``t`` covers into its
        bucket, in ``(when, seq)`` order (the heap's pop order)."""
        overflow = self._overflow
        wheel = self._wheel
        cycles = self._cycles
        pop = heapq.heappop
        push = heapq.heappush
        horizon = t + _WHEEL_SIZE
        moved = 0
        while overflow and overflow[0][0] < horizon:
            when, _seq, fn, args = pop(overflow)
            bucket = wheel[when & _WHEEL_MASK]
            # ``when == t`` is the cycle being fired right now — its
            # slot in the cycles heap was already consumed by run().
            if not bucket and when != t:
                push(cycles, when)
            bucket.append((fn, args))
            moved += 1
        self._count += moved

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; return the final simulation time.

        Semantics match :meth:`EventQueue.run`, including the
        ``max_events`` livelock budget.  Each cycle's bucket is fired
        **in place** by index, so a same-cycle event scheduled *by* one
        of the bucket's callbacks simply extends the live bucket and
        fires in the same pass — it carries a later seq than everything
        already in the bucket, which is exactly the heap's same-cycle
        drain order — and the bucket list object is reused across
        window wraps (``clear()``, never reallocated; the per-cycle
        cost is one int heap pop plus the index walk).  ``_count`` is
        decremented per fired event so ``pending`` observed from inside
        a callback matches the heap's value exactly (the phase sampler
        re-arms off it).  On an exception the raising event counts as
        consumed, like a popped heap entry; the unfired tail (and any
        same-cycle appends behind it) stays in the bucket, which
        re-registers its cycle.
        """
        wheel = self._wheel
        cycles = self._cycles
        overflow = self._overflow
        pop = heapq.heappop
        events_run = self._events_run
        try:
            if max_events is None:
                while True:
                    if cycles:
                        t = pop(cycles)
                    elif overflow:
                        t = overflow[0][0]
                    else:
                        break
                    if overflow and overflow[0][0] < t + _WHEEL_SIZE:
                        self._drain_overflow(t)
                    self.now = t
                    bucket = wheel[t & _WHEEL_MASK]
                    i = 0
                    try:
                        while i < len(bucket):
                            fn, args = bucket[i]
                            i += 1
                            self._count -= 1
                            events_run += 1
                            fn(*args)
                    except BaseException:
                        del bucket[:i]
                        if bucket:
                            heapq.heappush(cycles, t)
                        raise
                    bucket.clear()
                return self.now
            remaining = max_events - events_run
            while remaining > 0:
                if cycles:
                    t = pop(cycles)
                elif overflow:
                    t = overflow[0][0]
                else:
                    break
                if overflow and overflow[0][0] < t + _WHEEL_SIZE:
                    self._drain_overflow(t)
                self.now = t
                bucket = wheel[t & _WHEEL_MASK]
                i = 0
                try:
                    while i < len(bucket) and remaining > 0:
                        fn, args = bucket[i]
                        i += 1
                        self._count -= 1
                        events_run += 1
                        remaining -= 1
                        fn(*args)
                except BaseException:
                    del bucket[:i]
                    if bucket:
                        heapq.heappush(cycles, t)
                    raise
                if i < len(bucket):
                    # Budget exhausted mid-bucket.
                    del bucket[:i]
                    heapq.heappush(cycles, t)
                else:
                    bucket.clear()
        finally:
            self._events_run = events_run
        if self._count or self._overflow:
            raise RuntimeError(
                f"event budget exhausted after {events_run} events "
                f"at cycle {self.now}; likely a protocol livelock")
        return self.now

    @property
    def pending(self) -> int:
        return self._count + len(self._overflow)

    @property
    def events_run(self) -> int:
        return self._events_run

    def register_metrics(self, hub) -> None:
        """Register scheduler counters into a ``repro.obs`` hub
        (pull-based; called only when observability is enabled)."""
        hub.add_pull("engine_events", lambda q=self: q._events_run,
                     help="events executed by the scheduler")
        hub.add_pull("engine_pending", lambda q=self: q.pending,
                     kind="gauge", help="events waiting in the queue")


class Barrier:
    """All-core barrier synchronization.

    Cores call :meth:`arrive` with a continuation; once every participant
    has arrived, all continuations are released at the same cycle (plus a
    fixed communication cost — ``System`` threads this in from
    ``SystemConfig.barrier_release_cost``).  ``on_release`` hooks let
    protocols attach barrier-time work (DeNovo self-invalidation,
    Bloom-filter clears).
    """

    def __init__(self, queue: EventQueue, participants: int,
                 release_cost: int = 50) -> None:
        if participants <= 0:
            raise ValueError("need at least one participant")
        self._queue = queue
        self._participants = participants
        self._release_cost = release_cost
        self._waiting: List[Tuple[int, Callable[[int], None]]] = []
        self._on_release: List[Callable[[], None]] = []
        self.barriers_passed = 0

    def on_release(self, hook: Callable[[], None]) -> None:
        """Register a hook run once per barrier, before cores resume."""
        self._on_release.append(hook)

    def arrive(self, core_id: int, resume: Callable[[int], None]) -> None:
        """Core ``core_id`` arrived; ``resume(release_time)`` is called
        once everyone is here."""
        self._waiting.append((core_id, resume))
        if len(self._waiting) < self._participants:
            return
        waiting, self._waiting = self._waiting, []
        self.barriers_passed += 1
        release_time = self._queue.now + self._release_cost
        self._queue.schedule_call(release_time, self._release, waiting,
                                  release_time)

    def _release(self, waiting: List[Tuple[int, Callable[[int], None]]],
                 release_time: int) -> None:
        for hook in self._on_release:
            hook()
        for _cid, resume_fn in waiting:
            resume_fn(release_time)

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)
