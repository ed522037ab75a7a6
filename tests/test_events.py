"""Unit tests for the discrete-event engine and barrier."""

import random

import pytest

from repro.engine.events import (
    _WHEEL_SIZE, Barrier, EventQueue, WheelEventQueue)


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(10, lambda: order.append("b"))
        q.schedule(5, lambda: order.append("a"))
        q.schedule(20, lambda: order.append("c"))
        q.run()
        assert order == ["a", "b", "c"]
        assert q.now == 20

    def test_fifo_within_same_cycle(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.schedule(7, lambda i=i: order.append(i))
        q.run()
        assert order == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        q = EventQueue()
        seen = []
        q.schedule(10, lambda: q.after(5, lambda: seen.append(q.now)))
        q.run()
        assert seen == [15]

    def test_rejects_past(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(5, lambda: None)

    def test_rejects_negative_delay(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.after(-1, lambda: None)

    def test_event_budget_raises(self):
        q = EventQueue()

        def recur():
            q.after(1, recur)

        q.schedule(0, recur)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=100)

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        log = []

        def first():
            log.append(("first", q.now))
            q.schedule(q.now + 3, lambda: log.append(("second", q.now)))

        q.schedule(2, first)
        q.run()
        assert log == [("first", 2), ("second", 5)]

    def test_counters(self):
        q = EventQueue()
        q.schedule(0, lambda: None)
        q.schedule(1, lambda: None)
        assert q.pending == 2
        q.run()
        assert q.pending == 0
        assert q.events_run == 2


class TestScheduleCall:
    """The allocation-light fast path: bound method + args, no lambda."""

    def test_args_passed_through(self):
        q = EventQueue()
        seen = []
        q.schedule_call(3, lambda a, b: seen.append((a, b, q.now)), 1, 2)
        q.run()
        assert seen == [(1, 2, 3)]

    def test_interleaved_with_legacy_schedule_keeps_seq_order(self):
        # Both entry points share one seq counter, so same-cycle events
        # fire in overall scheduling order regardless of which API was
        # used — the determinism contract of the engine rework.
        q = EventQueue()
        order = []
        q.schedule(5, lambda: order.append("legacy0"))
        q.schedule_call(5, order.append, "fast1")
        q.schedule(5, lambda: order.append("legacy2"))
        q.schedule_call(5, order.append, "fast3")
        q.run()
        assert order == ["legacy0", "fast1", "legacy2", "fast3"]

    def test_same_cycle_fifo(self):
        q = EventQueue()
        order = []
        for i in range(8):
            q.schedule_call(2, order.append, i)
        q.run()
        assert order == list(range(8))

    def test_events_scheduled_during_same_cycle_drain(self):
        # The same-cycle batch drain must still honour events that a
        # callback schedules for the *current* cycle.
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            q.schedule_call(q.now, order.append, "nested-same-cycle")

        q.schedule_call(4, first)
        q.schedule_call(4, order.append, "second")
        q.run()
        assert order == ["first", "second", "nested-same-cycle"]

    def test_rejects_past(self):
        q = EventQueue()
        q.schedule_call(4, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_call(1, lambda: None)

    def test_budget_exhaustion(self):
        q = EventQueue()

        def recur(t):
            q.schedule_call(t + 1, recur, t + 1)

        q.schedule_call(0, recur, 0)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=50)
        assert q.events_run == 50

    def test_budget_spans_multiple_runs(self):
        # max_events bounds the *total* events executed on the queue,
        # exactly as before the engine rework.
        q = EventQueue()
        q.schedule_call(0, lambda: None)
        q.run(max_events=10)
        assert q.events_run == 1
        for i in range(12):
            q.schedule_call(q.now + 1 + i, lambda: None)
        with pytest.raises(RuntimeError, match="livelock"):
            q.run(max_events=10)
        assert q.events_run == 10

    def test_unbounded_run_has_no_budget(self):
        q = EventQueue()
        hits = []
        for i in range(100):
            q.schedule_call(i, hits.append, i)
        q.run()   # max_events=None: the unbounded path
        assert len(hits) == 100
        assert q.events_run == 100


def _run_script(q, seed, initial=40, max_rearms=400):
    """Drive ``q`` with a seeded, self-rearming event script.

    Returns the complete firing log ``[(label, cycle), ...]``.  The
    RNG is consumed inside callbacks, so two queue implementations
    produce identical logs *iff* they fire events in the same order —
    any divergence (ordering, timing, lost or duplicated events)
    derails the logs immediately.  Delay classes cover the wheel's
    interesting regimes: same-cycle re-arms, short in-window hops,
    window-edge delays, and far-future overflow entries (several
    window wraps out).
    """
    rng = random.Random(seed)
    log = []
    rearms = [0]

    def fire(label):
        log.append((label, q.now))
        if rearms[0] >= max_rearms:
            return
        roll = rng.random()
        if roll < 0.2:
            delay = 0                                    # same cycle
        elif roll < 0.5:
            delay = rng.randrange(1, 8)                  # short hop
        elif roll < 0.7:
            delay = rng.randrange(8, _WHEEL_SIZE)        # in-window
        elif roll < 0.85:
            delay = _WHEEL_SIZE + rng.randrange(0, 3)    # window edge
        else:
            delay = rng.randrange(_WHEEL_SIZE,           # deep overflow
                                  4 * _WHEEL_SIZE)
        rearms[0] += 1
        q.schedule_call(q.now + delay, fire, f"{label}.{rearms[0]}")

    for i in range(initial):
        q.schedule_call(rng.randrange(0, 3 * _WHEEL_SIZE), fire, f"e{i}")
    q.run()
    return log


class TestWheelMatchesHeap:
    """Differential determinism: the wheel must reproduce the heap's
    exact firing order on adversarial schedules (the golden grid pins
    the real workloads; this pins the corner cases)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_schedules_fire_identically(self, seed):
        heap_log = _run_script(EventQueue(), seed)
        wheel_log = _run_script(WheelEventQueue(), seed)
        assert len(heap_log) > 100
        assert wheel_log == heap_log

    def test_same_cycle_rearm_chain(self):
        # A callback re-arming at the *current* cycle repeatedly, with
        # unrelated same-cycle events interleaved: the wheel's
        # detached-bucket drain must match the heap's seq order.
        def drive(q):
            log = []

            def chain(depth):
                log.append((f"chain{depth}", q.now))
                if depth < 5:
                    q.schedule_call(q.now, chain, depth + 1)

            q.schedule_call(3, chain, 0)
            for i in range(3):
                q.schedule_call(3, lambda i=i: log.append((f"flat{i}",
                                                           q.now)))
            q.run()
            return log

        assert drive(WheelEventQueue()) == drive(EventQueue())

    def test_overflow_promotion_keeps_seq_order(self):
        # Two far-future events for one cycle scheduled out of seq
        # order relative to an in-window event for the same cycle once
        # the window advances: promotion must preserve (when, seq).
        def drive(q):
            log = []
            target = 2 * _WHEEL_SIZE + 17
            q.schedule_call(target, log.append, "overflow-a")

            def mid():
                # Now in-window for target (scheduled later => later seq).
                q.schedule_call(target, log.append, "in-window-b")

            q.schedule_call(target - _WHEEL_SIZE + 1, mid)
            q.schedule_call(target, log.append, "overflow-c")
            q.run()
            return log

        expected = drive(EventQueue())
        assert drive(WheelEventQueue()) == expected
        # Seq order: a and c were scheduled before the run (seqs 0, 2),
        # b only from inside mid() (seq 3) — so c fires before b.
        assert expected == ["overflow-a", "overflow-c", "in-window-b"]

    def test_exception_consumes_only_fired_events(self):
        # A raising callback counts as consumed; unfired same-cycle
        # events must survive for a later run() on both schedulers.
        def drive(q):
            log = []

            def boom():
                log.append("boom")
                raise RuntimeError("handler bug")

            for i in range(2):
                q.schedule_call(5, lambda i=i: log.append(f"pre{i}"))
            q.schedule_call(5, boom)
            for i in range(2):
                q.schedule_call(5, lambda i=i: log.append(f"post{i}"))
            with pytest.raises(RuntimeError, match="handler bug"):
                q.run()
            survivors = q.pending
            q.run()
            return log, survivors, q.pending, q.events_run

        assert drive(WheelEventQueue()) == drive(EventQueue())

    def test_budget_mid_bucket_preserves_remainder(self):
        def drive(q):
            log = []
            for i in range(6):
                q.schedule_call(2, log.append, i)
            with pytest.raises(RuntimeError, match="livelock"):
                q.run(max_events=4)
            budgeted = list(log)
            q.run()
            return budgeted, log, q.events_run

        assert drive(WheelEventQueue()) == drive(EventQueue())


class TestWheelEventQueue:
    """Wheel-specific edges not reachable through the shared tests."""

    def test_far_future_event_lands_exactly(self):
        q = WheelEventQueue()
        seen = []
        when = 10 * _WHEEL_SIZE + 123
        q.schedule_call(when, lambda: seen.append(q.now))
        assert q.pending == 1
        q.run()
        assert seen == [when]
        assert q.pending == 0

    def test_window_boundary_goes_to_overflow_and_back(self):
        q = WheelEventQueue()
        seen = []
        q.schedule_call(0, lambda: q.schedule_call(
            _WHEEL_SIZE, lambda: seen.append(q.now)))   # == now+SIZE
        q.run()
        assert seen == [_WHEEL_SIZE]

    def test_rejects_past_in_window(self):
        q = WheelEventQueue()
        q.schedule_call(10, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_call(9, lambda: None)

    def test_pending_is_exact_during_drain(self):
        # PhaseSampler-style self-rearm: the tick sees pending==0 when
        # it is the last live event, even mid-bucket.
        q = WheelEventQueue()
        observed = []

        def tick():
            observed.append(q.pending)

        q.schedule_call(4, tick)
        q.schedule_call(4, tick)
        q.run()
        assert observed == [1, 0]


class TestBarrier:
    def test_releases_all_at_same_time(self):
        q = EventQueue()
        b = Barrier(q, participants=3, release_cost=10)
        released = []
        q.schedule(0, lambda: b.arrive(0, lambda t: released.append((0, t))))
        q.schedule(5, lambda: b.arrive(1, lambda t: released.append((1, t))))
        q.schedule(9, lambda: b.arrive(2, lambda t: released.append((2, t))))
        q.run()
        assert len(released) == 3
        times = {t for _c, t in released}
        assert times == {19}   # last arrival (9) + release cost (10)

    def test_waits_for_all(self):
        q = EventQueue()
        b = Barrier(q, participants=2)
        released = []
        q.schedule(0, lambda: b.arrive(0, lambda t: released.append(0)))
        q.run()
        assert released == []
        assert b.waiting_count == 1

    def test_multiple_rounds(self):
        q = EventQueue()
        b = Barrier(q, participants=2, release_cost=1)
        log = []

        def round_two(core):
            def resume(t):
                log.append((core, "r2", t))
            return resume

        def round_one(core):
            def resume(t):
                log.append((core, "r1", t))
                b.arrive(core, round_two(core))
            return resume

        q.schedule(0, lambda: b.arrive(0, round_one(0)))
        q.schedule(0, lambda: b.arrive(1, round_one(1)))
        q.run()
        assert b.barriers_passed == 2
        assert [entry[1] for entry in log].count("r1") == 2
        assert [entry[1] for entry in log].count("r2") == 2

    def test_release_hooks_run_once_per_barrier(self):
        q = EventQueue()
        b = Barrier(q, participants=2, release_cost=1)
        hook_calls = []
        b.on_release(lambda: hook_calls.append(q.now))
        q.schedule(0, lambda: b.arrive(0, lambda t: None))
        q.schedule(4, lambda: b.arrive(1, lambda t: None))
        q.run()
        assert hook_calls == [5]

    def test_rejects_zero_participants(self):
        with pytest.raises(ValueError):
            Barrier(EventQueue(), participants=0)
