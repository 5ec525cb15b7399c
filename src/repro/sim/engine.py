"""The discrete-event engine.

A :class:`Simulator` owns a monotonically advancing integer-cycle clock
and two priority queues of pending work:

* a binary heap of one-shot :class:`Event` entries, stored as
  ``(time, seq, event)`` tuples so heap comparisons stay in C (no
  Python-level ``__lt__`` on the hot path);
* a small dedicated heap of :class:`PeriodicEvent` timers (the per-PCPU
  tick/accounting events that dominate long runs).  A periodic firing
  re-arms in place with :func:`heapq.heapreplace` — no allocation, no
  traffic through the big one-shot heap.

The clock is the plain attribute :attr:`Simulator.now` (the guest reads
it on every op, so it is not a property); only the engine moves it.

Components schedule callbacks with :meth:`Simulator.at` /
:meth:`Simulator.after` and may cancel them via :meth:`Event.cancel` —
cancellation is O(1) (lazy deletion).  Cancelled entries are reclaimed:
the simulator tracks the live count (making :attr:`pending_events` O(1))
and **compacts the heap** when dead entries exceed both a floor and half
the heap, so schedule/cancel churn (guest activities pausing on VCPU
preemption, consolidation scenarios) runs in bounded memory.

Determinism
-----------
The clock advances in **integer cycles only**: ``at``/``after`` reject
non-integer timestamps outright (a float that truncated to an earlier
cycle used to slip past the past-check silently).  Two events at the
same cycle fire in scheduling order — a monotonically increasing
sequence number, shared between both queues, breaks ties — so a run is a
pure function of the configuration and RNG seeds.  Heap compaction
filters dead entries and re-heapifies; because ``(time, seq)`` keys are
unique and totally ordered, compaction can never change firing order.
This property is relied on by the regression and property tests, and by
``repro perf``'s fingerprint gate.

Quiet events
------------
While :meth:`Simulator.run_until` or :meth:`Simulator.run_until_stopped`
runs, it publishes its last cycle as the run's *horizon*.  A callback
that would schedule an event which provably fires next — within the
horizon, no stop pending, both queue heads strictly later — may instead
run it in place through :meth:`Simulator.advance_if_quiet`: same cycle,
same seq, same ``events_executed``, no heap entry.  A logical event is
never dropped, added, reordered or re-timed.  ``run``, ``step`` and
``run_until_true`` publish no horizon, so nothing runs in place under
them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Compaction trigger: at least this many dead (cancelled) entries *and*
#: dead entries outnumbering live ones in the same heap.
COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled one-shot callback.

    Instances are returned by :meth:`Simulator.at` / :meth:`Simulator.after`
    and should be treated as opaque handles: the only public operations are
    :meth:`cancel` and reading :attr:`time` / :attr:`fired` / :attr:`cancelled`.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "fired",
                 "_sim")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 label: str = "", sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired or already
        cancelled event is a harmless no-op (components race to cancel)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event {self.label or self.callback!r} @ {self.time} ({state})>"


class Simulator:
    """Integer-cycle discrete-event simulator.

    Parameters
    ----------
    start:
        Initial clock value in cycles (default 0).
    """

    __slots__ = ("now", "_seq", "_queue", "_live", "_timers", "_timers_live",
                 "_stopped", "_horizon", "events_executed",
                 "peak_heap_entries")

    def __init__(self, start: int = 0) -> None:
        #: Current simulation time in cycles.  A plain slot, not a
        #: property: the guest reads it on every op.  Only the engine
        #: writes it.
        self.now: int = start
        self._seq: int = 0
        #: One-shot heap of (time, seq, Event); may contain dead entries.
        self._queue: List[Tuple[int, int, Event]] = []
        #: Live (uncancelled, unfired) entries in :attr:`_queue`.
        self._live: int = 0
        #: Periodic heap of (next_time, seq, PeriodicEvent).
        self._timers: List[Tuple[int, int, "PeriodicEvent"]] = []
        self._timers_live: int = 0
        self._stopped = False
        #: The running loop's last cycle (see :meth:`advance_if_quiet`);
        #: -inf when no horizon is published, so nothing is quiet.
        self._horizon: float = float("-inf")
        #: Number of events executed so far (observability / perf tests).
        self.events_executed: int = 0
        #: High-water mark of total queued entries, dead ones included
        #: (the perf harness reports this; unbounded growth here was the
        #: cancelled-entry leak).
        self.peak_heap_entries: int = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def at(self, time: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to fire at absolute cycle ``time``.

        ``time`` must be an integer number of cycles (integral floats and
        numpy integers are accepted and converted; fractional timestamps
        raise :class:`SimulationError` — the clock cannot land between
        cycles, and silently truncating used to break the determinism
        contract).  Raises :class:`SimulationError` if ``time`` is in the
        past.  Scheduling *at the current cycle* is allowed: the event
        fires after all callbacks already queued for this cycle.
        """
        if time.__class__ is not int:
            time = _as_cycles(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self.now})")
        self._seq = seq = self._seq + 1
        # Inline Event construction (this is the hottest allocation in
        # the simulator; skipping the __init__ frame is measurable).
        ev = Event.__new__(Event)
        ev.time = time
        ev.seq = seq
        ev.callback = callback
        ev.label = label
        ev.cancelled = False
        ev.fired = False
        ev._sim = self
        q = self._queue
        heapq.heappush(q, (time, seq, ev))
        self._live += 1
        depth = len(q) + len(self._timers)
        if depth > self.peak_heap_entries:
            self.peak_heap_entries = depth
        return ev

    def after(self, delay: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay.__class__ is not int:
            delay = _as_cycles(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, callback, label)

    def every(self, period: int, callback: Callable[[], None],
              label: str = "", start_offset: int = 0) -> "PeriodicEvent":
        """Schedule ``callback`` to fire every ``period`` cycles.

        The first firing is at ``now + start_offset + period``; the
        ``start_offset`` phase-staggers timers sharing a period (the
        per-PCPU accounting ticks rely on this).  Subsequent firings are
        exactly ``period`` cycles apart, measured from the previous
        firing's timestamp — a callback that runs long (or raises) never
        drifts the schedule, because the timer is re-armed *before* the
        callback is invoked.  Returns a handle whose
        :meth:`PeriodicEvent.cancel` stops the repetition.
        """
        if period.__class__ is not int:
            period = _as_cycles(period)
        if start_offset.__class__ is not int:
            start_offset = _as_cycles(start_offset)
        if period <= 0:
            raise SimulationError(f"non-positive period {period}")
        if start_offset < 0:
            raise SimulationError(f"negative start_offset {start_offset}")
        pe = PeriodicEvent(self, period, callback, label)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._timers,
                       (self.now + start_offset + period, seq, pe))
        self._timers_live += 1
        depth = len(self._queue) + len(self._timers)
        if depth > self.peak_heap_entries:
            self.peak_heap_entries = depth
        return pe

    # ------------------------------------------------------------------ #
    # Heap hygiene
    # ------------------------------------------------------------------ #
    def _note_cancel(self) -> None:
        """A live one-shot entry was cancelled: adjust the live count and
        compact the heap when dead entries dominate."""
        self._live -= 1
        dead = len(self._queue) - self._live
        if dead >= COMPACT_MIN_DEAD and dead > self._live:
            self._compact()

    def _note_timer_cancel(self) -> None:
        self._timers_live -= 1
        dead = len(self._timers) - self._timers_live
        if dead >= 8 and dead > self._timers_live:
            tq = self._timers
            tq[:] = [e for e in tq if not e[2]._cancelled]
            heapq.heapify(tq)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (run loops hold
        aliases to the list).  ``(time, seq)`` keys are unique, so the
        rebuilt heap pops in exactly the order the old one would have."""
        q = self._queue
        q[:] = [entry for entry in q if not entry[2].cancelled]
        heapq.heapify(q)

    @property
    def queue_depth(self) -> int:
        """Total queued entries including dead (cancelled) ones — the
        quantity bounded by compaction.  Tests and the perf harness use
        this; components should use :attr:`pending_events`."""
        return len(self._queue) + len(self._timers)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _peek_time(self) -> Optional[int]:
        """Timestamp of the next live event (either queue), or None.
        Strips dead heads as a side effect."""
        q = self._queue
        while q and q[0][2].cancelled:
            heapq.heappop(q)
        tq = self._timers
        while tq and tq[0][2]._cancelled:
            heapq.heappop(tq)
        if not q:
            return tq[0][0] if tq else None
        if not tq:
            return q[0][0]
        return q[0][0] if q[0][0] <= tq[0][0] else tq[0][0]

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        q = self._queue
        while q and q[0][2].cancelled:
            heapq.heappop(q)
        tq = self._timers
        while tq and tq[0][2]._cancelled:
            heapq.heappop(tq)
        if tq:
            th, ts, pe = tq[0]
            if not q or th < q[0][0] or (th == q[0][0] and ts < q[0][1]):
                # Periodic fast path: advance the clock, re-arm in place
                # (pre-callback, so a raising callback cannot kill the
                # timer), then invoke.
                self.now = th
                self._seq = seq = self._seq + 1
                heapq.heapreplace(tq, (th + pe.period, seq, pe))
                self.events_executed += 1
                pe.callback()
                return True
        if not q:
            return False
        time, seq, ev = heapq.heappop(q)
        self.now = time
        ev.fired = True
        self._live -= 1
        self.events_executed += 1
        ev.callback()
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fire)."""
        self._stopped = False
        count = 0
        while not self._stopped:
            if max_events is not None and count >= max_events:
                return
            if not self.step():
                return
            count += 1

    def run_until(self, time: int) -> None:
        """Run all events with timestamp <= ``time``, then set now = time.

        The clock always lands exactly on ``time`` so that back-to-back
        ``run_until`` calls partition the timeline cleanly; an event
        scheduled exactly at ``time`` fires within this call, so ``time``
        is the run's horizon (:meth:`advance_if_quiet`).
        """
        if time.__class__ is not int:
            time = _as_cycles(time)
        if time < self.now:
            raise SimulationError(f"run_until({time}) is in the past (now={self.now})")
        self._stopped = False
        outer, self._horizon = self._horizon, time
        try:
            while not self._stopped:
                nxt = self._peek_time()
                if nxt is None or nxt > time:
                    break
                self.step()
        finally:
            self._horizon = outer
        if not self._stopped:
            self.now = time

    def run_until_true(self, predicate: Callable[[], bool],
                       deadline: Optional[int] = None) -> bool:
        """Run until ``predicate()`` becomes true after some event.

        Returns True if the predicate was satisfied, False if the queue
        drained or the ``deadline`` (absolute cycles) passed first.  When
        the deadline strikes, the clock is set to it — a cancelled entry
        beyond the deadline never causes events past the deadline to fire
        (dead heads are stripped before the deadline check).
        """
        if predicate():
            return True
        self._stopped = False
        while not self._stopped:
            if deadline is not None:
                nxt = self._peek_time()
                if nxt is None:
                    return predicate()
                if nxt > deadline:
                    self.now = deadline
                    return predicate()
            if not self.step():
                return predicate()
            if predicate():
                return True
        return predicate()

    def run_until_stopped(self, deadline: Optional[int] = None) -> bool:
        """Run until :meth:`stop` is called from inside an event callback.

        The main run loop of every experiment driver: completion is
        pushed, not polled.  A completion callback (e.g.
        :meth:`repro.guest.kernel.GuestKernel.on_all_done` or
        :meth:`repro.workloads.base.Workload.on_round`, wired up by
        ``Testbed._drive``) calls ``stop()`` and this loop exits after
        that event, leaving the clock on the stopping event's timestamp
        — the exact stop point the per-event predicate poll of
        :meth:`run_until_true` (the reference path) produces, with that
        predicate call and the duplicated dead-head stripping of the
        peek+step pair fused away.

        Returns True if stopped, False if the queue drained or the
        ``deadline`` (absolute cycles) passed first; on a deadline the
        clock is set to it, exactly as :meth:`run_until_true` does.  The
        deadline (+inf without one) is the run's horizon
        (:meth:`advance_if_quiet`).
        """
        if deadline is not None and deadline.__class__ is not int:
            deadline = _as_cycles(deadline)
        self._stopped = False
        q = self._queue
        tq = self._timers
        pop = heapq.heappop
        replace = heapq.heapreplace
        # No deadline compares as +inf: every int is below it, so the
        # deadline branches stay dead without a per-event None test.
        dl = float("inf") if deadline is None else deadline
        outer, self._horizon = self._horizon, dl
        # Executed-count batching: no callback reads events_executed
        # mid-run (it is consumed after the run by the perf/conformance
        # layers), so count locally and add it on every exit path (an
        # advance_if_quiet inside the run counts itself).
        executed = 0
        try:
            while not self._stopped:
                while q and q[0][2].cancelled:
                    pop(q)
                while tq and tq[0][2]._cancelled:
                    pop(tq)
                if tq:
                    th, ts, pe = tq[0]
                    if not q or th < q[0][0] \
                            or (th == q[0][0] and ts < q[0][1]):
                        if th > dl:
                            self.now = deadline
                            return False
                        # Periodic fast path, as in step(): advance,
                        # re-arm in place, then invoke.
                        self.now = th
                        self._seq = seq = self._seq + 1
                        replace(tq, (th + pe.period, seq, pe))
                        executed += 1
                        pe.callback()
                        continue
                if not q:
                    return False
                time, _seq_, ev = q[0]
                if time > dl:
                    self.now = deadline
                    return False
                pop(q)
                self.now = time
                ev.fired = True
                self._live -= 1
                executed += 1
                ev.callback()
            return True
        finally:
            self.events_executed += executed
            self._horizon = outer

    def stop(self) -> None:
        """Stop the current ``run*`` call after the in-flight event."""
        self._stopped = True

    def advance_if_quiet(self, t: int) -> bool:
        """Run the logical event at cycle ``t`` in place, if it is next.

        A callback about to schedule an event at ``t`` for work that
        nothing else observes (a guest lock hold) asks this first.  It
        is quiet when, during a run that publishes a horizon
        (:meth:`run_until`, :meth:`run_until_stopped`), ``t`` is within
        that horizon, no :meth:`stop` is pending, and the live heads of
        both queues lie strictly after ``t`` — an entry at ``t`` was
        scheduled earlier, so its lower seq fires first.  The event at
        ``t`` is then provably the next one: the clock moves to ``t``,
        one seq is consumed and one event is counted, exactly as
        scheduling and popping it would, and the caller runs its body
        directly.  Otherwise it returns False, having changed nothing but
        the dead heads it stripped, and the caller schedules the event.
        """
        if t > self._horizon or self._stopped:
            return False
        q = self._queue
        while q and q[0][2].cancelled:
            heapq.heappop(q)
        if q and q[0][0] <= t:
            return False
        tq = self._timers
        while tq and tq[0][2]._cancelled:
            heapq.heappop(tq)
        if tq and tq[0][0] <= t:
            return False
        self.now = t
        self._seq += 1
        self.events_executed += 1
        return True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued — O(1), kept
        as live counters rather than a heap scan."""
        return self._live + self._timers_live


class PeriodicEvent:
    """Handle for a repeating event created by :meth:`Simulator.every`.

    Periodic timers live in the simulator's dedicated timer heap; firing
    re-arms the same object in place (no per-firing allocation).  The
    shared sequence counter keeps same-cycle ordering against one-shot
    events exactly as if each firing had been scheduled with ``at``.
    """

    __slots__ = ("_sim", "period", "callback", "label", "_cancelled")

    def __init__(self, sim: Simulator, period: int,
                 callback: Callable[[], None], label: str = "") -> None:
        self._sim = sim
        self.period = period
        self.callback = callback
        self.label = label
        self._cancelled = False

    def cancel(self) -> None:
        """Stop the repetition.  Safe to call from the timer's own
        callback (the already re-armed next firing is reclaimed lazily)."""
        if self._cancelled:
            return
        self._cancelled = True
        self._sim._note_timer_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "armed"
        return f"<PeriodicEvent {self.label or self.callback!r} /{self.period} ({state})>"


def _as_cycles(value: Any) -> int:
    """Slow-path timestamp coercion: accept integral floats and numpy
    integers, reject anything fractional (the clock is integer cycles)."""
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise SimulationError(f"timestamp {value!r} is not a number of cycles")
    if as_int != value:
        raise SimulationError(
            f"non-integer timestamp {value!r}: the simulator clock advances "
            f"in whole cycles (use repro.units helpers to convert)")
    return as_int
