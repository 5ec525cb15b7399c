"""The discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import COMPACT_MIN_DEAD, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.at(30, lambda: order.append("c"))
        sim.at(10, lambda: order.append("a"))
        sim.at(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fires_in_scheduling_order(self, sim):
        order = []
        sim.at(10, lambda: order.append(1))
        sim.at(10, lambda: order.append(2))
        sim.at(10, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_cannot_schedule_in_past(self, sim):
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_schedule_at_current_time_allowed(self, sim):
        fired = []
        sim.at(10, lambda: sim.at(10, lambda: fired.append(True)))
        sim.run()
        assert fired == [True]

    def test_after_is_relative(self, sim):
        seen = []
        sim.at(100, lambda: sim.after(50, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [150]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_events_executed_counter(self, sim):
        for t in (1, 2, 3):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_executed == 3


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        ev = sim.at(10, lambda: fired.append(True))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.at(10, lambda: None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled

    def test_cancel_after_fire_is_noop(self, sim):
        ev = sim.at(10, lambda: None)
        sim.run()
        assert ev.fired
        ev.cancel()  # no error

    def test_pending_property(self, sim):
        ev = sim.at(10, lambda: None)
        assert ev.pending
        sim.run()
        assert not ev.pending

    def test_cancel_within_handler(self, sim):
        fired = []
        later = sim.at(20, lambda: fired.append("later"))
        sim.at(10, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self, sim):
        ev1 = sim.at(10, lambda: None)
        sim.at(20, lambda: None)
        ev1.cancel()
        assert sim.pending_events == 1


class TestRunUntil:
    def test_run_until_stops_at_time(self, sim):
        fired = []
        sim.at(10, lambda: fired.append(10))
        sim.at(30, lambda: fired.append(30))
        sim.run_until(20)
        assert fired == [10]
        assert sim.now == 20

    def test_run_until_includes_boundary(self, sim):
        fired = []
        sim.at(20, lambda: fired.append(20))
        sim.run_until(20)
        assert fired == [20]

    def test_run_until_past_rejected(self, sim):
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.run_until(50)

    def test_consecutive_windows_partition(self, sim):
        fired = []
        for t in (5, 15, 25):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run_until(10)
        assert fired == [5]
        sim.run_until(20)
        assert fired == [5, 15]
        sim.run_until(30)
        assert fired == [5, 15, 25]


class TestRunUntilTrue:
    def test_satisfied_immediately(self, sim):
        assert sim.run_until_true(lambda: True)

    def test_satisfied_by_event(self, sim):
        state = {"done": False}
        sim.at(10, lambda: state.update(done=True))
        assert sim.run_until_true(lambda: state["done"])
        assert sim.now == 10

    def test_deadline_stops(self, sim):
        state = {"done": False}
        sim.at(100, lambda: state.update(done=True))
        assert not sim.run_until_true(lambda: state["done"], deadline=50)
        assert sim.now == 50

    def test_queue_drain_returns_predicate(self, sim):
        sim.at(10, lambda: None)
        assert not sim.run_until_true(lambda: False)


class TestStop:
    def test_stop_halts_run(self, sim):
        fired = []
        sim.at(10, lambda: (fired.append(10), sim.stop()))
        sim.at(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10]

    def test_run_max_events(self, sim):
        fired = []
        for t in range(1, 6):
            sim.at(t, lambda t=t: fired.append(t))
        sim.run(max_events=2)
        assert fired == [1, 2]


class TestAdvanceIfQuiet:
    """A callback may run the next event in place when it provably is
    next; otherwise nothing changes and it schedules as usual."""

    @staticmethod
    def probe(sim, at, t):
        """Ask for ``t`` from an event at ``at``; the answer and the
        clock seen right after it."""
        seen = []
        sim.at(at, lambda: seen.append((sim.advance_if_quiet(t), sim.now)))
        return seen

    def test_quiet_moves_clock_and_counts_one_event(self, sim):
        seen = self.probe(sim, 1, 10)
        assert not sim.run_until_stopped()  # drained
        assert seen == [(True, 10)]
        assert sim.now == 10
        assert sim.events_executed == 2

    def test_consumes_the_seq_the_scheduled_event_would(self, sim):
        def later_seq(quiet: bool) -> int:
            s = Simulator()
            seqs = []

            def body() -> None:
                seqs.append(s.at(20, lambda: None).seq)

            def first() -> None:
                if quiet:
                    assert s.advance_if_quiet(10)
                    body()
                else:
                    s.at(10, body)
            s.at(1, first)
            s.run_until_stopped()
            assert s.now == 20 and s.events_executed == 3
            return seqs[0]

        assert later_seq(True) == later_seq(False)

    def test_cancelled_head_is_stripped(self, sim):
        dead = sim.at(5, lambda: None)
        dead.cancel()
        seen = self.probe(sim, 1, 10)
        sim.run_until_stopped()
        assert seen == [(True, 10)]
        assert sim.queue_depth == 0
        assert sim.events_executed == 2

    def test_equal_time_event_is_not_quiet(self, sim):
        fired = []
        sim.at(10, lambda: fired.append(sim.now))
        seen = self.probe(sim, 1, 10)
        sim.run_until_stopped()
        assert seen == [(False, 1)]
        assert fired == [10]

    def test_equal_time_timer_is_not_quiet(self, sim):
        sim.every(10, lambda: sim.stop())
        equal = self.probe(sim, 1, 10)
        before = self.probe(sim, 2, 9)
        sim.run_until_stopped()
        assert equal == [(False, 1)] and before == [(True, 9)]
        assert sim.now == 10

    def test_pending_stop_is_not_quiet(self, sim):
        seen = []
        sim.at(1, lambda: (sim.stop(),
                           seen.append(sim.advance_if_quiet(10))))
        assert sim.run_until_stopped()
        assert seen == [False] and sim.now == 1

    @pytest.mark.parametrize("t, quiet", [(10, True), (11, False)])
    def test_deadline_is_the_horizon(self, sim, t, quiet):
        sim.at(50, lambda: None)
        seen = self.probe(sim, 1, t)
        assert not sim.run_until_stopped(deadline=10)
        assert seen == [(quiet, t if quiet else 1)]
        assert sim.now == 10

    @pytest.mark.parametrize("t, quiet", [(10, True), (11, False)])
    def test_run_until_time_is_the_horizon(self, sim, t, quiet):
        seen = self.probe(sim, 1, t)
        sim.run_until(10)
        assert seen == [(quiet, t if quiet else 1)]
        assert sim.now == 10

    @pytest.mark.parametrize("run", [
        lambda s: s.run(),
        lambda s: s.step(),
        lambda s: s.run_until_true(lambda: False, deadline=100),
    ], ids=["run", "step", "run_until_true"])
    def test_nothing_is_quiet_without_a_horizon(self, sim, run):
        seen = self.probe(sim, 1, 5)
        run(sim)
        assert seen == [(False, 1)]

    def test_horizon_ends_with_its_run(self, sim):
        sim.run_until(10)
        sim.run_until_stopped(deadline=20)
        assert not sim.advance_if_quiet(15)
        assert sim.now == 10

    def test_run_until_stopped_adds_to_the_count(self, sim):
        sim.at(1, lambda: None)
        sim.step()
        sim.at(2, lambda: None)
        sim.run_until_stopped()
        assert sim.events_executed == 2


class TestPeriodic:
    def test_fires_repeatedly(self, sim):
        hits = []
        sim.every(10, lambda: hits.append(sim.now))
        sim.run_until(35)
        assert hits == [10, 20, 30]

    def test_start_offset(self, sim):
        hits = []
        sim.every(10, lambda: hits.append(sim.now), start_offset=3)
        sim.run_until(35)
        assert hits == [13, 23, 33]

    def test_cancel_stops_repetition(self, sim):
        hits = []
        handle = sim.every(10, lambda: hits.append(sim.now))
        sim.at(25, handle.cancel)
        sim.run_until(100)
        assert hits == [10, 20]
        assert handle.cancelled

    def test_callback_may_cancel_itself(self, sim):
        hits = []
        handle = sim.every(10, lambda: (hits.append(sim.now),
                                        handle.cancel()))
        sim.run_until(100)
        assert hits == [10]

    def test_nonpositive_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)

    def test_cancel_from_sibling_event_same_cycle(self, sim):
        # A one-shot scheduled at the same cycle as a periodic firing but
        # with an earlier seq cancels it before it runs.
        hits = []
        sim.at(15, lambda: handle.cancel())  # earlier seq wins the tie
        handle = sim.every(10, lambda: hits.append(sim.now), start_offset=5)
        sim.run_until(100)
        assert hits == []

    def test_raising_callback_does_not_kill_timer(self, sim):
        hits = []

        def cb():
            hits.append(sim.now)
            if len(hits) == 1:
                raise RuntimeError("transient guest fault")

        sim.every(10, cb)
        with pytest.raises(RuntimeError):
            sim.run_until(100)
        # The timer was re-armed before the callback ran: resuming the
        # simulation fires the next period instead of going silent.
        sim.run_until(100)
        assert hits == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_run_until_lands_exactly_on_firing(self, sim):
        hits = []
        sim.every(10, lambda: hits.append(sim.now))
        sim.run_until(30)  # boundary coincides with the third firing
        assert hits == [10, 20, 30]
        assert sim.now == 30
        sim.run_until(40)
        assert hits == [10, 20, 30, 40]

    def test_periodic_counts_in_pending_events(self, sim):
        handle = sim.every(10, lambda: None)
        sim.at(5, lambda: None)
        assert sim.pending_events == 2
        handle.cancel()
        assert sim.pending_events == 1


class TestTimestampValidation:
    def test_fractional_timestamp_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.at(10.5, lambda: None)

    def test_integral_float_accepted(self, sim):
        seen = []
        sim.at(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10]

    def test_non_numeric_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.at("10", lambda: None)

    def test_bool_is_an_int(self, sim):
        # bool is an int subclass; harmless, fires at cycle 1.
        seen = []
        sim.at(True, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1]

    def test_fractional_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.after(0.5, lambda: None)

    def test_fractional_past_time_reports_past_not_truncation(self, sim):
        # The past-check must apply to the *coerced* value: before the
        # fix, at(9.5) with now=5 truncated to 9 silently; with now=10 it
        # must be rejected as in the past, not float-truncated to fire.
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.at(9.5, lambda: None)

    def test_fractional_run_until_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.run_until(10.5)

    def test_fractional_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(10.5, lambda: None)


class TestHeapHygiene:
    def test_compaction_bounds_queue_depth(self, sim):
        # Schedule/cancel churn: without compaction the dead entries
        # accumulate for the life of the run.
        for _ in range(50):
            batch = [sim.at(1_000_000 + j, lambda: None) for j in range(20)]
            for ev in batch:
                ev.cancel()
        assert sim.pending_events == 0
        assert sim.queue_depth <= COMPACT_MIN_DEAD
        assert sim.peak_heap_entries < 1000  # 1000 were scheduled in total

    def test_pending_events_tracks_mixed_operations(self, sim):
        events = [sim.at(10 + i, lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for ev in events[:4]:
            ev.cancel()
        assert sim.pending_events == 6
        sim.run()
        assert sim.pending_events == 0

    def test_run_until_true_cancelled_head_past_deadline(self, sim):
        # Regression: a cancelled event sitting at the heap head beyond
        # the deadline used to hide the deadline check, letting a later
        # live event fire past the deadline.
        fired = []
        head = sim.at(60, lambda: fired.append(60))
        sim.at(100, lambda: fired.append(100))
        head.cancel()
        assert not sim.run_until_true(lambda: False, deadline=50)
        assert sim.now == 50
        assert fired == []

    def test_compaction_preserves_firing_order(self):
        # Property test: under heavy random cancellation (forcing many
        # compactions), survivors fire in exactly (time, seq) order.
        rng = random.Random(12345)
        sim = Simulator()
        fired = []
        expected = []
        live = []
        for i in range(2_000):
            t = rng.randrange(1, 5_000)
            ev = sim.at(t, lambda t=t, i=i: fired.append((t, i)))
            live.append((t, i, ev))
            if rng.random() < 0.7:
                victim = live.pop(rng.randrange(len(live)))
                victim[2].cancel()
        expected = sorted((t, i) for t, i, _ in live)
        sim.run()
        assert fired == expected
