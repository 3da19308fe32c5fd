"""Tests for the simulated clock and event scheduler."""

import pytest

from repro.sim.clock import EventScheduler, SimClock


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock().now() == 0.0
        assert SimClock(10.0).now() == 10.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now() == pytest.approx(7.5)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(30.0)
        assert clock.now() == 30.0

    def test_time_never_goes_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advances_return_the_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(2.0) == 3.0
        assert clock.advance_to(3.0) == 3.0
        assert clock.advance_to(4.5) == 4.5

    def test_repr_shows_the_time(self):
        assert repr(SimClock(1.5)) == "SimClock(t=1.500s)"


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(5.0, lambda: order.append("b"))
        scheduler.schedule_at(1.0, lambda: order.append("a"))
        scheduler.schedule_at(9.0, lambda: order.append("c"))
        executed = scheduler.run_until(10.0)
        assert executed == 3
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(2.0, lambda: order.append("first"))
        scheduler.schedule_at(2.0, lambda: order.append("second"))
        scheduler.run_until(3.0)
        assert order == ["first", "second"]

    def test_run_until_stops_at_boundary(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(1.0, lambda: fired.append(1))
        scheduler.schedule_at(10.0, lambda: fired.append(10))
        scheduler.run_until(5.0)
        assert fired == [1]
        assert [event.time for event in scheduler._queue] == [10.0]
        assert scheduler.clock.now() == 5.0

    def test_schedule_after(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(100.0)
        fired = []
        scheduler.schedule_after(5.0, lambda: fired.append(scheduler.clock.now()))
        scheduler.run_until(200.0)
        assert fired == [105.0]

    def test_cancellation(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        # A cancelled event never runs, so it keeps nothing its callback
        # closed over alive.
        assert event.callback is None
        scheduler.run_until(10.0)
        assert fired == []

    def test_clear_cancels_every_queued_event(self):
        scheduler = EventScheduler()
        fired = []
        events = [scheduler.schedule_at(t, lambda t=t: fired.append(t)) for t in (1.0, 2.0)]
        scheduler.clear()
        assert scheduler._queue == []
        assert all(event.cancelled and event.callback is None for event in events)
        assert scheduler.run_until(10.0) == 0 and fired == []
        scheduler.schedule_at(11.0, lambda: fired.append(11.0))
        assert scheduler.run_until(20.0) == 1 and fired == [11.0]

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(10.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        fired = []

        def recurring():
            fired.append(scheduler.clock.now())
            if len(fired) < 3:
                scheduler.schedule_after(10.0, recurring)

        scheduler.schedule_at(0.0, recurring)
        scheduler.run_until(100.0)
        assert fired == [0.0, 10.0, 20.0]

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_time_is_refused(self, bad):
        """NaN compares false with everything, so it used to pass every
        "not in the past" check and then sit in the clock or the queue."""
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(1.0, lambda: fired.append(1.0))
        for call in (
            lambda: scheduler.clock.advance_to(bad),
            lambda: scheduler.clock.advance(bad),
            lambda: scheduler.schedule_at(bad, lambda: fired.append(bad)),
            lambda: scheduler.run_until(bad),
        ):
            with pytest.raises(ValueError, match=f"finite, got {bad}"):
                call()
        assert scheduler.clock.now() == 0.0 and fired == []
        assert [event.time for event in scheduler._queue] == [1.0]

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_delay_or_replayed_time_is_refused(self, bad):
        """``schedule_after`` and ``try_schedule_at`` reach the queue through
        ``schedule_at``, so they refuse what it refuses."""
        scheduler = EventScheduler()
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            scheduler.schedule_after(bad, lambda: None)
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            scheduler.try_schedule_at(bad, lambda: None)
        assert scheduler._queue == []

    def test_try_schedule_at_skips_a_time_already_past(self):
        scheduler = EventScheduler()
        scheduler.run_until(10.0)
        assert scheduler.try_schedule_at(5.0, lambda: None) is None
        assert scheduler.try_schedule_at(float("-inf"), lambda: None) is None
        assert scheduler._queue == []

    def test_try_schedule_at_schedules_from_now_on(self):
        scheduler = EventScheduler()
        scheduler.run_until(10.0)
        fired = []
        now = scheduler.try_schedule_at(10.0, lambda: fired.append("now"), label="now")
        later = scheduler.try_schedule_at(12.0, lambda: fired.append("later"))
        assert now.label == "now" and later.time == 12.0
        assert scheduler.run_until(20.0) == 2
        assert fired == ["now", "later"]

    def test_events_run_counts_across_calls(self):
        scheduler = EventScheduler()
        for t in (1.0, 2.0, 3.0):
            scheduler.schedule_at(t, lambda: None)
        assert scheduler.run_until(1.5) == 1
        assert scheduler.run_until(5.0) == 2
        assert scheduler.events_run == 3

    def test_cancelled_events_do_not_count_as_run(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None).cancel()
        assert scheduler.run_until(5.0) == 1
        assert scheduler.events_run == 1
        assert scheduler._queue == []

    def test_an_event_may_cancel_a_later_one(self):
        scheduler = EventScheduler()
        fired = []
        later = scheduler.schedule_at(5.0, lambda: fired.append("later"))
        scheduler.schedule_at(1.0, later.cancel)
        assert scheduler.run_until(10.0) == 1
        assert fired == []
