"""Unit tests for the discrete-event loop."""

import weakref

import pytest

from repro.sim.events import EventLoop, PeriodicTimer


class TestScheduling:
    def test_starts_at_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0
        assert loop.pending == 0

    def test_custom_start_time(self):
        loop = EventLoop(start_time=100.0)
        assert loop.now == 100.0

    def test_schedule_runs_callback_at_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [10.0]

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(30.0, lambda: order.append("c"))
        loop.schedule(10.0, lambda: order.append("a"))
        loop.schedule(20.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        loop = EventLoop()
        order = []
        for i in range(5):
            loop.schedule(10.0, lambda i=i: order.append(i))
        loop.run()
        assert order == [0, 1, 2, 3, 4]

    def test_posted_events_share_one_time_and_sequence_order_with_scheduled_ones(self):
        loop = EventLoop()
        order = []
        loop.post_at(10.0, order.append, "posted first")
        loop.schedule_at(10.0, lambda: order.append("scheduled"))
        loop.post_at(10.0, order.append, "posted last")
        loop.post_at(5.0, lambda *args: order.append(args), 1, 2)
        assert loop.post_at(1.0, order.append, "x") is None  # no handle
        loop.run()
        assert order == ["x", (1, 2), "posted first", "scheduled", "posted last"]
        assert loop.events_processed == 5

    def test_post_at_in_the_past_runs_now(self):
        loop = EventLoop(start_time=50.0)
        fired = []
        loop.post_at(10.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [50.0]

    def test_negative_delay_clamped_to_now(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: loop.schedule(-3.0, lambda: fired.append(loop.now)))
        loop.run()
        assert fired == [5.0]

    def test_schedule_at_in_the_past_runs_now(self):
        loop = EventLoop(start_time=50.0)
        fired = []
        loop.schedule_at(10.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [50.0]

    def test_call_soon_runs_at_current_time(self):
        loop = EventLoop()
        fired = []
        loop.call_soon(lambda: fired.append(loop.now))
        loop.run()
        assert fired == [0.0]

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: loop.schedule(5.0, lambda: fired.append(loop.now)))
        loop.run()
        assert fired == [15.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(10.0, lambda: fired.append(1))
        handle.cancel()
        loop.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_frees_the_callback_before_its_time(self, refcount_only):
        # The event stays queued until 10.0, but its callback must not.
        class Owner:
            def fire(self):
                pass

        loop = EventLoop()
        owner = Owner()
        handle = loop.schedule(10.0, owner.fire)
        ref = weakref.ref(owner)
        del owner
        assert ref() is not None
        handle.cancel()
        assert ref() is None
        assert loop.pending == 1 and handle.cancelled and handle.time == 10.0
        loop.run()
        assert loop.events_processed == 0

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append(1))
        loop.run()
        handle.cancel()
        assert fired == [1]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: fired.append("early"))
        loop.schedule(100.0, lambda: fired.append("late"))
        loop.run(until=50.0)
        assert fired == ["early"]
        assert loop.now == 50.0
        assert loop.pending == 1

    def test_run_until_advances_clock_without_events(self):
        loop = EventLoop()
        loop.run(until=42.0)
        assert loop.now == 42.0

    def test_max_events_budget(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i), lambda i=i: fired.append(i))
        loop.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_halts_processing(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append(1)
            loop.stop()

        loop.schedule(1.0, first)
        loop.schedule(2.0, lambda: fired.append(2))
        loop.run()
        assert fired == [1]
        assert loop.pending == 1

    def test_run_until_idle_counts_events(self):
        loop = EventLoop()
        for i in range(7):
            loop.schedule(float(i), lambda: None)
        assert loop.run_until_idle() == 7
        assert loop.events_processed == 7

    def test_run_until_idle_raises_on_livelock(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(1.0, reschedule)

        loop.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError, match="livelock"):
            loop.run_until_idle(max_events=100)

    def test_step_on_empty_queue_returns_false(self):
        assert EventLoop().step() is False


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        loop = EventLoop()
        fired = []
        timer = PeriodicTimer(loop, 10.0, lambda: fired.append(loop.now))
        loop.run(until=35.0)
        assert fired == [10.0, 20.0, 30.0]
        timer.cancel()

    def test_cancel_stops_firing(self):
        loop = EventLoop()
        fired = []
        timer = PeriodicTimer(loop, 10.0, lambda: fired.append(loop.now))
        loop.schedule(25.0, timer.cancel)
        loop.run(until=100.0)
        assert fired == [10.0, 20.0]
        assert not timer.active

    def test_start_after_overrides_first_interval(self):
        loop = EventLoop()
        fired = []
        PeriodicTimer(loop, 10.0, lambda: fired.append(loop.now), start_after=1.0)
        loop.run(until=22.0)
        assert fired == [1.0, 11.0, 21.0]

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            PeriodicTimer(EventLoop(), 0.0, lambda: None)

    def test_a_cancelled_timer_and_its_owner_are_freed(self, refcount_only):
        # The owner holds the timer, the timer holds the owner's bound method.
        class Owner:
            def __init__(self, loop):
                self.timer = PeriodicTimer(loop, 10.0, self.tick)

            def tick(self):
                pass

        loop = EventLoop()
        owner = Owner(loop)
        loop.run(until=25.0)
        owner.timer.cancel()
        assert not owner.timer.active
        ref = weakref.ref(owner)
        del owner
        assert ref() is None


class TestClose:
    def test_close_cancels_and_forgets_pending_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append("early"))
        handle = loop.schedule(20.0, lambda: fired.append("late"))
        loop.run(until=10.0)
        loop.close()
        assert loop.pending == 0
        assert handle.cancelled and handle.time == 20.0
        handle.cancel()  # still answers
        loop.run()
        assert fired == ["early"]
        assert loop.now == 10.0 and loop.events_processed == 1

    def test_a_pending_event_no_longer_holds_its_callback(self, refcount_only):
        # The owner holds the handle, the event holds the owner's bound method.
        class Owner:
            def __init__(self, loop):
                self.handle = loop.schedule(10.0, self.fire)

            def fire(self):
                pass

        loop = EventLoop()
        owner = Owner(loop)
        loop.close()
        ref = weakref.ref(owner)
        del owner
        assert ref() is None
