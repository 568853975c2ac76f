"""Unit tests for the Simulator driver."""

import pytest
from hypothesis import given, strategies as st

from repro.simkernel import (
    LivelockError,
    SimulationError,
    Simulator,
    install_sanitizer,
)


class TestScheduling:
    def test_after_fires_at_offset(self):
        sim = Simulator()
        fired = []
        sim.after(100, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == [100]

    def test_at_fires_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(250, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert fired == [250]

    def test_call_soon_fires_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.after(50, lambda: sim.call_soon(lambda: fired.append(sim.now)))
        sim.run_until(1000)
        assert fired == [50]

    def test_at_in_past_raises(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)


class TestRunning:
    def test_run_until_advances_clock_to_end(self):
        sim = Simulator()
        sim.run_until(500)
        assert sim.now == 500

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.after(600, lambda: fired.append(True))
        sim.run_until(500)
        assert fired == []
        assert sim.pending_events == 1

    def test_run_until_fires_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.after(500, lambda: fired.append(True))
        sim.run_until(500)
        assert fired == [True]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.after(10, lambda: (fired.append(1), sim.stop()))
        sim.after(20, lambda: fired.append(2))
        sim.run_until(100)
        assert fired == [1]
        # A later run picks the remaining event up.
        sim.run_until(100)
        assert fired == [1, 2]

    def test_run_until_idle_drains_queue(self):
        sim = Simulator()
        fired = []
        for t in (5, 10, 15):
            sim.at(t, lambda: fired.append(sim.now))
        count = sim.run_until_idle()
        assert count == 3
        assert fired == [5, 10, 15]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(10**9, max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(10):
            sim.at(t, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 10

    def test_events_fire_in_causal_order(self):
        sim = Simulator()
        log = []

        def first():
            log.append(('first', sim.now))
            sim.after(5, second)

        def second():
            log.append(('second', sim.now))
        sim.after(10, first)
        sim.run_until_idle()
        assert log == [('first', 10), ('second', 15)]

    def test_livelock_error_summarizes_pending_events(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)

        def far_future():
            pass
        sim.after(1, rearm)
        sim.at(10**9, far_future)
        with pytest.raises(LivelockError) as err:
            sim.run_until(10**12, max_events=100)
        exc = err.value
        assert isinstance(exc, SimulationError)
        assert exc.limit == 100
        assert exc.pending == 2
        # Deadline summary in firing order, naming the callbacks.
        assert len(exc.next_events) == 2
        first_time, first_name = exc.next_events[0]
        assert first_time == sim.now + 1
        assert 'rearm' in first_name
        assert 'far_future' in exc.next_events[1][1]
        message = str(exc)
        assert '2 events still pending' in message
        assert 'rearm' in message

    def test_livelock_error_from_run_until_idle(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        with pytest.raises(LivelockError) as err:
            sim.run_until_idle(max_events=50)
        assert 'while draining' in str(err.value)
        assert err.value.pending == 1

    def test_livelock_summary_is_bounded(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)
        sim.after(1, rearm)
        for t in range(100, 120):
            sim.at(t * 1000, lambda: None)
        with pytest.raises(LivelockError) as err:
            sim.run_until(10**9, max_events=10)
        assert err.value.pending == 21
        assert len(err.value.next_events) == LivelockError.SUMMARY_DEPTH

    def test_clock_never_goes_backwards(self):
        sim = Simulator(seed=7)
        stamps = []
        for t in (3, 1, 2, 1, 5):
            sim.at(t, lambda: stamps.append(sim.now))
        sim.run_until_idle()
        assert stamps == sorted(stamps)


def _chain_run(silent, period, others, end):
    """Run a period-``period`` chain plus ``others`` (time, follow-up
    delay) events. The chain is silenced, or an explicit callback that
    re-arms itself. Returns what both versions must agree on."""
    sim = Simulator()
    log = []
    chain = []

    def rearm():
        chain[0] = sim.after(period, rearm)

    def other(name, follow):
        log.append((sim.now, name))
        if follow is not None:
            sim.after(follow, other, name + "'", None)

    # Half the others are scheduled before the chain, half after, so
    # same-time ties fall on both sides of it.
    half = len(others) // 2
    for i, (time, follow) in enumerate(others[:half]):
        sim.at(time, other, 'o%d' % i, follow)
    chain.append(sim.after(period, rearm))
    if silent:
        sim.silence(chain[0], period)
    for i, (time, follow) in enumerate(others[half:], half):
        sim.at(time, other, 'o%d' % i, follow)
    sim.run_until(end)
    return (log, sim.now, sim.events_scheduled, chain[0].time,
            chain[0].seq, sim.pending_events)


class TestSilentChains:
    @given(period=st.integers(1, 5),
           others=st.lists(st.tuples(st.integers(0, 40),
                                     st.none() | st.integers(0, 7)),
                           max_size=12),
           end=st.integers(0, 50))
    def test_silenced_chain_matches_self_rearming_callback(
            self, period, others, end):
        assert (_chain_run(True, period, others, end)
                == _chain_run(False, period, others, end))

    def test_silent_rearms_are_not_events_processed(self):
        sim = Simulator()
        event = sim.after(10, lambda: None)
        sim.silence(event, 10)
        sim.run_until(95)
        assert sim.events_processed == 0
        assert sim.events_scheduled == 10
        assert (event.time, event.seq) == (100, 10)
        assert sim.now == 95

    def test_sound_fires_at_exact_key(self):
        sim = Simulator()
        log = []
        event = sim.after(10, lambda: log.append(('chain', sim.now)))
        sim.silence(event, 10)
        sim.run_until(35)
        # Scheduled before the re-arm at 30 took its key, so it wins
        # the tie at 40; a later-scheduled event loses it.
        early = (40, event.seq - 1)
        sim.at(40, lambda: log.append(('late', sim.now)))
        sim.sound(event)
        assert event.pending and (event.time, event.seq) > early
        sim.run_until(100)
        assert log == [('chain', 40), ('late', 40)]
        assert event.fired and sim.events_processed == 2

    def test_cancel_while_silent(self):
        sim = Simulator()
        event = sim.after(10, lambda: None)
        sim.silence(event, 10)
        sim.run_until(25)
        event.cancel()
        assert not event.pending
        assert sim.pending_events == 0
        sim.run_until(100)
        # Re-arms at 10 and 20 only.
        assert sim.events_scheduled == 3
        assert not event.fired

    def test_pending_events_counts_silent_event(self):
        sim = Simulator()
        event = sim.after(10, lambda: None)
        sim.silence(event, 10)
        sim.run_until(55)
        assert event.pending
        assert sim.pending_events == 1
        assert 'silent' in repr(event)

    def test_run_until_idle_on_silent_chain_raises_livelock(self):
        sim = Simulator()
        event = sim.after(1, lambda: None)
        sim.silence(event, 1)
        with pytest.raises(LivelockError) as err:
            sim.run_until_idle(max_events=100)
        assert err.value.pending == 1
        assert sim.events_scheduled == 102

    def test_step_never_fires_silenced_event(self):
        sim = Simulator()
        fired = []
        event = sim.after(10, fired.append, 'chain')
        sim.silence(event, 10)
        for __ in range(5):
            assert sim.step()
        assert fired == []
        assert sim.now == 50
        assert (event.time, sim.events_processed) == (60, 0)

    def test_silence_rejects_bad_arguments(self):
        sim = Simulator()
        event = sim.after(10, lambda: None)
        with pytest.raises(SimulationError):
            sim.silence(event, 0)
        event.cancel()
        with pytest.raises(SimulationError):
            sim.silence(event, 10)

    def test_sanitizer_counts_down_at_silent_rearms(self):
        sim = Simulator()
        sanitizer = install_sanitizer(sim, interval=3)
        event = sim.after(10, lambda: None)
        sim.silence(event, 10)
        sim.run_until(95)
        assert sanitizer.checks == 3
