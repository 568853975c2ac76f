"""The simulator: a clock plus an event queue plus shared services.

Every model object (hypervisor scheduler, guest kernel, workload program)
holds a reference to one :class:`Simulator` and advances exclusively by
scheduling callbacks on it. The simulator is single-threaded and
deterministic: given the same seed and model, two runs produce identical
event sequences.
"""

from heapq import heappop, heapreplace

from .events import EventQueue
from .rng import RngRegistry
from .tracing import Tracer


_INFINITY = float('inf')


class SimulationError(Exception):
    """Raised for structural errors in the simulation (e.g. time travel)."""


class LivelockError(SimulationError):
    """A run loop exhausted its ``max_events`` budget.

    Carries a structured summary of the still-pending events so a
    livelocking model (e.g. a fault campaign that keeps re-arming
    retries) can be debugged from the exception alone.

    Attributes:
        limit: the exhausted ``max_events`` budget.
        pending: number of live events left in the queue.
        next_events: up to :attr:`SUMMARY_DEPTH` upcoming events
            (firing order) as ``(time_ns, callback_name)`` pairs.
    """

    SUMMARY_DEPTH = 5

    def __init__(self, limit, context, queue, now):
        self.limit = limit
        self.pending = len(queue)
        self.next_events = [
            (event.time, _callback_name(event.callback))
            for event in queue.peek_events(self.SUMMARY_DEPTH)
        ]
        deadlines = ', '.join('t=%d %s' % pair for pair in self.next_events)
        super().__init__(
            'exceeded %d events %s (now=%d): %d events still pending'
            '%s' % (limit, context, now, self.pending,
                    '; next: ' + deadlines if deadlines else ''))


def _callback_name(callback):
    return getattr(callback, '__qualname__',
                   getattr(callback, '__name__', repr(callback)))


class Simulator:
    """Discrete-event simulation driver.

    Attributes:
        now: current simulation time in integer nanoseconds.
        rng: the :class:`RngRegistry` for all model randomness.
        trace: the :class:`Tracer` for counters and debug records.
        sanitizer: optional runtime invariant checker (see
            :mod:`repro.simkernel.sanitizer`); machines attach
            themselves to it on construction when present.
    """

    def __init__(self, seed=0, trace=False, trace_categories=None):
        self.now = 0
        self._queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = Tracer(enabled=trace, categories=trace_categories)
        self._stopped = False
        self._events_processed = 0
        self._post_event_hooks = []
        self._last_event = None
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                'cannot schedule at %d, now is %d' % (time, self.now))
        return self._queue.push(time, callback, args)

    def after(self, delay, callback, *args):
        """Schedule ``callback(*args)`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError('negative delay %d' % delay)
        return self._queue.push(self.now + delay, callback, args)

    def call_soon(self, callback, *args):
        """Schedule ``callback(*args)`` at the current time (after any
        event currently firing completes)."""
        return self._queue.push(self.now, callback, args)

    def silence(self, event, period):
        """Stop firing pending ``event``; re-arm it every ``period`` ns
        instead. Each time the run loop reaches it, the event takes the
        next sequence number and moves ``period`` later, which is all a
        callback that only re-arms itself with :meth:`after` would do.
        No callback or post-event hook runs and ``events_processed``
        does not move, but each re-arm counts against ``max_events``
        and is shown to :attr:`sanitizer`. The event stays pending and
        cancellable throughout; its owner derives how many re-arms
        happened from ``event.time``."""
        if period <= 0:
            raise SimulationError('silence period must be positive, got %r'
                                  % period)
        if not event.pending:
            raise SimulationError('cannot silence %r' % event)
        event.period = period

    def sound(self, event):
        """Undo :meth:`silence`: ``event`` fires normally at its current
        ``(time, seq)`` key, which is exactly where the re-arming
        callback's last re-arm would have put it."""
        event.period = 0

    # ------------------------------------------------------------------
    # Post-event hooks
    # ------------------------------------------------------------------

    def add_post_event_hook(self, hook):
        """Register ``hook(event)`` to run after every processed event.

        Used by the runtime sanitizer; hooks must not mutate model
        state. Returns the hook for symmetry with removal."""
        self._post_event_hooks.append(hook)
        return hook

    def remove_post_event_hook(self, hook):
        """Unregister a hook added with :meth:`add_post_event_hook`."""
        if hook in self._post_event_hooks:
            self._post_event_hooks.remove(hook)

    @property
    def last_event(self):
        """The most recently fired event (None before the first)."""
        return self._last_event

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def stop(self):
        """Make the current run loop return after the in-flight event."""
        self._stopped = True

    def step(self):
        """Process one event. Returns False when the queue is empty. A
        silenced event at the head is re-armed instead of fired, as the
        run loop does, and that counts as the step."""
        queue = self._queue
        if queue.peek_time() is None:
            return False
        event = queue._heap[0][2]
        if event.period:
            self.now = event.time
            queue._seq = seq = queue._seq + 1
            event.time += event.period
            event.seq = seq
            heapreplace(queue._heap, (event.time, seq, event))
            if self.sanitizer is not None:
                self.sanitizer.on_event(event)
            return True
        event = queue.pop()
        if event.time < self.now:
            raise SimulationError(
                'event at %d in the past (now %d)' % (event.time, self.now))
        self.now = event.time
        self._events_processed += 1
        self._last_event = event
        event.callback(*event.args)
        if self._post_event_hooks:
            for hook in self._post_event_hooks:
                hook(event)
        return True

    def run_until(self, end_time, max_events=None):
        """Run until the clock passes ``end_time``, the queue drains, or
        ``stop()`` is called. Returns the number of events processed.

        ``max_events`` is a safety valve for tests: exceeding it raises
        :class:`LivelockError` with a summary of the pending events (it
        indicates a livelock in the model).
        """
        processed = self._run(end_time, max_events)
        if not self._stopped:
            self.now = max(self.now, end_time)
        return processed

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain (or ``stop()``). Returns event count.

        Exceeding ``max_events`` raises :class:`LivelockError` with the
        pending-event summary."""
        return self._run(None, max_events)

    def _run(self, end_time, max_events):
        """The event loop: fire events in (time, seq) order until one
        lies past ``end_time`` (None: never), the queue drains, or
        ``stop()`` is called. Each iteration drops cancelled heads and
        pops in one pass over the heap."""
        queue = self._queue
        heap = queue._heap
        hooks = self._post_event_hooks
        limit = _INFINITY if end_time is None else end_time
        budget = _INFINITY if max_events is None else max_events
        processed = 0
        self._stopped = False
        while not self._stopped:
            # Head scan: drop cancelled events and re-key silenced ones
            # in place (as ``step`` does for one).
            while heap:
                time, __, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if not event.period or time > limit:
                    break
                self.now = time
                queue._seq = seq = queue._seq + 1
                event.time = time = time + event.period
                event.seq = seq
                heapreplace(heap, (time, seq, event))
                budget -= 1
                if processed > budget:
                    raise self._livelock(max_events, end_time)
                sanitizer = self.sanitizer
                if sanitizer is not None:
                    sanitizer.on_event(event)
            else:
                break
            if time > limit:
                break
            heappop(heap)
            event.fired = True
            queue._live -= 1
            if time < self.now:
                raise SimulationError(
                    'event at %d in the past (now %d)' % (time, self.now))
            self.now = time
            self._events_processed += 1
            self._last_event = event
            event.callback(*event.args)
            if hooks:
                for hook in hooks:
                    hook(event)
            processed += 1
            if processed > budget:
                raise self._livelock(max_events, end_time)
        return processed

    def _livelock(self, max_events, end_time):
        return LivelockError(
            max_events, 'while draining' if end_time is None
            else 'before %d' % end_time, self._queue, self.now)

    @property
    def pending_events(self):
        """Number of live events in the queue."""
        return len(self._queue)

    @property
    def events_processed(self):
        """Total events processed since construction (silent re-arms
        are not events processed)."""
        return self._events_processed

    @property
    def events_scheduled(self):
        """Sequence numbers consumed since construction: one per
        scheduling call and one per silent re-arm. Silencing an event
        leaves this count unchanged, so it is the exact measure of the
        simulated work."""
        return self._queue._seq
