"""The traced pass: per-layer event counts and self time, from outside.

A layer is one package under ``src/repro/``. Nothing in the program is
changed to measure it. :class:`LayerTrace` patches the public
``Simulator`` entry points on the class while it is installed. A
post-event hook counts every fired event by the package of its
callback. Wrappers around ``at``/``after``/``call_soon`` count
scheduled events, so the lazily cancelled ones are
``scheduled - fired - still pending``. Self time comes from
:mod:`cProfile`. The self time of a function outside ``src/repro`` (a
builtin such as ``heapq.heappush``, or a stdlib helper) is charged to
the packages of its callers, in proportion to the time each caller
spent in it.
"""

import collections
import cProfile
import os
import pstats

import repro
from repro.guestos.timers import TickDriver
from repro.hypervisor.ple import PleMonitor
from repro.simkernel.simulation import Simulator

#: Every package under src/repro, in replint's layering order.
LAYERS = ('obs', 'simkernel', 'metrics', 'workloads', 'hypervisor',
          'guestos', 'faults', 'core', 'experiments', 'cluster', 'traffic')

_TICK = TickDriver._on_tick
_PLE_EXPIRY = PleMonitor._window_expired
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_SCHEDULERS = ('at', 'after', 'call_soon')
# Callers followed upward when charging non-repro self time to a layer.
_MAX_CALLER_DEPTH = 8


def layer_of_module(module):
    """The layer owning dotted module name ``module``, or None."""
    parts = module.split('.')
    if len(parts) >= 2 and parts[0] == 'repro' and parts[1] in LAYERS:
        return parts[1]
    return None


def layer_of_file(filename):
    """The layer owning source file ``filename``, or None."""
    rel = os.path.relpath(os.path.abspath(filename), _REPRO_DIR)
    head = rel.split(os.sep, 1)[0]
    return head if head in LAYERS else None


class RunCounts:
    """Exact counts gathered over the runs of one traced pass."""

    def __init__(self):
        self.fired_by_callback = collections.Counter()
        self.events_processed = 0
        self.scheduled = 0
        self.pending_at_end = 0
        self.ticks = 0
        self.ticks_alone = 0
        self.ple_windows = 0
        self.counters = collections.Counter()
        self.requests = 0
        self.shed = 0

    def events_by_layer(self):
        by_layer = collections.Counter()
        for func, count in self.fired_by_callback.items():
            module = getattr(func, '__module__', None) or ''
            by_layer[layer_of_module(module) or 'other'] += count
        return by_layer

    @property
    def cancelled(self):
        return self.scheduled - self.events_processed - self.pending_at_end


class LayerTrace:
    """Install with ``with``; call :meth:`finish_run` after each run.

    While installed, every ``Simulator`` constructed gets the counting
    hook, and the three scheduling methods count their calls.
    """

    def __init__(self):
        self.counts = RunCounts()
        self.profiler = cProfile.Profile()
        self._sims = []
        self._saved = {}

    def __enter__(self):
        trace = self
        counts = self.counts
        saved = self._saved
        saved['__init__'] = Simulator.__init__
        for name in _SCHEDULERS:
            saved[name] = getattr(Simulator, name)

        def init(sim, *args, **kwargs):
            saved['__init__'](sim, *args, **kwargs)
            trace._sims.append(sim)
            sim.add_post_event_hook(trace._after_event)

        def counting(method):
            def schedule(sim, *args):
                counts.scheduled += 1
                return method(sim, *args)
            return schedule

        Simulator.__init__ = init
        for name in _SCHEDULERS:
            setattr(Simulator, name, counting(saved[name]))
        return self

    def __exit__(self, *exc):
        for name, method in self._saved.items():
            setattr(Simulator, name, method)
        self._saved.clear()
        return False

    def _after_event(self, event):
        counts = self.counts
        func = getattr(event.callback, '__func__', event.callback)
        counts.fired_by_callback[func] += 1
        if func is _TICK:
            counts.ticks += 1
            gcpu = event.args[0]
            # State after the tick: a gCPU running its only task.
            if gcpu.current is not None and gcpu.rq.nr_ready == 0:
                counts.ticks_alone += 1
        elif func is _PLE_EXPIRY:
            counts.ple_windows += 1

    def run(self, execute, spec):
        """Execute one spec under the profiler; returns its outcome."""
        self.profiler.enable()
        try:
            return execute(spec)
        finally:
            self.profiler.disable()

    def finish_run(self, outcome):
        """Fold the simulators of the run just executed into the counts.

        ``outcome`` is None when the run raised; its events still count.
        """
        counts = self.counts
        sims, self._sims = self._sims, []
        for sim in sims:
            counts.events_processed += sim.events_processed
            counts.pending_at_end += sim.pending_events
        if outcome is None:
            return
        if outcome.metrics is not None:
            counts.counters.update(outcome.metrics.counters)
        else:
            # Cluster and traffic runs carry no RunMetrics snapshot; the
            # simulated counters live on the shared simulator's tracer.
            for sim in sims:
                counts.counters.update(sim.trace.counters)
        if outcome.spec.kind == 'traffic':
            counts.requests += outcome.cluster['injected']
            counts.shed += outcome.cluster['shed']

    def self_time_by_layer(self):
        """Profiler self seconds per layer (``other`` for the rest)."""
        stats = pstats.Stats(self.profiler).stats
        memo = {}

        def shares(key, depth):
            layer = layer_of_file(key[0]) if key[0] != '~' else None
            if layer is not None:
                return {layer: 1.0}
            if key in memo:
                return memo[key]
            memo[key] = {'other': 1.0}      # cycle guard
            entry = stats.get(key)
            callers = entry[4] if entry else {}
            if not callers or depth >= _MAX_CALLER_DEPTH:
                return memo[key]
            # A caller edge is (calls, primitive calls, self time, total).
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: edge[0]
                           for caller, edge in callers.items()}
                total = sum(weights.values()) or 1
            mix = collections.Counter()
            for caller, weight in weights.items():
                for layer, share in shares(caller, depth + 1).items():
                    mix[layer] += share * weight / total
            memo[key] = dict(mix)
            return memo[key]

        self_s = collections.Counter()
        for key, (__, __, tottime, __, __) in stats.items():
            for layer, share in shares(key, 0).items():
                self_s[layer] += tottime * share
        return self_s

    def metrics(self, wall_s, traced_wall_s):
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``wall_s`` is the untraced run list's host time and
        ``traced_wall_s`` the same list's time under this trace.
        """
        counts = self.counts
        sa_sent = counts.counters['irs.sa_sent']
        migrations = counts.counters['irs.migrations']
        metrics = {
            'trace_overhead': (traced_wall_s / wall_s, 'x'),
            'simkernel.events': (counts.events_processed, 'count'),
            'simkernel.cancelled_share': (
                _ratio(counts.cancelled, counts.scheduled), 'ratio'),
            'simkernel.ns_per_event': (
                wall_s * 1e9 / counts.events_processed, 'ns'),
            'guestos.ticks': (counts.ticks, 'count'),
            'guestos.ticks_alone_share': (
                _ratio(counts.ticks_alone, counts.ticks), 'ratio'),
            'hypervisor.ple_windows': (counts.ple_windows, 'count'),
            'hypervisor.preemptions': (
                counts.counters['hv.preemptions'], 'count'),
            'core.sa_sent': (sa_sent, 'count'),
            'core.migrations': (migrations, 'count'),
            'core.migrations_per_sa': (_ratio(migrations, sa_sent), 'ratio'),
            'traffic.requests': (counts.requests, 'count'),
            'traffic.shed_share': (
                _ratio(counts.shed, counts.requests), 'ratio'),
        }
        by_layer = counts.events_by_layer()
        self_s = self.self_time_by_layer()
        for layer in LAYERS:
            # simkernel.events above is every fired event, of all layers.
            if layer != 'simkernel':
                metrics[layer + '.events'] = (by_layer[layer], 'count')
            metrics[layer + '.self_s'] = (self_s[layer], 's')
        return metrics


def _ratio(part, whole):
    return part / whole if whole else 0.0
