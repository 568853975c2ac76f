"""Lightweight tracing, counters, spans, and typed metrics.

The tracer records structured events (time, category, payload) when
enabled and counts named events unconditionally. Counters are the
backbone of the metrics layer; the event trace exists for debugging and
for tests that assert on scheduler behaviour sequences.

Two observability hooks ride on every tracer (see ``repro.obs``):

* :attr:`Tracer.spans` - a :class:`~repro.obs.spans.SpanRecorder` for
  begin/end phase spans (SA protocol probes). Disabled by default;
  every probe is a single-attribute-test no-op until enabled.
* :attr:`Tracer.metrics` - the :class:`~repro.obs.histograms.MetricsRegistry`
  holding typed counters/gauges/histograms. It is the only counter
  store: :meth:`Tracer.count` increments its counters, and
  :attr:`Tracer.counters` is a read-only view of them. Span durations
  feed the histogram named after their phase automatically.

Event records are bounded: the ``max_records`` ring keeps the newest
records and counts evictions under ``trace.dropped``, so a long traced
run can no longer grow without limit.
"""

from collections.abc import Mapping

from ..obs.histograms import MetricsRegistry
from ..obs.spans import SpanRecorder

#: Default cap on retained trace records (the newest are kept).
DEFAULT_MAX_RECORDS = 100_000


class TraceRecord:
    """One trace entry: what happened, when, and to whom."""

    __slots__ = ('time', 'category', 'detail')

    def __init__(self, time, category, detail):
        self.time = time
        self.category = category
        self.detail = detail

    def __repr__(self):
        return '<%d %s %r>' % (self.time, self.category, self.detail)


class CounterView(Mapping):
    """Read-only ``{name: value}`` view of a registry's counters;
    names never counted read 0."""

    __slots__ = ('_registry',)

    def __init__(self, registry):
        self._registry = registry

    def __getitem__(self, name):
        metric = self._registry.get(name)
        if metric is None or metric.kind != 'counter':
            return 0
        return metric.value

    def __iter__(self):
        return iter(self._registry.names(kind='counter'))

    def __len__(self):
        return len(self._registry.names(kind='counter'))


class Tracer:
    """Collects :class:`TraceRecord` entries, counters, and spans."""

    def __init__(self, enabled=False, categories=None,
                 max_records=DEFAULT_MAX_RECORDS):
        if max_records is not None and max_records < 1:
            raise ValueError('max_records must be >= 1 (or None)')
        self.enabled = enabled
        self.categories = set(categories) if categories else None
        self.max_records = max_records
        self.metrics = MetricsRegistry()
        self.counters = CounterView(self.metrics)
        self.spans = SpanRecorder(registry=self.metrics)
        self._records = []
        self._head = 0              # ring start index once wrapped

    @property
    def records(self):
        """Retained trace records, oldest first."""
        if self._head == 0:
            return self._records
        return self._records[self._head:] + self._records[:self._head]

    @property
    def dropped(self):
        """Trace records evicted from the ring so far."""
        return self.counters['trace.dropped']

    def emit(self, time, category, **detail):
        """Record a trace event if tracing is on for this category.

        Storage is a ring of ``max_records``: once full, the oldest
        record is evicted and ``trace.dropped`` incremented."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        record = TraceRecord(time, category, detail)
        if (self.max_records is not None
                and len(self._records) >= self.max_records):
            self._records[self._head] = record
            self._head = (self._head + 1) % self.max_records
            self.count('trace.dropped')
        else:
            self._records.append(record)

    def count(self, name, amount=1):
        """Increment registry counter ``name`` by ``amount``.

        The hot path bumps an existing counter in place, in this one
        frame; first use, a kind clash (``TypeError``) and a negative
        amount (``ValueError``) go through ``MetricsRegistry.counter``
        and ``CounterMetric.inc``."""
        metric = self.metrics._metrics.get(name)
        if metric is not None and metric.kind == 'counter' and amount >= 0:
            metric.value += amount
        else:
            self.metrics.counter(name).inc(amount)

    def records_for(self, category):
        """All trace records of one category, in emission order."""
        return [r for r in self.records if r.category == category]

    def clear(self):
        """Drop all records, counters, spans, and metrics."""
        self._records = []
        self._head = 0
        self.spans.clear()
        self.metrics.clear()
