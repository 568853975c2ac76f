"""Unit tests for tracing and counters."""

import pytest

from repro.simkernel.tracing import Tracer
from repro.simkernel.units import (
    MS,
    SEC,
    US,
    format_ns,
    ns_to_ms,
    ns_to_sec,
    ns_to_us,
)


class TestCounters:
    def test_count_increments(self):
        t = Tracer()
        t.count('a')
        t.count('a', 2)
        assert t.counters['a'] == 3

    def test_counters_work_when_tracing_disabled(self):
        t = Tracer(enabled=False)
        t.count('x')
        assert t.counters['x'] == 1

    def test_count_lands_in_registry(self):
        t = Tracer()
        t.count('x', 2)
        assert t.metrics.counter('x').value == 2

    def test_counters_view_is_read_only(self):
        t = Tracer()
        t.count('x')
        t.metrics.gauge('g').set(5)
        assert dict(t.counters) == {'x': 1}
        with pytest.raises(TypeError):
            t.counters['x'] = 7

    def test_missing_counter_is_zero(self):
        t = Tracer()
        assert t.counters['nothing'] == 0

    def test_count_on_other_kind_raises_type_error(self):
        t = Tracer()
        t.metrics.gauge('g').set(5)
        with pytest.raises(TypeError):
            t.count('g')
        assert t.metrics.get('g').value == 5

    def test_negative_count_raises_value_error(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.count('x', -1)           # first use
        t.count('x')
        with pytest.raises(ValueError):
            t.count('x', -1)           # existing counter
        assert t.counters['x'] == 1

    def test_count_after_clear_starts_over(self):
        t = Tracer()
        t.count('x', 4)
        t.clear()
        t.count('x')
        assert t.counters['x'] == 1


class TestRecords:
    def test_emit_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        t.emit(1, 'cat', x=1)
        assert t.records == []

    def test_emit_enabled_records(self):
        t = Tracer(enabled=True)
        t.emit(5, 'sched', vcpu='v0')
        assert len(t.records) == 1
        assert t.records[0].time == 5
        assert t.records[0].category == 'sched'
        assert t.records[0].detail == {'vcpu': 'v0'}

    def test_category_filter(self):
        t = Tracer(enabled=True, categories=['keep'])
        t.emit(1, 'keep')
        t.emit(2, 'drop')
        assert len(t.records) == 1

    def test_records_for(self):
        t = Tracer(enabled=True)
        t.emit(1, 'a')
        t.emit(2, 'b')
        t.emit(3, 'a')
        assert [r.time for r in t.records_for('a')] == [1, 3]

    def test_clear(self):
        t = Tracer(enabled=True)
        t.emit(1, 'a')
        t.count('c')
        t.clear()
        assert t.records == []
        assert t.counters['c'] == 0


class TestRingBuffer:
    def test_cap_keeps_newest(self):
        t = Tracer(enabled=True, max_records=3)
        for i in range(5):
            t.emit(i, 'cat')
        assert [r.time for r in t.records] == [2, 3, 4]
        assert t.dropped == 2
        assert t.counters['trace.dropped'] == 2
        assert t.metrics.counter('trace.dropped').value == 2

    def test_below_cap_drops_nothing(self):
        t = Tracer(enabled=True, max_records=10)
        t.emit(1, 'cat')
        assert t.dropped == 0
        assert len(t.records) == 1

    def test_unbounded_with_none(self):
        t = Tracer(enabled=True, max_records=None)
        for i in range(5):
            t.emit(i, 'cat')
        assert len(t.records) == 5

    def test_invalid_cap_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            Tracer(max_records=0)

    def test_clear_resets_ring(self):
        t = Tracer(enabled=True, max_records=2)
        for i in range(4):
            t.emit(i, 'cat')
        t.clear()
        assert t.records == []
        assert t.dropped == 0
        t.emit(9, 'cat')
        assert [r.time for r in t.records] == [9]

    def test_records_for_respects_ring_order(self):
        t = Tracer(enabled=True, max_records=4)
        for i in range(6):
            t.emit(i, 'a' if i % 2 == 0 else 'b')
        assert [r.time for r in t.records_for('a')] == [2, 4]


class TestObservabilityHooks:
    def test_spans_and_metrics_attached(self):
        t = Tracer()
        assert not t.spans.enabled
        assert t.spans.registry is t.metrics
        assert len(t.metrics) == 0

    def test_span_duration_feeds_metrics(self):
        t = Tracer()
        t.spans.enabled = True
        span = t.spans.begin(0, 'sa.offer', 'v0')
        t.spans.end(23_000, span)
        assert t.metrics.histogram('sa.offer').count == 1

    def test_clear_resets_spans_and_metrics(self):
        t = Tracer()
        t.spans.enabled = True
        t.spans.instant(1, 'p', 'v0')
        t.clear()
        assert t.spans.spans == []
        assert len(t.metrics) == 0


class TestUnits:
    def test_conversions(self):
        assert ns_to_ms(30 * MS) == 30.0
        assert ns_to_us(5 * US) == 5.0
        assert ns_to_sec(2 * SEC) == 2.0

    def test_format_ns_picks_unit(self):
        assert format_ns(500) == '500ns'
        assert format_ns(1500) == '1.500us'
        assert format_ns(30 * MS) == '30.000ms'
        assert format_ns(2 * SEC) == '2.000s'
