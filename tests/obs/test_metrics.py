"""Instrument semantics: counters, gauges, histograms, and the registry."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("c_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_partition_the_count(self, registry):
        counter = registry.counter("c_total", labelnames=("k",))
        counter.inc(k="a")
        counter.inc(2, k="b")
        assert counter.value(k="a") == 1.0
        assert counter.value(k="b") == 2.0
        assert counter.value(k="never") == 0.0
        assert counter.total() == 3.0

    def test_rejects_negative_increment(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c_total").inc(-1)

    def test_rejects_wrong_label_set(self, registry):
        counter = registry.counter("c_total", labelnames=("k",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(k="a", extra="b")

    def test_rejects_invalid_names(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1starts-with-digit")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12.0

    def test_can_go_negative(self, registry):
        gauge = registry.gauge("g")
        gauge.dec(2)
        assert gauge.value() == -2.0


class TestHistogram:
    def test_default_buckets_are_log_scale(self):
        ratios = {
            round(b / a)
            for a, b in zip(DEFAULT_LATENCY_BUCKETS[:-1],
                            DEFAULT_LATENCY_BUCKETS[1:], strict=True)
        }
        assert ratios == {2}
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(5e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 5.0  # covers multi-second stalls

    def test_observe_counts_and_sums(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count() == 4
        samples = {
            (suffix, labelvalues): value
            for suffix, _names, labelvalues, value in histogram.samples()
        }
        # Cumulative buckets: <=1 has 1, <=2 has 2, <=4 has 3, +Inf has all.
        assert samples[("_bucket", ("1",))] == 1
        assert samples[("_bucket", ("2",))] == 2
        assert samples[("_bucket", ("4",))] == 3
        assert samples[("_bucket", ("+Inf",))] == 4
        assert samples[("_count", ())] == 4
        assert samples[("_sum", ())] == pytest.approx(105.0)

    def test_boundary_lands_in_its_bucket(self, registry):
        # Prometheus buckets are upper-inclusive: observe(le) counts in le.
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        samples = {
            (suffix, labelvalues): value
            for suffix, _names, labelvalues, value in histogram.samples()
        }
        assert samples[("_bucket", ("1",))] == 1

    def test_quantile_estimates(self, registry):
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 0.6, 0.7, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.99) == 4.0
        assert registry.histogram(
            "h_empty", buckets=(1.0,)).quantile(0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)

    def test_time_context_manager(self, registry, manual_clock):
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        with histogram.time():
            manual_clock.advance(1.5)
        assert histogram.count() == 1
        samples = {
            (suffix, labelvalues): value
            for suffix, _names, labelvalues, value in histogram.samples()
        }
        assert samples[("_sum", ())] == pytest.approx(1.5)
        assert samples[("_bucket", ("2",))] == 1

    def test_rejects_bad_buckets(self, registry):
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("h1", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h2", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        first = registry.counter("c_total", "help me")
        second = registry.counter("c_total")
        assert first is second
        assert registry.get("c_total") is first
        assert registry.get("missing") is None

    def test_kind_mismatch_raises(self, registry):
        registry.counter("name")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("name")

    def test_labelnames_mismatch_raises(self, registry):
        registry.counter("name", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("name", labelnames=("b",))

    def test_reset_zeroes_in_place(self, registry):
        # The property module-level instrument references depend on:
        # reset() must zero the *existing* objects, not replace them.
        counter = registry.counter("c_total")
        counter.inc(5)
        registry.reset()
        assert registry.get("c_total") is counter
        assert counter.value() == 0.0
        counter.inc()
        assert counter.value() == 1.0

    def test_summary_and_prefix_filter(self, registry):
        registry.counter("repro_a_total").inc()
        registry.gauge("other_g").set(2)
        summary = registry.summary(prefix="repro_")
        assert set(summary) == {"repro_a_total"}
        assert summary["repro_a_total"]["kind"] == "counter"
        assert registry.summary()["other_g"]["values"][""] == 2.0
