"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import threading

import pytest

from repro.obs import FakeClock, MetricsRegistry, fresh, get_registry, label_key


class TestLabelKey:
    def test_sorted_and_canonical(self):
        assert label_key({"b": 2, "a": "x"}) == "a=x,b=2"

    def test_empty(self):
        assert label_key({}) == ""

    def test_single_label_takes_the_same_form(self):
        assert label_key({"tenant": "t-0"}) == "tenant=t-0"

    def test_non_string_values_are_formatted_not_required_to_be_str(self):
        assert label_key({"shard": 3}) == "shard=3"
        assert label_key({"ok": True, "rate": 0.5, "n": None}) == "n=None,ok=True,rate=0.5"

    def test_insertion_order_never_shows(self):
        assert label_key({"z": 1, "a": 2, "m": 3}) == label_key({"m": 3, "z": 1, "a": 2})
        assert label_key({"z": 1, "a": 2, "m": 3}) == "a=2,m=3,z=1"

    def test_series_keys_reach_the_snapshot_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(tenant="t-0")
        registry.counter("c").inc(b=1, a="x")
        assert registry.snapshot()["counters"]["c"] == {"": 1.0, "tenant=t-0": 1.0, "a=x,b=1": 1.0}


class TestCounter:
    def test_starts_at_zero(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value() == 0
        assert counter.total() == 0

    def test_increments_per_label_series(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(ta="a")
        counter.inc(2, ta="a")
        counter.inc(ta="b")
        assert counter.value(ta="a") == 3
        assert counter.value(ta="b") == 1
        assert counter.total() == 4

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1)

    def test_exact_under_concurrency(self):
        """The lock makes counts exact, not approximate."""
        counter = MetricsRegistry().counter("c")
        per_thread = 500

        def hammer():
            for _ in range(per_thread):
                counter.inc(worker="shared")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(worker="shared") == 4 * per_thread


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5, pool="p")
        gauge.set(3, pool="p")
        assert gauge.value(pool="p") == 3

    def test_set_max_keeps_high_water(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(5, pool="p")
        gauge.set_max(3, pool="p")
        gauge.set_max(9, pool="p")
        assert gauge.value(pool="p") == 9

    def test_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.add(2)
        gauge.add(-0.5)
        assert gauge.value() == 1.5


class TestHistogram:
    def test_summary_statistics(self):
        hist = MetricsRegistry().histogram("h")
        for value in (3.0, 1.0, 2.0):
            hist.observe(value, op="x")
        stats = hist.stats(op="x")
        assert stats == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}
        assert hist.count(op="x") == 3

    def test_missing_series(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.stats(op="nope") is None
        assert hist.count(op="nope") == 0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("x")

    def test_snapshot_is_plain_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(ta="a")
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25, op="y")
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"]["c"] == {"ta=a": 1.0}
        assert snap["gauges"]["g"] == {"": 1.5}
        assert snap["histograms"]["h"]["op=y"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.names() == ()
        assert registry.counter("c").value() == 0


class TestContext:
    def test_fresh_swaps_and_restores(self):
        outer = get_registry()
        with fresh(clock=FakeClock()) as ctx:
            assert get_registry() is ctx.registry
            assert get_registry() is not outer
            ctx.registry.counter("inside").inc()
        assert get_registry() is outer
        assert "inside" not in outer.names()

    def test_fresh_restores_after_exception(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with fresh():
                raise RuntimeError("boom")
        assert get_registry() is outer
