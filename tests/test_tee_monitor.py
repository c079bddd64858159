"""Tests for the secure monitor (SMC dispatch) and trusted applications."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs import FakeClock
from repro.tee import (
    SecureMonitor,
    SecureWorldViolation,
    TEEError,
    TrustedApplication,
    World,
    current_world,
)


def make_echo_ta(name="echo"):
    ta = TrustedApplication(name)
    ta.register("echo", lambda value: value)
    ta.register("world", lambda: current_world())
    return ta


class TestTrustedApplication:
    def test_uuid_stable_per_name(self):
        assert TrustedApplication("svc").uuid == TrustedApplication("svc").uuid

    def test_invoke_outside_secure_world_raises(self):
        ta = make_echo_ta()
        with pytest.raises(SecureWorldViolation):
            ta.invoke("echo", value=1)

    def test_unknown_command_raises(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        with pytest.raises(KeyError, match="no command"):
            monitor.smc(ta.uuid, "missing")

    def test_measurement_changes_with_version(self):
        a = TrustedApplication("svc", version="1.0")
        b = TrustedApplication("svc", version="2.0")
        assert a.measurement() != b.measurement()

    def test_measurement_changes_with_commands(self):
        a = make_echo_ta()
        b = TrustedApplication("echo")
        assert a.measurement() != b.measurement()

    def test_measurement_deterministic(self):
        assert make_echo_ta().measurement() == make_echo_ta().measurement()


class TestSecureMonitor:
    def test_smc_runs_in_secure_world(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        assert monitor.smc(ta.uuid, "world") is World.SECURE
        assert current_world() is World.NORMAL

    def test_smc_passes_params_and_returns(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        assert monitor.smc(ta.uuid, "echo", value=42) == 42

    def test_stats_count_calls(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        for _ in range(3):
            monitor.smc(ta.uuid, "echo", value=0)
        assert monitor.stats.calls == 3
        assert monitor.stats.per_ta["echo"] == 3

    def test_duplicate_install_rejected(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        with pytest.raises(TEEError, match="already installed"):
            monitor.install(make_echo_ta())

    def test_unknown_ta_raises(self):
        with pytest.raises(KeyError, match="no TA"):
            SecureMonitor().smc("missing-uuid", "cmd")

    def test_world_restored_after_ta_exception(self):
        monitor = SecureMonitor()
        ta = TrustedApplication("bomb")
        ta.register("explode", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        monitor.install(ta)
        with pytest.raises(RuntimeError):
            monitor.smc(ta.uuid, "explode")
        assert current_world() is World.NORMAL


class TestConcurrentStats:
    """Regression: ``SMCStats`` bookkeeping must be exact under contention.

    ``per_ta`` used to be bumped with an unlocked read-modify-write; four
    threads hammering one monitor could lose increments.  With the stats
    lock in place the counts are exact.
    """

    def test_parallel_hammering_counts_exactly(self):
        monitor = SecureMonitor()
        ta = make_echo_ta()
        monitor.install(ta)
        calls_per_worker = 250
        workers = 4

        def hammer(worker_id):
            for i in range(calls_per_worker):
                assert monitor.smc(ta.uuid, "echo", value=(worker_id, i)) == (
                    worker_id,
                    i,
                )
            return worker_id

        with obs.fresh(clock=FakeClock()) as ctx:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                assert list(pool.map(hammer, range(workers))) == list(range(workers))
            expected = workers * calls_per_worker
            assert monitor.stats.calls == expected
            assert monitor.stats.per_ta["echo"] == expected
            # The metrics registry saw the same exact count.
            counter = ctx.registry.counter("tee.smc.calls")
            assert counter.value(ta="echo", command="echo") == expected
