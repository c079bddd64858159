"""End-to-end tests for the asynchronous (FedBuff-style) simulator mode.

Everything here rides the shared ``sim_runner`` / ``sim_factory`` /
``report_bytes`` fixtures from ``conftest.py``.  The claims: same-seed
async runs are byte-identical, a coordinator killed *mid-buffer* resumes
bit-for-bit, stragglers produce
genuinely stale folds, and aggregator memory stays flat as the fleet
grows.
"""

from __future__ import annotations

import pytest

from repro.sim import FaultRates, SimConfig
from repro.tee.storage import InMemoryBackend, SecureStorage

pytestmark = [getattr(pytest.mark, "async")]  # "async" is a keyword

SSK = b"\x07" * 32

ASYNC = dict(
    num_clients=60,
    rounds=6,
    seed=0,
    cohort=20,
    drift=0.3,
    update_scale=0.01,
    async_mode=True,
    buffer_size=10,
)
FAULTS = FaultRates(dropout=0.1, straggler=0.2)


class TestConfigGuards:
    def test_compile_is_rejected_in_async_mode(self):
        with pytest.raises(ValueError, match="compile"):
            SimConfig(num_clients=10, rounds=1, async_mode=True, compile=True)

    def test_step_round_is_rejected_in_async_mode(self, sim_factory):
        with sim_factory(**ASYNC) as sim:
            with pytest.raises(RuntimeError, match="async"):
                sim.step_round()

    def test_step_commit_requires_async_mode(self, sim_factory):
        with sim_factory(num_clients=10, rounds=1, seed=0) as sim:
            with pytest.raises(RuntimeError, match="async_mode"):
                sim.step_commit()


class TestDeterminism:
    def test_same_seed_byte_identical(self, sim_runner, report_bytes):
        # a short deadline so silent clients are *detected* (and counted)
        # within the run's virtual horizon
        settings = dict(ASYNC, deadline_seconds=0.5)
        reports = [
            sim_runner(rates=FAULTS, **settings) for _ in range(2)
        ]
        assert report_bytes(reports[0]) == report_bytes(reports[1])
        assert reports[0]["mode"] == "async"
        assert reports[0]["totals"]["commits"] == ASYNC["rounds"]
        # the faults actually bit — this is not an idle-fleet agreement
        assert reports[0]["totals"]["dropouts"] > 0

    def test_staleness_weighting_changes_the_weights(self, sim_runner):
        constant = sim_runner(rates=FaultRates(straggler=0.3), **ASYNC)
        decayed = sim_runner(
            rates=FaultRates(straggler=0.3),
            **dict(ASYNC, staleness="polynomial", staleness_exponent=1.0),
        )
        # stale folds exist, so down-weighting them must move the model
        assert constant["totals"]["staleness_max"] >= 1
        assert constant["weights_sha256"] != decayed["weights_sha256"]


class TestStaleness:
    def test_stragglers_fold_in_stale_instead_of_dropping(self, sim_runner):
        report = sim_runner(rates=FaultRates(straggler=0.3), **ASYNC)
        totals = report["totals"]
        assert totals["stragglers"] > 0
        # the histogram has mass beyond bucket "0": late updates were
        # folded with staleness > 0, not discarded
        assert totals["staleness_max"] >= 1
        assert any(bucket != "0" for bucket in totals["staleness"])
        assert sum(totals["staleness"].values()) == totals["updates"]

    def test_injected_straggle_is_honoured(self, sim_factory):
        # A gentle slow-down and enough commits that the delayed arrival
        # still lands inside the run's virtual horizon.
        settings = dict(
            ASYNC, buffer_size=4, rounds=25, straggler_factor=3.0
        )
        with sim_factory(**settings) as sim:
            # dispatch index 0, whichever client the selector draws first
            for client in range(settings["num_clients"]):
                sim.fault_plan.inject(0, client, "straggle")
            report = sim.run()
        assert report["totals"]["stragglers"] == 1
        assert report["totals"]["staleness_max"] >= 1


class TestKillResume:
    def test_mid_buffer_resume_is_bit_for_bit(
        self, sim_runner, sim_factory, report_bytes
    ):
        settings = dict(ASYNC, rounds=5)
        uninterrupted = sim_runner(rates=FAULTS, **settings)

        storage = SecureStorage(InMemoryBackend(), ssk=SSK)
        with sim_factory(storage=storage, rates=FAULTS, **settings) as killed:
            killed.step_commit()
            killed.step_commit()
            # push into the *middle* of the third window, then die: the
            # last seal is commit 2's, so the revived run re-runs the
            # third window from there rather than restoring its buffer
            while killed._buffer.pending < 5:
                assert killed.loop.step()
            assert killed.round == 2 and 0 < killed._buffer.pending < 10

        with sim_factory(storage=storage, rates=FAULTS, **settings) as revived:
            assert revived.resumed_from == 2
            assert revived._buffer.pending == 0
            resumed = revived.run()

        assert resumed.pop("resumed_from_round") == 2
        uninterrupted.pop("resumed_from_round")
        assert resumed["weights_sha256"] == uninterrupted["weights_sha256"]
        assert report_bytes(resumed) == report_bytes(uninterrupted)


class TestFlatMemory:
    def test_aggregator_peak_is_independent_of_fleet_size(self, sim_runner):
        def peak(clients):
            report = sim_runner(
                num_clients=clients,
                rounds=3,
                seed=0,
                cohort=40,
                concurrency=30,
                async_mode=True,
                buffer_size=20,
            )
            assert report["totals"]["commits"] == 3
            return report["aggregator_peak_bytes"]

        small, large = peak(200), peak(2000)
        assert small > 0
        # exact accumulators: peak state is O(model size), not O(fleet)
        assert large <= 1.5 * small

    def test_report_keeps_sync_count_keys(self, sim_runner):
        report = sim_runner(rates=FAULTS, **ASYNC)
        for key in ("dropouts", "stragglers", "attacked", "quarantined"):
            assert key in report["totals"]
        for outcome in report["rounds"]:
            assert outcome["dead_shards"] == []
            assert outcome["buffer_size"] == ASYNC["buffer_size"]
