"""The batched seeding kernel is ``np.random.default_rng(key)``, bit for bit.

:mod:`repro.sim.keyed` replays NumPy's ``SeedSequence`` → ``PCG64`` seeding
for a batch of integer keys at once; every claim here compares it against
the installed NumPy, key by key.  On top of the kernel: the memo of a pure
function cannot change a value (explicit injections still win, a resumed
run whose lookahead blocks start elsewhere reports the same bytes, keys
the kernel cannot take fall through to NumPy itself), its state is bounded,
and three simulator report hashes recorded before the kernel existed still
hold.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.sim import FaultKind, FaultPlan, FaultRates, SimConfig, keyed
from repro.sim.engine import _STREAM_ASYNC_SELECT, _STREAM_UPDATE
from repro.sim.faults import _STREAM_ATTACKER, _STREAM_FAULT
from repro.tee.storage import InMemoryBackend, SecureStorage

EDGE_WORDS = (0, 1, 2**32 - 1, _STREAM_FAULT, _STREAM_UPDATE, _STREAM_ASYNC_SELECT)
RATES = FaultRates(dropout=0.2, straggler=0.1, corrupt=0.03, pool_exhaust=0.02)


def numpy_state(key):
    state = np.random.default_rng(key).bit_generator.state["state"]
    return state["state"], state["inc"]


def edge_tables():
    """Key tables of every length 1–6 over the edge words, rotated so each
    word visits each position."""
    for length in range(1, 7):
        rows = [
            [EDGE_WORDS[(shift + column) % len(EDGE_WORDS)] for column in range(length)]
            for shift in range(len(EDGE_WORDS))
        ]
        rows += [[word] * length for word in EDGE_WORDS[:3]]
        yield np.array(rows, dtype=np.uint32)


def assert_rows_match_numpy(table):
    rows = [tuple(row) for row in table.tolist()]
    assert keyed.seed_states(table) == [numpy_state(key) for key in rows]
    assert keyed.uniforms(table).tolist() == [
        np.random.default_rng(key).random() for key in rows
    ]


class TestKernel:
    @pytest.mark.parametrize("table", edge_tables(), ids=lambda t: f"L{t.shape[1]}")
    def test_states_and_first_double_equal_numpy(self, table):
        assert_rows_match_numpy(table)

    @pytest.mark.parametrize("table", edge_tables(), ids=lambda t: f"L{t.shape[1]}")
    def test_seated_generator_draws_what_default_rng_draws(self, table):
        rngs = keyed.Generators()
        rngs.prefetch(*table.T)
        for key in map(tuple, table.tolist()):
            assert np.array_equal(
                rngs.at(key).standard_normal(7),
                np.random.default_rng(key).standard_normal(7),
            )
            assert rngs.at(key).integers(20000) == np.random.default_rng(
                key
            ).integers(20000)
            assert rngs.at(key).uniform(0.005, 0.05) == np.random.default_rng(
                key
            ).uniform(0.005, 0.05)
            # the hit really was the seated generator, not a fresh one
            assert rngs.at(key) is rngs.at(key)

    def test_scalar_components_broadcast_over_the_batch(self):
        clients = [5, 0, 19999]
        table = keyed.words(7, _STREAM_FAULT, 3, clients)
        assert table.tolist() == [[7, _STREAM_FAULT, 3, c] for c in clients]
        assert keyed.words(1, 2).tolist() == [[1, 2]]


@pytest.mark.property
@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda length: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
            min_size=1,
            max_size=16,
        )
    )
)
def test_kernel_equals_numpy_on_random_word_matrices(rows):
    assert_rows_match_numpy(np.array(rows, dtype=np.uint32))


class TestSingleKeyPath:
    """Keys the kernel does not take are answered by NumPy itself."""

    @pytest.mark.parametrize("bad", [2**32, 2**40, 2**70, -1])
    def test_multi_word_or_negative_component_is_not_batched(self, bad):
        assert keyed.words(bad, 5, [1, 2]) is None
        assert keyed.words(7, 5, [1, bad]) is None
        assert keyed.words(7, 5, []) is None

    def test_large_seed_and_unprefetched_keys_return_numpys_value(self):
        draws, rngs = keyed.Uniforms(), keyed.Generators()
        for seed in (2**40, 7):
            key = (seed, _STREAM_FAULT, 3, 11)
            if seed > 7:  # prefetching a multi-word key is a no-op
                draws.prefetch(seed, _STREAM_FAULT, 3, [11, 12])
                rngs.prefetch(seed, _STREAM_FAULT, 3, [11, 12])
            assert len(draws) == len(rngs) == 0
            assert draws.draw(key) == np.random.default_rng(key).random()
            assert np.array_equal(
                rngs.at(key).standard_normal(5),
                np.random.default_rng(key).standard_normal(5),
            )

    @pytest.mark.parametrize("seed", [7, 2**40])
    def test_fault_plan_realises_the_reference_faults(self, seed):
        plan = FaultPlan(RATES, seed=seed, attackers=SimConfig(byzantine=0.3))
        clients = list(range(0, 400, 3))
        plan.prefetch(5, clients)
        assert (len(plan._draws) > 0) == (seed == 7)
        for client in clients:
            draw = np.random.default_rng((seed, _STREAM_FAULT, 5, client)).random()
            expected = next(
                (kind for edge, kind in RATES.thresholds() if draw < edge), None
            )
            assert plan.fault_for(5, client) is expected
            assert plan.fault_for(6, client) is FaultPlan(RATES, seed=seed).fault_for(
                6, client
            )  # round 6 was never prefetched
            hostile = (
                np.random.default_rng((seed, _STREAM_ATTACKER, client)).random() < 0.3
            )
            assert (plan.attack_for(client) is not None) == hostile

    def test_large_seed_simulation_runs_both_engines(self):
        for extra in ({}, dict(async_mode=True, buffer_size=8)):
            kwargs = dict(clients=80, rounds=2, seed=2**40, dropout=0.2, **extra)
            assert api.simulate(**kwargs) == api.simulate(**kwargs)


class TestLookahead:
    def make(self, seed=7, clients=500):
        plan = FaultPlan(RATES, seed=seed)
        noise = keyed.Generators()
        ahead = keyed.Lookahead(
            (seed, _STREAM_ASYNC_SELECT), (seed, _STREAM_UPDATE), clients, plan, noise
        )
        return plan, noise, ahead

    @pytest.mark.parametrize("seed", [7, 2**40])
    def test_starts_equal_numpy_from_any_entry_point(self, seed):
        _, _, ahead = self.make(seed)
        # in order across a block edge, then a jump back (a resume) and ahead
        for dispatch in [*range(250, 262), 3, 4, 100_000, 5]:
            expected = np.random.default_rng(
                (seed, _STREAM_ASYNC_SELECT, dispatch)
            ).integers(500)
            assert ahead.start(dispatch) == expected

    def test_a_block_primes_the_unprobed_clients_draws(self):
        plan, noise, ahead = self.make()
        client = ahead.start(40)
        assert len(plan._draws) == len(noise) == keyed.BLOCK
        key = (7, _STREAM_UPDATE, 40, client)
        assert noise.at(key) is noise.at(key)  # a hit: the seated generator
        assert np.array_equal(
            noise.at(key).standard_normal(9),
            np.random.default_rng(key).standard_normal(9),
        )
        probed = (7, _STREAM_UPDATE, 40, (client + 1) % 500)
        assert noise.at(probed) is not noise.at(probed)  # a miss: fresh each time
        assert plan.fault_for(40, client) is FaultPlan(RATES, seed=7).fault_for(
            40, client
        )


class TestMemoOfAPureFunction:
    def test_injection_after_prefetch_still_wins(self):
        plan = FaultPlan(FaultRates(dropout=1.0), seed=3)
        plan.prefetch(2, range(10))
        assert plan.fault_for(2, 4) is FaultKind.DROP
        plan.inject(2, 4, None).inject(2, 5, "corrupt")
        assert plan.fault_for(2, 4) is None
        assert plan.fault_for(2, 5) is FaultKind.CORRUPT
        plan.inject_attack(6, "scale")
        plan.prefetch(2, range(10))
        assert plan.attack_for(6) is not None

    def test_async_resume_mid_block_equals_the_uninterrupted_report(
        self, sim_runner, sim_factory, report_bytes
    ):
        settings = dict(
            num_clients=600, rounds=12, seed=5, cohort=40, async_mode=True,
            buffer_size=40, concurrency=64,
        )
        rates = FaultRates(dropout=0.1, straggler=0.1, corrupt=0.05)
        uninterrupted = sim_runner(rates=rates, **settings)
        assert uninterrupted["totals"]["asked"] > 2 * keyed.BLOCK
        storage = SecureStorage(InMemoryBackend(), ssk=b"\x07" * 32)
        with sim_factory(storage=storage, rates=rates, **settings) as killed:
            for _ in range(3):
                killed.step_commit()
            for _ in range(17):
                assert killed.loop.step()
            # the resumed run's blocks start here, not at multiples of BLOCK
            assert 0 < killed._dispatch_counter % keyed.BLOCK
        with sim_factory(storage=storage, rates=rates, **settings) as revived:
            resumed = revived.run()
        assert resumed.pop("resumed_from_round") == 3
        uninterrupted.pop("resumed_from_round")
        assert report_bytes(resumed) == report_bytes(uninterrupted)

    def test_memo_state_is_bounded(self, sim_factory):
        bound = 4 * keyed.BLOCK
        with sim_factory(
            rates=RATES, num_clients=300, rounds=200, seed=1, async_mode=True,
            buffer_size=12, concurrency=32,
        ) as sim:
            sim.run()
            assert sim._dispatch_counter > 2 * bound
            assert 0 < len(sim._rngs) <= bound
            assert 0 < len(sim.fault_plan._draws) <= bound
        # A memo keeps its newest batch whole plus older entries up to four
        # blocks: a cohort larger than that displaces the previous cohort
        # entirely, smaller cohorts accumulate up to the same constant.
        for cohort in (1000, 100):
            with sim_factory(
                rates=RATES, num_clients=3000, rounds=3, cohort=cohort
            ) as sim:
                for _ in range(3):
                    sim.step_round()
                    assert 0 < len(sim._rngs) <= max(sim.config.asked, bound)
                    assert 0 < len(sim.fault_plan._draws) <= max(sim.config.asked, bound)


# SHA-256 of json.dumps(api.simulate(**kwargs), sort_keys=True), recorded at
# the commit *before* repro.sim.keyed existed (c8ff733): the kernel, the
# prefetches and the lookahead moved where draws are computed, not one bit
# of what they are.  ``byzantine`` was re-recorded when the flat trimmed
# mean began rounding the exact trimmed sum once: its weights are now the
# four-shard run's (``weights_sha256`` b5ec3709…), as at every shard count.
GOLDEN_REPORTS = {
    "sync": (
        dict(
            clients=2000, cohort=200, rounds=5, seed=7, shards=4,
            dropout=0.2, straggler=0.1, corrupt=0.03, pool_exhaust=0.02,
        ),
        "0e7d08133b0fd6194d4f5d24b5db606df9a538399b3792fd03c3913f590a2621",
    ),
    "async": (
        dict(
            clients=2000, rounds=12, seed=7, async_mode=True, buffer_size=64,
            concurrency=160, dropout=0.1, straggler=0.05, corrupt=0.03,
            deadline=0.3,
        ),
        "245ebf916e5fcd1fda13eccde5ac28d5ae3944bc97352c40474a2f7ff0907ccb",
    ),
    "byzantine": (
        dict(
            clients=60, rounds=6, seed=0, byzantine=0.3, attack="sign_flip",
            rule="trimmed_mean", max_norm=6.0,
        ),
        "9559a9d6b24788c335a0a133f8002845387c5d66dd928d9848713ab067067f4e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_hashes_recorded_before_the_kernel_still_hold(name):
    kwargs, expected = GOLDEN_REPORTS[name]
    blob = json.dumps(api.simulate(**kwargs), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == expected
    compiled = dict(kwargs, compile=True, client_batch=64)
    if not kwargs.get("async_mode"):
        blob = json.dumps(api.simulate(**compiled), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == expected
