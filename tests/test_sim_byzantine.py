"""Byzantine clients in the simulator: attacks, defence, determinism.

Holds the PR's headline acceptance test: at seed 0 with 30% of the fleet
sign-flipping, plain FedAvg visibly degrades while ``median`` and
``krum`` stay within 2 accuracy points of the attack-free run — the same
sweep ``benchmarks/bench_robust.py`` writes to ``BENCH_robust.json``.

Simulator construction and report serialisation come from the shared
``sim_runner`` / ``sim_factory`` / ``report_bytes`` fixtures in
``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import AttackKind, FaultPlan, FaultRates, SimConfig, apply_attack
from repro.tee.storage import InMemoryBackend, SecureStorage

SSK = b"\x07" * 32

# The tuned learning-signal shape (see SimConfig.drift): honest runs hit
# accuracy 1.0 inside 20 rounds, while a 30% sign-flip fleet cuts
# FedAvg's effective drift to (1 - 2*0.3)x and visibly stalls it.
SWEEP = dict(
    num_clients=60, rounds=20, seed=0, cohort=20, drift=0.3, update_scale=0.01
)


def run_sim(sim_runner, storage=None, **overrides):
    return sim_runner(storage=storage, **dict(SWEEP, **overrides))


class TestAttackKinds:
    def test_sign_flip_negates_and_preserves_norm(self):
        delta = np.arange(5, dtype=float)
        flipped = apply_attack(
            AttackKind.SIGN_FLIP, delta, seed=0, round_index=0, client_index=0
        )
        np.testing.assert_array_equal(flipped, -delta)

    def test_scale_multiplies(self):
        delta = np.ones(4)
        scaled = apply_attack(
            AttackKind.SCALE,
            delta,
            seed=0,
            round_index=0,
            client_index=0,
            strength=10.0,
        )
        np.testing.assert_array_equal(scaled, 10.0 * delta)

    def test_gauss_noise_is_seeded(self):
        delta = np.ones(8)
        kwargs = dict(seed=3, round_index=2, client_index=5)
        a = apply_attack(AttackKind.GAUSS_NOISE, delta, **kwargs)
        b = apply_attack(AttackKind.GAUSS_NOISE, delta, **kwargs)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, delta)

    def test_collude_is_identical_across_clients(self):
        # The colluding direction is keyed off (seed, round) only, so every
        # colluder in a round sends the same payload (norm-matched to its
        # own honest delta) — the duplicate-update case Krum's tie-break
        # exists for.
        delta = np.full(6, 2.0)
        a = apply_attack(
            AttackKind.COLLUDE, delta, seed=1, round_index=4, client_index=10
        )
        b = apply_attack(
            AttackKind.COLLUDE, delta, seed=1, round_index=4, client_index=42
        )
        np.testing.assert_array_equal(a, b)
        # strength (default 10) scales the colluding payload's norm.
        assert np.linalg.norm(a) == pytest.approx(10.0 * np.linalg.norm(delta))


class TestFaultPlanAttackers:
    def test_attacker_identity_is_persistent(self):
        plan = FaultPlan(FaultRates(), seed=5, attackers=SimConfig(byzantine=0.3))
        first = {i: plan.attack_for(i) for i in range(50)}
        again = {i: plan.attack_for(i) for i in range(50)}
        assert first == again
        hostile = sum(1 for kind in first.values() if kind is not None)
        assert 5 <= hostile <= 25  # ~30% of 50

    def test_explicit_injection_overrides_the_draw(self):
        plan = FaultPlan(FaultRates(), seed=5, attackers=SimConfig())
        assert plan.attack_for(7) is None
        plan.inject_attack(7, AttackKind.SCALE)
        assert plan.attack_for(7) is AttackKind.SCALE

    def test_describe_mentions_byzantine(self):
        plan = FaultPlan(
            FaultRates(), seed=0, attackers=SimConfig(byzantine=0.25, attack="sign_flip")
        )
        assert "byzantine=0.25:sign_flip" in plan.describe()

    def test_invalid_parameters_rejected(self):
        # The plan reads its attackers from the run config, which refuses both.
        with pytest.raises(ValueError):
            SimConfig(byzantine=1.5)
        with pytest.raises(ValueError):
            SimConfig(byzantine=0.1, attack="meteor")


class TestAcceptance:
    """The PR's headline numbers, pinned at seed 0."""

    def test_fedavg_degrades_but_median_and_krum_hold(self, sim_runner):
        baseline = {
            rule: run_sim(sim_runner, rule=rule, byzantine=0.0)[
                "final_accuracy"
            ]
            for rule in ("fedavg", "median", "krum")
        }
        attacked = {
            rule: run_sim(sim_runner, rule=rule, byzantine=0.3)[
                "final_accuracy"
            ]
            for rule in ("fedavg", "median", "krum")
        }
        assert baseline["fedavg"] - attacked["fedavg"] > 0.05
        for rule in ("median", "krum"):
            assert baseline[rule] - attacked[rule] <= 0.02

    def test_attacked_updates_are_counted(self, sim_runner):
        report = run_sim(sim_runner, rule="median", byzantine=0.3, rounds=5)
        assert report["totals"]["attacked"] > 0
        assert report["rule"] == "median"
        for round_report in report["rounds"]:
            assert "attacked" in round_report


class TestByzantineDeterminism:
    def test_same_seed_same_bytes_with_quarantine_events(
        self, sim_runner, report_bytes
    ):
        settings = dict(
            rule="trimmed_mean",
            byzantine=0.3,
            attack="scale",
            max_norm=6.0,
            rounds=10,
        )
        reports = [run_sim(sim_runner, **settings) for _ in range(2)]
        assert report_bytes(reports[0]) == report_bytes(reports[1])
        # The run must actually exercise the ledger, not just agree on
        # empty reports.
        assert reports[0]["totals"]["admission_rejected"] > 0
        assert reports[0]["totals"]["quarantined"] > 0

    def test_resume_reproduces_quarantine_state(
        self, sim_runner, sim_factory, report_bytes
    ):
        settings = dict(
            SWEEP,
            rule="trimmed_mean",
            byzantine=0.3,
            attack="scale",
            max_norm=6.0,
            rounds=10,
        )
        uninterrupted = sim_runner(**settings)

        storage = SecureStorage(InMemoryBackend(), ssk=SSK)
        with sim_factory(storage=storage, **settings) as killed:
            for _ in range(4):
                killed.step_round()
            # coordinator dies; reputation ledger lives in the checkpoint
        with sim_factory(storage=storage, **settings) as resumed_sim:
            assert resumed_sim.resumed_from == 4
            resumed = resumed_sim.run()

        # resumed_from_round is the one field that legitimately differs.
        assert resumed.pop("resumed_from_round") == 4
        uninterrupted.pop("resumed_from_round")
        assert report_bytes(resumed) == report_bytes(uninterrupted)

    def test_different_rules_different_weights_under_attack(self, sim_runner):
        digests = {
            rule: run_sim(sim_runner, rule=rule, byzantine=0.3, rounds=5)[
                "weights_sha256"
            ]
            for rule in ("fedavg", "median", "krum")
        }
        assert len(set(digests.values())) == 3


class TestQuarantineInTheLoop:
    def test_quarantined_clients_sit_out_selection(self, sim_runner):
        report = run_sim(
            sim_runner,
            rule="fedavg",
            byzantine=0.3,
            attack="scale",
            max_norm=6.0,
            rounds=10,
        )
        assert report["totals"]["quarantined"] > 0
        # Quarantine bites: later rounds reject fewer updates because the
        # offenders were never selected.
        rejected = [r["admission_rejected"] for r in report["rounds"]]
        assert sum(rejected[5:]) < sum(rejected[:5])

    def test_admission_clip_admits_rescaled_updates(self, sim_runner):
        clipped = run_sim(
            sim_runner,
            rule="fedavg",
            byzantine=0.2,
            attack="scale",
            max_norm=6.0,
            clip=True,
            rounds=5,
        )
        assert clipped["totals"]["admission_clipped"] > 0
        assert clipped["totals"]["admission_rejected"] == 0
