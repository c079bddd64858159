"""Tests for the property inference attack (DPIA)."""

import numpy as np
import pytest

from repro.attacks import PropertyInferenceAttack
from repro.bench.experiments import simulate_fl_for_dpia
from repro.core import DynamicPolicy, NoProtection, StaticPolicy
from repro.data import synthetic_lfw
from repro.nn import lenet5

LENET = lenet5().layout()


@pytest.fixture(scope="module")
def fl_run():
    """A short unprotected victim run shared across tests."""
    return simulate_fl_for_dpia(NoProtection(LENET), cycles=24, lr=0.02, seed=0)


@pytest.fixture(scope="module")
def auxiliary():
    return synthetic_lfw(num_samples=200, num_classes=2, seed=1, sample_seed=999)


def make_attack(seed=0, bps=1):
    return PropertyInferenceAttack(
        lenet5(num_classes=2, seed=9, activation="sigmoid"),
        batch_size=16,
        batches_per_snapshot=bps,
        seed=seed,
    )


class TestSimulation:
    def test_snapshot_count(self, fl_run):
        snapshots, protected_per_cycle, truth = fl_run
        assert len(snapshots) == 25
        assert len(protected_per_cycle) == 25
        assert len(truth) == 24

    def test_truth_is_balanced(self, fl_run):
        _, _, truth = fl_run
        assert sum(truth) == 12

    def test_protected_sets_empty_without_policy(self, fl_run):
        _, protected_per_cycle, _ = fl_run
        assert all(p == frozenset() for p in protected_per_cycle)

    def test_dynamic_policy_recorded_per_cycle(self):
        policy = DynamicPolicy(LENET, 2, [0.25] * 4, seed=2)
        _, protected_per_cycle, _ = simulate_fl_for_dpia(policy, cycles=8, seed=0)
        assert all(len(p) == 2 for p in protected_per_cycle)
        assert len({tuple(sorted(p)) for p in protected_per_cycle}) > 1


class TestAttackMechanics:
    def test_training_set_shape(self, fl_run, auxiliary):
        snapshots, ppc, _ = fl_run
        attack = make_attack(bps=2)
        train = attack.build_training_set(snapshots, auxiliary, ppc)
        # 25 snapshots x 2 batches x 2 labels.
        assert train.features.shape[0] == 100
        assert set(np.unique(train.labels)) == {0, 1}

    def test_test_features_one_row_per_transition(self, fl_run):
        snapshots, ppc, _ = fl_run
        attack = make_attack()
        assert attack.test_features(snapshots, ppc, lr=0.02).shape[0] == 24

    def test_protected_columns_are_nan(self, auxiliary):
        policy = StaticPolicy(LENET, ["L3"])
        snapshots, ppc, _ = simulate_fl_for_dpia(policy, cycles=4, seed=0)
        attack = make_attack()
        train = attack.build_training_set(snapshots, auxiliary, ppc)
        assert np.isnan(train.features).any()

    def test_unprotected_attack_beats_chance(self, fl_run, auxiliary):
        snapshots, ppc, truth = fl_run
        attack = make_attack(bps=2)
        result = attack.run(snapshots, auxiliary, ppc, truth, lr=0.02)
        assert result.score > 0.55

    def test_truth_length_validated(self, fl_run, auxiliary):
        snapshots, ppc, truth = fl_run
        attack = make_attack()
        with pytest.raises(ValueError, match="transitions"):
            attack.run(snapshots, auxiliary, ppc, truth[:-2], lr=0.02)

    def test_aux_without_properties_rejected(self, fl_run):
        from repro.data import synthetic_cifar

        snapshots, ppc, truth = fl_run
        plain = synthetic_cifar(num_samples=50, num_classes=2, seed=0)
        attack = make_attack()
        with pytest.raises(ValueError, match="property"):
            attack.build_training_set(snapshots, plain, ppc)

    def test_missing_protection_schedule_rejected(self, fl_run, auxiliary):
        snapshots, ppc, _ = fl_run
        attack = make_attack()
        with pytest.raises(ValueError, match="every snapshot"):
            attack.build_training_set(snapshots, auxiliary, ppc[:2])
