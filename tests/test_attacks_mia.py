"""Tests for the membership inference attack (MIA)."""

import numpy as np
import pytest

from repro.attacks import MembershipInferenceAttack
from repro.attacks.mia import train_target_model
from repro.data import synthetic_cifar
from repro.nn import lenet5


@pytest.fixture(scope="module")
def overfit_setup():
    """A small overfit target with a clear membership gap."""
    n, classes = 80, 10
    data = synthetic_cifar(num_samples=2 * n, num_classes=classes, noise=0.5, seed=0)
    members = data.subset(np.arange(n))
    nonmembers = data.subset(np.arange(n, 2 * n))
    model = lenet5(num_classes=classes, seed=5, activation="relu", scale=0.5)
    train_target_model(model, members, epochs=10)
    return model, members, nonmembers


class TestTargetTraining:
    def test_target_memorises_members(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        member_acc = model.accuracy(members.x, members.one_hot_labels())
        nonmember_acc = model.accuracy(nonmembers.x, nonmembers.one_hot_labels())
        assert member_acc > nonmember_acc + 0.2


class TestAttack:
    def test_attack_beats_chance_without_protection(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        attack = MembershipInferenceAttack(model, probes_per_class=60, seed=0)
        result = attack.run(members, nonmembers)
        assert result.score > 0.7
        assert result.metric == "AUC"

    def test_full_protection_defeats_attack(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        attack = MembershipInferenceAttack(model, probes_per_class=40, seed=0)
        result = attack.run(members, nonmembers, protected=(1, 2, 3, 4, 5))
        assert result.score == 0.5
        assert result.detail["features"] == 0

    def test_protection_shrinks_feature_space(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        attack = MembershipInferenceAttack(model, probes_per_class=20, seed=0)
        full = attack.run(members, nonmembers)
        partial = attack.run(members, nonmembers, protected=(5,))
        assert partial.detail["features"] < full.detail["features"]

    def test_dgrad_has_one_row_per_probe(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        attack = MembershipInferenceAttack(model, probes_per_class=15, seed=0)
        x, y = attack.build_dgrad(members, nonmembers)
        assert x.shape[0] == 30
        assert set(np.unique(y)) == {0, 1}

    def test_protected_set_recorded_in_result(self, overfit_setup):
        model, members, nonmembers = overfit_setup
        attack = MembershipInferenceAttack(model, probes_per_class=10, seed=0)
        result = attack.run(members, nonmembers, protected=(2, 5))
        assert result.protected == {2, 5}
