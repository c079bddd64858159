"""Tests for update admission control and the reputation ledger."""

import dataclasses
import functools

import numpy as np
import pytest

from repro.fl import FLClient, RoundConfig, ServerConfig
from repro.fl.admission import (
    AdmissionConfig,
    AdmissionController,
    REJECT_NONFINITE,
    REJECT_NORM,
    REJECT_PROVENANCE,
    REJECT_STRUCTURE,
    ReputationConfig,
    ReputationTracker,
)
from repro.nn.serialize import flatten_weights
from repro.obs import FakeClock, fresh

from .test_fl_server_robust import build_fleet


def make_weights(scale=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"weight": rng.normal(size=(4, 3)) + scale, "bias": rng.normal(size=4)},
        {"weight": rng.normal(size=(2, 4)) + scale, "bias": rng.normal(size=2)},
    ]


def make_flat(scale=0.0, seed=0):
    return flatten_weights(make_weights(scale, seed))


@pytest.fixture
def obs_ctx():
    with fresh(clock=FakeClock()) as ctx:
        yield ctx


class MisshapenClient(FLClient):
    """Trains honestly, then rewrites the layer structure of its update."""

    def __init__(self, *args, rewrite, **kwargs):
        super().__init__(*args, **kwargs)
        self.rewrite = rewrite

    def run_cycle(self, download, plan):
        update = super().run_cycle(download, plan)
        layers = [dict(layer) for layer in update.plain_weights]
        return dataclasses.replace(update, plain_weights=self.rewrite(layers))


def drop_last_layer(layers):
    return layers[:-1]


def rename_first_bias(layers):
    layers[0]["gamma"] = layers[0].pop("bias")
    return layers


def ravel_first_weight(layers):
    # Same size, other shape: the flat vector alone cannot tell.
    layers[0]["weight"] = layers[0]["weight"].reshape(-1)
    return layers


def serve_one_cycle(rewrite, *, admission):
    """client-0 of a three-client server sends ``rewrite`` of its update."""
    config = ServerConfig(
        round=RoundConfig(admission=AdmissionConfig() if admission else None)
    )
    client_cls = functools.partial(MisshapenClient, rewrite=rewrite)
    server, fleet = build_fleet(
        hostile=1, client_cls=client_cls, config=config, clients=3
    )
    server.run_cycle(fleet)
    return server


class TestStructure:
    """The layout rule runs in the server's merge, where a WeightsList arrives."""

    def assert_structure_rejected(self, obs_ctx, rewrite):
        server = serve_one_cycle(rewrite, admission=True)
        rejected = obs_ctx.registry.counter("fl.admission.rejected")
        assert rejected.value(client="client-0", reason=REJECT_STRUCTURE) == 1
        assert rejected.total() == 1
        assert obs_ctx.registry.counter("fl.admission.checked").total() == 3
        assert server.reputation.snapshot(server.cycle)["strikes"] == {"client-0": 1}
        # Without the gate the same update is refused outright, by name —
        # never folded into parameters it does not belong to.
        with pytest.raises(ValueError, match="client-0"):
            serve_one_cycle(rewrite, admission=False)

    def test_matching_structure_admitted(self, obs_ctx):
        server = serve_one_cycle(lambda layers: layers, admission=True)
        assert obs_ctx.registry.counter("fl.admission.rejected").total() == 0
        assert obs_ctx.registry.counter("fl.admission.checked").total() == 3
        assert server.reputation.snapshot(server.cycle)["strikes"] == {}
        serve_one_cycle(lambda layers: layers, admission=False)
        update = make_flat(seed=1)
        decision = AdmissionController().check("c0", update)
        assert decision.admitted
        assert decision.flat is update

    def test_layer_count_mismatch_rejected(self, obs_ctx):
        self.assert_structure_rejected(obs_ctx, drop_last_layer)
        decision = AdmissionController().check("c0", None)
        assert not decision.admitted
        assert decision.reason == REJECT_STRUCTURE

    def test_key_set_mismatch_rejected(self, obs_ctx):
        self.assert_structure_rejected(obs_ctx, rename_first_bias)

    def test_shape_mismatch_rejected(self, obs_ctx):
        self.assert_structure_rejected(obs_ctx, ravel_first_weight)


class TestNumericalHealth:
    def test_nan_rejected(self, obs_ctx):
        gate = AdmissionController()
        bad = make_flat(seed=1)
        bad[0] = np.nan
        assert gate.check("c0", bad).reason == REJECT_NONFINITE

    def test_inf_rejected(self, obs_ctx):
        gate = AdmissionController()
        bad = make_flat(seed=1)
        bad[-1] = np.inf
        assert gate.check("c0", bad).reason == REJECT_NONFINITE

    def test_check_can_be_disabled(self, obs_ctx):
        gate = AdmissionController(AdmissionConfig(check_finite=False))
        bad = make_flat(seed=1)
        bad[0] = np.nan
        assert gate.check("c0", bad).admitted


class TestNormCeiling:
    def test_delta_norm_measured_against_reference(self, obs_ctx):
        reference = make_flat()
        gate = AdmissionController(AdmissionConfig(max_norm=1.0))
        # Same weights as the reference: delta norm 0, admitted.
        assert gate.check("c0", reference, reference=reference).admitted
        # Far away in absolute terms but that is irrelevant without drift.
        far = reference + 100.0
        decision = gate.check("c0", far, reference=far)
        assert decision.admitted

    def test_over_norm_rejected(self, obs_ctx):
        reference = make_flat()
        gate = AdmissionController(AdmissionConfig(max_norm=1.0))
        far = reference + 10.0
        decision = gate.check("c0", far, reference=reference)
        assert not decision.admitted
        assert decision.reason == REJECT_NORM
        assert decision.norm > 1.0

    def test_clip_rescales_onto_ceiling(self, obs_ctx):
        reference = make_flat()
        gate = AdmissionController(AdmissionConfig(max_norm=2.0, clip=True))
        far = reference + 5.0
        decision = gate.check("c0", far, reference=reference)
        assert decision.admitted and decision.clipped
        delta = decision.flat - reference
        assert np.linalg.norm(delta) == pytest.approx(2.0)
        # Direction is preserved, only the magnitude changes.
        raw = far - reference
        cos = delta @ raw / (np.linalg.norm(delta) * np.linalg.norm(raw))
        assert cos == pytest.approx(1.0)

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_norm=0.0)


class TestProvenance:
    def test_unattested_sender_rejected_when_required(self, obs_ctx):
        gate = AdmissionController(AdmissionConfig(require_provenance=True))
        good = make_flat(seed=1)
        assert gate.check("c0", good, attested=True).admitted
        assert gate.check("c0", good, attested=False).reason == REJECT_PROVENANCE

    def test_unattested_tolerated_by_default(self, obs_ctx):
        gate = AdmissionController()
        assert gate.check("c0", make_flat(seed=1), attested=False).admitted


class TestAdmissionMetrics:
    def test_counters_registered_and_labelled(self, obs_ctx):
        gate = AdmissionController(AdmissionConfig(max_norm=1.0))
        snapshot = obs_ctx.registry.snapshot()
        # Registered at construction: present even before any check.
        assert "fl.admission.rejected" in snapshot["counters"]
        gate.check("evil", make_flat() + 10.0, reference=make_flat())
        rejected = obs_ctx.registry.counter("fl.admission.rejected")
        assert rejected.total() == 1


class TestReputation:
    def test_strikes_tip_into_quarantine(self, obs_ctx):
        ledger = ReputationTracker(ReputationConfig(max_strikes=3))
        for _ in range(2):
            ledger.record_rejection("c0", round_index=0)
        assert ledger.status("c0", 1) == "ok"
        ledger.record_rejection("c0", round_index=0)
        assert ledger.status("c0", 1) == "quarantined"

    def test_quarantine_expires(self, obs_ctx):
        ledger = ReputationTracker(
            ReputationConfig(max_strikes=1, quarantine_rounds=2)
        )
        ledger.record_rejection("c0", round_index=5)
        assert ledger.is_blocked("c0", 6)
        assert ledger.is_blocked("c0", 7)
        assert not ledger.is_blocked("c0", 8)

    def test_repeat_quarantines_evict_permanently(self, obs_ctx):
        ledger = ReputationTracker(
            ReputationConfig(max_strikes=1, quarantine_rounds=1, evict_after=2)
        )
        ledger.record_rejection("c0", round_index=0)
        ledger.record_rejection("c0", round_index=10)
        assert ledger.status("c0", 10_000) == "evicted"
        # Further events on an evicted client are inert.
        ledger.record_rejection("c0", round_index=10_001)
        assert ledger.status("c0", 10_002) == "evicted"

    def test_admission_heals_one_strike(self, obs_ctx):
        ledger = ReputationTracker(ReputationConfig(max_strikes=2))
        ledger.record_rejection("c0", round_index=0)
        ledger.record_admission("c0")
        ledger.record_rejection("c0", round_index=1)
        # Healed strike means this second rejection is only the first again.
        assert ledger.status("c0", 2) == "ok"

    def test_quarantine_counter_fires(self, obs_ctx):
        ledger = ReputationTracker(ReputationConfig(max_strikes=1))
        ledger.record_rejection("bad", round_index=0)
        counter = obs_ctx.registry.counter("fl.reputation.quarantined")
        assert counter.total() == 1

    def test_snapshot_is_sorted_and_json_safe(self, obs_ctx):
        import json

        ledger = ReputationTracker(ReputationConfig(max_strikes=1))
        ledger.record_rejection("z", round_index=0)
        ledger.record_rejection("a", round_index=0)
        snap = ledger.snapshot(round_index=1)
        assert snap["quarantined"] == ["a", "z"]
        json.dumps(snap)

    def test_state_dict_round_trip(self, obs_ctx):
        ledger = ReputationTracker(
            ReputationConfig(max_strikes=1, quarantine_rounds=3)
        )
        ledger.record_rejection("c0", round_index=4)
        ledger.record_rejection("c1", round_index=4)
        restored = ReputationTracker(ledger.config)
        restored.load_state(ledger.state_dict())
        for rnd in (5, 6, 7, 8):
            assert restored.status("c0", rnd) == ledger.status("c0", rnd)
        assert restored.state_dict() == ledger.state_dict()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ReputationConfig(max_strikes=0)
        with pytest.raises(ValueError):
            ReputationConfig(quarantine_rounds=0)
        with pytest.raises(ValueError):
            ReputationConfig(evict_after=0)
