"""Structured protection-policy addressing (LayerRef / BlockSelector).

Covers the one selector vocabulary: canonical refs, block selectors,
``block.role`` strings, integer input as a typed error, structured slice
envelopes, the spec-string parser used by the CLI, and a schedule oracle
pinning every spec production on every zoo model.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.core.policy import (
    BlockSelector,
    DynamicPolicy,
    LayerRef,
    ModelLayout,
    NoProtection,
    PeltaPolicy,
    PolicyError,
    StaticPolicy,
    policy_from_spec,
    structured_slices,
)
from repro.core.planner import PolicyPlanner
from repro.nn import alexnet, gpt_tiny, lenet5, mlp, vit_tiny


@pytest.fixture(scope="module")
def vit_layout():
    return vit_tiny(num_classes=10, seed=0).layout()


class TestModelLayout:
    def test_of_model_reads_blocks_and_roles(self, vit_layout):
        assert vit_layout.num_layers == 15
        assert vit_layout.block_names() == ["block1", "block2"]
        ref = vit_layout.ref(4)
        assert ref.name == "block1.softmax"
        assert ref.block == "block1"
        assert ref.role == "softmax"

    def test_flat_layout_has_no_blocks(self):
        layout = lenet5().layout()
        assert layout.block_names() == []
        assert [r.name for r in layout] == ["L1", "L2", "L3", "L4", "L5"]

    def test_resolve_name_block_and_role(self, vit_layout):
        assert [r.index for r in vit_layout.resolve("block2.softmax")] == [10]
        assert [r.index for r in vit_layout.resolve("block1")] == [2, 3, 4, 5, 6, 7]
        sel = BlockSelector("block2", roles=("ln1", "ln2"))
        assert [r.index for r in vit_layout.resolve(sel)] == [8, 12]

    def test_resolve_unknown_selector_raises(self, vit_layout):
        with pytest.raises(PolicyError):
            vit_layout.resolve("block9.softmax")
        with pytest.raises(PolicyError):
            vit_layout.resolve(BlockSelector("block1", roles=("conv",)))

    def test_resolve_out_of_range_index(self, vit_layout):
        with pytest.raises(PolicyError, match="outside"):
            vit_layout.resolve(LayerRef(99))


class TestIntegerInputRejected:
    """Integers are not selectors or layouts: each is a typed error that
    names the spelling to use instead."""

    def test_integer_selector(self, vit_layout):
        with pytest.raises(PolicyError, match="'L2'"):
            vit_layout.resolve(4)
        with pytest.raises(PolicyError, match="'L2'"):
            StaticPolicy(lenet5().layout(), [2, 5])

    @pytest.mark.parametrize("cls", [NoProtection, StaticPolicy, DynamicPolicy])
    def test_integer_layout(self, cls):
        args = {StaticPolicy: ([],), DynamicPolicy: (2, [0.25] * 4)}.get(cls, ())
        with pytest.raises(PolicyError, match="'L2', 'block1'"):
            cls(5, *args)

    def test_integer_block_position(self, vit_layout):
        with pytest.raises(PolicyError, match="'block1'"):
            PeltaPolicy(vit_layout, blocks=[2])

    @pytest.mark.parametrize(
        "spec,spelling",
        [("static:2", "'L2'"), ("darknetz:4", "'L2'"), ("pelta:1", "'block1'")],
    )
    def test_digit_spec_selectors(self, vit_layout, spec, spelling):
        layout = vit_layout if spec.startswith("pelta") else lenet5().layout()
        with pytest.raises(PolicyError, match=spelling):
            policy_from_spec(spec, layout)

    def test_spec_needs_a_layout_not_a_depth(self):
        with pytest.raises(PolicyError, match="model.layout()"):
            policy_from_spec("none", 5)

    def test_spec_hints_name_layers(self, vit_layout):
        with pytest.raises(PolicyError, match="darknetz:L4"):
            policy_from_spec("darknetz:", lenet5().layout())


class TestStructuredSlices:
    def test_flat_refs_reduce_to_contiguous_runs(self):
        layout = ModelLayout([LayerRef(i, f"L{i}") for i in range(1, 7)])
        refs = [layout.ref(i) for i in (1, 2, 4)]
        units = structured_slices(refs)
        assert [[r.index for r in unit] for unit in units] == [[1, 2], [4]]

    def test_block_is_one_unit_even_when_non_adjacent(self, vit_layout):
        # ln1 (2) and ln2 (6) of block1 are flat-non-adjacent but one unit.
        refs = [vit_layout.ref(2), vit_layout.ref(6)]
        assert len(structured_slices(refs)) == 1

    def test_adjacent_blocks_are_two_units(self, vit_layout):
        # L7 (block1.mlp) and L8 (block2.ln1) are flat-adjacent but belong
        # to different blocks: the envelope must count two slices.
        refs = [vit_layout.ref(7), vit_layout.ref(8)]
        assert len(structured_slices(refs)) == 2


class TestStaticEnvelope:
    def test_two_blocks_fit_default_envelope(self, vit_layout):
        policy = StaticPolicy(vit_layout, ["block1.mlp", "block2.ln1"])
        assert policy.layers_for_cycle(0) == frozenset({7, 8})

    def test_three_units_rejected(self, vit_layout):
        with pytest.raises(PolicyError, match="slices"):
            StaticPolicy(
                vit_layout, ["embed", "block1.softmax", "block2.softmax"]
            )

    def test_conv_zoo_envelope_unchanged(self):
        """Regression: flat conv models keep the paper's 2-slice rule."""
        layout = lenet5().layout()
        StaticPolicy(layout, ["L2", "L5"])  # 2 slices: fine
        with pytest.raises(PolicyError, match="slices"):
            StaticPolicy(layout, ["L1", "L3", "L5"])


class TestPeltaPolicy:
    def test_window_is_dynamic_policys_window_over_blocks(self, vit_layout):
        """One moving window: the same (seed, V_MW) picks the same position
        whether the units are two blocks or two layers."""
        pelta = PeltaPolicy(vit_layout, size_mw=1, v_mw=(0.3, 0.7), seed=5)
        two = ModelLayout([LayerRef(1, "L1"), LayerRef(2, "L2")])
        dynamic = DynamicPolicy(two, 1, (0.3, 0.7), seed=5)
        for cycle in range(64):
            position = dynamic.windows.index(dynamic.window_for_cycle(cycle))
            assert pelta.window_for_cycle(cycle) == pelta.windows[position]
        assert pelta.windows == [(2, 4, 6), (8, 10, 12)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda layout: DynamicPolicy(layout, 14, [float("nan")] * 2),
            lambda layout: PeltaPolicy(layout, size_mw=1, v_mw=(0.5, float("nan"))),
        ],
        ids=["dynamic", "pelta"],
    )
    def test_non_finite_v_mw_rejected(self, vit_layout, make):
        # Every comparison with NaN is false, so a sign and sum check alone
        # let it through to the first draw.
        with pytest.raises(PolicyError, match="finite"):
            make(vit_layout)

    def test_modes_are_exclusive(self, vit_layout):
        with pytest.raises(PolicyError, match="mutually exclusive"):
            PeltaPolicy(vit_layout, blocks=["block1"], v_mw=(0.5, 0.5))
        with pytest.raises(PolicyError, match="size_mw without v_mw"):
            PeltaPolicy(vit_layout, size_mw=1)

    def test_needs_named_blocks(self):
        with pytest.raises(PolicyError, match="named blocks"):
            PeltaPolicy(lenet5().layout())


class TestPolicyFromSpec:
    def test_specs_resolve(self, vit_layout):
        cases = {
            "none": frozenset(),
            "static:block2.softmax+block2.ln2": frozenset({10, 12}),
            "pelta": frozenset({2, 4, 6, 8, 10, 12}),
            "pelta:block1": frozenset({2, 4, 6}),
        }
        for spec, expected in cases.items():
            assert policy_from_spec(spec, vit_layout).layers_for_cycle(0) == expected

    def test_accepts_model_and_layout(self):
        model = lenet5()
        assert policy_from_spec("mw:2", model, seed=1).num_layers == 5
        assert policy_from_spec("none", model.layout()).num_layers == 5

    def test_unknown_spec_rejected(self, vit_layout):
        with pytest.raises(PolicyError, match="unknown policy spec"):
            policy_from_spec("bogus:1", vit_layout)


# -- schedule oracle -----------------------------------------------------------
# One sha256 per zoo model over every policy_from_spec production valid on it,
# recorded before the integer vocabulary was removed: any change to a
# description, a reachable set, a per-layer protection probability or a
# drawn window in cycles 0..63 changes the digest.

ORACLE_MODELS = {
    "lenet5": lambda: lenet5(num_classes=10),
    "alexnet": lambda: alexnet(num_classes=10, scale=1 / 16),
    "mlp": lambda: mlp(10, (48,), hidden=(32, 16, 16, 8, 8)),
    "vit_tiny": lambda: vit_tiny(num_classes=10),
    "gpt_tiny": lambda: gpt_tiny(num_classes=10, num_blocks=3),
}

ORACLE_DIGESTS = {
    "alexnet": "37d6e49f8830253b4dfb0cf52fc7f1ba90d7401ecd9fc8c3f1dad596d4103942",
    "gpt_tiny": "7dee87ab8ddbad6b5784c2041681f98a588dda0a6f94f4beb01cd83eaf9b33b4",
    "lenet5": "b0271185e86b994c836f020adad5f291d02f500769c1102c6e5085509d406fc8",
    "mlp": "75fd4d4b5cfd0a12719b665190f923d3a8932c792585091a44dd5627d35d6a91",
    "vit_tiny": "a2a29b67976a40f35d24aa14f54b69975d89720ad5ecf3944714b37c4ecde706",
    "planner": "04ef42d7ef31823b4266a5aae9aa0ee45a2d31fc8517138c26ede5ad1df5c594",
}


def _oracle_specs(layout):
    names = [ref.name for ref in layout]
    blocks = layout.block_names()
    if blocks:
        statics = ["block2", "block1.softmax+block2.ln2", "embed+block1.softmax+head"]
        runs = ["block1", "ln_f+head"]
    else:
        statics = ["L2", "L2+L4", "L1+L3+L5"]
        runs = ["L2+L3+L4", "+".join(names[-2:])]
    specs = ["none"]
    specs += [f"static:{s}" for s in statics]
    specs += [f"darknetz:{r}" for r in runs]
    specs += [f"mw:{k}" for k in range(1, len(names) + 1)]
    if blocks:
        specs += ["pelta"] + [f"pelta:{b}" for b in blocks]
        specs += [f"pelta-mw:{k}" for k in range(1, len(blocks) + 1)]
    return specs


def _oracle_record(policy):
    record = {
        "describe": policy.describe(),
        "sets": [sorted(s) for s in policy.all_possible_sets()],
        "cycles": [sorted(policy.layers_for_cycle(c)) for c in range(64)],
    }
    if isinstance(policy, (DynamicPolicy, PeltaPolicy)):
        # Per-layer probability of being protected in a random cycle.
        expected = [0.0] * policy.num_layers
        for window, p in zip(policy.windows, policy.v_mw):
            for index in window:
                expected[index - 1] += p
        record["expected"] = expected
    return record


def _digest(records):
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def schedule_digest(name):
    layout = ORACLE_MODELS[name]().layout()
    records = {
        f"{spec}@{seed}": _oracle_record(policy_from_spec(spec, layout, seed=seed))
        for spec in _oracle_specs(layout)
        for seed in (0, 7)
    }
    return _digest(records)


def planner_digest():
    planner = PolicyPlanner(lenet5())
    records = {}
    for size in (1, 2, 3):
        for attacks in itertools.combinations(("dria", "mia", "dpia"), size):
            rec = planner.recommend(attacks)
            records["+".join(attacks)] = {
                "describe": rec.policy.describe(),
                "cost": dataclasses.asdict(rec.cost),
                "rationale": rec.rationale,
                "search": rec.search_recommended,
            }
    return _digest(records)


class TestScheduleOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_every_production_schedules_as_recorded(self, name):
        assert schedule_digest(name) == ORACLE_DIGESTS[name]

    def test_planner_recommendations_as_recorded(self):
        assert planner_digest() == ORACLE_DIGESTS["planner"]
