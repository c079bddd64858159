"""Table 1 — the paper's headline summary.

Line 1: all three attacks succeed against an unprotected client.
Lines 2-3: the layers DarkneTZ vs GradSec must shield per attack
(DarkneTZ cannot express {L2, L5}, so it pays for L2-L5).
Lines 4-5: GradSec's training-time and TCB gains for the combined
DRIA+MIA defence and for the DPIA defence.
"""

import pytest

from repro.bench.experiments import (
    DPIA_BEST_V_MW,
    dpia_experiment,
    dria_experiment,
    mia_experiment,
)
from repro.bench.tables import print_table
from repro.core import (
    DarknetzPolicy,
    DynamicPolicy,
    NoProtection,
    PolicyError,
    StaticPolicy,
)
from repro.nn import lenet5
from repro.tee import CostModel

LENET = lenet5().layout()


def test_table1_attack_success_row(show, benchmark):
    """Line 1: unprotected attack success measures."""

    def run_all():
        dria = dria_experiment([()], iterations=150, num_classes=10)[0]
        mia = mia_experiment(
            [()], num_classes=30, samples_per_side=160, epochs=12,
            probes_per_class=80, attack_seeds=2,
        )[0]
        dpia = dpia_experiment(
            [("none", NoProtection(LENET))], cycles=30, batches_per_snapshot=2
        )[0]
        return dria, mia, dpia

    dria, mia, dpia = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Table 1 line 1: unprotected attack success",
        [
            f"  DRIA ImageLoss={dria.score:.3f}   (paper: ImageLoss < 1)",
            f"  MIA  AUC={mia.score:.3f}          (paper: 0.95)",
            f"  DPIA AUC={dpia.score:.3f}         (paper: 0.99)",
        ],
    )
    assert dria.score < 8.0     # reconstruction succeeds
    assert mia.score > 0.85     # membership attack succeeds
    assert dpia.score > 0.75    # property attack succeeds


def test_table1_required_layers_and_gains(show, benchmark):
    """Lines 2-5: layer requirements and GradSec's gains over DarkneTZ."""
    model = lenet5()
    cost_model = CostModel(batch_size=32)

    # DarkneTZ cannot protect the non-successive {L2, L5}.
    with pytest.raises(PolicyError):
        DarknetzPolicy(LENET, ["L2", "L5"])

    def gains():
        gradsec_static = cost_model.cycle_cost(model, (2, 5))
        darknetz = cost_model.cycle_cost(model, (2, 3, 4, 5))
        dynamic_policy = DynamicPolicy(LENET, 2, DPIA_BEST_V_MW[2], seed=0)
        gradsec_dynamic, _ = cost_model.dynamic_cost(
            model, dynamic_policy.windows, dynamic_policy.v_mw
        )
        return gradsec_static, gradsec_dynamic, darknetz

    gradsec_static, gradsec_dynamic, darknetz = benchmark.pedantic(
        gains, rounds=3, iterations=1
    )
    static_time_gain = 100 * (
        1 - gradsec_static.total_seconds / darknetz.total_seconds
    )
    static_tcb_gain = 100 * (
        1 - gradsec_static.tee_memory_bytes / darknetz.tee_memory_bytes
    )
    dynamic_time_gain = 100 * (
        1 - gradsec_dynamic.total_seconds / darknetz.total_seconds
    )
    dynamic_tcb_gain = 100 * (
        1 - gradsec_dynamic.tee_memory_bytes / darknetz.tee_memory_bytes
    )
    print_table(
        "Table 1 lines 2-5: required layers and GradSec gains",
        [
            "  DRIA      : DarkneTZ L2          GradSec L2",
            "  MIA       : DarkneTZ L5          GradSec L5",
            "  DRIA+MIA  : DarkneTZ L2-L3-L4-L5 GradSec L2+L5 (non-successive)",
            "  DPIA      : DarkneTZ L2-L3-L4-L5 GradSec MW=2 round-robin",
            f"  DRIA+MIA gains: time {-static_time_gain:+.1f}% (paper -8.3%), "
            f"TCB {-static_tcb_gain:+.1f}% (paper -30%)",
            f"  DPIA gains    : time {-dynamic_time_gain:+.1f}% (paper -56.7%), "
            f"TCB {-dynamic_tcb_gain:+.1f}% (paper -8%)",
        ],
    )
    assert static_time_gain == pytest.approx(8.3, abs=8.0)
    assert static_tcb_gain == pytest.approx(30.0, abs=8.0)
    assert dynamic_time_gain == pytest.approx(56.7, abs=12.0)
    assert dynamic_tcb_gain == pytest.approx(8.0, abs=8.0)
