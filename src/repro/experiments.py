"""The paper's table and figure experiments, and the FL trace, by command name.

``repro <name>`` runs one through the CLI, and
:func:`repro.api.run_experiment` runs a paper experiment through the
library; both read :data:`EXPERIMENTS`.  Each handler takes its command's
run config (:class:`PaperRun`, :class:`BlocksRun` or :class:`TraceRun`,
whose fields are the command's flags) and returns the JSON payload
``--out`` writes, printing the human-readable table as it goes.  Handlers
import what they run, so loading this module loads only the config surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from .fl.config import ConfigError, knob
from .fl.robust import RULES

__all__ = ["EXPERIMENTS", "PaperRun", "BlocksRun", "TraceRun", "trace"]

#: The transformers ``repro blocks`` can audit.
BLOCK_MODELS = ("vit_tiny", "gpt_tiny")


@dataclass(frozen=True)
class PaperRun:
    """One paper table or figure (``repro table5|table6|fig5|fig6|fig8|summary``);
    each experiment reads the knobs it needs."""

    fast: bool = knob(False, "reduced budget")
    rounds: int = knob(36, "FL rounds (DPIA)")
    batch_size: int = knob(32, "batch size")
    seed: int = knob(0, "experiment seed")

    def __post_init__(self) -> None:
        for name in ("rounds", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError("seed cannot be negative")


@dataclass(frozen=True)
class BlocksRun(PaperRun):
    """``repro blocks``: the paper knobs plus the transformer audited, its
    moving-window width in blocks and the sublayer roles shielded."""

    model: str = knob("vit_tiny", "transformer zoo entry to audit", choices=BLOCK_MODELS)
    mw_size: int = knob(1, "moving-window width in blocks")
    roles: Optional[str] = knob(
        None,
        "comma-separated sublayer roles to shield per block "
        "(default: the Pelta set ln1,softmax,ln2)",
    )
    dpia: bool = knob(False, "also run the multi-cycle DPIA pipeline per policy")

    def __post_init__(self) -> None:
        super().__post_init__()
        from .core.policy import BlockSelector, PolicyError

        if self.model not in BLOCK_MODELS:
            raise ConfigError(f"model must be one of {BLOCK_MODELS}, got {self.model!r}")
        layout = self.factory(10, 0).layout()
        blocks = layout.block_names()
        if not 1 <= self.mw_size <= len(blocks):
            raise ConfigError(f"mw_size must be in 1..{len(blocks)}, got {self.mw_size}")
        try:
            layout.resolve(BlockSelector(blocks[0], roles=self.role_names or ()))
        except PolicyError as error:
            raise ConfigError(f"roles: {error}", "roles") from None

    def factory(self, num_classes: int, seed: int):
        """A fresh ``model`` (the attack suite's ``model_factory``)."""
        from . import nn

        return getattr(nn, self.model)(num_classes=num_classes, seed=seed)

    @property
    def role_names(self) -> Optional[Tuple[str, ...]]:
        """The roles shielded per block (``None``: Pelta's default set)."""
        return tuple(r for r in self.roles.split(",") if r) if self.roles else None


@dataclass(frozen=True)
class TraceRun:
    """One ``repro trace`` run: ``clients`` FL clients train a LeNet-5 on
    16x16 inputs for ``rounds`` ``FLServer`` cycles, layers ``protect``
    shielded."""

    clients: int = knob(2, "FL participants")
    rounds: int = knob(1, "FL rounds to trace")
    seed: int = knob(0, "trace seed")
    steps: int = knob(1, "local steps per client")
    protect: str = knob("2,3", "comma-separated protected layer indices ('' for none)")
    rule: str = knob("fedavg", "aggregation rule for the traced rounds", choices=RULES)
    max_norm: Optional[float] = knob(None, "admission-control L2 ceiling on update deltas")

    def __post_init__(self) -> None:
        from .core.policy import PolicyError

        for name in ("clients", "rounds", "steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError("seed cannot be negative")
        if self.max_norm is not None and not 0 < self.max_norm < math.inf:
            raise ConfigError(
                f"max_norm must be positive and finite, got {self.max_norm}"
            )
        try:
            self.policy(self.model())
        except PolicyError as error:
            raise ConfigError(f"protect: {error}", "protect") from None

    @property
    def layers(self) -> Tuple[int, ...]:
        """The protected layers' 1-based indices."""
        try:
            return tuple(int(p) for p in self.protect.split(",") if p.strip())
        except ValueError:
            raise ConfigError(
                f"protect takes comma-separated layer indices, got {self.protect!r}"
            ) from None

    def model(self):
        """The traced fleet's initial global model."""
        from .nn import lenet5

        return lenet5(num_classes=10, input_shape=(3, 16, 16), seed=self.seed)

    def policy(self, model):
        """The static policy shielding ``layers`` of ``model`` (None if none)."""
        from .core import StaticPolicy

        layout = model.layout()
        refs = [layout.ref(i) for i in self.layers]
        return StaticPolicy(layout, refs) if refs else None


def _row_dicts(rows) -> List[dict]:
    """ExperimentRow list -> JSON-safe row dicts (stable key order)."""
    return [
        {
            "label": row.label,
            "protected": list(row.protected),
            "score": float(row.score),
            "metric": row.metric,
        }
        for row in rows
    ]


def _cost_dict(cost) -> dict:
    return {
        "user_seconds": float(cost.user_seconds),
        "kernel_seconds": float(cost.kernel_seconds),
        "alloc_seconds": float(cost.alloc_seconds),
        "total_seconds": float(cost.total_seconds),
        "tee_memory_mib": float(cost.tee_memory_mib),
    }


def _cmd_table6(run: PaperRun) -> dict:
    from .bench.reference import TABLE6_STATIC
    from .bench.tables import layers_label, print_table
    from .nn import lenet5
    from .tee import CostModel

    model = lenet5()
    cost_model = CostModel(batch_size=run.batch_size)
    baseline = cost_model.cycle_cost(model)
    rows = [
        f"  {'baseline':<14} {baseline.user_seconds:5.3f}+{baseline.kernel_seconds:5.3f}+0.000s  0.000 MiB"
    ]
    results = [{"label": "baseline", **_cost_dict(baseline)}]
    for config in sorted(TABLE6_STATIC):
        cost = cost_model.cycle_cost(model, config)
        rows.append(
            f"  {layers_label(config):<14} {cost.user_seconds:5.3f}+"
            f"{cost.kernel_seconds:5.3f}+{cost.alloc_seconds:5.3f}s  "
            f"{cost.tee_memory_mib:5.3f} MiB ({cost.overhead_percent(baseline):+.0f}%)"
        )
        results.append({"label": layers_label(config), **_cost_dict(cost)})
    print_table(f"Table 6 (batch {run.batch_size})", rows)
    return {"batch_size": run.batch_size, "rows": results}


def _cmd_fig5(run: PaperRun) -> dict:
    from .bench.experiments import dria_experiment
    from .bench.tables import layers_label, print_table
    from .nn import lenet5

    protected_sets = [(), (1,), (2,), (1, 2), (5,)]
    rows = dria_experiment(
        protected_sets,
        model_factory=partial(lenet5, scale=0.5 if run.fast else 1.0),
        iterations=30 if run.fast else 150,
        num_classes=10,
        seed=run.seed,
    )
    print_table(
        "Figure 5 (a): DRIA ImageLoss (LeNet-5)",
        [f"  {layers_label(r.protected):<8} ImageLoss={r.score:7.3f}" for r in rows],
    )
    return {"seed": run.seed, "rows": _row_dicts(rows)}


def _cmd_fig6(run: PaperRun) -> dict:
    from .bench.experiments import mia_experiment
    from .bench.tables import layers_label, print_table
    from .nn import lenet5

    protected_sets = [(), (5,), (4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    target = partial(lenet5, activation="relu", scale=0.5 if run.fast else 1.0)
    rows = mia_experiment(
        protected_sets, model_factory=target, fast=run.fast, seed=run.seed
    )
    print_table(
        "Figure 6 (a): MIA AUC (LeNet-5)",
        [f"  {layers_label(r.protected):<16} AUC={r.score:.3f}" for r in rows],
    )
    return {"seed": run.seed, "rows": _row_dicts(rows)}


def _cmd_table5(run: PaperRun) -> dict:
    from .bench.experiments import dpia_experiment
    from .bench.reference import TABLE5_DYNAMIC, TABLE5_STATIC
    from .bench.tables import format_comparison, print_table
    from .core import DynamicPolicy, NoProtection, StaticPolicy
    from .core.search import DPIA_BEST_V_MW
    from .nn import lenet5

    layout = lenet5().layout()
    policies = [
        ("none", NoProtection(layout)),
        ("L4", StaticPolicy(layout, ["L4"])),
        ("L3+L4", StaticPolicy(layout, ["L3", "L4"])),
        ("L2+L3+L4+L5", StaticPolicy(layout, ["L2", "L3", "L4", "L5"])),
        ("MW=2", DynamicPolicy(layout, 2, DPIA_BEST_V_MW[2], seed=3)),
        ("MW=3", DynamicPolicy(layout, 3, DPIA_BEST_V_MW[3], seed=3)),
        ("MW=4", DynamicPolicy(layout, 4, DPIA_BEST_V_MW[4], seed=3)),
    ]
    rows = dpia_experiment(policies, cycles=run.rounds, seed=run.seed, fast=run.fast)
    paper = {**TABLE5_STATIC, **TABLE5_DYNAMIC}
    print_table(
        "Table 5: DPIA AUC",
        [format_comparison(r.label, r.score, paper.get(r.label), "AUC") for r in rows],
    )
    return {"rounds": run.rounds, "seed": run.seed, "rows": _row_dicts(rows)}


def _cmd_fig8(run: PaperRun) -> dict:
    from .bench.tables import print_table
    from .core import DynamicPolicy
    from .core.search import DPIA_BEST_V_MW
    from .nn import lenet5
    from .tee import CostModel

    model = lenet5()
    cost_model = CostModel(batch_size=32)
    gradsec = cost_model.cycle_cost(model, (2, 5))
    darknetz = cost_model.cycle_cost(model, (2, 3, 4, 5))
    policy = DynamicPolicy(model, 2, DPIA_BEST_V_MW[2], seed=0)
    dynamic, _ = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
    print_table(
        "Figure 8: GradSec vs DarkneTZ",
        [
            f"  static  GradSec {{L2,L5}}: {gradsec.total_seconds:6.3f}s  {gradsec.tee_memory_mib:5.3f} MiB",
            f"  dynamic GradSec (MW=2) : {dynamic.total_seconds:6.3f}s  {dynamic.tee_memory_mib:5.3f} MiB",
            f"  DarkneTZ {{L2-L5}}      : {darknetz.total_seconds:6.3f}s  {darknetz.tee_memory_mib:5.3f} MiB",
        ],
    )
    return {
        "rows": [
            {"label": "gradsec_static", **_cost_dict(gradsec)},
            {"label": "gradsec_dynamic_mw2", **_cost_dict(dynamic)},
            {"label": "darknetz", **_cost_dict(darknetz)},
        ],
    }


def _cmd_summary(run: PaperRun) -> dict:
    payload = _cmd_fig8(run)
    print("\nAttack side (use 'fig5', 'fig6', 'table5' for details);")
    print("'--fast' runs every experiment at reduced budget.")
    return payload


def _cmd_blocks(run: BlocksRun) -> dict:
    """Attack sweep over transformer block-shielding policies.

    Audits a transformer from the model zoo under no protection, per-block
    static Pelta shielding, all-blocks static shielding, and a moving
    window over block positions — reporting each attack's score next to
    the policy's cost-model footprint, the static-vs-moving-window
    trade-off of §8 recast with attention blocks as the protection unit.
    """
    from .attacks.suite import AttackSuite
    from .bench.tables import print_table
    from .core import NoProtection, PeltaPolicy
    from .tee import CostModel

    model = run.factory(10, run.seed + 1)
    layout = model.layout()
    blocks = layout.block_names()
    roles = run.role_names

    policies = [("none", NoProtection(layout))]
    for block in blocks:
        policies.append(
            (f"static {block}", PeltaPolicy(layout, blocks=[block], roles=roles))
        )
    policies.append(("static all-blocks", PeltaPolicy(layout, roles=roles)))
    size = run.mw_size
    positions = len(blocks) - size + 1
    v_mw = (1.0 / positions,) * positions
    moving = PeltaPolicy(layout, roles=roles, size_mw=size, v_mw=v_mw, seed=run.seed + 3)
    policies.append((f"MW={size}", moving))

    suite = AttackSuite(seed=run.seed, fast=run.fast, model_factory=run.factory)
    cost_model = CostModel(batch_size=run.batch_size)
    results, lines = [], []
    for label, policy in policies:
        report = suite.audit(policy)
        if run.dpia:
            report.verdicts["DPIA"] = suite.audit_dpia(policy, cycles=run.rounds)
        cost = cost_model.cycle_cost(model, policy.layers_for_cycle(0))
        scores = {
            name: float(verdict.result.score)
            for name, verdict in report.verdicts.items()
        }
        results.append(
            {
                "label": label,
                "policy": policy.describe(),
                "protected": sorted(policy.layers_for_cycle(0)),
                "scores": scores,
                "secure": report.secure,
                **_cost_dict(cost),
            }
        )
        pretty = " ".join(f"{k}={v:7.3f}" for k, v in scores.items())
        lines.append(
            f"  {label:<20} {pretty}  {cost.tee_memory_mib:5.3f} MiB  "
            f"{'SECURE' if report.secure else 'not secure'}"
        )
    print_table(f"Block shielding sweep ({run.model}, batch {run.batch_size})", lines)
    return {
        "model": run.model,
        "roles": list(roles or PeltaPolicy.DEFAULT_ROLES),
        "mw_size": size,
        "seed": run.seed,
        "rows": results,
    }


def trace(run: TraceRun) -> dict:
    """Run a tiny FL fleet under a fake clock and return its trace + metrics.

    The whole run executes inside a fresh observability context with a
    deterministic clock, so two runs of the same config return identical
    payloads; the trace is validated against the schema before it is
    returned.
    """
    from .data.synthetic import synthetic_cifar
    from .fl import AdmissionConfig, FLClient, FLServer, RoundConfig, ServerConfig
    from .fl.plan import TrainingPlan
    from .obs import FakeClock, fresh, validate_metrics, validate_trace

    # Admission is always in the loop for traces so the `fl.admission.*`
    # and `fl.reputation.*` counters appear in the metrics snapshot even
    # on a healthy fleet (zero-valued); --max-norm arms the norm ceiling.
    server_config = ServerConfig(
        seed=run.seed,
        round=RoundConfig(
            rule=run.rule,
            admission=AdmissionConfig(max_norm=run.max_norm),
        ),
    )

    with fresh(clock=FakeClock()) as ctx:
        global_model = run.model()
        plan = TrainingPlan(lr=0.05, batch_size=4, local_steps=run.steps)
        policy = run.policy(global_model)
        server = FLServer(global_model, plan, policy=policy, config=server_config)
        dataset = synthetic_cifar(8 * run.clients, 10, (3, 16, 16), seed=run.seed)
        clients = [
            FLClient(
                f"client-{i}",
                shard,
                global_model.clone(),
                policy=policy,
                seed=run.seed + 100 + i,
            )
            for i, shard in enumerate(dataset.shard(run.clients))
        ]
        for client in clients:
            server.register(client)
        for _ in range(run.rounds):
            server.run_cycle(clients)
        trace = ctx.tracer.export()
        metrics = ctx.registry.snapshot()
        traffic = {
            "downlink_bytes": server.channel.downlink_bytes,
            "uplink_bytes": server.channel.uplink_bytes,
            "downloads": server.channel.downloads,
            "uploads": server.channel.uploads,
        }
    validate_trace(trace)
    validate_metrics(
        metrics,
        required=(
            "fl.admission.rejected",
            "fl.reputation.quarantined",
            "fl.aggregate.rule",
            "tee.storage.bytes",
            "tee.storage.verify_failures",
        ),
    )
    return {
        "config": {
            "clients": run.clients,
            "rounds": run.rounds,
            "seed": run.seed,
            "steps": run.steps,
            "protected_layers": list(run.layers),
            "rule": run.rule,
            "max_norm": run.max_norm,
        },
        "trace": trace,
        "metrics": metrics,
        "traffic": traffic,
    }


#: name -> (handler, one-line help, run config).  A payload leaves out the
#: ``command`` key: the caller adds it.
EXPERIMENTS = {
    "table5": (_cmd_table5, "DPIA AUC, static vs dynamic GradSec", PaperRun),
    "table6": (_cmd_table6, "CPU time and TEE memory per configuration", PaperRun),
    "fig5": (_cmd_fig5, "DRIA ImageLoss vs protected layers", PaperRun),
    "fig6": (_cmd_fig6, "MIA AUC vs protected layers", PaperRun),
    "fig8": (_cmd_fig8, "GradSec vs DarkneTZ comparison", PaperRun),
    "summary": (_cmd_summary, "headline comparison (Table 1 flavour)", PaperRun),
    "blocks": (
        _cmd_blocks,
        "attack sweep over transformer block-shielding policies",
        BlocksRun,
    ),
}
