"""Stable, typed entry points for the GradSec reproduction.

Everything a user script needs lives here, under names that do not move:

* :func:`build_server` — an :class:`~repro.fl.server.FLServer` from a
  :class:`~repro.fl.config.ServerConfig` (sensible defaults for the rest);
* :func:`simulate` — one deterministic fleet simulation, returned as the
  same JSON-safe report ``repro simulate`` writes;
* :func:`run_experiment` — any of the paper's table/figure experiments by
  name, returned as a JSON-safe payload;
* :func:`serve` — the multi-tenant coordinator service under synthetic
  load, returned as the same JSON-safe report ``repro serve`` writes;
* :func:`attack_suite` — the full inference-attack audit (DRIA, MIA,
  optionally DPIA) of one protection policy on one model, returned as a
  JSON-safe verdict table;
* the config types (:class:`ServerConfig`, :class:`RoundConfig`,
  :class:`ShardingConfig`) that parameterise both, and the protection
  policy surface (:class:`StaticPolicy`, :class:`DynamicPolicy`,
  :class:`PeltaPolicy`, … with :class:`LayerRef` / :class:`BlockSelector`
  structured addressing).

The deeper modules (``repro.fl``, ``repro.sim``, ``repro.core``, …) remain
importable, but their internals may shift between releases; this facade is
the supported surface.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Callable, Optional, Union

from .core.policy import (
    BlockSelector,
    DarknetzPolicy,
    DynamicPolicy,
    LayerRef,
    ModelLayout,
    NoProtection,
    PeltaPolicy,
    ProtectionPolicy,
    StaticPolicy,
    policy_from_spec,
)
from .fl.admission import (
    AdmissionConfig,
    AdmissionController,
    ReputationConfig,
    ReputationTracker,
)
from .fl.config import BufferConfig, RoundConfig, ServerConfig, ShardingConfig
from .fl.plan import TrainingPlan
from .fl.robust import RULES

if TYPE_CHECKING:
    from .fl.server import FLServer

__all__ = [
    "build_server",
    "simulate",
    "serve",
    "run_experiment",
    "attack_suite",
    "ServerConfig",
    "RoundConfig",
    "ShardingConfig",
    "BufferConfig",
    "AdmissionConfig",
    "AdmissionController",
    "ReputationConfig",
    "ReputationTracker",
    "RULES",
    "ProtectionPolicy",
    "NoProtection",
    "StaticPolicy",
    "DarknetzPolicy",
    "DynamicPolicy",
    "PeltaPolicy",
    "LayerRef",
    "BlockSelector",
    "ModelLayout",
    "policy_from_spec",
]


def build_server(
    model=None,
    plan: Optional[TrainingPlan] = None,
    *,
    policy=None,
    config: Optional[ServerConfig] = None,
) -> FLServer:
    """Build an :class:`FLServer` from a typed config.

    ``model`` defaults to the paper's LeNet-5 on a small input (seeded from
    ``config.seed``, so two builds from the same config start from identical
    weights); ``plan`` defaults to one local SGD step per cycle.  All
    behavioural knobs — admission, retries, sampling seed, sharding — come
    from ``config``.
    """
    from .fl.server import FLServer
    from .nn import lenet5

    cfg = config or ServerConfig()
    if model is None:
        model = lenet5(num_classes=10, input_shape=(3, 16, 16), seed=cfg.seed)
    if plan is None:
        plan = TrainingPlan(lr=0.05, batch_size=8, local_steps=1)
    return FLServer(model, plan, policy=policy, config=cfg)


def _state_storage(label: str, seed: int, state_dir: Optional[str]):
    """REE-FS backed secure storage under ``state_dir`` (None when unset).

    The SSK is derived from the seed so that a fresh process can unseal the
    checkpoint a killed one wrote, and the rollback counters persist next
    to it (as RPMB persists across reboots on a real device).
    """
    if not state_dir:
        return None
    import hashlib
    import os

    from .tee.storage import ReeFsBackend, SecureStorage

    return SecureStorage(
        ReeFsBackend(state_dir),
        ssk=hashlib.sha256(f"repro-{label}-{seed}".encode()).digest(),
        counters_path=os.path.join(state_dir, "counters.json"),
    )


def simulate(
    *,
    clients: int = 100,
    rounds: int = 5,
    seed: int = 0,
    cohort: Optional[int] = None,
    shards: int = 1,
    overprovision: float = 1.25,
    quorum: float = 0.5,
    deadline: float = 5.0,
    dropout: float = 0.0,
    straggler: float = 0.0,
    corrupt: float = 0.0,
    pool_exhaust: float = 0.0,
    attestation: float = 0.0,
    shard_down: float = 0.0,
    byzantine: float = 0.0,
    attack: str = "sign_flip",
    attack_strength: float = 10.0,
    rule: str = "fedavg",
    trim: Optional[int] = None,
    num_byzantine: Optional[int] = None,
    max_norm: Optional[float] = None,
    clip: bool = False,
    drift: float = 0.2,
    update_scale: float = 0.05,
    compile: bool = False,
    client_batch: int = 1,
    async_mode: bool = False,
    buffer_size: Optional[int] = None,
    staleness: str = "constant",
    staleness_exponent: float = 0.5,
    concurrency: Optional[int] = None,
    model: Optional[str] = None,
    policy: Optional[str] = None,
    state_dir: Optional[str] = None,
    include_metrics: bool = False,
) -> dict:
    """Run one deterministic fleet simulation and return its report.

    The report is the same JSON-safe dict ``python -m repro simulate``
    emits: per-round outcomes (including ``accuracy`` on the
    teacher-labelled eval set), totals, ``weights_sha256``, and
    ``aggregator_peak_bytes`` (which stays O(model size) however large
    ``clients`` is, for any ``shards``).  ``byzantine`` marks a persistent
    fraction of the fleet hostile (``attack`` picks the
    :class:`~repro.sim.AttackKind`), ``rule`` selects the aggregation rule
    (:data:`RULES`), and ``max_norm`` puts admission control and the
    reputation/quarantine ledger in the loop.  Identical arguments produce
    an identical report, byte for byte once serialised — quarantine events
    included.  ``compile`` produces client updates through the traced
    graph VM and ``client_batch`` stacks that many clients per execution;
    both are pure execution knobs — the report (``weights_sha256``
    included) is byte-identical to the eager run.  ``async_mode`` switches
    to the FedBuff-style buffered pipeline: no round barrier, a commit
    every ``buffer_size`` admitted updates, stale arrivals folded with the
    ``staleness`` weighting, and ``rounds`` counting commits — with the
    same byte-for-byte determinism guarantees.

    ``model`` trains a :mod:`repro.nn.zoo` entry (``"lenet5"``,
    ``"vit_tiny"``, …) instead of the default small MLP, and ``policy`` is
    a protection-policy spec (``"static:L2+L4"``, ``"dynamic:2"``, … — see
    :func:`policy_from_spec`) resolved against that model's layout: the
    TEE cost model then prices every client step under it.  With
    ``state_dir`` each round (async: each event) is checkpointed into
    sealed storage in that directory; calling again with the same
    arguments resumes where the last call stopped (``resumed_from_round``
    says from where) and ends on the same ``weights_sha256`` as an
    uninterrupted run.
    """
    from .cli import _zoo_model
    from .nn import mlp
    from .obs import VirtualClock, fresh
    from .sim import FLSimulator, FaultPlan, FaultRates, SimConfig

    config = SimConfig(
        num_clients=clients,
        rounds=rounds,
        seed=seed,
        cohort=cohort,
        overprovision=overprovision,
        quorum=quorum,
        deadline_seconds=deadline,
        shards=shards,
        byzantine=byzantine,
        attack=attack,
        attack_strength=attack_strength,
        rule=rule,
        trim=trim,
        num_byzantine=num_byzantine,
        max_norm=max_norm,
        clip=clip,
        drift=drift,
        update_scale=update_scale,
        compile=compile,
        client_batch=client_batch,
        async_mode=async_mode,
        buffer_size=buffer_size,
        staleness=staleness,
        staleness_exponent=staleness_exponent,
        concurrency=concurrency,
    )
    rates = FaultRates(
        dropout=dropout,
        straggler=straggler,
        corrupt=corrupt,
        pool_exhaust=pool_exhaust,
        attestation=attestation,
    )
    zoo_model = _zoo_model(model, seed=seed) if model else None
    protection = None
    if policy:
        # The spec needs the layout of whatever model the simulator will
        # run, so replicate its default when no model was named.
        target = zoo_model or mlp(
            num_classes=4, input_shape=(6,), hidden=(8, 5), seed=seed
        )
        protection = policy_from_spec(policy, target.layout(), seed=seed)
    # Opened outside the run's observability context: the storage layer's
    # own counters are not part of the simulation's metrics snapshot.
    storage = _state_storage("sim", seed, state_dir)
    with fresh(clock=VirtualClock()) as ctx:
        simulator = FLSimulator(
            config,
            model=zoo_model,
            policy=protection,
            fault_plan=FaultPlan(
                rates,
                seed=seed,
                shard_down=shard_down,
                byzantine=byzantine,
                attack=attack,
                attack_strength=attack_strength,
            ),
            storage=storage,
            clock=ctx.clock,
        )
        report = simulator.run()
        if include_metrics:
            report["metrics"] = ctx.registry.snapshot()
    return report


def serve(
    *,
    tenants: int = 2,
    clients: int = 1000,
    commits: int = 10,
    buffer_size: int = 64,
    shards: int = 1,
    concurrency: int = 128,
    max_queue_depth: int = 4096,
    ratio: Optional[float] = None,
    encoding: str = "f64",
    seed: int = 0,
    dropout: float = 0.0,
    straggler: float = 0.0,
    byzantine: float = 0.0,
    attack: str = "sign_flip",
    attack_strength: float = 10.0,
    max_norm: Optional[float] = None,
    clip: bool = False,
    drift: float = 0.2,
    update_scale: float = 0.05,
    chaos: bool = False,
    chaos_rate: float = 0.1,
    chaos_seed: int = 0,
    breaker_budget: int = 0,
    state_dir: Optional[str] = None,
    checkpoint_every: int = 1,
) -> dict:
    """Run the coordinator service under synthetic load; return its report.

    Creates ``tenants`` concurrent jobs on one
    :class:`~repro.serve.coordinator.Coordinator` (tenant ``i`` seeds its
    fleet with ``seed + i``) and drives each to ``commits`` commits over
    the wire protocol on virtual time.  The returned dict is the same
    JSON-safe report ``python -m repro serve`` writes: per-job commit /
    fold / reject counts, uplink/downlink bytes per client, p50/p99
    dispatch→commit latency, ``aggregator_peak_bytes``, and
    ``weights_sha256``.  Identical arguments produce a byte-identical
    report; ``shards`` and kill/resume (see the CLI's ``--state-dir``)
    never change the committed bytes.  ``ratio`` switches the uplink to
    top-k sparse frames and ``encoding`` picks the wire value dtype —
    at ``ratio=1.0`` with ``encoding="f64"`` the commits are
    bitwise-identical to the dense run.

    With ``chaos=True`` every frame crosses a seeded fault-injecting
    channel (drop / duplicate / reorder / corrupt / truncate / replay at
    aggregate ``chaos_rate``) and the pipeline runs exactly-once: each
    job's ``weights_sha256`` is bitwise identical to the ``chaos_rate=0``
    run for any rate/seed, and the report gains a per-job ``transport``
    section.  ``breaker_budget > 0`` arms the per-tenant circuit breaker
    at that error budget.

    With ``state_dir`` the whole ensemble (coordinator, clock, in-flight
    frames) is checkpointed into sealed storage in that directory every
    ``checkpoint_every`` events; calling again with the same arguments
    after a kill resumes from the last checkpoint and returns the report
    of the uninterrupted run, bit for bit.
    """
    from .obs import VirtualClock, fresh, validate_metrics
    from .serve import BreakerConfig, LoadSpec, ServeHarness, TenantQuota

    specs = [
        LoadSpec(
            tenant=f"tenant-{i}",
            job_id=f"job-{i}",
            clients=clients,
            commits=commits,
            buffer_size=buffer_size,
            shards=shards,
            seed=seed + i,
            concurrency=concurrency,
            ratio=ratio,
            encoding=encoding,
            drift=drift,
            update_scale=update_scale,
            dropout=dropout,
            straggler=straggler,
            byzantine=byzantine,
            attack=attack,
            attack_strength=attack_strength,
            max_norm=max_norm,
            clip=clip,
            chaos=chaos,
            chaos_rate=chaos_rate if chaos else 0.0,
            chaos_seed=chaos_seed,
        )
        for i in range(tenants)
    ]
    storage = _state_storage("serve", seed, state_dir)
    with fresh(clock=VirtualClock()) as ctx:
        harness = ServeHarness(
            specs,
            quota=TenantQuota(max_queue_depth=max_queue_depth),
            storage=storage,
            checkpoint_every=checkpoint_every,
            clock=ctx.clock,
            breaker=(
                BreakerConfig(error_budget=breaker_budget)
                if chaos and breaker_budget > 0
                else None
            ),
        )
        harness.restore()
        report = harness.run()
        required = [
            "serve.jobs.active",
            "serve.queue.depth",
            "serve.backpressure.rejects",
        ]
        if chaos:
            required += [
                "serve.transport.drops",
                "serve.transport.duplicates",
                "serve.transport.corrupt",
                "serve.transport.retransmits",
                "serve.transport.dedup.hits",
                "serve.transport.breaker.trips",
            ]
        validate_metrics(ctx.registry.snapshot(), required=tuple(required))
    return report


def attack_suite(
    model: Union[str, Callable, None] = None,
    policy: Optional[ProtectionPolicy] = None,
    *,
    dpia: bool = False,
    cycles: int = 24,
    dria_threshold: float = 8.0,
    mia_margin: float = 0.2,
    seed: int = 0,
    fast: bool = False,
) -> dict:
    """Audit one protection ``policy`` on one ``model`` with every attack.

    ``model`` selects the victim architecture: ``None`` or ``"lenet5"``
    runs the paper's LeNet-5 reference workloads; any other
    :mod:`repro.nn.zoo` entry name (``"vit_tiny"``, ``"gpt_tiny"``,
    ``"alexnet"``, ``"mlp"``) or a callable ``factory(num_classes, seed)``
    audits that architecture instead.  ``policy`` defaults to
    :class:`NoProtection` over the model's layout, and accepts any policy
    built from structured selectors (``"L2"``, ``"block2.softmax"``,
    :class:`BlockSelector`, …).

    Runs DRIA and MIA always, and the multi-cycle DPIA pipeline when
    ``dpia=True``.  Returns a JSON-safe dict: per-attack ``score`` /
    ``succeeded`` / ``criterion`` rows plus the overall ``secure`` verdict.
    """
    from .attacks.suite import AttackSuite
    from . import nn as _nn

    if model is None or model == "lenet5":
        model_factory = None
    elif isinstance(model, str):
        try:
            zoo_entry = getattr(_nn, model)
        except AttributeError:
            raise ValueError(
                f"unknown model {model!r}; expected a repro.nn.zoo entry name "
                "or a factory callable"
            ) from None
        model_factory = lambda num_classes, s: zoo_entry(  # noqa: E731
            num_classes=num_classes, seed=s
        )
    elif callable(model):
        model_factory = model
    else:
        raise TypeError(f"model must be a zoo name or factory, got {type(model)!r}")

    if policy is None:
        victim = model_factory or (lambda n, s: _nn.lenet5(num_classes=n, seed=s))
        policy = NoProtection(victim(10, seed + 1))

    suite = AttackSuite(
        dria_threshold=dria_threshold,
        mia_margin=mia_margin,
        seed=seed,
        fast=fast,
        model_factory=model_factory,
    )
    report = suite.audit(policy)
    if dpia:
        report.verdicts["DPIA"] = suite.audit_dpia(policy, cycles=cycles)

    return {
        "policy": report.policy_description,
        "model": model if isinstance(model, str) else ("lenet5" if model is None else "custom"),
        "secure": report.secure,
        "attacks": {
            name: {
                "metric": verdict.result.metric,
                "score": float(verdict.result.score),
                "protected": sorted(verdict.result.protected),
                "succeeded": bool(verdict.succeeded),
                "criterion": verdict.criterion,
            }
            for name, verdict in report.verdicts.items()
        },
    }


def run_experiment(
    name: str,
    *,
    fast: bool = False,
    rounds: int = 36,
    batch_size: int = 32,
    seed: int = 0,
    **extra,
) -> dict:
    """Run one of the paper's experiments by CLI name, return its rows.

    ``name`` is any of the experiment subcommands (``table5``, ``table6``,
    ``fig5``, ``fig6``, ``fig8``, ``summary``, ``blocks``).  The
    human-readable table is printed as a side effect, exactly as the CLI
    does; the returned dict is the JSON payload ``--out`` would have
    written.  ``extra`` passes experiment-specific flags by their CLI
    spelling with dashes as underscores — e.g.
    ``run_experiment("blocks", model="gpt_tiny", mw_size=2)``.
    """
    from .cli import _COMMANDS

    if name not in _COMMANDS:
        known = ", ".join(sorted(_COMMANDS))
        raise ValueError(f"unknown experiment {name!r}; expected one of: {known}")
    handler, _ = _COMMANDS[name]
    defaults = {}
    if name == "blocks":
        defaults = {"model": "vit_tiny", "mw_size": 1, "roles": None, "dpia": False}
    args = argparse.Namespace(
        fast=fast, rounds=rounds, batch_size=batch_size, seed=seed, out=None,
        **{**defaults, **extra},
    )
    return handler(args)
