"""Stable, typed entry points for the GradSec reproduction.

Everything a user script needs lives here, under names that do not move:

* :func:`build_server` — an :class:`~repro.fl.server.FLServer` from a
  :class:`~repro.fl.config.ServerConfig` (sensible defaults for the rest);
* :func:`simulate` — one deterministic fleet simulation, returned as the
  same JSON-safe report ``repro simulate`` writes;
* :func:`run_experiment` — any of the paper's table/figure experiments by
  name, returned as a JSON-safe payload;
* :func:`serve` — the multi-tenant coordinator service under synthetic
  load, returned as the same JSON-safe report ``repro serve`` writes.
  Both take their run config (:class:`~repro.sim.SimRun`,
  :class:`~repro.serve.ServeRun`) or its knobs as keywords spelt as the
  command's flags, through one table (:func:`knob_table`);
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
from dataclasses import Field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

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
    from .serve import ServeRun
    from .sim import SimRun

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


#: Knobs whose flag is not ``--`` + the field name with dashes:
#: field -> (flag, keyword).  Every other knob's keyword is its field name.
ALIASES = {
    "num_clients": ("--clients", "clients"),
    "deadline_seconds": ("--deadline", "deadline"),
    "async_mode": ("--async", "async_mode"),
    "breaker_budget": ("--chaos-breaker-budget", "breaker_budget"),
}


def knob_table(run_cls) -> List[Tuple[str, str, Field]]:
    """``(flag, keyword, field)`` for every knob of ``run_cls``
    (:class:`~repro.sim.SimRun` or :class:`~repro.serve.ServeRun`), in
    declaration order: the one table the CLI's flags and this module's
    keywords are both read from."""
    from .fl.config import knob_fields

    return [
        (*ALIASES.get(item.name, ("--" + item.name.replace("_", "-"), item.name)), item)
        for _, item in knob_fields(run_cls)
    ]


def _run_config(run_cls, config, knobs: dict):
    """``config``, or a ``run_cls`` composed from knob keywords."""
    from .fl.config import compose

    if config is not None:
        if knobs:
            raise TypeError("pass a run config or knob keywords, not both")
        return config
    fields_by_keyword = {keyword: item.name for _, keyword, item in knob_table(run_cls)}
    for keyword in knobs:
        if keyword not in fields_by_keyword:
            raise TypeError(f"unexpected keyword argument {keyword!r}")
    return compose(
        run_cls, {fields_by_keyword[key]: value for key, value in knobs.items()}
    )


def simulate(
    config: Optional[SimRun] = None, *, include_metrics: bool = False, **knobs
) -> dict:
    """Run one deterministic fleet simulation and return its report.

    Takes a :class:`~repro.sim.SimRun`, or its knobs as the keywords of
    ``repro simulate``'s flags (``clients=1000, shards=16, dropout=0.1``;
    see :func:`knob_table`).  The report is the JSON-safe dict the command
    writes: per-round outcomes (with ``accuracy`` on the teacher-labelled
    eval set), totals, ``weights_sha256`` and ``aggregator_peak_bytes``
    (O(model size) at any fleet size and shard count).  Identical configs
    give identical reports, byte for byte once serialised, and the
    execution knobs ``compile``/``client_batch`` never change them.  The
    ``policy`` spec (:func:`policy_from_spec`) resolves against the
    ``model`` that runs, and the TEE cost model prices every client step
    under it.  With ``state_dir`` each round (async: each event) is
    sealed there; calling again with the same config resumes
    (``resumed_from_round`` says from where) and ends on the uninterrupted
    run's ``weights_sha256``.  ``include_metrics`` embeds the run's
    metrics snapshot.
    """
    from .nn.zoo import by_name, mlp
    from .obs import VirtualClock, fresh
    from .sim import FLSimulator, FaultPlan, SimRun

    run = _run_config(SimRun, config, knobs)
    sim = run.config
    zoo_model = by_name(run.model, seed=sim.seed) if run.model else None
    protection = None
    if run.policy:
        # The spec needs the layout of whatever model the simulator will
        # run, so replicate its default when no model was named.
        target = zoo_model or mlp(
            num_classes=4, input_shape=(6,), hidden=(8, 5), seed=sim.seed
        )
        protection = policy_from_spec(run.policy, target.layout(), seed=sim.seed)
    # Opened outside the run's observability context: the storage layer's
    # own counters are not part of the simulation's metrics snapshot.
    storage = _state_storage("sim", sim.seed, run.state_dir)
    with fresh(clock=VirtualClock()) as ctx:
        simulator = FLSimulator(
            sim,
            model=zoo_model,
            policy=protection,
            fault_plan=FaultPlan(run.rates, seed=sim.seed, attackers=sim),
            storage=storage,
            clock=ctx.clock,
        )
        report = simulator.run()
        if include_metrics:
            report["metrics"] = ctx.registry.snapshot()
    return report


def serve(config: Optional[ServeRun] = None, **knobs) -> dict:
    """Run the coordinator service under synthetic load; return its report.

    Takes a :class:`~repro.serve.ServeRun`, or its knobs as the keywords of
    ``repro serve``'s flags (see :func:`knob_table`).  Its ``tenants`` jobs
    share one :class:`~repro.serve.coordinator.Coordinator` and run to
    ``commits`` commits over the wire protocol on virtual time.  The report
    is the JSON-safe dict the command writes: per-job commit / fold /
    reject counts, bytes per client, p50/p99 dispatch→commit latency,
    ``aggregator_peak_bytes`` and ``weights_sha256``.  Identical configs
    give a byte-identical report; ``shards``, kill/resume and (under
    ``chaos``) the chaos rate and seed never change the committed bytes,
    and ``ratio=1.0`` with ``encoding="f64"`` commits the dense run's bits.
    With ``state_dir`` the whole ensemble is sealed there every
    ``checkpoint_every`` events, and calling again after a kill returns the
    uninterrupted run's report, bit for bit.
    """
    from .obs import VirtualClock, fresh, validate_metrics
    from .serve import ServeHarness, ServeRun

    run = _run_config(ServeRun, config, knobs)
    storage = _state_storage("serve", run.load.seed, run.state_dir)
    with fresh(clock=VirtualClock()) as ctx:
        harness = ServeHarness(
            run.specs(),
            quota=run.quota,
            storage=storage,
            checkpoint_every=run.checkpoint_every,
            clock=ctx.clock,
            breaker=run.breaker,
        )
        harness.restore()
        report = harness.run()
        required = [
            "serve.jobs.active",
            "serve.queue.depth",
            "serve.backpressure.rejects",
        ]
        if run.load.chaos:
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
    from .experiments import EXPERIMENTS

    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; expected one of: {known}")
    handler, _, flags = EXPERIMENTS[name]
    defaults = {
        flag[2:].replace("-", "_"): spec["default"] for flag, spec in flags.items()
    }
    args = argparse.Namespace(
        fast=fast, rounds=rounds, batch_size=batch_size, seed=seed, out=None,
        **{**defaults, **extra},
    )
    return handler(args)
