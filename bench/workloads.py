"""The six workloads of the ladder: inputs, build, timed section, checks.

Every workload is split the same way.  ``make_inputs`` runs once in the
parent and turns the seed into plain data (a config, a recorded call log);
``build``/``timed``/``result`` run in a fresh child interpreter per repeat
and see only that data; ``reference``/``check`` run in the parent, outside
every timed section, and decide whether the outputs are right.

``repro`` is imported inside the functions, never at module level: the
child's ``setup_s`` clock starts before the first ``import repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import ExitStack
from typing import Any, Dict, List, Optional

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _sha(flat) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(flat, dtype="<f8").tobytes()).hexdigest()


def _counter(name: str) -> float:
    from repro.obs import get_registry

    return get_registry().counter(name).total()


def account(
    attempted: int, committed: int, lost: int, rejected: int, in_flight_bound: int
) -> Dict[str, int]:
    """Where every dispatched client update went.

    An update is *committed* into the global model, *lost* to an injected
    fault, *rejected* with a typed reason, or still *in flight* when the run
    reached its commit target (at most ``in_flight_bound`` — the pipeline's
    concurrency).  Whatever is left over is unaccounted for: *failed*.
    """
    in_flight = attempted - committed - lost - rejected
    failed = 0
    if in_flight < 0:
        failed, in_flight = -in_flight, 0
    elif in_flight > in_flight_bound:
        failed, in_flight = in_flight - in_flight_bound, in_flight_bound
    return {
        "attempted": attempted,
        "committed": committed,
        "lost_injected": lost,
        "rejected_typed": rejected,
        "in_flight_at_end": in_flight,
        "failed": failed,
    }


def _load_specs(cfg: Dict[str, Any], **chaos):
    """One ``LoadSpec`` per tenant; tenant ``i`` seeds its fleet with ``seed + i``."""
    from repro.serve import LoadSpec

    return [
        LoadSpec(
            tenant=f"tenant-{i}",
            job_id=f"job-{i}",
            clients=cfg["clients"],
            commits=cfg["commits"],
            buffer_size=cfg["buffer_size"],
            concurrency=cfg["concurrency"],
            seed=cfg["seed"] + i,
            **chaos,
        )
        for i in range(cfg["tenants"])
    ]


class Workload:
    name = ""
    why = ""

    def make_inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def build(self, inputs: Dict[str, Any]) -> Any:
        """Construct the system and run the stated warm-up (child, untimed)."""
        raise NotImplementedError

    def timed(self, state: Any) -> None:
        raise NotImplementedError

    def result(self, state: Any) -> Dict[str, Any]:
        """``updates``, ``commits``, ``weights_sha256``, ``ops``, ``counts`` (+ ``extra``)."""
        raise NotImplementedError

    def reference(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """An independent path to the same answer (parent, untimed)."""
        return {}

    def check(
        self,
        inputs: Dict[str, Any],
        results: List[Dict[str, Any]],
        reference: Dict[str, Any],
    ) -> List[str]:
        """Workload-specific failures (empty = outputs correct)."""
        return []

    def fleet_metrics(self, inputs: Dict[str, Any], timed_s: float) -> Dict[str, float]:
        """What input generation saw of the load generator and the channel
        (non-zero only where the timed section replays a recorded fleet)."""
        return {
            "serve.transport.deliveries": 0,
            "serve.transport.goodput": 0.0,
            "serve.transport.retransmits": 0,
            "serve.loadgen.closed_loop_updates_per_s": 0.0,
            "serve.loadgen.driver_share": 0.0,
        }


# --------------------------------------------------------------------------
# 1. shielded_fl — the paper's Figure 2 cycle
# --------------------------------------------------------------------------
class ShieldedFL(Workload):
    name = "shielded_fl"
    why = (
        "Paper Fig. 2 cycle on a non-contiguous protected set (static L2+L4): the only "
        "rung where autodiff/nn/core.shielded/tee.* work; reads sealed storage (decrypt-heavy)"
    )

    def make_inputs(self, seed, quick):
        cfg = {
            "seed": seed,
            "clients": 6,
            "samples": 64,
            "batch_size": 32,
            "local_steps": 2,
            "warmup_cycles": 1,
            "timed_cycles": 2,
            "policy": "static:L2+L4",
        }
        if quick:
            cfg.update(clients=2, samples=16, batch_size=8, local_steps=1, timed_cycles=1)
        return {"cfg": cfg}

    @staticmethod
    def _fleet(cfg, policy_spec: Optional[str]):
        from repro.core.policy import policy_from_spec
        from repro.data.synthetic import synthetic_cifar
        from repro.fl.client import FLClient
        from repro.fl.plan import TrainingPlan
        from repro.fl.server import FLServer
        from repro.nn import lenet5
        from repro.tee.costmodel import CostModel

        model = lenet5(num_classes=10, input_shape=(3, 32, 32), seed=cfg["seed"])
        policy = policy_from_spec(policy_spec, model.layout()) if policy_spec else None
        plan = TrainingPlan(
            lr=0.05, batch_size=cfg["batch_size"], local_steps=cfg["local_steps"]
        )
        server = FLServer(model, plan, policy=policy)
        clients = [
            FLClient(
                f"client-{i}",
                synthetic_cifar(
                    cfg["samples"], num_classes=10, seed=cfg["seed"] * 1000 + i
                ),
                model.clone(),
                policy=policy,
                cost_model=CostModel(batch_size=cfg["batch_size"]),
                seed=cfg["seed"] * 1000 + i,
            )
            for i in range(cfg["clients"])
        ]
        return server, clients

    @staticmethod
    def _device_seconds(clients) -> float:
        return sum(c.shielded.simulated_cost.total_seconds for c in clients)

    def build(self, inputs):
        cfg = inputs["cfg"]
        server, clients = self._fleet(cfg, cfg["policy"])
        for _ in range(cfg["warmup_cycles"]):
            server.run_cycle(clients)
        return {
            "cfg": cfg,
            "server": server,
            "clients": clients,
            "returned": 0,
            "before": {
                "smc": _counter("tee.smc.calls"),
                "device_s": self._device_seconds(clients),
                "cycle": server.cycle,
            },
        }

    def timed(self, state):
        server, clients = state["server"], state["clients"]
        for _ in range(state["cfg"]["timed_cycles"]):
            state["returned"] += len(server.run_cycle(clients))

    def result(self, state):
        from repro.nn.serialize import flatten_weights
        from repro.obs import get_registry

        cfg, server, clients, before = (
            state["cfg"], state["server"], state["clients"], state["before"],
        )
        attempted = cfg["clients"] * cfg["timed_cycles"]
        peaks = get_registry().gauge("tee.pool.peak_bytes").series().values()
        return {
            "updates": state["returned"],
            "commits": server.cycle - before["cycle"],
            "weights_sha256": _sha(flatten_weights(server.model.get_weights())),
            "ops": account(attempted, state["returned"], 0, 0, 0),
            "counts": {
                "smc_calls": int(_counter("tee.smc.calls") - before["smc"]),
                "pool_peak_bytes": int(max(peaks, default=0)),
                "device_s": self._device_seconds(clients) - before["device_s"],
                "plan_cache_hits": int(_counter("graph.plan_cache.hits")),
                "plan_cache_misses": int(_counter("graph.plan_cache.misses")),
            },
        }

    def reference(self, inputs):
        from repro.nn.serialize import flatten_weights

        cfg = inputs["cfg"]
        server, clients = self._fleet(cfg, None)
        for _ in range(cfg["warmup_cycles"] + cfg["timed_cycles"]):
            server.run_cycle(clients)
        return {"unprotected_sha256": _sha(flatten_weights(server.model.get_weights()))}

    def check(self, inputs, results, reference):
        failures = []
        if results[0]["weights_sha256"] != reference["unprotected_sha256"]:
            failures.append("shielded weights differ from the unprotected fleet's")
        for key in ("smc_calls", "pool_peak_bytes"):
            if len({r["counts"][key] for r in results}) != 1:
                failures.append(f"{key} differs between repeats")
        if results[0]["counts"]["smc_calls"] == 0:
            failures.append("no SMC crossed the world boundary")
        return failures


# --------------------------------------------------------------------------
# 2/3. sim_sync, sim_async — the fleet simulator's two engines
# --------------------------------------------------------------------------
class _Sim(Workload):
    @staticmethod
    def _simulator(cfg, clock, **override):
        from repro.sim import FLSimulator, FaultPlan, FaultRates, SimConfig

        return FLSimulator(
            SimConfig(**{**cfg["sim"], **override}),
            fault_plan=FaultPlan(FaultRates(**cfg["rates"]), seed=cfg["sim"]["seed"]),
            clock=clock,
        )

    def build(self, inputs):
        from repro.obs import VirtualClock, fresh

        cfg = inputs["cfg"]
        stack = ExitStack()
        ctx = stack.enter_context(fresh(clock=VirtualClock()))
        # Warm-up: a throwaway one-round simulator on its own clock.
        self._simulator(cfg, VirtualClock(), rounds=1).run()
        return {
            "cfg": cfg,
            "stack": stack,
            "sim": self._simulator(cfg, ctx.clock),
            "report": None,
        }

    def timed(self, state):
        state["report"] = state["sim"].run()

    def _ops(self, cfg, report) -> Dict[str, int]:
        raise NotImplementedError

    def result(self, state):
        report = state["report"]
        hits = int(_counter("graph.plan_cache.hits"))
        misses = int(_counter("graph.plan_cache.misses"))
        state["stack"].close()
        ops = self._ops(state["cfg"], report)
        return {
            "updates": ops["committed"],
            "commits": sum(1 for r in report["rounds"] if not r["degraded"]),
            "weights_sha256": report["weights_sha256"],
            "ops": ops,
            "counts": {
                "virtual_s": report["virtual_seconds"],
                "plan_cache_hits": hits,
                "plan_cache_misses": misses,
            },
            "extra": {"totals": report["totals"]},
        }


class SimSync(_Sim):
    name = "sim_sync"
    why = (
        "Round-barrier engine on its fast path (compiled, client_batch=64, 8 shards) under "
        "4 fault kinds: sim.engine + sim.faults + fl.sharding exact fold dominate, graph.vm is the client step"
    )

    def make_inputs(self, seed, quick):
        sim = dict(
            num_clients=20000, cohort=2000, rounds=12, seed=seed,
            compile=True, client_batch=64, shards=8,
        )
        if quick:
            sim.update(num_clients=2000, cohort=200, rounds=3)
        rates = dict(dropout=0.2, straggler=0.1, corrupt=0.03, pool_exhaust=0.02)
        return {"cfg": {"sim": sim, "rates": rates}}

    def _ops(self, cfg, report):
        totals = report["totals"]
        committed = sum(
            len(r["collected"]) for r in report["rounds"] if not r["degraded"]
        )
        lost = sum(totals[k] for k in ("dropouts", "stragglers", "evicted", "giveups"))
        lost += totals["collected"] - committed  # collected into a degraded round
        rejected = totals["admission_rejected"] + totals["quarantined"]
        return account(totals["asked"], committed, lost, rejected, 0)

    def reference(self, inputs):
        from repro.obs import VirtualClock, fresh

        with fresh(clock=VirtualClock()) as ctx:
            report = self._simulator(
                inputs["cfg"], ctx.clock, compile=False, client_batch=1, shards=1
            ).run()
        return {"eager_sha256": report["weights_sha256"]}

    def check(self, inputs, results, reference):
        if results[0]["weights_sha256"] != reference["eager_sha256"]:
            return ["compiled 8-shard weights differ from the eager single-shard run"]
        return []


class SimAsync(_Sim):
    name = "sim_async"
    why = (
        "FedBuff path: the same exact accumulator reached through fl.buffer, one event per "
        "update through sim.events; the 3k events/s ceiling ROADMAP wants broken lives here"
    )

    def make_inputs(self, seed, quick):
        sim = dict(
            num_clients=20000, rounds=60, seed=seed,
            async_mode=True, buffer_size=250, concurrency=500,
        )
        if quick:
            sim.update(num_clients=2000, rounds=6)
        return {"cfg": {"sim": sim, "rates": dict(dropout=0.1, straggler=0.05)}}

    def _ops(self, cfg, report):
        totals = report["totals"]
        lost = sum(totals[k] for k in ("dropouts", "evicted", "giveups"))
        return account(
            totals["asked"], totals["updates"], lost,
            totals["admission_rejected"], cfg["sim"]["concurrency"],
        )

    def check(self, inputs, results, reference):
        failures = []
        rounds = inputs["cfg"]["sim"]["rounds"]
        for result in results:
            totals = result["extra"]["totals"]
            if result["commits"] != rounds:
                failures.append(f"{result['commits']} commits, expected {rounds}")
            if sum(totals["staleness"].values()) != totals["updates"]:
                failures.append("staleness histogram does not sum to the fold count")
        return failures


# --------------------------------------------------------------------------
# 4/5. serve_clean, serve_chaos — the coordinator on a recorded call log
# --------------------------------------------------------------------------
class _ServeReplay(Workload):
    chaos = False
    commits = 0
    quick_commits = 0
    WARMUP_CALLS = 2000

    def _cfg(self, seed, quick):
        return {
            "seed": seed,
            "tenants": 2,
            "clients": 500 if quick else 5000,
            "commits": self.quick_commits if quick else self.commits,
            "buffer_size": 250,
            "concurrency": 500,
            "chaos": self.chaos,
            "chaos_rate": 0.1 if self.chaos else 0.0,
            "max_queue_depth": 4096,
        }

    @staticmethod
    def _specs(cfg, chaos_rate=None):
        return _load_specs(
            cfg,
            chaos=cfg["chaos"],
            chaos_rate=cfg["chaos_rate"] if chaos_rate is None else chaos_rate,
            chaos_seed=cfg["seed"],
        )

    @classmethod
    def _closed_loop(cls, cfg, chaos_rate=None, recorder=None):
        """The fleet simulator driving a live coordinator: (report, wall)."""
        from instrument import Instrumenter, public_methods
        from repro.obs import VirtualClock, fresh
        from repro.serve import ServeHarness, TenantQuota
        from repro.serve.coordinator import Coordinator

        with fresh(clock=VirtualClock()) as ctx:
            harness = ServeHarness(
                cls._specs(cfg, chaos_rate),
                quota=TenantQuota(max_queue_depth=cfg["max_queue_depth"]),
                clock=ctx.clock,
            )
            try:
                with Instrumenter() as patches:
                    if recorder is not None:
                        for name in public_methods(Coordinator):
                            patches.wrap(
                                f"repro.serve.coordinator:Coordinator.{name}",
                                recorder.factory(name),
                            )
                    start = time.perf_counter()
                    report = harness.run()
                    wall = time.perf_counter() - start
            finally:
                harness.close()
        return report, wall

    def make_inputs(self, seed, quick):
        from instrument import CallRecorder

        cfg = self._cfg(seed, quick)
        recorder = CallRecorder()
        report, _ = self._closed_loop(cfg, recorder=recorder)
        return {"cfg": cfg, "log": recorder.log, "recorded": {"report": report}}

    def _coordinator(self, cfg, clock):
        """A bare coordinator holding the recorded run's jobs.

        Constructing the ``LoadGenerator``s is how a fleet creates its job
        (model, buffer, target); they are never ``fill()``ed, so nothing of
        the fleet simulator runs in the timed section.
        """
        from repro.serve import TenantQuota
        from repro.serve.coordinator import Coordinator
        from repro.serve.loadgen import LoadGenerator
        from repro.sim.events import EventLoop

        coordinator = Coordinator(
            quota=TenantQuota(max_queue_depth=cfg["max_queue_depth"])
        )
        loop = EventLoop(clock)
        for spec in self._specs(cfg):
            LoadGenerator(spec, coordinator, loop)
        return coordinator

    @staticmethod
    def _bind(coordinator, log):
        return [(getattr(coordinator, name), args, kwargs) for name, args, kwargs in log]

    def build(self, inputs):
        from repro.obs import VirtualClock, fresh

        cfg, log = inputs["cfg"], inputs["log"]
        # Warm-up: the head of the log into a throwaway coordinator.
        with fresh(clock=VirtualClock()) as ctx:
            warm = self._coordinator(cfg, ctx.clock)
            for fn, args, kwargs in self._bind(warm, log[: self.WARMUP_CALLS]):
                fn(*args, **kwargs)
        stack = ExitStack()
        ctx = stack.enter_context(fresh(clock=VirtualClock()))
        coordinator = self._coordinator(cfg, ctx.clock)
        return {
            "cfg": cfg,
            "stack": stack,
            "coordinator": coordinator,
            "calls": self._bind(coordinator, log),
            "names": [name for name, _, _ in log],
            "returned": [],
        }

    def timed(self, state):
        keep = state["returned"].append
        for fn, args, kwargs in state["calls"]:
            keep(fn(*args, **kwargs))

    def result(self, state):
        cfg, coordinator = state["cfg"], state["coordinator"]
        state["stack"].close()
        statuses: Dict[str, int] = {}
        commits = updates = pump_rejected = deliveries = 0
        for name, returned in zip(state["names"], state["returned"]):
            pumped = None
            if name == "submit":
                deliveries += 1
                status = "accepted" if returned.accepted else f"refused:{returned.reason}"
                statuses[status] = statuses.get(status, 0) + 1
            elif name == "ingest":
                deliveries += 1
                statuses[returned.status] = statuses.get(returned.status, 0) + 1
                pumped = returned.pumped
            elif name == "pump":
                pumped = returned
            if pumped is not None:
                commits += len(pumped.commits)
                updates += sum(event.folds for event in pumped.commits)
                pump_rejected += len(pumped.rejected)
        jobs = [coordinator.jobs[key] for key in sorted(coordinator.jobs)]
        lost = statuses.get("duplicate", 0) + statuses.get("corrupt", 0)
        rejected = pump_rejected + sum(
            count
            for status, count in statuses.items()
            if status.startswith(("refused", "rejected", "shed"))
        )
        shas = {job.job_id: _sha(job.flat) for job in jobs}
        return {
            "updates": updates,
            "commits": commits,
            "weights_sha256": hashlib.sha256(
                "".join(shas[key] for key in sorted(shas)).encode()
            ).hexdigest(),
            "ops": account(
                deliveries, updates, lost, rejected,
                cfg["tenants"] * cfg["concurrency"],
            ),
            "counts": {
                "bytes_up": sum(job.bytes_up for job in jobs),
                "serve_commits": sum(job.version for job in jobs),
                "serve_rejects": rejected,
                "dedup_hits": sum(job.transport.get("dedup_hits", 0) for job in jobs),
            },
            "extra": {"job_sha256": shas, "statuses": statuses},
        }

    def check(self, inputs, results, reference):
        recorded = {
            job["job_id"]: job["weights_sha256"]
            for job in inputs["recorded"]["report"]["jobs"]
        }
        if results[0]["extra"]["job_sha256"] != recorded:
            return ["replayed per-job weights differ from the recording run's"]
        return []

    def fleet_metrics(self, inputs, timed_s):
        jobs = inputs["recorded"]["report"]["jobs"]
        # The recording pass paid for the recorder on every coordinator call,
        # so the closed loop is timed again here without it.
        _, closed_loop_s = self._closed_loop(inputs["cfg"])
        channels = [job["transport"] for job in jobs if "transport" in job]
        sends = sum(t["sends"] for t in channels)
        return {
            "serve.transport.deliveries": sum(t["deliveries"] for t in channels),
            "serve.transport.goodput": (
                sum(t["inserts"] for t in channels) / sends if sends else 0.0
            ),
            "serve.transport.retransmits": sum(t["retransmits"] for t in channels),
            "serve.loadgen.closed_loop_updates_per_s": (
                sum(job["folds"] for job in jobs) / closed_loop_s
            ),
            # The share of a closed-loop run that is the fleet simulator, not
            # the coordinator: why updates_per_s is measured on the replay.
            "serve.loadgen.driver_share": 1.0 - timed_s / closed_loop_s,
        }


class ServeClean(_ServeReplay):
    name = "serve_clean"
    commits, quick_commits = 60, 6
    why = (
        "Coordinator replaying a recorded fault-free call log (30k updates): serve.wire decode, "
        "admission, fl.buffer fold, commit, obs.metrics upkeep - without timing the fleet simulator"
    )


class ServeChaos(_ServeReplay):
    name = "serve_chaos"
    chaos = True
    commits, quick_commits = 40, 4
    why = (
        "Same layers on a hostile wire: recorded ingest() deliveries at 10% chaos (duplicates, reorders, "
        "bit-flips, truncations, replays) exercise verify_frame, double decode, dedup ledger, stash/drain"
    )

    def reference(self, inputs):
        report, _ = self._closed_loop(inputs["cfg"], chaos_rate=0.0)
        return {
            "fault_free": {
                job["job_id"]: job["weights_sha256"] for job in report["jobs"]
            }
        }

    def check(self, inputs, results, reference):
        failures = super().check(inputs, results, reference)
        if results[0]["extra"]["job_sha256"] != reference["fault_free"]:
            failures.append("weights under chaos differ from the fault-free run's")
        dup_clean = sum(
            job["transport"]["dup_clean_deliveries"]
            for job in inputs["recorded"]["report"]["jobs"]
        )
        if results[0]["counts"]["dedup_hits"] != dup_clean:
            failures.append(
                f"dedup_hits {results[0]['counts']['dedup_hits']} != "
                f"dup_clean_deliveries {dup_clean}"
            )
        return failures


# --------------------------------------------------------------------------
# 6. serve_durable — kill / resume through sealed checkpoints
# --------------------------------------------------------------------------
class ServeDurable(Workload):
    name = "serve_durable"
    why = (
        "Kill/resume rung: closed-loop serve checkpointing through SecureStorage every 32 events, "
        "killed mid-run and resumed - tee.storage.put/tee.crypto.encrypt and state_dict JSON own the wall"
    )

    def make_inputs(self, seed, quick):
        import numpy as np

        cfg = {
            "seed": seed,
            "tenants": 2,
            "clients": 2000,
            "commits": 8,
            "buffer_size": 64,
            "concurrency": 128,
            "checkpoint_every": 32,
            "kill_after_events": 650,
            "max_queue_depth": 4096,
            "ssk": np.random.default_rng((seed, 11)).bytes(32),
        }
        if quick:
            cfg.update(clients=200, commits=2, kill_after_events=160)
        return {"cfg": cfg}

    @staticmethod
    def _harness(cfg, clock, directory: Optional[str]):
        from repro.serve import ServeHarness, TenantQuota
        from repro.tee.storage import ReeFsBackend, SecureStorage

        storage = (
            SecureStorage(
                ReeFsBackend(os.path.join(directory, "ree-fs")),
                cfg["ssk"],
                os.path.join(directory, "counters.json"),
            )
            if directory is not None
            else None
        )
        return ServeHarness(
            _load_specs(cfg),
            quota=TenantQuota(max_queue_depth=cfg["max_queue_depth"]),
            storage=storage,
            checkpoint_every=cfg["checkpoint_every"],
            clock=clock,
        )

    def build(self, inputs):
        from repro.obs import VirtualClock, fresh

        cfg = inputs["cfg"]
        os.makedirs(OUT_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR)
        stack = ExitStack()
        stack.callback(shutil.rmtree, directory, ignore_errors=True)
        ctx = stack.enter_context(fresh(clock=VirtualClock()))
        return {
            "cfg": cfg,
            "stack": stack,
            "directory": directory,
            "first": self._harness(cfg, ctx.clock, directory),
            "report": None,
        }

    def timed(self, state):
        from repro.obs import VirtualClock, fresh

        cfg = state["cfg"]
        state["first"].run(max_events=cfg["kill_after_events"])
        # "kill -9": the first harness is abandoned as it stands; all that
        # survives is what it sealed into the state directory.
        with fresh(clock=VirtualClock()) as ctx:
            resumed = self._harness(cfg, ctx.clock, state["directory"])
            state["restored"] = resumed.restore()
            state["report"] = resumed.run()

    def result(self, state):
        cfg, report = state["cfg"], state["report"]
        state["stack"].close()
        jobs = report["jobs"]
        updates = sum(job["folds"] for job in jobs)
        rejected = sum(sum(job["rejects"].values()) for job in jobs)
        return {
            "updates": updates,
            "commits": sum(job["commits"] for job in jobs),
            "weights_sha256": hashlib.sha256(
                "".join(job["weights_sha256"] for job in jobs).encode()
            ).hexdigest(),
            "ops": account(
                sum(job["dispatches"] for job in jobs),
                updates,
                sum(job["drops"] for job in jobs),
                rejected,
                cfg["tenants"] * cfg["concurrency"],
            ),
            "counts": {
                "bytes_up": sum(job["bytes_up"] for job in jobs),
                "serve_commits": sum(job["commits"] for job in jobs),
                "serve_rejects": rejected,
            },
            "extra": {
                "restored": state["restored"],
                "report_json": json.dumps(report, sort_keys=True),
            },
        }

    def reference(self, inputs):
        from repro.obs import VirtualClock, fresh

        with fresh(clock=VirtualClock()) as ctx:
            report = self._harness(inputs["cfg"], ctx.clock, None).run()
        return {"uninterrupted_json": json.dumps(report, sort_keys=True)}

    def check(self, inputs, results, reference):
        failures = []
        for result in results:
            if not result["extra"]["restored"]:
                failures.append("the resumed harness found no checkpoint to restore")
            if result["extra"]["report_json"] != reference["uninterrupted_json"]:
                failures.append("resumed report differs from the uninterrupted run's")
        return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (ShieldedFL(), SimSync(), SimAsync(), ServeClean(), ServeChaos(), ServeDurable())
}
