"""Span tracer for the traced run: which layer owns the wall-clock.

Spans are recorded from outside, around calls into each layer's public
entry points (the table :data:`LAYERS`; layer names are ``repro``'s module
names).  A span is ``(id, parent, layer, fn, op, start_ns, end_ns)`` in
integer nanoseconds, so *self time = duration − time covered by child
spans* is exact and the parts add up to the whole with ``==``.  The root
span is the timed section.

Every call is folded into an aggregate per ``(layer, fn, parent layer)``
— those are complete and are what the per-layer metrics are computed from.
Individual spans are kept for reading, up to :data:`SPAN_LIMIT` per layer;
a leaf layer called 10^5–10^6 times would otherwise cost more to store
than the run it describes.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from instrument import Instrumenter, import_all
from stats import percentile_or_zero

SPAN_LIMIT = 20_000
SPAN_FIELDS = ("id", "parent", "layer", "fn", "op", "start_ns", "end_ns")
ROOT = "root"

# layer -> entry points ("module:function" or "module:Class.method").
LAYERS: Dict[str, Tuple[str, ...]] = {
    "autodiff": (
        "repro.autodiff.tensor:grad",
        "repro.autodiff.tensor:Tensor.backward",
        # plus every function in repro.autodiff.functional.__all__
    ),
    "nn": (
        "repro.nn.layers:Layer.__call__",
        "repro.nn.model:Sequential.forward",
        "repro.nn.model:Sequential.loss_and_gradients",
        "repro.nn.optim:Optimizer.step",
    ),
    "graph.vm": (
        "repro.graph.vm:compile_model_step",
        "repro.graph.vm:VM.run",
        "repro.graph.vm:BatchedVM.run",
    ),
    "core.shielded": (
        "repro.core.shielded:ShieldedModel.begin_cycle",
        "repro.core.shielded:ShieldedModel.train_step",
        "repro.core.shielded:ShieldedModel.export_update",
        "repro.core.shielded:ShieldedModel.end_cycle",
    ),
    "tee.monitor": ("repro.tee.monitor:SecureMonitor.smc",),
    "tee.memory": (
        "repro.tee.memory:SecureMemoryPool.allocate",
        "repro.tee.memory:SecureMemoryPool.release",
    ),
    "tee.crypto": ("repro.tee.crypto:encrypt", "repro.tee.crypto:decrypt"),
    "tee.storage": (
        "repro.tee.storage:SecureStorage.put",
        "repro.tee.storage:SecureStorage.get",
    ),
    "tee.iopath": (
        "repro.tee.iopath:TrustedIOPath.seal",
        "repro.tee.iopath:TrustedIOPath.unseal_remote",
        "repro.tee.iopath:TrustedIOPath.unseal_to_enclave",
        "repro.tee.iopath:TrustedIOPath.seal_from_enclave",
    ),
    "tee.attestation": (
        "repro.tee.attestation:AttestationDevice.quote",
        "repro.tee.attestation:AttestationVerifier.verify",
    ),
    "fl.client": ("repro.fl.client:FLClient.run_cycle",),
    "fl.server": ("repro.fl.server:FLServer.run_cycle",),
    "fl.aggregation": (
        "repro.fl.aggregation:CompensatedAccumulator.add",
        "repro.fl.aggregation:CompensatedAccumulator.add_at",
        "repro.fl.aggregation:CompensatedAccumulator.merge",
        "repro.fl.aggregation:CompensatedAccumulator.value",
        "repro.fl.aggregation:fedavg",
    ),
    "fl.sharding": (
        "repro.fl.sharding:HierarchicalAggregator.fold",
        "repro.fl.sharding:HierarchicalAggregator.reduce",
    ),
    "fl.buffer": (
        "repro.fl.buffer:BufferedAggregator.fold",
        "repro.fl.buffer:BufferedAggregator.commit",
        "repro.fl.buffer:BufferedAggregator.state_dict",
    ),
    "fl.admission": ("repro.fl.admission:AdmissionController.check",),
    "sim.engine": (
        "repro.sim.engine:FLSimulator.step_round",
        "repro.sim.engine:FLSimulator.step_commit",
    ),
    "sim.events": (
        "repro.sim.events:EventLoop.step",
        "repro.sim.events:EventLoop.schedule_at",
    ),
    "sim.faults": (
        "repro.sim.faults:FaultPlan.fault_for",
        "repro.sim.faults:FaultPlan.delay_factor",
        "repro.sim.faults:FaultPlan.attack_delta",
    ),
    "sim.network": ("repro.sim.network:NetworkModel.transfer_seconds",),
    "serve.wire": (
        "repro.serve.wire:encode_frame",
        "repro.serve.wire:verify_frame",
        "repro.serve.wire:decode_frame",
    ),
    "serve.transport": ("repro.serve.transport:ChaosChannel.send",),
    "serve.coordinator": (
        "repro.serve.coordinator:Coordinator.submit",
        "repro.serve.coordinator:Coordinator.ingest",
        "repro.serve.coordinator:Coordinator.pump",
        "repro.serve.coordinator:Coordinator.model_frame",
        "repro.serve.coordinator:Coordinator.state_dict",
        # Byte accounting the fleet triggers once per dispatch; part of the
        # coordinator's per-update work on the replayed call log.
        "repro.serve.coordinator:Coordinator.charge_download",
        "repro.serve.coordinator:Coordinator.charge_upload",
    ),
    "serve.loadgen": (
        "repro.serve.loadgen:LoadGenerator.fill",
        "repro.serve.loadgen:ServeHarness.checkpoint",
        "repro.serve.loadgen:ServeHarness.restore",
    ),
    "obs.metrics": (
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Gauge.set_max",
        "repro.obs.metrics:Histogram.observe",
    ),
}

SCHEDULE = "repro.sim.events:EventLoop.schedule_at"

# Counts taken at the same boundary as the span: bytes through, or events run.
SIZES: Dict[str, Callable[[tuple, dict, Any], int]] = {
    "repro.tee.crypto:encrypt": lambda a, k, r: len(a[1]),
    "repro.tee.crypto:decrypt": lambda a, k, r: len(a[1].ciphertext),
    "repro.tee.storage:SecureStorage.put": lambda a, k, r: len(a[3]),
    "repro.tee.storage:SecureStorage.get": lambda a, k, r: len(r),
    "repro.serve.wire:encode_frame": lambda a, k, r: len(r),
    "repro.serve.wire:verify_frame": lambda a, k, r: len(a[0]),
    "repro.serve.wire:decode_frame": lambda a, k, r: len(a[0]),
    "repro.sim.events:EventLoop.step": lambda a, k, r: 1 if r else 0,
}


def layer_targets(layer: str) -> List[str]:
    targets = list(LAYERS[layer])
    if layer == "autodiff":
        import inspect

        from repro.autodiff import functional

        targets += [
            f"repro.autodiff.functional:{name}"
            for name in functional.__all__
            if inspect.isfunction(getattr(functional, name))
        ]
    return targets


class Tracer:
    """In-memory span recorder; a no-op until :meth:`root` is entered."""

    def __init__(self, span_limit: int = SPAN_LIMIT) -> None:
        self.span_limit = span_limit
        self.layers: List[str] = [ROOT]
        self.functions: List[Tuple[int, str]] = [(0, ROOT)]
        self.spans: List[tuple] = []
        # (fn id, parent layer id) -> [calls, dur_ns, self_ns, durations, sizes]
        self.aggregates: Dict[Tuple[int, int], list] = {}
        self.root_ns = 0
        self.root_self_ns = 0
        self._stored = [0]
        self._stack: List[list] = []
        self._ids = [1, 0]  # next span id, next top-level op
        self._function_ids: Dict[Tuple[int, str], int] = {(0, ROOT): 0}

    def _function_id(self, layer: str, fn: str) -> Tuple[int, int]:
        if layer not in self.layers:
            self.layers.append(layer)
            self._stored.append(0)
        lid = self.layers.index(layer)
        fid = self._function_ids.get((lid, fn))
        if fid is None:
            self.functions.append((lid, fn))
            fid = self._function_ids[(lid, fn)] = len(self.functions) - 1
        return lid, fid

    def span_wrapper(
        self,
        layer: str,
        fn: str,
        original: Callable,
        size_of: Optional[Callable[[tuple, dict, Any], int]] = None,
    ) -> Callable:
        """``original`` with a span of ``layer`` around every call."""
        lid, fid = self._function_id(layer, fn)
        stack, ids, aggregates = self._stack, self._ids, self.aggregates
        spans, stored, limit = self.spans, self._stored, self.span_limit
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            parent = stack[-1]
            sid = ids[0]
            ids[0] = sid + 1
            if parent[0] == 0:
                op = ids[1]
                ids[1] = op + 1
            else:
                op = parent[3]
            frame = [lid, 0, sid, op]
            stack.append(frame)
            start = now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                parent[1] += duration
                aggregate = aggregates.get((fid, parent[0]))
                if aggregate is None:
                    aggregate = aggregates[(fid, parent[0])] = [
                        0, 0, 0, array("q"), array("q"),
                    ]
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[1]
                aggregate[3].append(duration)
                if stored[lid] < limit:
                    stored[lid] += 1
                    spans.append((sid, parent[2], lid, fid, op, start, end))
            if size_of is not None:
                aggregate[4].append(size_of(args, kwargs, result))
            return result

        return traced

    def schedule_wrapper(self, layer: str, fn: str, original: Callable) -> Callable:
        """``EventLoop.schedule_at`` with the callback charged to its scheduler.

        The loop runs callbacks that belong to whoever scheduled them (the
        round engine's arrival handler, the fleet's frame delivery).  Left
        alone, that work would count as the event loop's self time; a span
        of the scheduling layer around the callback puts it where it belongs
        without naming any private handler.
        """
        traced = self.span_wrapper(layer, fn, original)
        stack = self._stack

        def scheduling(loop, when, callback):
            if stack and stack[-1][0] != 0:
                callback = self.span_wrapper(
                    self.layers[stack[-1][0]], "event_callback", callback
                )
            return traced(loop, when, callback)

        return scheduling

    def install(self, instrumenter: Instrumenter) -> None:
        """Wrap every entry point of every layer in :data:`LAYERS`."""
        import_all()
        for layer in LAYERS:
            for target in layer_targets(layer):
                fn = target.partition(":")[2]
                if target == SCHEDULE:
                    factory = lambda f, l=layer, n=fn: self.schedule_wrapper(l, n, f)
                else:
                    factory = lambda f, l=layer, n=fn, t=target: self.span_wrapper(
                        l, n, f, SIZES.get(t)
                    )
                instrumenter.wrap(target, factory)

    @contextmanager
    def root(self):
        """The timed section: the span everything else is a descendant of."""
        frame = [0, 0, 0, -1]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.root_ns = end - start
            self.root_self_ns = self.root_ns - frame[1]
            self.spans.append((0, -1, 0, 0, -1, start, end))

    # -- reading ---------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        """One row per ``(layer, fn, parent layer)`` aggregate."""
        out = []
        for (fid, parent), (calls, dur, self_ns, _, sizes) in self.aggregates.items():
            lid, fn = self.functions[fid]
            out.append(
                {
                    "layer": self.layers[lid],
                    "fn": fn,
                    "parent": self.layers[parent],
                    "calls": calls,
                    "dur_ns": dur,
                    "self_ns": self_ns,
                    "size": sum(sizes),
                }
            )
        out.sort(key=lambda row: (-row["self_ns"], row["layer"], row["fn"], row["parent"]))
        return out

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        totals = {layer: {"calls": 0, "self_ns": 0} for layer in self.layers[1:]}
        for row in self.rows():
            totals[row["layer"]]["calls"] += row["calls"]
            totals[row["layer"]]["self_ns"] += row["self_ns"]
        return totals

    def check_exact(self) -> None:
        """Σ layer self + root self == root duration, in integer ns."""
        parts = sum(t["self_ns"] for t in self.layer_totals().values())
        if parts + self.root_self_ns != self.root_ns:
            raise AssertionError(
                f"self times do not add up: {parts} + {self.root_self_ns} "
                f"!= {self.root_ns}"
            )

    def select(
        self,
        layer: str,
        fn: Optional[str] = None,
        *,
        parent: Optional[str] = None,
        outside_only: bool = False,
    ) -> List[list]:
        """Aggregates of ``layer`` (optionally one ``fn`` / one parent layer;
        ``outside_only`` keeps calls that entered the layer from another)."""
        picked = []
        for (fid, parent_id), aggregate in self.aggregates.items():
            lid, name = self.functions[fid]
            if self.layers[lid] != layer or (fn is not None and name != fn):
                continue
            if parent is not None and self.layers[parent_id] != parent:
                continue
            if outside_only and parent_id == lid:
                continue
            picked.append(aggregate)
        return picked

    def calls(self, layer: str, fn: Optional[str] = None) -> int:
        return sum(a[0] for a in self.select(layer, fn))

    def size(self, layer: str, fn: Optional[str] = None) -> int:
        return sum(sum(a[4]) for a in self.select(layer, fn))

    def document(self) -> Dict[str, Any]:
        """The ``bench/out/trace-<workload>.json`` payload."""
        return {
            "schema": 1,
            "span_fields": list(SPAN_FIELDS),
            "span_limit_per_layer": self.span_limit,
            "layers": self.layers,
            "functions": [
                {"layer": self.layers[lid], "fn": fn} for lid, fn in self.functions
            ],
            "root_ns": self.root_ns,
            "root_self_ns": self.root_self_ns,
            "truncated_layers": [
                layer
                for layer, kept in zip(self.layers, self._stored)
                if kept >= self.span_limit
            ],
            "aggregates": self.rows(),
            "spans": self.spans,
        }


def _per_layer_table() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the ledger prints: name -> (unit, better)."""
    table: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        table[f"{layer}.calls"] = ("count", "lower")
        table[f"{layer}.self_s"] = ("s", "lower")
    table.update(
        {
            "trace.overhead_ratio": ("ratio", "lower"),
            "trace.attributed_share": ("ratio", "higher"),
            "tee.monitor.smc_calls": ("count", "lower"),
            "tee.memory.peak_bytes": ("B", "lower"),
            "tee.crypto.bytes": ("B", "lower"),
            "tee.crypto.mb_per_s": ("MB/s", "higher"),
            "tee.storage.put_bytes": ("B", "lower"),
            "tee.storage.get_bytes": ("B", "lower"),
            "tee.storage.put_ms_p50": ("ms", "lower"),
            "fl.server.device_s": ("s", "lower"),
            "graph.vm.plan_cache_hits": ("count", "higher"),
            "graph.vm.plan_cache_misses": ("count", "lower"),
            "fl.aggregation.adds": ("count", "lower"),
            "fl.buffer.folds": ("count", "lower"),
            "fl.buffer.commits": ("count", "lower"),
            "sim.events.events": ("count", "lower"),
            "sim.events.us_per_event": ("us", "lower"),
            "sim.engine.virtual_s": ("s", "lower"),
            "serve.wire.frames_decoded": ("count", "lower"),
            "serve.wire.bytes_decoded": ("B", "lower"),
            "serve.wire.decode_us_p50": ("us", "lower"),
            "serve.wire.bytes_up_per_update": ("B", "lower"),
            "serve.coordinator.call_us_p50": ("us", "lower"),
            "serve.coordinator.call_us_p99": ("us", "lower"),
            "serve.coordinator.commits": ("count", "higher"),
            "serve.coordinator.rejects": ("count", "lower"),
            "serve.transport.deliveries": ("count", "lower"),
            "serve.transport.goodput": ("ratio", "higher"),
            "serve.transport.retransmits": ("count", "lower"),
            "serve.transport.dedup_hits": ("count", "lower"),
            "serve.loadgen.closed_loop_updates_per_s": ("1/s", "higher"),
            "serve.loadgen.driver_share": ("ratio", "lower"),
            "serve.loadgen.checkpoints": ("count", "lower"),
            "serve.loadgen.checkpoint_share": ("ratio", "lower"),
            "serve.loadgen.checkpoint_bytes_p50": ("B", "lower"),
            "serve.loadgen.restore_s": ("s", "lower"),
        }
    )
    return table


PER_LAYER = _per_layer_table()

def layer_metrics(tracer: Tracer, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``counts`` are the program's own exact figures the workload read at the
    end of the timed section (commit count, pool peak, cost-model seconds…).
    """
    seconds = 1e-9
    totals = tracer.layer_totals()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        total = totals.get(layer, {"calls": 0, "self_ns": 0})
        out[f"{layer}.calls"] = total["calls"]
        out[f"{layer}.self_s"] = total["self_ns"] * seconds

    def self_s(layer: str) -> float:
        return out[f"{layer}.self_s"]

    def durations(aggregates: List[list], unit: float) -> List[float]:
        return [d * unit for a in aggregates for d in a[3]]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    root_s = tracer.root_ns * seconds
    out["trace.attributed_share"] = 1.0 - ratio(tracer.root_self_ns, tracer.root_ns)
    out["tee.monitor.smc_calls"] = tracer.calls("tee.monitor")
    out["tee.memory.peak_bytes"] = counts.get("pool_peak_bytes", 0)
    out["tee.crypto.bytes"] = tracer.size("tee.crypto")
    out["tee.crypto.mb_per_s"] = ratio(out["tee.crypto.bytes"] / 1e6, self_s("tee.crypto"))
    out["tee.storage.put_bytes"] = tracer.size("tee.storage", "SecureStorage.put")
    out["tee.storage.get_bytes"] = tracer.size("tee.storage", "SecureStorage.get")
    out["tee.storage.put_ms_p50"] = percentile_or_zero(
        durations(tracer.select("tee.storage", "SecureStorage.put"), 1e-6), 50
    )
    out["fl.server.device_s"] = counts.get("device_s", 0.0)
    out["graph.vm.plan_cache_hits"] = counts.get("plan_cache_hits", 0)
    out["graph.vm.plan_cache_misses"] = counts.get("plan_cache_misses", 0)
    out["fl.aggregation.adds"] = tracer.calls(
        "fl.aggregation", "CompensatedAccumulator.add"
    ) + tracer.calls("fl.aggregation", "CompensatedAccumulator.add_at")
    out["fl.buffer.folds"] = tracer.calls("fl.buffer", "BufferedAggregator.fold")
    out["fl.buffer.commits"] = tracer.calls("fl.buffer", "BufferedAggregator.commit")
    out["sim.events.events"] = tracer.size("sim.events", "EventLoop.step")
    out["sim.events.us_per_event"] = ratio(
        self_s("sim.events") * 1e6, out["sim.events.events"]
    )
    out["sim.engine.virtual_s"] = counts.get("virtual_s", 0.0)
    out["serve.wire.frames_decoded"] = tracer.calls("serve.wire", "decode_frame")
    out["serve.wire.bytes_decoded"] = tracer.size("serve.wire", "decode_frame")
    out["serve.wire.decode_us_p50"] = percentile_or_zero(
        durations(tracer.select("serve.wire", "decode_frame"), 1e-3), 50
    )
    out["serve.wire.bytes_up_per_update"] = ratio(
        counts.get("bytes_up", 0), counts.get("updates", 0)
    )
    entered = durations(tracer.select("serve.coordinator", outside_only=True), 1e-3)
    out["serve.coordinator.call_us_p50"] = percentile_or_zero(entered, 50)
    out["serve.coordinator.call_us_p99"] = percentile_or_zero(entered, 99)
    out["serve.coordinator.commits"] = counts.get("serve_commits", 0)
    out["serve.coordinator.rejects"] = counts.get("serve_rejects", 0)
    out["serve.transport.dedup_hits"] = counts.get("dedup_hits", 0)
    checkpoints = tracer.select("serve.loadgen", "ServeHarness.checkpoint")
    out["serve.loadgen.checkpoints"] = sum(a[0] for a in checkpoints)
    out["serve.loadgen.checkpoint_share"] = ratio(
        sum(a[1] for a in checkpoints) * seconds, root_s
    )
    out["serve.loadgen.checkpoint_bytes_p50"] = percentile_or_zero(
        [
            size
            for a in tracer.select(
                "tee.storage", "SecureStorage.put", parent="serve.loadgen"
            )
            for size in a[4]
        ],
        50,
    )
    out["serve.loadgen.restore_s"] = (
        sum(a[1] for a in tracer.select("serve.loadgen", "ServeHarness.restore"))
        * seconds
    )
    return out
