"""Partitioned (shielded) training — the GradSec mechanism itself.

A :class:`ShieldedModel` wraps a :class:`~repro.nn.Sequential` and executes
each training step layer by layer, routing protected layers through the
secure monitor into a GradSec trusted application:

* Protected layers' weights live only in enclave :class:`ShieldedBuffer`\\ s;
  the normal-world copies are scrubbed to zero.
* Forward/backward of a *run* of consecutive protected layers happens in a
  single enclave call, so intermediate activations of a protected slice
  never appear in normal-world memory.
* Weight updates of protected layers (the paper's formula (1)) are applied
  inside the enclave, closing the 1st leakage flaw (weight differencing);
  their per-layer gradients never cross the boundary, closing the 2nd flaw
  (back-propagation tracking).
* Everything a normal-world attacker *can* see — unprotected layers'
  weights, gradients and the activations crossing the boundary — is
  recorded in a :class:`~repro.core.leakage.CycleLeakage`, which is exactly
  the view the attacks in :mod:`repro.attacks` are evaluated against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, functional as F, grad
from ..nn.model import Sequential
from ..tee.costmodel import CostModel, CycleCost
from ..tee.iopath import TrustedIOPath
from ..tee.memory import SecureMemoryPool, ShieldedBuffer
from ..tee.monitor import SecureMonitor
from ..tee.trusted_app import TrustedApplication
from ..tee.world import TEEError
from .leakage import CycleLeakage
from .policy import NoProtection, ProtectionPolicy

__all__ = ["GradSecTA", "ShieldedModel"]

_FLOAT_BYTES = 4


def _as_tuple(value):
    """Normalise a single activation or a multi-stream tuple to a tuple.

    Transformer sublayers pass residual streams between each other as
    activation tuples; conv/fc layers pass single arrays.  Every boundary
    crossing below is written over this normalised form, so both families
    share one partitioned execution path.
    """
    return value if isinstance(value, tuple) else (value,)


class GradSecTA(TrustedApplication):
    """The enclave side of GradSec.

    Holds the protected layers' parameters in shielded buffers and executes
    their forward/backward/update steps.  All command handlers run in the
    secure world (the monitor guarantees it); they are the only code that
    ever sees protected plaintext.
    """

    def __init__(self, model: Sequential, pool: SecureMemoryPool) -> None:
        super().__init__(name=f"gradsec-{model.name}")
        self._model = model
        self._pool = pool
        self._buffers: Dict[Tuple[int, str], ShieldedBuffer] = {}
        self._scratch: Dict[int, int] = {}  # layer index -> pool handle
        self._forward_cache: Dict[
            Tuple[int, ...], Tuple[Tuple[Tensor, ...], Tuple[Tensor, ...]]
        ] = {}
        self._batch_size: Optional[int] = None
        self.register("protect", self._cmd_protect)
        self.register("provision", self._cmd_provision)
        self.register("forward_run", self._cmd_forward_run)
        self.register("backward_run", self._cmd_backward_run)
        self.register("export_weights", self._cmd_export_weights)
        self.register("release", self._cmd_release)

    # -- helpers ---------------------------------------------------------
    def protected_indices(self) -> FrozenSet[int]:
        return frozenset(index for index, _ in self._buffers)

    def _layer(self, index: int):
        return self._model.layer(index)

    def _scrub_normal_copy(self, index: int) -> None:
        for param in self._layer(index).params.values():
            param.data = np.zeros_like(param.data)

    def _allocate_scratch(self, index: int, batch_size: int) -> None:
        """Reserve enclave space for dW + A_{l-1} + Z_l + delta_l.

        Multi-stream layers charge every activation stream crossing the
        enclave boundary (summed by ``input_elems``/``output_elems``).
        """
        layer = self._layer(index)
        in_elems = layer.input_elems() * batch_size
        out_elems = layer.output_elems() * batch_size
        scratch_bytes = _FLOAT_BYTES * (layer.param_count + in_elems + 2 * out_elems)
        self._scratch[index] = self._pool.allocate(scratch_bytes)

    def _materialise(self, index: int) -> None:
        """Load shielded weights into the layer object (secure world only)."""
        for (li, name), buffer in self._buffers.items():
            if li == index:
                self._layer(index).params[name].data = buffer.read()

    def _capture_and_scrub(self, index: int) -> None:
        """Write possibly-updated weights back to buffers, scrub REE copy."""
        for (li, name), buffer in self._buffers.items():
            if li == index:
                buffer.write(self._layer(index).params[name].data)
        self._scrub_normal_copy(index)

    # -- commands ---------------------------------------------------------
    def _cmd_protect(self, indices: Tuple[int, ...], batch_size: int) -> None:
        """Move the named layers' weights from the model into the enclave."""
        for index in indices:
            layer = self._layer(index)
            for name, param in layer.params.items():
                self._buffers[(index, name)] = ShieldedBuffer(
                    self._pool,
                    param.data,
                    label=f"L{index}.{name}",
                    nbytes_override=param.data.size * _FLOAT_BYTES,
                )
            self._allocate_scratch(index, batch_size)
            self._scrub_normal_copy(index)
        self._batch_size = batch_size

    def _cmd_provision(self, blob: bytes, iopath: TrustedIOPath, batch_size: int) -> None:
        """Receive protected weights from the FL server (trusted I/O path)."""
        incoming = iopath.unseal_to_enclave(blob, self._pool)
        for (zero_based, name), buffer in incoming.items():
            index = zero_based + 1
            self._buffers[(index, name)] = buffer
        for index in {zb + 1 for zb, _ in incoming}:
            self._allocate_scratch(index, batch_size)
            self._scrub_normal_copy(index)
        self._batch_size = batch_size

    def _cmd_forward_run(self, indices: Tuple[int, ...], x) -> np.ndarray:
        """Forward through a run of consecutive protected layers.

        ``x`` is one activation array or a tuple of stream arrays; the
        return value mirrors the run's own output arity.
        """
        in_tensors = tuple(
            Tensor(np.asarray(a), requires_grad=indices[0] != 1) for a in _as_tuple(x)
        )
        out = in_tensors[0] if len(in_tensors) == 1 else in_tensors
        for index in indices:
            self._materialise(index)
            out = self._layer(index)(out)
        for index in indices:
            self._scrub_normal_copy(index)
        outs = _as_tuple(out)
        self._forward_cache[tuple(indices)] = (in_tensors, outs)
        if len(outs) == 1:
            return outs[0].data.copy()
        return tuple(o.data.copy() for o in outs)

    def _cmd_backward_run(self, indices: Tuple[int, ...], gout, lr: float):
        """Backward through a protected run; update weights in-enclave.

        ``gout`` carries one seed per output stream; the returned input
        gradient mirrors the run's input arity — None for a run starting at
        layer 1: nobody consumes dX, a function of protected ``W1``/``delta_1``.
        """
        cached = self._forward_cache.pop(tuple(indices), None)
        if cached is None:
            raise TEEError(
                f"backward_run for {indices} without a preceding forward_run"
            )
        in_tensors, outs = cached
        # Re-materialise weights: the graph holds references to the param
        # tensors, whose data was scrubbed after forward.
        for index in indices:
            self._materialise(index)
        params: List[Tensor] = []
        keys: List[Tuple[int, str]] = []
        for index in indices:
            for name in sorted(self._layer(index).params):
                params.append(self._layer(index).params[name])
                keys.append((index, name))
        seeds = [Tensor(np.asarray(g)) for g in _as_tuple(gout)]
        wanted = [t for t in in_tensors if t.requires_grad]
        results = grad(list(outs), wanted + params, grad_outputs=seeds)
        gins, param_grads = results[: len(wanted)], results[len(wanted):]
        # SGD update inside the enclave (formula (1) of the paper).
        for (index, name), g in zip(keys, param_grads):
            param = self._layer(index).params[name]
            param.data = param.data - lr * g.data
        for index in indices:
            self._capture_and_scrub(index)
        if not gins:
            return None
        if len(gins) == 1:
            return gins[0].data.copy()
        return tuple(g.data.copy() for g in gins)

    def _cmd_export_weights(self, iopath: TrustedIOPath) -> bytes:
        """Seal the protected layers' current weights for the FL server."""
        zero_based = {
            (index - 1, name): buffer for (index, name), buffer in self._buffers.items()
        }
        return iopath.seal_from_enclave(zero_based, self._model.num_layers)

    def _cmd_release(self, restore: bool) -> None:
        """Free enclave memory; hand weights back to the model only if asked.

        Nothing is returned in either mode: the reply crosses to the normal
        world, and ``W_after - W_before`` over ``lr`` is the mean gradient.
        """
        for (index, name), buffer in self._buffers.items():
            if restore:
                self._layer(index).params[name].data = buffer.read()
            buffer.release()
        for handle in self._scratch.values():
            self._pool.release(handle)
        self._buffers.clear()
        self._scratch.clear()
        self._forward_cache.clear()


class ShieldedModel:
    """A model trained under a GradSec protection policy.

    Parameters
    ----------
    model:
        The underlying network (its layer indices are what the policy names).
    policy:
        Static/dynamic/DarkneTZ/no-op protection policy.
    pool:
        Secure memory pool (a fresh 4 MiB pool when omitted).
    monitor:
        Secure monitor; a private one is created when omitted.
    batch_size:
        Training batch size — fixes enclave scratch allocation sizes.
    cost_model:
        When provided, the trainer accrues simulated device time
        (user/kernel/alloc) per cycle, reproducing Table 6 accounting.
    compile_steps:
        Route fully-unprotected training steps through the graph VM
        (:mod:`repro.graph`).  Bitwise-identical to the eager path; cycles
        with a non-empty protected set always use the partitioned eager
        executor (the enclave boundary is the point of those cycles).
    """

    def __init__(
        self,
        model: Sequential,
        policy: Optional[ProtectionPolicy] = None,
        pool: Optional[SecureMemoryPool] = None,
        monitor: Optional[SecureMonitor] = None,
        batch_size: int = 32,
        cost_model: Optional[CostModel] = None,
        compile_steps: bool = False,
    ) -> None:
        self.model = model
        self.policy = policy or NoProtection(model)
        if self.policy.num_layers != model.num_layers:
            raise ValueError(
                f"policy is for {self.policy.num_layers} layers but model "
                f"has {model.num_layers}"
            )
        self.pool = pool or SecureMemoryPool()
        self.monitor = monitor or SecureMonitor()
        self.batch_size = int(batch_size)
        self.cost_model = cost_model
        self.ta = GradSecTA(model, self.pool)
        self.monitor.install(self.ta)
        self.cycle = 0
        self._protected: FrozenSet[int] = frozenset()
        self._in_cycle = False
        self.history: List[CycleLeakage] = []
        self.simulated_cost = CycleCost(0.0, 0.0, 0.0, 0)
        self.compile_steps = bool(compile_steps)
        self._compiled_step = None  # (CompiledStep, VM) for the last shape

    # ------------------------------------------------------------------
    @property
    def protected_layers(self) -> FrozenSet[int]:
        return self._protected

    def begin_cycle(
        self,
        sealed_weights: Optional[bytes] = None,
        iopath: Optional[TrustedIOPath] = None,
        cycle: Optional[int] = None,
    ) -> FrozenSet[int]:
        """Start an FL cycle: pick the protected set and provision enclave.

        With ``sealed_weights``/``iopath``, protected weights arrive from
        the FL server through the trusted I/O path; otherwise the current
        local weights are moved into the enclave.  Passing ``cycle``
        synchronises this trainer's cycle counter with the FL server's (the
        dynamic policy draw is deterministic in the cycle number, so server
        and client agree on the window position).
        """
        if self._in_cycle:
            raise RuntimeError("begin_cycle called twice without end_cycle")
        if cycle is not None:
            self.cycle = int(cycle)
        self._protected = self.policy.layers_for_cycle(self.cycle)
        self.pool.reset_peak()
        if self._protected:
            if sealed_weights is not None:
                if iopath is None:
                    raise ValueError("sealed weights require an iopath")
                self.monitor.smc(
                    self.ta.uuid,
                    "provision",
                    blob=sealed_weights,
                    iopath=iopath,
                    batch_size=self.batch_size,
                )
            else:
                self.monitor.smc(
                    self.ta.uuid,
                    "protect",
                    indices=tuple(sorted(self._protected)),
                    batch_size=self.batch_size,
                )
        self._in_cycle = True
        self._cycle_leakage = CycleLeakage(
            cycle=self.cycle,
            protected=self._protected,
            num_layers=self.model.num_layers,
        )
        self._cycle_leakage.record_weights_before(self.model, self._protected)
        if self.cost_model is not None:
            alloc = sum(
                self.cost_model.profile.alloc_seconds(
                    self.model.layer(i).weight_param_count
                )
                for i in self._protected
            )
            self.simulated_cost = self.simulated_cost.plus(CycleCost(0.0, 0.0, alloc, 0))
        return self._protected

    def _runs(self) -> List[Tuple[Tuple[int, ...], bool]]:
        """Split layer indices into maximal runs of (indices, is_protected)."""
        runs: List[Tuple[Tuple[int, ...], bool]] = []
        index = 1
        n = self.model.num_layers
        while index <= n:
            is_protected = index in self._protected
            run = [index]
            index += 1
            while index <= n and (index in self._protected) == is_protected:
                run.append(index)
                index += 1
            runs.append((tuple(run), is_protected))
        return runs

    def _accrue_step_cost(self, batch: int) -> None:
        """Simulated user/kernel time for one step (Table 6 accounting)."""
        factor = self.cost_model.profile.training_flops_factor()
        user = kernel = 0.0
        for i in range(1, self.model.num_layers + 1):
            flops = self.model.layer(i).flops_per_sample() * factor * batch
            if i in self._protected:
                kernel += flops * self.cost_model.profile.tee_seconds_per_flop
            else:
                user += flops * self.cost_model.profile.ree_seconds_per_flop
        kernel += len(self._protected) * self.cost_model.profile.world_switch_seconds
        self.simulated_cost = self.simulated_cost.plus(CycleCost(user, kernel, 0.0, 0))

    def _train_step_compiled(
        self, x: np.ndarray, y_onehot: np.ndarray, lr: float
    ) -> float:
        """Unprotected step through the graph VM (bitwise == eager path).

        The eager unprotected path computes every parameter gradient before
        applying any update, in ascending (layer, sorted key) order — the
        exact contract the compiled program replays, so leakage records and
        weights match the eager step bit for bit.
        """
        from ..graph.vm import compile_model_step

        step = compile_model_step(self.model, x, y_onehot)
        cached = self._compiled_step
        if cached is None or cached[0] is not step:
            # VM instances hold mutable scratch, so each ShieldedModel (one
            # per client / thread) owns its own.
            self._compiled_step = (step, step.make_vm())
        step, vm = self._compiled_step
        loss, grads = step.run_step(vm, self.model, x, y_onehot)
        for (li, name), g in zip(step.param_index, grads):
            self._cycle_leakage.record_gradient(li + 1, name, g)
            param = self.model.layers[li].params[name]
            param.data = param.data - lr * g
        if self.cost_model is not None:
            self._accrue_step_cost(x.shape[0])
        return loss

    def train_step(self, x: np.ndarray, y_onehot: np.ndarray, lr: float = 0.1) -> float:
        """One SGD step with partitioned execution; returns the loss."""
        if not self._in_cycle:
            raise RuntimeError("train_step outside begin_cycle/end_cycle")
        x = np.asarray(x)
        y_onehot = np.asarray(y_onehot)
        if self.compile_steps and not self._protected:
            return self._train_step_compiled(x, y_onehot, lr)
        runs = self._runs()

        # Forward: normal-world runs execute locally; protected runs via SMC.
        # ``current`` is one activation array or a tuple of stream arrays —
        # transformer sublayers thread residual streams across boundaries.
        activations: List[Optional[Tuple[Tuple[Tensor, ...], Tuple[Tensor, ...]]]] = []
        current = x
        for indices, is_protected in runs:
            if is_protected:
                current = self.monitor.smc(
                    self.ta.uuid, "forward_run", indices=indices, x=current
                )
                activations.append(None)
            else:
                in_tensors = tuple(
                    Tensor(a, requires_grad=indices[0] != 1) for a in _as_tuple(current)
                )
                out = in_tensors[0] if len(in_tensors) == 1 else in_tensors
                for index in indices:
                    out = self.model.layer(index)(out)
                outs = _as_tuple(out)
                activations.append((in_tensors, outs))
                current = (
                    outs[0].data
                    if len(outs) == 1
                    else tuple(o.data for o in outs)
                )

        logits = Tensor(current, requires_grad=True)
        loss = F.cross_entropy(logits, Tensor(y_onehot))
        (gout,) = grad(loss, [logits])
        gout_data = gout.data

        # Backward: walk the runs in reverse, passing delta across borders.
        for (indices, is_protected), cached in zip(reversed(runs), reversed(activations)):
            if is_protected:
                gout_data = self.monitor.smc(
                    self.ta.uuid,
                    "backward_run",
                    indices=indices,
                    gout=gout_data,
                    lr=lr,
                )
            else:
                in_tensors, outs = cached
                params: List[Tensor] = []
                keys: List[Tuple[int, str]] = []
                for index in indices:
                    layer = self.model.layer(index)
                    for name in sorted(layer.params):
                        params.append(layer.params[name])
                        keys.append((index, name))
                seeds = [Tensor(g) for g in _as_tuple(gout_data)]
                wanted = [t for t in in_tensors if t.requires_grad]
                results = grad(list(outs), wanted + params, grad_outputs=seeds)
                gins = results[: len(wanted)]
                param_grads = results[len(wanted):]
                for (index, name), g in zip(keys, param_grads):
                    self._cycle_leakage.record_gradient(index, name, g.data)
                    param = self.model.layer(index).params[name]
                    param.data = param.data - lr * g.data
                gout_data = (
                    gins[0].data
                    if len(gins) == 1
                    else tuple(g.data for g in gins)  # () after the first run
                )

        if self.cost_model is not None:
            self._accrue_step_cost(x.shape[0])
        return float(loss.item())

    def end_cycle(self, restore: bool = True) -> CycleLeakage:
        """Finish the cycle and free enclave memory.

        ``restore=True`` hands the protected layers' updated weights back to
        the normal-world model — convenient for local experiments.  In the
        FL deployment the client calls ``restore=False``: protected weights
        only ever leave the enclave sealed for the server (trusted I/O
        path), so the normal world never sees them at any point.
        """
        if not self._in_cycle:
            raise RuntimeError("end_cycle without begin_cycle")
        if self._protected:
            self.monitor.smc(self.ta.uuid, "release", restore=restore)
        self._cycle_leakage.record_weights_after(self.model, self._protected)
        self._cycle_leakage.peak_tee_bytes = self.pool.peak_bytes
        self.history.append(self._cycle_leakage)
        leakage = self._cycle_leakage
        self._in_cycle = False
        self.cycle += 1
        return leakage

    def export_update(self, iopath: TrustedIOPath) -> Tuple[bytes, List[Dict[str, np.ndarray]]]:
        """FL update for the server: sealed protected part + plain rest.

        Must be called while the cycle is open (protected weights are still
        in the enclave).  Returns ``(sealed_blob, plain_weights)`` where the
        plain list has ``None``-like empty dicts at protected positions.
        """
        if not self._in_cycle:
            raise RuntimeError("export_update outside an open cycle")
        sealed = (
            self.monitor.smc(self.ta.uuid, "export_weights", iopath=iopath)
            if self._protected
            else iopath.seal([dict() for _ in range(self.model.num_layers)])
        )
        plain: List[Dict[str, np.ndarray]] = []
        for i in range(1, self.model.num_layers + 1):
            if i in self._protected:
                plain.append({})
            else:
                plain.append(self.model.layer(i).get_weights())
        return sealed, plain
