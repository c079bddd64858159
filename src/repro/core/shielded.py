"""Partitioned (shielded) training — the GradSec mechanism itself.

A :class:`ShieldedModel` wraps a :class:`~repro.nn.Sequential` and executes
each training step layer by layer, routing protected layers through the
secure monitor into a GradSec trusted application:

* Protected layers' weights live only in enclave :class:`ShieldedBuffer`\\ s,
  which the TA's own copies of those layers train in place; the
  normal-world copies are zeroed once, at protect, and never touched again.
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

import copy
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


def _untuple(arrays):
    """Inverse of :func:`_as_tuple`: one array stays bare, else a tuple."""
    return arrays[0] if len(arrays) == 1 else tuple(arrays)


def _run_forward(layer_at, indices: Tuple[int, ...], x):
    """Forward through the run of consecutive layers ``indices``.

    The one run executor both worlds share; ``layer_at(index)`` is the
    world's own layer lookup: ``Sequential.layer`` in the normal world,
    the TA's copies over its shielded buffers in the enclave.  ``x`` is one
    activation array or a tuple of stream arrays; the inputs require grad
    unless the run starts at layer 1 (nobody consumes the batch gradient).
    Returns ``(in_tensors, outs)``, the graph :func:`_run_backward` needs.
    """
    in_tensors = tuple(Tensor(a, requires_grad=indices[0] != 1) for a in _as_tuple(x))
    out = in_tensors[0] if len(in_tensors) == 1 else in_tensors
    for index in indices:
        out = layer_at(index)(out)
    return in_tensors, _as_tuple(out)


def _run_backward(layer_at, indices, cached, gout, lr, record=None) -> List[np.ndarray]:
    """Backward through a run and apply SGD (the paper's formula (1)).

    ``cached`` is :func:`_run_forward`'s result and ``gout`` carries one
    seed per output stream.  Parameters are differentiated, then updated
    in place in (layer, sorted key) order; ``record(index, name, grad)``,
    when given, sees each gradient before its update.  Returns the input
    gradients — empty for a run starting at L1.
    """
    in_tensors, outs = cached
    keys = [(i, name) for i in indices for name in sorted(layer_at(i).params)]
    params = [layer_at(i).params[name] for i, name in keys]
    seeds = [Tensor(g) for g in _as_tuple(gout)]
    wanted = [t for t in in_tensors if t.requires_grad]
    results = grad(list(outs), wanted + params, grad_outputs=seeds)
    for (index, name), param, g in zip(keys, params, results[len(wanted):]):
        if record is not None:
            record(index, name, g.data)
        np.subtract(param.data, lr * g.data, out=param.data)
    return [g.data for g in results[: len(wanted)]]


class GradSecTA(TrustedApplication):
    """The enclave side of GradSec.

    Owns the protected layers: their parameters in shielded buffers, and
    its own copy of each layer whose parameter tensors are those buffers.
    All command handlers run in the secure world (the monitor guarantees
    it); they are the only code that ever sees protected plaintext.
    """

    def __init__(self, model: Sequential, pool: SecureMemoryPool) -> None:
        super().__init__(name=f"gradsec-{model.name}")
        self._model = model
        self._pool = pool
        self._buffers: Dict[Tuple[int, str], ShieldedBuffer] = {}
        self._layers: Dict[int, object] = {}  # layer index -> the TA's own copy
        self._scratch: Dict[int, int] = {}  # layer index -> pool handle
        self._forward_cache: Dict[Tuple[int, ...], tuple] = {}  # run -> graph
        self.register("protect", self._cmd_protect)
        self.register("provision", self._cmd_provision)
        self.register("forward_run", self._cmd_forward_run)
        self.register("backward_run", self._cmd_backward_run)
        self.register("export_weights", self._cmd_export_weights)
        self.register("release", self._cmd_release)

    # -- helpers ---------------------------------------------------------
    def _refuse_held(self, indices, incoming=()) -> None:
        """Refuse to take in a layer the TA already holds, freeing ``incoming``."""
        held = sorted(set(indices) & set(self._layers))
        if held:
            for buffer in incoming:
                buffer.release()
            raise TEEError(f"layer {held[0]} is already protected")

    def _take(self, indices, buffers: Dict[Tuple[int, str], ShieldedBuffer], batch_size) -> None:
        """Hold layers ``indices`` over ``buffers``; zero the normal world's copies.

        Each TA layer is a shallow copy over the buffers' payloads, so SGD
        updates them in place.  Scratch is dW + A_{l-1} + Z_l + delta_l.
        """
        self._buffers.update(buffers)
        for index in sorted(set(indices)):
            layer = self._model.layer(index)
            own = copy.copy(layer)
            own.params = {
                name: Tensor(b.view(), requires_grad=True)
                for (at, name), b in buffers.items() if at == index
            }
            self._layers[index] = own
            for param in layer.params.values():
                param.data = np.zeros_like(param.data)
            in_elems = layer.input_elems() * batch_size
            out_elems = layer.output_elems() * batch_size
            scratch_bytes = _FLOAT_BYTES * (layer.param_count + in_elems + 2 * out_elems)
            self._scratch[index] = self._pool.allocate(scratch_bytes)

    def _held(self, indices: Tuple[int, ...]):
        """The TA's layer lookup for a run; refuses a layer it does not hold."""
        for index in indices:
            if index not in self._layers:
                raise TEEError(f"layer {index} is not protected")
        return self._layers.__getitem__

    # -- commands ---------------------------------------------------------
    def _cmd_protect(self, indices: Tuple[int, ...], batch_size: int) -> None:
        """Move the named layers' weights from the model into the enclave."""
        self._refuse_held(indices)
        buffers = {
            (index, name): ShieldedBuffer(
                self._pool,
                param.data,
                label=f"L{index}.{name}",
                nbytes_override=param.data.size * _FLOAT_BYTES,
            )
            for index in indices
            for name, param in self._model.layer(index).params.items()
        }
        self._take(indices, buffers, batch_size)

    def _cmd_provision(self, protected, blob: bytes, iopath: TrustedIOPath, batch_size) -> None:
        """Receive protected weights from the FL server (trusted I/O path).

        ``protected`` names parameter-free layers too, which a blob cannot
        carry; a blob naming a layer the TA holds is freed and refused.
        """
        incoming = iopath.unseal_to_enclave(blob, self._pool, self._model.dtype)
        buffers = {(zero_based + 1, name): b for (zero_based, name), b in incoming.items()}
        indices = set(protected) | {index for index, _ in buffers}
        self._refuse_held(indices, buffers.values())
        self._take(indices, buffers, batch_size)

    def _cmd_forward_run(self, indices: Tuple[int, ...], x):
        """Forward through a run of consecutive protected layers.

        ``x`` is one activation array or a tuple of stream arrays; the
        return value mirrors the run's own output arity.
        """
        in_tensors, outs = _run_forward(self._held(indices), indices, x)
        self._forward_cache[tuple(indices)] = (in_tensors, outs)
        return _untuple([o.data.copy() for o in outs])

    def _cmd_backward_run(self, indices: Tuple[int, ...], gout, lr: float):
        """Backward through a protected run; update weights in-enclave.

        ``gout`` carries one seed per output stream; the returned input
        gradient mirrors the run's input arity — None for a run starting at
        layer 1: nobody consumes dX, a function of protected ``W1``/``delta_1``.
        """
        layer_at = self._held(indices)
        cached = self._forward_cache.pop(tuple(indices), None)
        if cached is None:
            raise TEEError(f"backward_run for {indices} without a preceding forward_run")
        gins = _run_backward(layer_at, indices, cached, gout, lr)
        if not gins:
            return None
        return _untuple([g.copy() for g in gins])

    def _cmd_export_weights(self, iopath: TrustedIOPath) -> bytes:
        """Seal the protected layers' current weights for the FL server."""
        zero_based = {(index - 1, name): b for (index, name), b in self._buffers.items()}
        return iopath.seal_from_enclave(zero_based, self._model.num_layers)

    def _cmd_release(self, restore: bool) -> None:
        """Free enclave memory; hand weights back to the model only if asked.

        Nothing is returned in either mode: the reply crosses to the normal
        world, and ``W_after - W_before`` over ``lr`` is the mean gradient.
        """
        for (index, name), buffer in self._buffers.items():
            if restore:
                self._model.layer(index).params[name].data = buffer.read()
            buffer.release()
        for handle in self._scratch.values():
            self._pool.release(handle)
        self._buffers.clear()
        self._layers.clear()
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
    """

    def __init__(
        self,
        model: Sequential,
        policy: Optional[ProtectionPolicy] = None,
        pool: Optional[SecureMemoryPool] = None,
        monitor: Optional[SecureMonitor] = None,
        batch_size: int = 32,
        cost_model: Optional[CostModel] = None,
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
        self.simulated_cost = CycleCost(0.0, 0.0, 0.0, 0)

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
            indices = tuple(sorted(self._protected))
            if sealed_weights is None:
                self.monitor.smc(
                    self.ta.uuid, "protect", indices=indices, batch_size=self.batch_size
                )
            elif iopath is None:
                raise ValueError("sealed weights require an iopath")
            else:
                self.monitor.smc(
                    self.ta.uuid,
                    "provision",
                    protected=indices,
                    blob=sealed_weights,
                    iopath=iopath,
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
            self.simulated_cost = self.simulated_cost.plus(
                self.cost_model.alloc_cost(self.model, self._protected)
            )
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

    def train_step(self, x: np.ndarray, y_onehot: np.ndarray, lr: float = 0.1) -> float:
        """One SGD step with partitioned execution; returns the loss."""
        if not self._in_cycle:
            raise RuntimeError("train_step outside begin_cycle/end_cycle")
        dtype = self.model.dtype  # the batch trains at the model's precision
        x = np.asarray(x, dtype=dtype)
        y_onehot = np.asarray(y_onehot, dtype=dtype)
        runs = self._runs()

        # Forward: normal-world runs execute locally; protected runs via SMC.
        # ``current`` is one activation array or a tuple of stream arrays —
        # transformer sublayers thread residual streams across boundaries.
        activations: List[Optional[tuple]] = []  # per run: its graph, None if protected
        current = x
        for indices, is_protected in runs:
            if is_protected:
                current = self.monitor.smc(
                    self.ta.uuid, "forward_run", indices=indices, x=current
                )
                activations.append(None)
            else:
                cached = _run_forward(self.model.layer, indices, current)
                activations.append(cached)
                current = _untuple([o.data for o in cached[1]])

        logits = Tensor(current, requires_grad=True)
        loss = F.cross_entropy(logits, Tensor(y_onehot))
        (gout,) = grad(loss, [logits])
        gout_data = gout.data

        # Backward: walk the runs in reverse, passing delta across borders.
        for (indices, is_protected), cached in zip(reversed(runs), reversed(activations)):
            if is_protected:
                gout_data = self.monitor.smc(
                    self.ta.uuid, "backward_run", indices=indices, gout=gout_data, lr=lr
                )
            else:
                record = self._cycle_leakage.record_gradient
                gins = _run_backward(self.model.layer, indices, cached, gout_data, lr, record)
                gout_data = _untuple(gins)  # () after the first run

        if self.cost_model is not None:
            self.simulated_cost = self.simulated_cost.plus(
                self.cost_model.step_cost(self.model, self._protected, x.shape[0])
            )
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
