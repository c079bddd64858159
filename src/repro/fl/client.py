"""FL client.

A client owns a data shard (kept in TrustZone secure storage between
cycles, per §5), a local model, and — when TEE-capable — a
:class:`~repro.core.ShieldedModel` that executes protected training.  The
per-cycle flow matches Figure 2: receive the model (protected layers
sealed, through the trusted I/O path), train locally under the protection
policy, and return the update (protected layers sealed again).
"""

from __future__ import annotations

import io
from typing import Optional

import numpy as np

from ..core.leakage import CycleLeakage
from ..core.policy import NoProtection, ProtectionPolicy
from ..core.shielded import ShieldedModel
from ..data.datasets import ArrayDataset
from ..nn.model import Sequential
from ..obs import get_registry, get_tracer
from ..tee.attestation import AttestationDevice, Quote
from ..tee.costmodel import CostModel
from ..tee.memory import SecureMemoryPool
from ..tee.iopath import TrustedIOPath
from ..tee.storage import SecureStorage
from .plan import TrainingPlan
from .transport import ClientUpdate, ModelDownload

__all__ = ["DEVICE_DTYPE", "FLClient"]

#: The client device's training precision.  The paper evaluates GradSec on
#: a Raspberry Pi 3B+ running Darknet, which trains in float32, and the
#: secure-memory model charges ``W + dW + A_{l-1} + Z_l + delta_l`` at four
#: bytes an element.  A constant, not a setting: it is the device's.
DEVICE_DTYPE = np.float32


def _dataset_to_bytes(dataset: ArrayDataset) -> bytes:
    buffer = io.BytesIO()
    arrays = {
        "x": dataset.x.astype(DEVICE_DTYPE),
        "y": dataset.y,
        "num_classes": np.array(dataset.num_classes),
    }
    if dataset.properties is not None:
        arrays["properties"] = dataset.properties
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _dataset_from_bytes(blob: bytes, name: str) -> ArrayDataset:
    with np.load(io.BytesIO(blob)) as archive:
        properties = archive["properties"] if "properties" in archive.files else None
        return ArrayDataset(
            archive["x"], archive["y"], int(archive["num_classes"]), properties, name=name
        )


class FLClient:
    """One federated-learning participant.

    Parameters
    ----------
    client_id:
        Unique identifier.
    dataset:
        The client's private shard; it is immediately sealed into secure
        storage at :data:`DEVICE_DTYPE` and reloaded (with integrity
        verification) each cycle.
    model:
        Local model (same architecture as the global model).  The client
        trains a copy of it at :data:`DEVICE_DTYPE`; the caller's model is
        never converted or trained.
    policy:
        Protection policy (server-chosen); ``None`` means no protection.
    has_tee:
        Legacy clients set this False; they cannot run protected training.
    cost_model:
        Optional device cost model for simulated-time accounting.
    seed:
        Batch-sampling seed (ignored when ``rng`` is given).
    rng:
        Pre-seeded generator to sample batches from — lets a harness thread
        one generator through a whole deployment instead of per-client
        seeds.
    """

    def __init__(
        self,
        client_id: str,
        dataset: ArrayDataset,
        model: Sequential,
        policy: Optional[ProtectionPolicy] = None,
        has_tee: bool = True,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.client_id = client_id
        self.model = model.astype(DEVICE_DTYPE)
        self.tee_capable = bool(has_tee)
        self.device = AttestationDevice(client_id)
        self.storage = SecureStorage()
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        policy = policy or NoProtection(self.model)
        if policy.layers_for_cycle(0) and not self.tee_capable:
            raise ValueError(
                f"client {client_id} has no TEE but the policy protects layers"
            )
        # A client-named pool makes per-device secure memory observable
        # (metric series tee.pool.*{pool=<client_id>}).
        self.shielded = ShieldedModel(
            self.model,
            policy,
            pool=SecureMemoryPool(name=client_id),
            cost_model=cost_model,
        )
        self.iopath = TrustedIOPath()
        self._data_key = "training-data"
        self.storage.put(
            self.shielded.ta.uuid, self._data_key, _dataset_to_bytes(dataset)
        )
        self.num_samples = len(dataset)
        # The latest cycle's record only: an archive would grow per cycle.
        self.last_leakage: Optional[CycleLeakage] = None

    # -- selection-protocol surface --------------------------------------
    def has_tee(self) -> bool:
        return self.tee_capable

    def attest(self, nonce: bytes) -> Quote:
        """Quote over the GradSec TA for the server's verifier."""
        return self.device.quote(self.shielded.ta, nonce)

    def ta_measurement(self) -> str:
        return self.shielded.ta.measurement()

    # -- training ---------------------------------------------------------
    def _load_data(self) -> ArrayDataset:
        """Fetch, verify and decode the shard from secure storage.

        :class:`~repro.tee.storage.SecureStorage` integrity-checks the sealed
        blob on every fetch, so tampering and rollback are detected each
        cycle.  The decode is not cached: it costs less than hashing the
        blob to key a cache would, and a cache would pin one decoded shard
        per client between cycles.
        """
        blob = self.storage.get(self.shielded.ta.uuid, self._data_key)
        return _dataset_from_bytes(blob, name=f"{self.client_id}-shard")

    def run_cycle(self, download: ModelDownload, plan: TrainingPlan) -> ClientUpdate:
        """Execute one FL cycle and return the (partially sealed) update."""
        with get_tracer().span(
            "fl.client.train", client=self.client_id, cycle=download.cycle
        ):
            # Install the unprotected layers from the plain part.
            for index, layer_weights in enumerate(download.plain_weights, start=1):
                if layer_weights:
                    self.model.layer(index).set_weights(layer_weights)

            self.shielded.batch_size = plan.batch_size
            protected = self.shielded.begin_cycle(
                sealed_weights=download.sealed_weights,
                iopath=self.iopath if download.sealed_weights is not None else None,
                cycle=download.cycle,
            )
            try:
                dataset = self._load_data()
                batches = dataset.batches(
                    plan.batch_size, rng=self._rng, drop_last=False
                )
                steps = 0
                for batch in batches:
                    self.shielded.train_step(batch.x, batch.y, lr=plan.lr)
                    steps += 1
                    if steps >= plan.local_steps:
                        break

                with get_tracer().span(
                    "fl.client.upload", client=self.client_id, cycle=download.cycle
                ):
                    sealed, plain = self.shielded.export_update(self.iopath)
            except BaseException:
                # A failed cycle still closes: the TA frees its pool and
                # nothing leaves it, so the next cycle can begin.
                self.shielded.end_cycle(restore=False)
                raise
            leakage = self.shielded.end_cycle(restore=False)
        self.last_leakage = leakage
        get_registry().counter(
            "fl.client.steps", "local SGD steps executed"
        ).inc(steps, client=self.client_id)
        return ClientUpdate(
            client_id=self.client_id,
            cycle=download.cycle,
            num_samples=self.num_samples,
            plain_weights=plain,
            sealed_weights=sealed if protected else None,
        )
