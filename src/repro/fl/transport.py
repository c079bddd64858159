"""FL message types and an in-memory transport with traffic accounting.

The normal world relays all messages, so everything in a message is
attacker-visible **except** the sealed blobs produced by the trusted I/O
path (they are ciphertext to the normal world).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn.serialize import weights_to_bytes
from ..obs import get_registry

__all__ = ["ModelDownload", "ClientUpdate", "Channel"]


@dataclass
class ModelDownload:
    """Server -> client: the global model for one cycle.

    ``plain_weights`` holds the unprotected layers (empty dicts at protected
    positions); ``sealed_weights`` is the trusted-I/O-path ciphertext of the
    protected layers (None when nothing is protected).
    """

    cycle: int
    plain_weights: List[Dict[str, np.ndarray]]
    sealed_weights: Optional[bytes] = None

    def wire_bytes(self) -> int:
        size = len(weights_to_bytes(self.plain_weights))
        if self.sealed_weights is not None:
            size += len(self.sealed_weights)
        return size


@dataclass
class ClientUpdate:
    """Client -> server: locally trained weights for one cycle."""

    client_id: str
    cycle: int
    num_samples: int
    plain_weights: List[Dict[str, np.ndarray]]
    sealed_weights: Optional[bytes] = None

    def wire_bytes(self) -> int:
        size = len(weights_to_bytes(self.plain_weights))
        if self.sealed_weights is not None:
            size += len(self.sealed_weights)
        return size


@dataclass
class Channel:
    """In-memory link accumulating traffic statistics.

    Besides the local tallies, every send increments the process-wide
    ``fl.bytes.down`` / ``fl.bytes.up`` counters, labelled per client when
    the caller says who the message is for — so ``repro trace`` can break
    fleet traffic down by participant.
    """

    downlink_bytes: int = 0
    uplink_bytes: int = 0
    downloads: int = 0
    uploads: int = 0

    def send_download(
        self, message: ModelDownload, client_id: Optional[str] = None
    ) -> ModelDownload:
        size = message.wire_bytes()
        self.downlink_bytes += size
        self.downloads += 1
        labels = {"client": client_id} if client_id is not None else {}
        get_registry().counter(
            "fl.bytes.down", "bytes the server sent to clients"
        ).inc(size, **labels)
        return message

    def send_update(self, message: ClientUpdate) -> ClientUpdate:
        size = message.wire_bytes()
        self.uplink_bytes += size
        self.uploads += 1
        get_registry().counter(
            "fl.bytes.up", "bytes clients sent to the server"
        ).inc(size, client=message.client_id)
        return message

