"""Parameterized client-network model.

Each simulated participant gets a fixed last-mile profile — propagation
latency and uplink/downlink bandwidth — drawn once from a seeded
``numpy.random.Generator``.  Transfer time is then a pure function of the
payload size the FL transport actually reports
(:meth:`~repro.fl.transport.ModelDownload.wire_bytes` /
:meth:`~repro.fl.transport.ClientUpdate.wire_bytes`), so shrinking a model
or sealing fewer layers measurably shortens simulated rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkModel"]


@dataclass
class NetworkModel:
    """Per-client latency/bandwidth table indexed by client position.

    Attributes
    ----------
    latency_seconds:
        One-way propagation delay per client (charged once per message).
    bandwidth_bytes_per_second:
        Link throughput per client (same both directions — mobile uplink
        asymmetry is a calibration knob, not a structural one).
    """

    latency_seconds: np.ndarray
    bandwidth_bytes_per_second: np.ndarray

    def __post_init__(self) -> None:
        self.latency_seconds = np.asarray(self.latency_seconds, dtype=np.float64)
        self.bandwidth_bytes_per_second = np.asarray(
            self.bandwidth_bytes_per_second, dtype=np.float64
        )
        if self.latency_seconds.shape != self.bandwidth_bytes_per_second.shape:
            raise ValueError("latency and bandwidth tables must align")
        if (self.latency_seconds < 0).any():
            raise ValueError("latencies cannot be negative")
        if (self.bandwidth_bytes_per_second <= 0).any():
            raise ValueError("bandwidths must be positive")

    @classmethod
    def sample(
        cls,
        num_clients: int,
        rng: np.random.Generator,
        median_latency_seconds: float = 0.08,
        latency_sigma: float = 0.6,
        min_bandwidth: float = 0.5e6,
        max_bandwidth: float = 8e6,
    ) -> "NetworkModel":
        """Draw a fleet of client links from a seeded generator.

        Latency is log-normal (long tail of bad links, like real mobile
        populations); bandwidth is uniform between the two bounds.  The same
        generator state always yields the same fleet.
        """
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        latency = rng.lognormal(
            mean=math.log(median_latency_seconds), sigma=latency_sigma, size=num_clients
        )
        bandwidth = rng.uniform(min_bandwidth, max_bandwidth, size=num_clients)
        return cls(latency, bandwidth)

    def transfer_seconds(self, client_index: int, num_bytes: int) -> float:
        """Simulated one-way transfer time of ``num_bytes`` to/from a client."""
        if num_bytes < 0:
            raise ValueError("num_bytes cannot be negative")
        return float(
            self.latency_seconds[client_index]
            + num_bytes / self.bandwidth_bytes_per_second[client_index]
        )
