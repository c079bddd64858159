"""Federated learning stack: server, clients, aggregation, selection.

Implements the workflow of the paper's Figure 2 end to end, including the
attestation-gated client selection, the trusted-I/O-path weight transport,
and a server-side differential-privacy baseline.
"""

from .. import _lazy_exports

__all__ = [
    "FLServer", "FLClient", "TrainingPlan",
    "RetryPolicy", "collect_with_retries",
    "fedavg", "merge_plain_and_sealed",
    "CompensatedAccumulator",
    "ServerConfig", "RoundConfig", "ShardingConfig",
    "BufferConfig", "BufferedAggregator",
    "HierarchicalAggregator", "ShardPartial",
    "shard_of",
    "TEESelector", "SelectionResult",
    "Channel", "ClientUpdate", "ModelDownload",
    "GaussianMechanism", "clip_by_norm",
    "TopKCompressor", "SparseUpdate",
    "RULES", "coordinate_median", "trimmed_mean", "krum", "krum_index",
    "clipped_mean", "apply_rule",
    "AdmissionConfig", "AdmissionController", "AdmissionDecision",
    "ReputationConfig", "ReputationTracker",
    "RobustShardPartial", "RobustShardCollector",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "admission": (
        "AdmissionConfig",
        "AdmissionController",
        "AdmissionDecision",
        "ReputationConfig",
        "ReputationTracker",
    ),
    "aggregation": ("CompensatedAccumulator", "fedavg", "merge_plain_and_sealed"),
    "buffer": ("BufferedAggregator",),
    "client": ("FLClient",),
    "compression": ("SparseUpdate", "TopKCompressor"),
    "config": ("BufferConfig", "RoundConfig", "ServerConfig", "ShardingConfig"),
    "dp": ("GaussianMechanism", "clip_by_norm"),
    "plan": ("TrainingPlan",),
    "resilience": ("RetryPolicy", "collect_with_retries"),
    "robust": (
        "RULES",
        "apply_rule",
        "clipped_mean",
        "coordinate_median",
        "krum",
        "krum_index",
        "trimmed_mean",
    ),
    "selection": ("SelectionResult", "TEESelector"),
    "server": ("FLServer",),
    "sharding": (
        "HierarchicalAggregator",
        "RobustShardCollector",
        "RobustShardPartial",
        "ShardPartial",
        "shard_of",
    ),
    "transport": ("Channel", "ClientUpdate", "ModelDownload"),
})
