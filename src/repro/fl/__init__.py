"""Federated learning stack: server, clients, aggregation, selection.

Implements the workflow of the paper's Figure 2 end to end, including the
attestation-gated client selection, the trusted-I/O-path weight transport,
and a server-side differential-privacy baseline.
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    ReputationConfig,
    ReputationTracker,
)
from .aggregation import (
    CompensatedAccumulator,
    fedavg,
    merge_plain_and_sealed,
)
from .buffer import BufferedAggregator
from .client import FLClient
from .compression import SparseUpdate, TopKCompressor, weighted_sparse_mean
from .config import BufferConfig, RoundConfig, ServerConfig, ShardingConfig
from .dp import GaussianMechanism, clip_by_norm
from .plan import TrainingPlan
from .resilience import RetryPolicy, collect_with_retries
from .robust import (
    RULES,
    apply_rule,
    clipped_mean,
    coordinate_median,
    krum,
    krum_index,
    trimmed_mean,
)
from .selection import SelectionResult, TEESelector
from .server import FLServer
from .sharding import (
    HierarchicalAggregator,
    RobustShardCollector,
    RobustShardPartial,
    ShardPartial,
    plan_shards,
    shard_of,
)
from .transport import Channel, ClientUpdate, ModelDownload

__all__ = [
    "FLServer", "FLClient", "TrainingPlan",
    "RetryPolicy", "collect_with_retries",
    "fedavg", "merge_plain_and_sealed",
    "CompensatedAccumulator",
    "ServerConfig", "RoundConfig", "ShardingConfig",
    "BufferConfig", "BufferedAggregator",
    "HierarchicalAggregator", "ShardPartial",
    "plan_shards", "shard_of", "weighted_sparse_mean",
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
