"""`repro.serve`: a persistent multi-tenant FL coordinator service.

The modules here turn the one-shot simulator/aggregation stack into a
long-running service layer:

* :mod:`repro.serve.wire` — a versioned, length-prefixed binary framing
  for ``ModelDownload`` / ``ClientUpdate`` / ``Ack`` messages
  with dense float64/float32/float16, affine-quantized (q8), top-k
  sparse, and sealed-blob value encodings.  Decoding always lands on a
  canonical float64 vector *before* anything touches an accumulator, so
  the exact compensated reduce stays bitwise deterministic.
* :mod:`repro.serve.coordinator` — the :class:`Coordinator` owning many
  concurrent FL jobs (one per tenant) with per-tenant quotas, admission
  backpressure, staleness bounds, and a ``create → run → drain``
  lifecycle whose whole state round-trips through ``state_dict()``.
* :mod:`repro.serve.loadgen` — a deterministic :class:`LoadGenerator` /
  :class:`ServeHarness` pair driving 10^5–10^6 simulated clients (with
  the `repro.sim` network/fault/Byzantine models) against a live
  coordinator, producing the byte-reproducible report behind
  ``repro serve`` and ``BENCH_serve.json``.
"""

from .. import _lazy_exports

__all__ = [
    "AckMsg",
    "BreakerConfig",
    "BreakerState",
    "ChaosChannel",
    "ChaosConfig",
    "CommitEvent",
    "ClientUpdateMsg",
    "Coordinator",
    "decode_frame",
    "encode_frame",
    "Encoding",
    "FrameError",
    "IngestResult",
    "Job",
    "JobState",
    "LoadGenerator",
    "LoadSpec",
    "ModelDownloadMsg",
    "MsgType",
    "PumpResult",
    "ServeHarness",
    "ServeRun",
    "SubmitResult",
    "TenantBreaker",
    "TenantQuota",
    "verify_frame",
    "WireVector",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "coordinator": (
        "CommitEvent",
        "Coordinator",
        "IngestResult",
        "Job",
        "JobState",
        "PumpResult",
        "SubmitResult",
        "TenantQuota",
    ),
    "loadgen": ("LoadGenerator", "LoadSpec", "ServeHarness", "ServeRun"),
    "transport": (
        "BreakerConfig",
        "BreakerState",
        "ChaosChannel",
        "ChaosConfig",
        "TenantBreaker",
    ),
    "wire": (
        "AckMsg",
        "ClientUpdateMsg",
        "Encoding",
        "FrameError",
        "ModelDownloadMsg",
        "MsgType",
        "WireVector",
        "decode_frame",
        "encode_frame",
        "verify_frame",
    ),
})
