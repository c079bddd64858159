"""Simulated ARM TrustZone substrate.

Provides the security boundary GradSec relies on (worlds, secure memory,
shielded buffers, SMC dispatch), the OP-TEE-style services (secure storage,
trusted I/O path, remote attestation), and the calibrated device cost model
that regenerates the paper's overhead numbers.
"""

from .. import _lazy_exports

__all__ = [
    "World", "current_world", "secure_world", "require_secure_world",
    "TEEError", "SecureWorldViolation", "SecureMemoryExhausted",
    "IntegrityError", "AttestationError",
    "SecureMemoryPool", "ShieldedBuffer", "DEFAULT_CAPACITY_BYTES",
    "SecureMonitor", "SMCStats", "TrustedApplication",
    "SecureStorage", "InMemoryBackend", "ReeFsBackend", "StorageBackend",
    "FaultInjectedBackend", "RollbackError", "BackendCrash",
    "AttestationDevice", "AttestationVerifier", "Quote",
    "TrustedIOPath",
    "CostModel", "CycleCost", "DeviceProfile", "RASPBERRY_PI_3B",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "attestation": ("AttestationDevice", "AttestationVerifier", "Quote"),
    "costmodel": ("CostModel", "CycleCost"),
    "iopath": ("TrustedIOPath",),
    "memory": ("DEFAULT_CAPACITY_BYTES", "SecureMemoryPool", "ShieldedBuffer"),
    "monitor": ("SecureMonitor", "SMCStats"),
    "profiles": ("RASPBERRY_PI_3B", "DeviceProfile"),
    "storage": (
        "BackendCrash",
        "FaultInjectedBackend",
        "InMemoryBackend",
        "ReeFsBackend",
        "RollbackError",
        "SecureStorage",
        "StorageBackend",
    ),
    "trusted_app": ("TrustedApplication",),
    "world": (
        "AttestationError",
        "IntegrityError",
        "SecureMemoryExhausted",
        "SecureWorldViolation",
        "TEEError",
        "World",
        "current_world",
        "require_secure_world",
        "secure_world",
    ),
})
