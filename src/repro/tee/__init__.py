"""Simulated ARM TrustZone substrate.

Provides the security boundary GradSec relies on (worlds, secure memory,
shielded buffers, SMC dispatch), the OP-TEE-style services (secure storage,
trusted I/O path, remote attestation), and the calibrated device cost model
that regenerates the paper's overhead numbers.
"""

from .attestation import AttestationDevice, AttestationVerifier, Quote
from .costmodel import CostModel, CycleCost
from .iopath import TrustedIOPath
from .memory import DEFAULT_CAPACITY_BYTES, SecureMemoryPool, ShieldedBuffer
from .monitor import SecureMonitor, SMCStats
from .profiles import RASPBERRY_PI_3B, DeviceProfile
from .storage import (
    BackendCrash,
    FaultInjectedBackend,
    InMemoryBackend,
    ReeFsBackend,
    RollbackError,
    SecureStorage,
    StorageBackend,
)
from .trusted_app import TrustedApplication
from .world import (
    AttestationError,
    IntegrityError,
    SecureMemoryExhausted,
    SecureWorldViolation,
    TEEError,
    World,
    current_world,
    require_secure_world,
    secure_world,
)

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
