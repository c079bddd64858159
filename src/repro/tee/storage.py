"""OP-TEE-style secure storage.

Implements the key hierarchy of the paper's §7.3:

* **SSK** — per-device Secure Storage Key (fused at manufacture; here, owned
  by the :class:`SecureStorage` instance).
* **TSK** — Trusted-Application Storage Key, derived from the SSK and the
  TA's UUID, so two TAs on the same device cannot read each other's objects.
* **FEK** — per-object random File Encryption Key; the object payload is
  encrypted under the FEK and the FEK is wrapped under the TSK.

Objects are confidential (encrypted), authenticated (MAC-checked on read,
raising :class:`~repro.tee.world.IntegrityError` on any bit flip) and
**rollback-protected**: every write increments a monotonic counter held in
trusted storage (modelling RPMB's replay-protected counters), and the
counter value travels inside the authenticated ciphertext — so an attacker
who replays an *older, genuinely-sealed* blob is caught
(:class:`RollbackError`). Two backends mirror OP-TEE's *REE FS* (files in
the untrusted filesystem) and *RPMB* (an in-memory region).

A ``put`` is two writes — the sealed blob, then the counter — and can die
at three points.  Before the blob lands the previous version still reads;
a blob torn mid-write fails its MAC (the previous version is lost with it
on a medium without atomic replace); a blob that landed whole ahead of its
counter carries exactly ``counter + 1`` and is *rolled forward* by the next
``get``, which completes the put.  Only this device seals under its TSK, so
such a blob is its own newest write; nothing older than the last completed
put is ever returned.  :meth:`SecureStorage.latest_verifiable` is the one
place an unreadable object becomes "start fresh".
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Optional
from urllib.parse import quote, unquote

from ..obs import get_registry
from . import crypto
from .world import IntegrityError, TEEError

__all__ = [
    "SecureStorage",
    "InMemoryBackend",
    "ReeFsBackend",
    "StorageBackend",
    "FaultInjectedBackend",
    "RollbackError",
    "BackendCrash",
]


class RollbackError(TEEError):
    """A stale (replayed) version of a secure object was served."""


class BackendCrash(TEEError):
    """Injected storage-medium failure (power loss mid-write)."""


class StorageBackend:
    """Minimal key/value blob store the secure storage writes through."""

    def put(self, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> tuple:
        raise NotImplementedError


class InMemoryBackend(StorageBackend):
    """RPMB-like backend: blobs live in memory."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def put(self, key: str, blob: bytes) -> None:
        self._blobs[key] = bytes(blob)

    def get(self, key: str) -> Optional[bytes]:
        return self._blobs.get(key)

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self) -> tuple:
        return tuple(sorted(self._blobs))


class ReeFsBackend(StorageBackend):
    """REE-FS backend: encrypted blobs stored as files in the normal world.

    Writes are atomic: the blob is written to a temporary file in the same
    directory and ``os.replace``d into place.  File names are the key
    percent-encoded (``/`` and ``.`` included): injective and traversal-proof.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        escaped = quote(key, safe="").replace(".", "%2E")
        return os.path.join(self.directory, escaped + ".sec")

    def put(self, key: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, key: str) -> Optional[bytes]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            return fh.read()

    def delete(self, key: str) -> None:
        path = self._path(key)
        if os.path.exists(path):
            os.unlink(path)

    def keys(self) -> tuple:
        names = [n[:-4] for n in os.listdir(self.directory) if n.endswith(".sec")]
        return tuple(sorted(unquote(n) for n in names))


class FaultInjectedBackend(StorageBackend):
    """Wraps a backend and crashes chosen ``put`` calls, for testing.

    Models the three ways a physical write can die:

    * ``mode="before"`` — power lost before anything hit the medium: the
      previous blob (if any) is untouched;
    * ``mode="torn"`` — the write was interrupted partway: a truncated
      blob lands, which integrity verification must catch on read;
    * ``mode="after"`` — the whole blob landed, then power was lost: the
      object is one version ahead of its trusted counter.

    In every mode :class:`BackendCrash` propagates to the caller, so
    :meth:`SecureStorage.put` never reaches its counter increment.

    Parameters
    ----------
    inner:
        The real backend to wrap (default: a fresh in-memory one).
    fail_on_put:
        Zero-based indices of ``put`` calls (counted across all keys) that
        crash.
    mode:
        ``"before"``, ``"torn"`` or ``"after"`` (see above).
    """

    def __init__(
        self,
        inner: Optional[StorageBackend] = None,
        fail_on_put: Optional[set] = None,
        mode: str = "before",
    ) -> None:
        if mode not in ("before", "torn", "after"):
            raise ValueError(f"unknown crash mode {mode!r}")
        self.inner = inner or InMemoryBackend()
        self.fail_on_put = set(fail_on_put or ())
        self.mode = mode
        self.puts = 0

    def put(self, key: str, blob: bytes) -> None:
        index = self.puts
        self.puts += 1
        if index in self.fail_on_put:
            if self.mode == "torn":
                self.inner.put(key, blob[: max(1, len(blob) // 2)])
            elif self.mode == "after":
                self.inner.put(key, blob)
            raise BackendCrash(f"injected crash on put #{index} ({self.mode})")
        self.inner.put(key, blob)

    def get(self, key: str) -> Optional[bytes]:
        return self.inner.get(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def keys(self) -> tuple:
        return self.inner.keys()


class SecureStorage:
    """Per-device secure storage with the SSK → TSK → FEK hierarchy.

    Parameters
    ----------
    backend:
        Where sealed blobs land (default: in-memory, RPMB-like).
    ssk:
        Per-device Secure Storage Key; random when omitted.
    counters_path:
        When given, the monotonic counters are mirrored to this file (in
        trusted storage) and reloaded on construction — the persistence a
        real device gets from RPMB across reboots.  Without it a fresh
        instance trusts nothing written by a previous one.
    """

    _MAGIC = b"GSEC2"
    _VERSION_BYTES = 8

    def __init__(
        self,
        backend: Optional[StorageBackend] = None,
        ssk: Optional[bytes] = None,
        counters_path: Optional[str] = None,
    ) -> None:
        self.backend = backend or InMemoryBackend()
        self._ssk = ssk or crypto.random_key()
        # Monotonic write counters per object — held in trusted storage
        # (the role RPMB's replay-protected counters play on real devices).
        self._counters: Dict[str, int] = {}
        self._counters_path = counters_path
        registry = get_registry()
        self._bytes = registry.counter(
            "tee.storage.bytes", "payload bytes sealed (put) and verified out (get)"
        )
        self._verify_failures = registry.counter(
            "tee.storage.verify_failures", "reads refused as tampered or replayed"
        )
        self._recoveries = registry.counter(
            "tee.storage.recoveries", "torn puts completed (rolled forward) on read"
        )
        if counters_path is not None and os.path.exists(counters_path):
            self._counters = self._load_counters(counters_path)

    @staticmethod
    def _load_counters(path: str) -> Dict[str, int]:
        """The counter file as :meth:`_persist_counters` writes it: a JSON
        object of non-negative ints.  Anything else (not JSON, a list, a
        null, a string, a bool or a negative count) is an
        :class:`IntegrityError` naming the file."""
        import json

        try:
            with open(path) as handle:
                counters = json.load(handle)
        except ValueError as error:
            raise IntegrityError(f"trusted counter file {path}: {error}") from None
        if not isinstance(counters, dict) or not all(
            type(count) is int and count >= 0 for count in counters.values()
        ):
            raise IntegrityError(
                f"trusted counter file {path}: expected a JSON object of "
                "non-negative integer counters"
            )
        return counters

    def _persist_counters(self) -> None:
        if self._counters_path is None:
            return
        import json

        directory = os.path.dirname(self._counters_path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self._counters, handle)
            os.replace(tmp, self._counters_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _tsk(self, ta_uuid: str) -> bytes:
        return crypto.derive_key(self._ssk, b"tsk", ta_uuid.encode())

    def put(self, ta_uuid: str, name: str, payload: bytes) -> None:
        """Store ``payload`` for TA ``ta_uuid`` under object ``name``."""
        key = self._key(ta_uuid, name)
        if key not in self._counters:
            # Reserve the trusted record before the first blob lands: a torn
            # first put is then told apart from a foreign blob (no record).
            self._counters[key] = 0
            self._persist_counters()
        version = self._counters[key] + 1
        fek = crypto.random_key()
        versioned = version.to_bytes(self._VERSION_BYTES, "big") + payload
        sealed_payload = crypto.encrypt(fek, versioned).to_bytes()
        wrapped_fek = crypto.encrypt(self._tsk(ta_uuid), fek).to_bytes()
        blob = (
            self._MAGIC
            + len(wrapped_fek).to_bytes(4, "big")
            + wrapped_fek
            + sealed_payload
        )
        self.backend.put(key, blob)
        self._counters[key] = version
        self._persist_counters()
        self._bytes.inc(len(payload), op="put")

    def get(self, ta_uuid: str, name: str) -> bytes:
        """Fetch and verify an object; raises on absence, tampering or replay."""
        key = self._key(ta_uuid, name)
        blob = self.backend.get(key)
        if blob is None:
            raise KeyError(f"no secure object {name!r} for TA {ta_uuid}")
        try:
            if blob[: len(self._MAGIC)] != self._MAGIC:
                raise crypto.CryptoError("bad magic")
            offset = len(self._MAGIC)
            fek_len = int.from_bytes(blob[offset : offset + 4], "big")
            offset += 4
            wrapped_fek = crypto.SealedBlob.from_bytes(blob[offset : offset + fek_len])
            sealed_payload = crypto.SealedBlob.from_bytes(blob[offset + fek_len :])
            fek = crypto.decrypt(self._tsk(ta_uuid), wrapped_fek)
            versioned = crypto.decrypt(fek, sealed_payload)
        except crypto.CryptoError as exc:
            self._verify_failures.inc(kind="integrity")
            raise IntegrityError(
                f"secure object {name!r} for TA {ta_uuid} failed verification: {exc}"
            ) from exc
        version = int.from_bytes(versioned[: self._VERSION_BYTES], "big")
        expected = self._counters.get(key, 0)
        if version == expected + 1 and key in self._counters:
            # Sealed under this device's TSK and exactly one ahead: its own
            # newest put, torn before the counter persisted — complete it.
            self._counters[key] = expected = version
            self._persist_counters()
            self._recoveries.inc()
        if version != expected:
            self._verify_failures.inc(kind="rollback")
            raise RollbackError(
                f"secure object {name!r} for TA {ta_uuid} has version "
                f"{version}, trusted counter says {expected} (replay attack?)"
            )
        payload = versioned[self._VERSION_BYTES :]
        self._bytes.inc(len(payload), op="get")
        return payload

    def latest_verifiable(self, ta_uuid: str, name: str) -> Optional[bytes]:
        """The newest version of an object that verifies, else ``None``.

        The checkpoint read: absent, tampered or replayed all mean "start
        fresh" (same-seed runs are deterministic, so a rerun converges on
        identical bytes); :meth:`get` has counted the refusal.
        """
        try:
            return self.get(ta_uuid, name)
        except (KeyError, IntegrityError, RollbackError):
            return None

    def delete(self, ta_uuid: str, name: str) -> None:
        """Remove the blob.  The counter never decreases (RPMB); it advances
        past the deleted version, so that blob can neither be resurrected
        now nor replayed over whatever is ``put`` next."""
        key = self._key(ta_uuid, name)
        self.backend.delete(key)
        if key in self._counters:
            self._counters[key] += 1
            self._persist_counters()

    def objects(self) -> tuple:
        """All stored object keys (as visible to the untrusted backend)."""
        return self.backend.keys()

    @staticmethod
    def _key(ta_uuid: str, name: str) -> str:
        return f"{ta_uuid}:{name}"
