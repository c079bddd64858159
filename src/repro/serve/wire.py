"""Compact deterministic wire protocol for the coordinator service.

Every message travels as one **frame**::

    offset  width  field
    0       4      magic  b"GSRV"
    4       1      version (1 or 2)
    5       1      msg_type (MsgType)
    6       1      encoding (Encoding) — value encoding of the payload
    7       1      flags (bit 0: FLAG_SPARSE)
    8       4      body length (u32, big-endian)
    12      4      CRC32 (u32, big-endian)
    [16     8      dispatch id (u64, big-endian) — version 2 only]
    16|24   ...    body

Version 1 is the compact header the original service spoke; version 2
appends a u64 **transport dispatch id** so the receiving endpoint can
deduplicate retransmitted or replayed frames (and correlate ACKs)
before parsing the body.  The CRC32 covers the header prefix (bytes
0–12), the dispatch id when present, and the body — the CRC field
itself is the only uncovered region — so *any* single-bit flip in a
frame is detected: a flip in covered bytes changes the computed CRC, a
flip in the CRC field changes the expected one.

Scalars inside the body are big-endian (network order); bulk array bytes
are little-endian typed buffers (``<f8``/``<f4``/``<f2``/``u1``/``<u4``)
so encode/decode is a zero-copy ``np.frombuffer``.  Strings are a u16
length plus UTF-8 bytes.  The encoding is **canonical**: for any valid
frame ``b``, ``encode_frame(decode_frame(b)[0]) == b`` byte for byte, and
for any message ``m``, ``decode_frame(encode_frame(m))[0]`` carries
exactly the same wire payload — the property the hypothesis suite pins.

Value encodings (:class:`Encoding`):

* ``F64`` — lossless float64 (the canonical accumulator dtype);
* ``F32`` / ``F16`` — narrow floats; widening back to float64 is exact
  for every representable value, so a round trip through the wire is
  reproducible even though the narrowing itself quantizes;
* ``Q8`` — affine u8 quantization ``value = offset + scale * q`` with the
  float64 ``scale``/``offset`` carried in the frame, so decode is a pure
  float64 function of the frame bytes;
* ``SEALED`` — opaque passthrough for TEE-sealed blobs: the coordinator
  relays them without looking inside (the GradSec trust model — the
  normal world never sees plaintext updates of shielded layers).

Sparse payloads (``FLAG_SPARSE``) carry u32 indices and values in the
value encoding — ``INDEX_WIRE_BYTES``/``VALUE_WIRE_BYTES`` per kept
coordinate (:mod:`repro.fl.compression`).

Bitwise-determinism contract: consumers must call
:meth:`WireVector.flat64` — the canonical dense float64 view — before any
accumulator touch.  The committed aggregate is then a pure function of
the decoded float64 multiset, and the exact compensated reduce keeps it
independent of shard routing and arrival order exactly as in-process.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..fl.compression import INDEX_WIRE_BYTES, VALUE_WIRE_BYTES, SparseUpdate

__all__ = [
    "WIRE_VERSION",
    "WIRE_VERSION_DISPATCH",
    "MAGIC",
    "HEADER_BYTES",
    "HEADER_BYTES_V2",
    "FLAG_SPARSE",
    "MsgType",
    "Encoding",
    "FrameError",
    "FrameHeader",
    "WireVector",
    "ModelDownloadMsg",
    "ClientUpdateMsg",
    "AckMsg",
    "encode_frame",
    "decode_frame",
    "verify_frame",
]

MAGIC = b"GSRV"
WIRE_VERSION = 1
WIRE_VERSION_DISPATCH = 2
FLAG_SPARSE = 0x01

_HEADER = struct.Struct(">4sBBBBII")
HEADER_BYTES = _HEADER.size  # 16
_DISPATCH = struct.Struct(">Q")
HEADER_BYTES_V2 = HEADER_BYTES + _DISPATCH.size  # 24


class MsgType(enum.IntEnum):
    MODEL_DOWNLOAD = 1
    CLIENT_UPDATE = 2
    # 3 is retired (a shard→root partial): a type-3 frame is a FrameError.
    ACK = 4


class Encoding(enum.IntEnum):
    F64 = 0
    F32 = 1
    F16 = 2
    Q8 = 3
    SEALED = 4


_VALUE_DTYPES = {
    Encoding.F64: np.dtype("<f8"),
    Encoding.F32: np.dtype("<f4"),
    Encoding.F16: np.dtype("<f2"),
    Encoding.Q8: np.dtype("u1"),
}
_INDEX_DTYPE = np.dtype("<u4")
assert _INDEX_DTYPE.itemsize == INDEX_WIRE_BYTES
assert _VALUE_DTYPES[Encoding.F32].itemsize == VALUE_WIRE_BYTES


class FrameError(ValueError):
    """A frame failed structural validation (magic, CRC, bounds, ...)."""


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FrameError("string field exceeds u16 length")
    return struct.pack(">H", len(raw)) + raw


def _unpack_str(body: bytes, at: int) -> Tuple[str, int]:
    if at + 2 > len(body):
        raise FrameError("truncated string length")
    (length,) = struct.unpack_from(">H", body, at)
    at += 2
    if at + length > len(body):
        raise FrameError("truncated string bytes")
    try:
        return body[at : at + length].decode("utf-8"), at + length
    except UnicodeDecodeError as exc:
        raise FrameError("string field is not UTF-8") from exc


@dataclass(frozen=True, eq=False)
class WireVector:
    """A model-sized vector as it travels: wire dtype plus sparsity.

    ``values`` is stored in the *wire* dtype (never silently widened), so
    re-encoding a decoded vector reproduces the original bytes exactly.
    ``scale``/``offset`` are the Q8 affine parameters (1.0/0.0 otherwise);
    ``blob`` replaces ``values`` for sealed passthrough payloads.
    """

    size: int
    encoding: Encoding
    values: Optional[np.ndarray] = None
    indices: Optional[np.ndarray] = None
    scale: float = 1.0
    offset: float = 0.0
    blob: Optional[bytes] = None

    def __post_init__(self) -> None:
        encoding = Encoding(self.encoding)
        object.__setattr__(self, "encoding", encoding)
        if self.size < 0:
            raise FrameError("vector size cannot be negative")
        if encoding is Encoding.SEALED:
            if self.blob is None or self.values is not None or self.is_sparse:
                raise FrameError("sealed payloads carry exactly one blob")
            return
        if self.values is None or self.blob is not None:
            raise FrameError("numeric payloads carry exactly one value array")
        dtype = _VALUE_DTYPES[encoding]
        if self.values.dtype != dtype:
            raise FrameError(
                f"values must be {dtype} for {encoding.name}, got {self.values.dtype}"
            )
        if self.is_sparse:
            if self.indices.dtype != _INDEX_DTYPE:
                raise FrameError(f"indices must be {_INDEX_DTYPE}")
            if self.indices.shape != self.values.shape:
                raise FrameError("indices and values must align")
            if self.indices.size and int(self.indices.max()) >= self.size:
                raise FrameError("sparse index out of range")
        elif self.values.size != self.size:
            raise FrameError("dense values must cover the full vector")

    # -- constructors ------------------------------------------------------
    @classmethod
    def dense(cls, vector: np.ndarray, encoding: Encoding = Encoding.F64) -> "WireVector":
        """Encode a dense float64 vector into the wire dtype."""
        vector = np.ascontiguousarray(vector, dtype=np.float64).ravel()
        encoding = Encoding(encoding)
        values, scale, offset = _encode_values(vector, encoding)
        return cls(int(vector.size), encoding, values, None, scale, offset)

    @classmethod
    def sparse(
        cls,
        size: int,
        indices: np.ndarray,
        values: np.ndarray,
        encoding: Encoding = Encoding.F32,
    ) -> "WireVector":
        """Encode a top-k sparse payload (u32 indices + wire-dtype values)."""
        encoding = Encoding(encoding)
        indices = np.ascontiguousarray(indices, dtype=_INDEX_DTYPE)
        dense_values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        wire_values, scale, offset = _encode_values(dense_values, encoding)
        return cls(int(size), encoding, wire_values, indices, scale, offset)

    @classmethod
    def from_sparse_update(
        cls, update: SparseUpdate, encoding: Encoding = Encoding.F32
    ) -> "WireVector":
        return cls.sparse(update.size, update.indices, update.values, encoding)

    @classmethod
    def sealed(cls, blob: bytes, size: int = 0) -> "WireVector":
        """Wrap a TEE-sealed blob for opaque relay (never decoded here)."""
        return cls(int(size), Encoding.SEALED, blob=bytes(blob))

    # -- views -------------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        return self.indices is not None

    @property
    def is_sealed(self) -> bool:
        return self.encoding is Encoding.SEALED

    def values64(self) -> np.ndarray:
        """The carried values widened to canonical float64 (exact)."""
        if self.is_sealed:
            raise FrameError("sealed payloads are opaque; no numeric view")
        if self.encoding is Encoding.Q8:
            return self.offset + self.scale * self.values.astype(np.float64)
        return self.values.astype(np.float64)

    def flat64(self) -> np.ndarray:
        """Canonical dense float64 vector — the only accumulator input.

        Widening f16/f32 to f64 is exact for every representable value and
        the Q8 affine map is evaluated in float64, so this view is a pure
        function of the frame bytes: two decodes of the same frame feed
        bitwise-identical addends into the compensated reduce.
        """
        values = self.values64()
        if not self.is_sparse:
            return values
        out = np.zeros(self.size)
        out[self.indices] = values
        return out


def _encode_values(
    vector: np.ndarray, encoding: Encoding
) -> Tuple[np.ndarray, float, float]:
    if encoding is Encoding.Q8:
        if vector.size == 0:
            return vector.astype("u1"), 1.0, 0.0
        offset = float(vector.min())
        span = float(vector.max()) - offset
        scale = span / 255.0 if span > 0 else 1.0
        levels = np.clip(np.round((vector - offset) / scale), 0, 255)
        return levels.astype("u1"), scale, offset
    if encoding is Encoding.SEALED:
        raise FrameError("sealed payloads are built via WireVector.sealed")
    return vector.astype(_VALUE_DTYPES[encoding]), 1.0, 0.0


def _pack_vector(vector: WireVector) -> bytes:
    parts = [struct.pack(">I", vector.size)]
    if vector.is_sealed:
        parts.append(struct.pack(">I", len(vector.blob)))
        parts.append(vector.blob)
        return b"".join(parts)
    if vector.is_sparse:
        parts.append(struct.pack(">I", vector.indices.size))
        parts.append(np.ascontiguousarray(vector.indices, _INDEX_DTYPE).tobytes())
    if vector.encoding is Encoding.Q8:
        parts.append(struct.pack(">dd", vector.scale, vector.offset))
    parts.append(np.ascontiguousarray(vector.values).tobytes())
    return b"".join(parts)


def _unpack_vector(
    body: bytes, at: int, encoding: Encoding, sparse: bool
) -> Tuple[WireVector, int]:
    if at + 4 > len(body):
        raise FrameError("truncated vector size")
    (size,) = struct.unpack_from(">I", body, at)
    at += 4
    if encoding is Encoding.SEALED:
        if sparse:
            raise FrameError("sealed payloads cannot be sparse")
        if at + 4 > len(body):
            raise FrameError("truncated sealed length")
        (blob_len,) = struct.unpack_from(">I", body, at)
        at += 4
        if at + blob_len > len(body):
            raise FrameError("truncated sealed blob")
        return WireVector.sealed(body[at : at + blob_len], size), at + blob_len
    indices = None
    count = size
    if sparse:
        if at + 4 > len(body):
            raise FrameError("truncated sparse count")
        (count,) = struct.unpack_from(">I", body, at)
        at += 4
        span = count * INDEX_WIRE_BYTES
        if at + span > len(body):
            raise FrameError("truncated sparse indices")
        indices = np.frombuffer(body, _INDEX_DTYPE, count, at).copy()
        at += span
    scale, offset = 1.0, 0.0
    if encoding is Encoding.Q8:
        if at + 16 > len(body):
            raise FrameError("truncated quantization parameters")
        scale, offset = struct.unpack_from(">dd", body, at)
        at += 16
    dtype = _VALUE_DTYPES[encoding]
    span = count * dtype.itemsize
    if at + span > len(body):
        raise FrameError("truncated values")
    values = np.frombuffer(body, dtype, count, at).copy()
    return WireVector(size, encoding, values, indices, scale, offset), at + span


@dataclass(frozen=True, eq=False)
class ModelDownloadMsg:
    """Coordinator → client: the global model at one committed version."""

    job_id: str
    version: int
    vector: WireVector

    msg_type = MsgType.MODEL_DOWNLOAD

    def _pack_body(self) -> bytes:
        return (
            _pack_str(self.job_id)
            + struct.pack(">Q", self.version)
            + _pack_vector(self.vector)
        )

    @classmethod
    def _unpack_body(cls, body, encoding, sparse):
        job_id, at = _unpack_str(body, 0)
        if at + 8 > len(body):
            raise FrameError("truncated version")
        (version,) = struct.unpack_from(">Q", body, at)
        vector, at = _unpack_vector(body, at + 8, encoding, sparse)
        _expect_end(body, at)
        return cls(job_id, version, vector)


@dataclass(frozen=True, eq=False)
class ClientUpdateMsg:
    """Client → coordinator: one trained *delta* against a base version.

    ``dispatch`` is the globally unique dispatch index — the stable sort
    key the buffered fold uses, and the handle dispatch→commit latency is
    tracked under.  The coordinator reconstructs ``trained = base +
    delta.flat64()`` in float64, the same IEEE add the client performed,
    which is what keeps a ratio-1.0 compressed run bitwise identical to
    an uncompressed one.
    """

    job_id: str
    client: int
    dispatch: int
    base_version: int
    num_samples: int
    delta: WireVector

    msg_type = MsgType.CLIENT_UPDATE

    def _pack_body(self) -> bytes:
        return (
            _pack_str(self.job_id)
            + struct.pack(
                ">IQII", self.client, self.dispatch, self.base_version, self.num_samples
            )
            + _pack_vector(self.delta)
        )

    @classmethod
    def _unpack_body(cls, body, encoding, sparse):
        job_id, at = _unpack_str(body, 0)
        if at + 20 > len(body):
            raise FrameError("truncated update header")
        client, dispatch, base_version, num_samples = struct.unpack_from(
            ">IQII", body, at
        )
        vector, at = _unpack_vector(body, at + 20, encoding, sparse)
        _expect_end(body, at)
        return cls(job_id, client, dispatch, base_version, num_samples, vector)


@dataclass(frozen=True)
class AckMsg:
    """Coordinator → client: receipt for one transport dispatch id.

    ``status`` is ``"accepted"`` (entered the dedup ledger, will be
    processed exactly once), ``"duplicate"`` (ledger hit — an earlier
    copy already holds the slot), or ``"rejected:<reason>"`` (terminal:
    the client must stop retransmitting this dispatch).  The dispatch id
    travels in the ack *body*, so acks default to the compact version-1
    header; the client correlates after a normal body decode.
    """

    job_id: str
    dispatch: int
    status: str

    msg_type = MsgType.ACK

    def _pack_body(self) -> bytes:
        return (
            _pack_str(self.job_id)
            + struct.pack(">Q", self.dispatch)
            + _pack_str(self.status)
        )

    @classmethod
    def _unpack_body(cls, body, encoding, sparse):
        if encoding is not Encoding.F64 or sparse:
            raise FrameError("ack frames carry no vector payload")
        job_id, at = _unpack_str(body, 0)
        if at + 8 > len(body):
            raise FrameError("truncated ack dispatch")
        (dispatch,) = struct.unpack_from(">Q", body, at)
        status, at = _unpack_str(body, at + 8)
        _expect_end(body, at)
        return cls(job_id, dispatch, status)


Message = Union[ModelDownloadMsg, ClientUpdateMsg, AckMsg]

_DECODERS = {
    MsgType.MODEL_DOWNLOAD: ModelDownloadMsg,
    MsgType.CLIENT_UPDATE: ClientUpdateMsg,
    MsgType.ACK: AckMsg,
}


@dataclass(frozen=True)
class FrameHeader:
    """Validated frame header: layout fields plus the covered span.

    ``dispatch`` is the transport dispatch id for version-2 frames and
    ``None`` for version-1.  ``header_bytes`` is where the body starts
    relative to the frame start; ``end`` is the offset one past the
    body.  Produced by :func:`verify_frame`, which also checks the CRC —
    so holding a ``FrameHeader`` means the *entire* frame is intact and
    the dispatch id can be trusted for dedup without parsing the body.
    """

    version: int
    msg_type: MsgType
    encoding: Encoding
    flags: int
    body_len: int
    crc: int
    dispatch: Optional[int]
    header_bytes: int
    end: int


def _expect_end(body: bytes, at: int) -> None:
    if at != len(body):
        raise FrameError(f"{len(body) - at} trailing bytes in frame body")


def _frame_meta(message: Message) -> Tuple[Encoding, int]:
    if isinstance(message, AckMsg):
        return Encoding.F64, 0
    vector = (
        message.vector if isinstance(message, ModelDownloadMsg) else message.delta
    )
    return vector.encoding, FLAG_SPARSE if vector.is_sparse else 0


def _frame_crc(prefix: bytes, extension: bytes, body: bytes) -> int:
    crc = zlib.crc32(prefix)
    crc = zlib.crc32(extension, crc)
    return zlib.crc32(body, crc) & 0xFFFFFFFF


def encode_frame(message: Message, *, dispatch: Optional[int] = None) -> bytes:
    """Serialise one message into its canonical frame bytes.

    With ``dispatch`` set the frame uses the version-2 header and
    carries that transport dispatch id; otherwise the compact version-1
    header is emitted (byte-identical to the original protocol's frames
    except for the strengthened CRC coverage, which keeps the length
    unchanged).
    """
    if dispatch is not None and not 0 <= int(dispatch) < 2**64:
        raise FrameError(f"dispatch id out of u64 range: {dispatch}")
    body = message._pack_body()
    encoding, flags = _frame_meta(message)
    version = WIRE_VERSION if dispatch is None else WIRE_VERSION_DISPATCH
    extension = b"" if dispatch is None else _DISPATCH.pack(int(dispatch))
    prefix = struct.pack(
        ">4sBBBBI", MAGIC, version, int(message.msg_type), int(encoding), flags,
        len(body),
    )
    crc = _frame_crc(prefix, extension, body)
    return prefix + struct.pack(">I", crc) + extension + body


def verify_frame(data: bytes, at: int = 0) -> FrameHeader:
    """Validate one frame's header *and* CRC without parsing the body.

    This is the cheap integrity gate the exactly-once ingest path runs
    before anything else: a returned :class:`FrameHeader` certifies the
    frame bytes are intact end to end, so its ``dispatch`` id is safe to
    use for dedup-ledger lookups without decoding the payload.  Raises
    :class:`FrameError` on any violation.
    """
    if at + HEADER_BYTES > len(data):
        raise FrameError("truncated frame header")
    magic, version, msg_type, encoding, flags, body_len, crc = _HEADER.unpack_from(
        data, at
    )
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version not in (WIRE_VERSION, WIRE_VERSION_DISPATCH):
        raise FrameError(f"unsupported wire version {version}")
    try:
        msg_type = MsgType(msg_type)
        encoding = Encoding(encoding)
    except ValueError as exc:
        raise FrameError(str(exc)) from exc
    if flags & ~FLAG_SPARSE:
        raise FrameError(f"unknown flags 0x{flags:02x}")
    dispatch = None
    header_bytes = HEADER_BYTES
    extension = b""
    if version == WIRE_VERSION_DISPATCH:
        header_bytes = HEADER_BYTES_V2
        if at + header_bytes > len(data):
            raise FrameError("truncated dispatch extension")
        extension = bytes(data[at + HEADER_BYTES : at + header_bytes])
        (dispatch,) = _DISPATCH.unpack(extension)
    start = at + header_bytes
    end = start + body_len
    if end > len(data):
        raise FrameError("truncated frame body")
    if _frame_crc(data[at : at + 12], extension, data[start:end]) != crc:
        raise FrameError("CRC mismatch")
    return FrameHeader(
        version, msg_type, encoding, flags, body_len, crc, dispatch,
        header_bytes, end,
    )


def decode_frame(
    data: bytes, at: int = 0, *, header: Optional[FrameHeader] = None
) -> Tuple[Message, int]:
    """Decode one frame starting at ``at``; returns (message, next offset).

    Raises :class:`FrameError` on any structural violation — bad magic,
    unknown version/type/encoding, CRC mismatch, truncation, or trailing
    garbage inside the declared body.  A caller that has just run
    :func:`verify_frame` on the same ``(data, at)`` passes the ``header``
    it got back and the frame is not verified a second time.
    """
    if header is None:
        header = verify_frame(data, at)
    body = bytes(data[at + header.header_bytes : header.end])
    message = _DECODERS[header.msg_type]._unpack_body(
        body, header.encoding, bool(header.flags & FLAG_SPARSE)
    )
    return message, header.end

