"""Wire-protocol suite: canonical frames, validation, byte-exact round trips."""

import struct
import zlib

import numpy as np
import pytest

from repro.fl.compression import INDEX_WIRE_BYTES, VALUE_WIRE_BYTES, TopKCompressor
from repro.serve.wire import (
    FLAG_SPARSE,
    HEADER_BYTES,
    HEADER_BYTES_V2,
    MAGIC,
    WIRE_VERSION,
    WIRE_VERSION_DISPATCH,
    AckMsg,
    ClientUpdateMsg,
    Encoding,
    FrameError,
    ModelDownloadMsg,
    MsgType,
    WireVector,
    decode_frame,
    encode_frame,
    verify_frame,
)

pytestmark = pytest.mark.serve


def _vector(rng, n=32):
    return rng.standard_normal(n)


# --- framing basics ---------------------------------------------------------


class TestFraming:
    def test_header_layout(self, rng):
        frame = encode_frame(
            ModelDownloadMsg("job", 3, WireVector.dense(_vector(rng)))
        )
        magic, version, msg_type, encoding, flags, body_len, crc = struct.unpack_from(
            ">4sBBBBII", frame
        )
        assert magic == MAGIC
        assert version == WIRE_VERSION
        assert msg_type == MsgType.MODEL_DOWNLOAD
        assert encoding == Encoding.F64
        assert flags == 0
        assert body_len == len(frame) - HEADER_BYTES
        # CRC covers the header prefix plus the body (the CRC field is
        # the only uncovered span), so single-bit header damage is loud.
        assert (
            crc
            == zlib.crc32(frame[HEADER_BYTES:], zlib.crc32(frame[:12]))
            & 0xFFFFFFFF
        )

    def test_sparse_flag_set(self, rng):
        sparse = WireVector.sparse(64, np.arange(4), rng.standard_normal(4))
        frame = encode_frame(ClientUpdateMsg("j", 1, 2, 0, 17, sparse))
        assert frame[7] & FLAG_SPARSE

    def test_retired_message_type_is_a_frame_error(self):
        # Type 3 (a shard→root partial) is retired: a frame that carries it
        # with a valid CRC is refused at the header, like any unknown type.
        frame = encode_frame(AckMsg("j", 1, "accepted"))
        prefix = frame[:5] + bytes([3]) + frame[6:12]
        crc = zlib.crc32(frame[HEADER_BYTES:], zlib.crc32(prefix)) & 0xFFFFFFFF
        retyped = prefix + struct.pack(">I", crc) + frame[HEADER_BYTES:]
        for parse in (verify_frame, decode_frame):
            with pytest.raises(FrameError, match="not a valid MsgType"):
                parse(retyped)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda f: b"XXXX" + f[4:], "magic"),
            (lambda f: f[:4] + bytes([99]) + f[5:], "version"),
            (lambda f: f[:5] + bytes([200]) + f[6:], "not a valid MsgType"),
            (lambda f: f[:6] + bytes([200]) + f[7:], "not a valid Encoding"),
            (lambda f: f[:7] + bytes([0x80]) + f[8:], "flags"),
            (lambda f: f[:-1], "truncated"),
            (lambda f: f[:20] + bytes([f[20] ^ 0xFF]) + f[21:], "CRC"),
            (lambda f: f[:HEADER_BYTES], "truncated"),
        ],
    )
    def test_rejects_damaged_frames(self, rng, mutate, match):
        frame = encode_frame(
            ModelDownloadMsg("job", 1, WireVector.dense(_vector(rng)))
        )
        with pytest.raises(FrameError, match=match):
            decode_frame(mutate(frame))

    def test_rejects_trailing_body_bytes(self, rng):
        frame = bytearray(
            encode_frame(ModelDownloadMsg("job", 1, WireVector.dense(_vector(rng))))
        )
        body = bytes(frame[HEADER_BYTES:]) + b"\x00"
        prefix = struct.pack(
            ">4sBBBBI",
            MAGIC,
            WIRE_VERSION,
            int(MsgType.MODEL_DOWNLOAD),
            int(Encoding.F64),
            0,
            len(body),
        )
        crc = zlib.crc32(body, zlib.crc32(prefix)) & 0xFFFFFFFF
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(prefix + struct.pack(">I", crc) + body)


# --- message round trips ----------------------------------------------------


class TestRoundTrips:
    @pytest.mark.parametrize(
        "encoding", [Encoding.F64, Encoding.F32, Encoding.F16, Encoding.Q8]
    )
    def test_dense_reencode_is_identity(self, rng, encoding):
        message = ModelDownloadMsg("job-0", 7, WireVector.dense(_vector(rng), encoding))
        frame = encode_frame(message)
        decoded, end = decode_frame(frame)
        assert end == len(frame)
        assert encode_frame(decoded) == frame
        assert decoded.job_id == "job-0" and decoded.version == 7

    def test_f64_dense_is_lossless(self, rng):
        vector = _vector(rng)
        decoded, _ = decode_frame(
            encode_frame(ModelDownloadMsg("j", 0, WireVector.dense(vector)))
        )
        assert np.array_equal(decoded.vector.flat64(), vector)

    @pytest.mark.parametrize(
        "encoding", [Encoding.F64, Encoding.F32, Encoding.F16, Encoding.Q8]
    )
    def test_sparse_client_update_round_trip(self, rng, encoding):
        indices = np.sort(rng.choice(100, size=9, replace=False))
        message = ClientUpdateMsg(
            "tenant-a/job",
            client=12,
            dispatch=3456,
            base_version=2,
            num_samples=64,
            delta=WireVector.sparse(100, indices, rng.standard_normal(9), encoding),
        )
        frame = encode_frame(message)
        decoded, _ = decode_frame(frame)
        assert encode_frame(decoded) == frame
        assert decoded.dispatch == 3456 and decoded.base_version == 2
        assert np.array_equal(decoded.delta.indices, indices.astype("<u4"))
        assert decoded.delta.flat64().shape == (100,)

    def test_sealed_passthrough(self):
        blob = b"\x00\x01opaque sealed update\xff"
        message = ClientUpdateMsg("j", 1, 2, 0, 8, WireVector.sealed(blob, size=50))
        decoded, _ = decode_frame(encode_frame(message))
        assert decoded.delta.is_sealed
        assert decoded.delta.blob == blob
        assert encode_frame(decoded) == encode_frame(message)
        with pytest.raises(FrameError, match="opaque"):
            decoded.delta.flat64()

    def test_q8_decode_is_pure_function_of_frame(self, rng):
        vector = _vector(rng)
        frame = encode_frame(
            ModelDownloadMsg("j", 0, WireVector.dense(vector, Encoding.Q8))
        )
        a, _ = decode_frame(frame)
        b, _ = decode_frame(frame)
        assert np.array_equal(a.vector.flat64(), b.vector.flat64())
        # quantization error is bounded by half a level
        levels = (vector.max() - vector.min()) / 255.0
        assert np.abs(a.vector.flat64() - vector).max() <= levels / 2 + 1e-12


# --- v2 dispatch frames and acks -------------------------------------------


class TestDispatchFrames:
    def test_v2_header_carries_dispatch(self, rng):
        message = ClientUpdateMsg("j", 1, 77, 0, 8, WireVector.dense(_vector(rng)))
        frame = encode_frame(message, dispatch=123456789)
        assert frame[4] == WIRE_VERSION_DISPATCH
        header = verify_frame(frame)
        assert header.dispatch == 123456789
        assert header.header_bytes == HEADER_BYTES_V2
        decoded, end = decode_frame(frame)
        assert end == len(frame)
        assert encode_frame(decoded, dispatch=123456789) == frame

    def test_v1_header_has_no_dispatch(self, rng):
        frame = encode_frame(
            ModelDownloadMsg("j", 0, WireVector.dense(_vector(rng)))
        )
        header = verify_frame(frame)
        assert header.dispatch is None
        assert header.header_bytes == HEADER_BYTES

    def test_v1_and_v2_bodies_are_identical(self, rng):
        message = ClientUpdateMsg("j", 1, 2, 0, 8, WireVector.dense(_vector(rng)))
        v1 = encode_frame(message)
        v2 = encode_frame(message, dispatch=7)
        assert len(v2) == len(v1) + (HEADER_BYTES_V2 - HEADER_BYTES)
        assert v2[HEADER_BYTES_V2:] == v1[HEADER_BYTES:]

    def test_same_message_different_dispatch_differs(self, rng):
        message = ClientUpdateMsg("j", 1, 2, 0, 8, WireVector.dense(_vector(rng)))
        assert encode_frame(message, dispatch=1) != encode_frame(message, dispatch=2)

    def test_dispatch_extension_is_crc_covered(self, rng):
        frame = bytearray(
            encode_frame(
                ClientUpdateMsg("j", 1, 2, 0, 8, WireVector.dense(_vector(rng))),
                dispatch=5,
            )
        )
        frame[HEADER_BYTES] ^= 0x01  # first byte of the dispatch extension
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(frame))

    def test_negative_dispatch_rejected(self, rng):
        message = ModelDownloadMsg("j", 0, WireVector.dense(_vector(rng)))
        with pytest.raises(FrameError, match="dispatch"):
            encode_frame(message, dispatch=-1)

    def test_ack_round_trip(self):
        for status in ("accepted", "duplicate", "rejected:done"):
            message = AckMsg("tenant-a/job", 4096, status)
            frame = encode_frame(message)
            decoded, end = decode_frame(frame)
            assert end == len(frame)
            assert decoded == message
            assert decoded.msg_type == MsgType.ACK

    def test_ack_v2_round_trip(self):
        message = AckMsg("j", 9, "accepted")
        frame = encode_frame(message, dispatch=9)
        decoded, _ = decode_frame(frame)
        assert decoded == message
        assert verify_frame(frame).dispatch == 9

    def test_verify_frame_matches_decode_on_concatenation(self, rng):
        frames = [
            encode_frame(
                ClientUpdateMsg("j", i, i, 0, 8, WireVector.dense(_vector(rng))),
                dispatch=i,
            )
            for i in range(3)
        ]
        blob = b"".join(frames)
        at = 0
        seen = []
        while at < len(blob):
            header = verify_frame(blob, at)
            seen.append(header.dispatch)
            at = header.end
        assert seen == [0, 1, 2]


# --- byte accounting: the sparse wire widths -------------------------------


def _body_bytes(vector):
    """Encoded body of a download carrying ``vector``, past job id and version."""
    frame = encode_frame(ModelDownloadMsg("j", 0, vector))
    return len(frame) - HEADER_BYTES - (2 + 1) - 8


class TestByteAccounting:
    def test_wire_bytes_constants(self):
        assert INDEX_WIRE_BYTES == 4 and VALUE_WIRE_BYTES == 4
        empty = _body_bytes(WireVector.sparse(100, np.arange(0), np.ones(0)))
        seven = _body_bytes(WireVector.sparse(100, np.arange(7), np.ones(7)))
        assert seven - empty == 7 * (INDEX_WIRE_BYTES + VALUE_WIRE_BYTES)

    def test_sparse_frame_charges_what_wire_bytes_promises(self, rng):
        update = TopKCompressor(0.1).compress(rng.standard_normal(200))
        vector = WireVector.from_sparse_update(update)  # F32 values
        # Two 4-byte header words, then one index and one value per kept coordinate.
        kept = update.indices.size
        assert _body_bytes(vector) == 4 + 4 + kept * (INDEX_WIRE_BYTES + VALUE_WIRE_BYTES)


# --- hypothesis: canonical-bytes property ----------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _dense_message(seed, encoding, size):
    rng = np.random.default_rng(seed)
    return ModelDownloadMsg(
        f"job-{seed % 5}", seed % 11, WireVector.dense(rng.standard_normal(size), encoding)
    )


@pytest.mark.property
class TestWireProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        encoding=st.sampled_from(
            [Encoding.F64, Encoding.F32, Encoding.F16, Encoding.Q8]
        ),
        size=st.integers(1, 300),
    )
    def test_dense_encode_decode_encode_is_identity(self, seed, encoding, size):
        frame = encode_frame(_dense_message(seed, encoding, size))
        decoded, end = decode_frame(frame)
        assert end == len(frame)
        assert encode_frame(decoded) == frame

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        encoding=st.sampled_from(
            [Encoding.F64, Encoding.F32, Encoding.F16, Encoding.Q8]
        ),
        size=st.integers(1, 300),
        k=st.integers(1, 50),
    )
    def test_sparse_encode_decode_encode_is_identity(self, seed, encoding, size, k):
        rng = np.random.default_rng(seed)
        k = min(k, size)
        indices = np.sort(rng.choice(size, size=k, replace=False))
        message = ClientUpdateMsg(
            "j",
            seed % 1000,
            seed % 10**6,
            seed % 7,
            1 + seed % 128,
            WireVector.sparse(size, indices, rng.standard_normal(k), encoding),
        )
        frame = encode_frame(message)
        decoded, _ = decode_frame(frame)
        assert encode_frame(decoded) == frame
        assert np.array_equal(
            decoded.delta.flat64(), message.delta.flat64()
        )

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=512), size=st.integers(0, 1000))
    def test_sealed_encode_decode_encode_is_identity(self, blob, size):
        frame = encode_frame(
            ClientUpdateMsg("j", 0, 0, 0, 1, WireVector.sealed(blob, size=size))
        )
        decoded, _ = decode_frame(frame)
        assert encode_frame(decoded) == frame
        assert decoded.delta.blob == blob
