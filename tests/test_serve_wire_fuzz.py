"""Fuzz suite for the wire decoder: hostile bytes only ever FrameError.

Two properties the chaos transport leans on:

* ``decode_frame`` over arbitrary byte soup raises :class:`FrameError`
  (never any other exception, never a silent success on garbage);
* every single-bit flip of a valid frame — v1 or v2, any message type,
  any encoding — is rejected.  The frame CRC covers every byte except
  the CRC field itself, and flipping a CRC bit breaks the match too, so
  CRC-32 catches 100% of single-bit damage, not merely "most".
"""

import struct
import zlib

import numpy as np
import pytest

from repro.serve.wire import (
    AckMsg,
    ClientUpdateMsg,
    Encoding,
    FrameError,
    ModelDownloadMsg,
    WireVector,
    decode_frame,
    encode_frame,
    verify_frame,
)

pytestmark = pytest.mark.serve

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _valid_frame(seed: int, kind: int, dispatch: bool) -> bytes:
    rng = np.random.default_rng(seed)
    vector = WireVector.dense(
        rng.standard_normal(1 + seed % 40),
        [Encoding.F64, Encoding.F32, Encoding.F16, Encoding.Q8][seed % 4],
    )
    if kind == 0:
        message = ModelDownloadMsg(f"job-{seed % 3}", seed % 9, vector)
    elif kind == 1:
        sparse = WireVector.sparse(
            50, np.sort(rng.choice(50, size=5, replace=False)), rng.standard_normal(5)
        )
        message = ClientUpdateMsg("j", seed % 100, seed, seed % 4, 8, sparse)
    elif kind == 2:
        message = ClientUpdateMsg("j", seed % 100, seed, seed % 4, 1 + seed % 64, vector)
    else:
        message = AckMsg("j", seed, ("accepted", "duplicate", "rejected:done")[seed % 3])
    return encode_frame(message, dispatch=seed if dispatch else None)


@pytest.mark.property
class TestDecodeNeverCrashes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_random_bytes_raise_only_frame_error(self, data):
        with pytest.raises(FrameError):
            decode_frame(data)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.integers(0, 3),
        dispatch=st.booleans(),
        junk=st.binary(min_size=1, max_size=64),
        cut=st.integers(0, 10**6),
    )
    def test_mangled_valid_frames_raise_only_frame_error(
        self, seed, kind, dispatch, junk, cut
    ):
        frame = _valid_frame(seed, kind, dispatch)
        # truncation, junk splice, and prefix damage all stay FrameError
        for mangled in (
            frame[: cut % len(frame)],
            junk + frame,
            frame[: len(frame) // 2] + junk + frame[len(frame) // 2 :],
        ):
            try:
                decode_frame(mangled)
            except FrameError:
                pass

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.integers(0, 3),
        dispatch=st.booleans(),
        bit=st.integers(0, 10**9),
    )
    def test_every_single_bit_flip_is_detected(self, seed, kind, dispatch, bit):
        frame = bytearray(_valid_frame(seed, kind, dispatch))
        position = bit % (len(frame) * 8)
        frame[position // 8] ^= 1 << (position % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))


def _restamped(frame: bytes) -> bytes:
    """``frame`` with its CRC field recomputed over the bytes it now holds."""
    crc = zlib.crc32(frame[:12] + frame[16:])
    return frame[:12] + struct.pack(">I", crc) + frame[16:]


def _outcome(decode):
    """What a decode did, ``==``-comparable: canonical bytes or the error class."""
    try:
        message, end = decode()
    except FrameError as error:
        return type(error)
    return encode_frame(message), end


@pytest.mark.property
class TestDecodeWithVerifiedHeader:
    """``decode_frame(b, header=verify_frame(b))`` is ``decode_frame(b)``:
    the ingest path's single verify changes no outcome on any input."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.integers(0, 3),
        dispatch=st.booleans(),
        junk=st.binary(min_size=1, max_size=64),
        cut=st.integers(0, 10**6),
    )
    def test_same_message_or_same_error_class(self, seed, kind, dispatch, junk, cut):
        frame = _valid_frame(seed, kind, dispatch)
        at = cut % len(frame)
        flipped = bytearray(frame)
        flipped[at] ^= 1 << (cut % 8)
        clean = (encode_frame(decode_frame(frame)[0]), len(frame))
        decoded = 0
        for data in (
            frame,
            frame + junk,  # a stream: the frame decodes, ``end`` stops before junk
            frame[:at],
            bytes(flipped),
            junk + frame,
            # CRC-valid but structurally damaged: only the body parse refuses.
            _restamped(bytes(flipped)),
            _restamped(frame[: max(at, 16)] + junk + frame[max(at, 16) :]),
        ):
            plain = _outcome(lambda: decode_frame(data))
            given_header = _outcome(
                lambda: decode_frame(data, header=verify_frame(data))
            )
            assert plain == given_header
            decoded += plain == clean
        assert decoded >= 2  # the frame itself and the frame followed by junk


def test_crc_valid_frame_with_a_non_utf8_string_is_a_frame_error():
    # A CRC is not a MAC: a peer can stamp a valid one on any body.
    frame = bytearray(_valid_frame(7, 1, True))
    assert frame[24:27] == b"\x00\x01j"  # v2 header, then the job id
    frame[26] = 0xFF
    with pytest.raises(FrameError, match="UTF-8"):
        decode_frame(_restamped(bytes(frame)))


class TestExhaustiveSingleBitSweep:
    """Non-random twin of the property: every bit of one frame per shape."""

    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    @pytest.mark.parametrize("dispatch", [False, True])
    def test_all_bits(self, kind, dispatch):
        frame = _valid_frame(7, kind, dispatch)
        for position in range(len(frame) * 8):
            damaged = bytearray(frame)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(damaged))
