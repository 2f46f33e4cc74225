"""Byte-exact wire encodings: frames, matrix serialization, block packing.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic "GEG1"
    4       1     message type
    5       1     matrix dimension d
    6       4     payload length
    10      n     payload

Message types:

    0x01 basis-init        payload = d*d matrix bytes
    0x02 generator-init    payload = d*d matrix bytes
    0x03 token-initial     payload = d*d matrix bytes
    0x04 session-open-token payload = d*d matrix bytes
    0x05 session-ack-token payload = d*d matrix bytes
    0x06 cipher-block      payload = 2*d*d matrix bytes (y1 then y2)
    0x07 context-params    payload = 2 bytes, the prime modulus

Matrix bytes are row-major, one byte per entry, every byte < 251.  Plaintext
packs at a fixed rate: each 7-byte chunk becomes a 56-bit integer written as
8 base-251 digits (most significant first), and d*d digits fill one matrix,
so a d=8 block carries exactly 56 plaintext bytes.  Padding over the byte
layer is always appended: pad length in [1, capacity], every pad byte equal
to the pad length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    CorruptBlockError,
    FrameLengthError,
    FrameMagicError,
    FrameTypeError,
    FrameValueError,
    PaddingError,
)
from .field import DEFAULT_PRIME
from .linalg import MatrixFp
from .protocol import CipherBlock

MAGIC = b"GEG1"
HEADER_LEN = 10

MSG_BASIS_INIT = 0x01
MSG_GENERATOR_INIT = 0x02
MSG_TOKEN_INITIAL = 0x03
MSG_TOKEN_OPEN = 0x04
MSG_TOKEN_ACK = 0x05
MSG_CIPHER_BLOCK = 0x06
MSG_CONTEXT_PARAMS = 0x07

_MATRIX_COUNT = {
    MSG_BASIS_INIT: 1,
    MSG_GENERATOR_INIT: 1,
    MSG_TOKEN_INITIAL: 1,
    MSG_TOKEN_OPEN: 1,
    MSG_TOKEN_ACK: 1,
    MSG_CIPHER_BLOCK: 2,
}
_KNOWN_TYPES = frozenset(_MATRIX_COUNT) | {MSG_CONTEXT_PARAMS}

_PACK_CHUNK = 7          # plaintext bytes per digit group
_DIGITS_PER_CHUNK = 8    # base-251 digits per group; 251**8 > 2**56
# place values, most significant first; 251**8 - 1 < 2**64, so uint64 never wraps
_PLACES = DEFAULT_PRIME ** np.arange(_DIGITS_PER_CHUNK - 1, -1, -1, dtype=np.uint64)


@dataclass(frozen=True)
class WireMessage:
    msg_type: int
    d: int
    payload: bytes


# -- framing -----------------------------------------------------------------

def frame(msg: WireMessage) -> bytes:
    return MAGIC + struct.pack(">BBI", msg.msg_type, msg.d, len(msg.payload)) + msg.payload


def read_frame(data: bytes, offset: int = 0) -> tuple[WireMessage, int]:
    """Parse one frame starting at `offset`; returns (message, next offset).

    Never reads past the declared payload length; every rejection raises a
    distinct CodecError subclass.
    """
    if len(data) - offset < HEADER_LEN:
        raise FrameLengthError("truncated frame header")
    if data[offset : offset + 4] != MAGIC:
        raise FrameMagicError(f"unsupported magic {data[offset:offset + 4]!r}")
    msg_type, d, length = struct.unpack_from(">BBI", data, offset + 4)
    if msg_type not in _KNOWN_TYPES:
        raise FrameTypeError(f"unknown message type 0x{msg_type:02x}")
    if d < 2:
        raise FrameValueError(f"dimension byte must be >= 2, got {d}")
    end = offset + HEADER_LEN + length
    if end > len(data):
        raise FrameLengthError(f"declared payload of {length} bytes is truncated")
    payload = bytes(data[offset + HEADER_LEN : end])
    count = _MATRIX_COUNT.get(msg_type)
    if count is not None:
        if length != count * d * d:
            raise FrameLengthError(
                f"type 0x{msg_type:02x} at d={d} requires {count * d * d} payload bytes, got {length}"
            )
        if max(payload, default=0) >= DEFAULT_PRIME:
            raise FrameValueError("matrix payload byte out of range (must be < 251)")
    else:
        if length != 2:
            raise FrameLengthError("context-params payload must be exactly 2 bytes")
    return WireMessage(msg_type, d, payload), end


def parse(data: bytes) -> WireMessage:
    """Strict single-frame parse: the buffer must hold exactly one frame."""
    msg, end = read_frame(data, 0)
    if end != len(data):
        raise FrameLengthError(f"{len(data) - end} trailing bytes after frame")
    return msg


def iter_frames(data: bytes) -> Iterator[WireMessage]:
    offset = 0
    while offset < len(data):
        msg, offset = read_frame(data, offset)
        yield msg


# -- matrix serialization ------------------------------------------------------

def matrix_to_bytes(m: MatrixFp) -> bytes:
    """Row-major, one byte per entry; bijective with the entry grid."""
    return m.array.tobytes()


def bytes_to_matrix(data: bytes, d: int) -> MatrixFp:
    if len(data) != d * d:
        raise FrameLengthError(f"expected {d * d} matrix bytes, got {len(data)}")
    if max(data, default=0) >= DEFAULT_PRIME:
        raise FrameValueError("matrix byte out of range (must be < 251)")
    return MatrixFp(np.frombuffer(data, dtype=np.uint8).reshape(d, d))


# -- message helpers -----------------------------------------------------------

def matrix_message(msg_type: int, m: MatrixFp) -> WireMessage:
    if _MATRIX_COUNT.get(msg_type) != 1:
        raise ValueError(f"type 0x{msg_type:02x} does not carry a single matrix")
    return WireMessage(msg_type, m.d, matrix_to_bytes(m))


def matrix_from_message(msg: WireMessage) -> MatrixFp:
    if _MATRIX_COUNT.get(msg.msg_type) != 1:
        raise FrameTypeError(f"type 0x{msg.msg_type:02x} does not carry a single matrix")
    return bytes_to_matrix(msg.payload, msg.d)


def cipher_block_message(block: CipherBlock) -> WireMessage:
    return WireMessage(
        MSG_CIPHER_BLOCK,
        block.y1.d,
        matrix_to_bytes(block.y1) + matrix_to_bytes(block.y2),
    )


def cipher_block_from_message(msg: WireMessage) -> CipherBlock:
    if msg.msg_type != MSG_CIPHER_BLOCK:
        raise FrameTypeError("not a cipher-block message")
    half = msg.d * msg.d
    return CipherBlock(
        bytes_to_matrix(msg.payload[:half], msg.d),
        bytes_to_matrix(msg.payload[half:], msg.d),
    )


def cipher_frames(y1: np.ndarray, y2: np.ndarray) -> bytes:
    """The cipher-block frames of (N, d, d) stacks y1 and y2, in block order:
    the same bytes as framing each block's message on its own."""
    n, d = y1.shape[0], y1.shape[1]
    out = np.empty((n, HEADER_LEN + 2 * d * d), dtype=np.uint8)
    out[:, :HEADER_LEN] = np.frombuffer(_cipher_header(d), dtype=np.uint8)
    out[:, HEADER_LEN : HEADER_LEN + d * d] = y1.reshape(n, d * d)
    out[:, HEADER_LEN + d * d :] = y2.reshape(n, d * d)
    return out.tobytes()


def read_cipher_blocks(data: bytes, offset: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N, d, d) stacks y1 and y2 of the cipher-block frames at dimension
    d that fill data[offset:], as read-only views of `data`.

    Every header and every payload byte is checked in one pass.  From the
    first frame that fails, the stream is parsed by read_frame, so each
    defect raises the error it raises frame by frame: a framing error, a
    FrameValueError for a frame at another d, or a FrameTypeError.
    """
    size = HEADER_LEN + 2 * d * d
    count = (len(data) - offset) // size
    frames = np.frombuffer(data, dtype=np.uint8, count=count * size, offset=offset)
    frames = frames.reshape(count, size)
    good = (frames[:, :HEADER_LEN] == np.frombuffer(_cipher_header(d), dtype=np.uint8)).all(axis=1)
    good &= frames[:, HEADER_LEN:].max(axis=1, initial=0) < DEFAULT_PRIME
    bad = np.flatnonzero(~good)
    if bad.size or offset + count * size != len(data):
        msg, _ = read_frame(data, offset + size * (int(bad[0]) if bad.size else count))
        if msg.d != d:
            raise FrameValueError(f"frame at d={msg.d} in a ciphertext stream at d={d}")
        raise FrameTypeError("not a cipher-block message")
    half = HEADER_LEN + d * d
    return (frames[:, HEADER_LEN:half].reshape(count, d, d),
            frames[:, half:].reshape(count, d, d))


def _cipher_header(d: int) -> bytes:
    return MAGIC + struct.pack(">BBI", MSG_CIPHER_BLOCK, d, 2 * d * d)


def context_message(d: int, p: int) -> WireMessage:
    if not 2 <= p <= 0xFFFF:
        raise ValueError("modulus out of range for context message")
    return WireMessage(MSG_CONTEXT_PARAMS, d, struct.pack(">H", p))


def context_from_message(msg: WireMessage) -> tuple[int, int]:
    if msg.msg_type != MSG_CONTEXT_PARAMS:
        raise FrameTypeError("not a context-params message")
    (p,) = struct.unpack(">H", msg.payload)
    return msg.d, p


# -- plaintext block codec -------------------------------------------------------

def block_capacity(d: int) -> int:
    """Plaintext bytes carried per matrix block."""
    if d % 4 != 0 or d < 4:
        raise ValueError("block codec requires the dimension to be a multiple of 4")
    cap = _PACK_CHUNK * d * d // _DIGITS_PER_CHUNK
    if cap > 255:
        raise ValueError("block capacity exceeds one-byte padding range (d too large)")
    return cap


def encode_plaintext(data: bytes, d: int = 8) -> np.ndarray:
    """Pack bytes into an (N, d, d) uint8 stack of message blocks at 7 bytes
    per 8 entries, then pad.

    Padding is always appended (a full final block gains one extra all-pad
    block), so decoding is unambiguous for every input length including zero.
    """
    cap = block_capacity(d)
    pad = cap - len(data) % cap
    chunks = np.frombuffer(data + bytes([pad]) * pad, dtype=np.uint8).reshape(-1, _PACK_CHUNK)
    # each chunk, behind one zero byte, is a big-endian 64-bit word
    words = np.zeros((len(chunks), _DIGITS_PER_CHUNK), dtype=np.uint8)
    words[:, 1:] = chunks
    digits = words.view(">u8") // _PLACES
    digits %= DEFAULT_PRIME
    return digits.reshape(-1, d, d).astype(np.uint8)


def decode_plaintext(blocks) -> bytes:
    """Inverse of encode_plaintext, on an (N, d, d) stack or anything numpy
    reads as one (a list of MatrixFp, say); validates the shape, the digits,
    the digit groups and the padding."""
    try:
        stack = np.asarray(blocks)
    except ValueError as exc:  # a ragged sequence
        raise CorruptBlockError("blocks of unequal shape") from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
        raise CorruptBlockError(f"a stack of square blocks required, got shape {stack.shape}")
    cap = block_capacity(stack.shape[1])
    if stack.dtype.kind not in "iu" or stack.min() < 0 or stack.max() >= DEFAULT_PRIME:
        raise CorruptBlockError("block entries must be digits in [0, 251)")
    digits = stack.astype(np.uint8, copy=False).reshape(-1, _DIGITS_PER_CHUNK)
    # einsum casts to uint64 in buffered slices; `@` would copy all digits as uint64
    values = np.einsum("ij,j->i", digits, _PLACES)
    if (values >> 8 * _PACK_CHUNK).any():
        raise CorruptBlockError("digit group exceeds the packed-chunk range")
    out = values.astype(">u8").view(np.uint8).reshape(-1, _DIGITS_PER_CHUNK)[:, 1:].tobytes()
    pad = out[-1]
    if not 1 <= pad <= cap:
        raise PaddingError(f"pad length byte {pad} outside [1, {cap}]")
    if out[-pad:] != bytes([pad]) * pad:
        raise PaddingError("pad bytes are not uniform")
    return out[:-pad]
