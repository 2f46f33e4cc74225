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

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

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

MAGIC = b"GEG1"
_HEADER = struct.Struct(">4sBBI")  # magic | type | d | payload length
HEADER_LEN = _HEADER.size
_PIECE = 1 << 16  # the most bytes read_frame_from asks a stream for at once

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
    if not 2 <= msg.d <= 0xFF:  # the header's dimension byte, as read_frame reads it
        raise ValueError(f"dimension {msg.d} does not fit the frame header (2 <= d <= 255)")
    return _HEADER.pack(MAGIC, msg.msg_type, msg.d, len(msg.payload)) + msg.payload


def read_frame(data: bytes, offset: int = 0) -> tuple[WireMessage, int]:
    """Parse one frame starting at `offset`; returns (message, next offset).

    Never reads past the declared payload length; every rejection raises a
    distinct CodecError subclass.
    """
    if len(data) - offset < HEADER_LEN:
        raise FrameLengthError("truncated frame header")
    magic, msg_type, d, length = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise FrameMagicError(f"unsupported magic {magic!r}")
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


def read_frame_from(stream: BinaryIO, head: bytes = b"") -> WireMessage:
    """The frame that begins with `head` and goes on in a binary stream, read
    in pieces of at most 64 KiB, no further than its declared end or the
    stream's: raises what read_frame raises on head plus the rest of the stream."""
    data = bytearray(head)
    while True:
        end = HEADER_LEN + (_HEADER.unpack_from(data)[3] if len(data) >= HEADER_LEN else 0)
        if len(data) >= end or not (piece := stream.read(min(end - len(data), _PIECE))):
            return read_frame(data)[0]
        data += piece


def parse(data: bytes) -> WireMessage:
    """Strict single-frame parse: the buffer must hold exactly one frame."""
    msg, end = read_frame(data, 0)
    if end != len(data):
        raise FrameLengthError(f"{len(data) - end} trailing bytes after frame")
    return msg


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


def cipher_block_message(block: tuple[MatrixFp, MatrixFp]) -> WireMessage:
    """The message of one (y1, y2) pair: the N=1 case of cipher_frames."""
    y1, y2 = block
    return WireMessage(MSG_CIPHER_BLOCK, y1.d,
                       cipher_frames(y1.array[np.newaxis], y2.array[np.newaxis])[HEADER_LEN:])


def cipher_block_from_message(msg: WireMessage) -> tuple[MatrixFp, MatrixFp]:
    """The (y1, y2) pair of one cipher-block message: the N=1 case of
    read_cipher_chunks, which raises what read_frame would."""
    y1, y2 = next(read_cipher_chunks(io.BytesIO(frame(msg)), msg.d, 1))
    return MatrixFp(y1[0]), MatrixFp(y2[0])


def cipher_frames(y1: np.ndarray, y2: np.ndarray) -> bytes:
    """The cipher-block frames of (N, d, d) stacks y1 and y2, in block order:
    the same bytes as framing each block's message on its own."""
    n, d = y1.shape[0], y1.shape[1]
    out = np.empty((n, HEADER_LEN + 2 * d * d), dtype=np.uint8)
    out[:, :HEADER_LEN] = np.frombuffer(_cipher_header(d), dtype=np.uint8)
    out[:, HEADER_LEN : HEADER_LEN + d * d] = y1.reshape(n, d * d)
    out[:, HEADER_LEN + d * d :] = y2.reshape(n, d * d)
    return out.tobytes()


def read_cipher_chunks(stream: BinaryIO, d: int, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (y1, y2) stacks of the cipher-block frames at dimension d that fill
    the rest of a binary stream, `count` frames at a time, as read-only views
    of the chunk read.

    Every header and every payload byte of a chunk is checked in one pass.
    The first frame that fails is read on by read_frame_from, from its bytes
    in the chunk to its declared end, so each defect raises the error it
    raises frame by frame: a framing error, a FrameValueError for a frame at
    another d, or a FrameTypeError.
    """
    size, half = HEADER_LEN + 2 * d * d, HEADER_LEN + d * d
    header = np.frombuffer(_cipher_header(d), dtype=np.uint8)
    while chunk := stream.read(count * size):
        frames = np.frombuffer(chunk, dtype=np.uint8, count=len(chunk) // size * size)
        frames = frames.reshape(-1, size)
        headers = frames[:, :HEADER_LEN] == header
        # the common case first: one reduction over the whole chunk
        if len(chunk) % size or not headers.all() or frames[:, HEADER_LEN:].max(initial=0) >= DEFAULT_PRIME:
            good = headers.all(axis=1) & (frames[:, HEADER_LEN:].max(axis=1, initial=0) < DEFAULT_PRIME)
            bad = np.flatnonzero(~good)
            msg = read_frame_from(stream, chunk[size * (int(bad[0]) if bad.size else len(frames)):])
            if msg.d != d:
                raise FrameValueError(f"frame at d={msg.d} in a ciphertext stream at d={d}")
            raise FrameTypeError("not a cipher-block message")
        yield frames[:, HEADER_LEN:half].reshape(-1, d, d), frames[:, half:].reshape(-1, d, d)


def _cipher_header(d: int) -> bytes:
    return _HEADER.pack(MAGIC, MSG_CIPHER_BLOCK, d, 2 * d * d)


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


def encode_plaintext(data: bytes, d: int = 8, *, final: bool = True) -> np.ndarray:
    """Pack bytes into an (N, d, d) uint8 stack of message blocks at 7 bytes
    per 8 entries, then pad.

    Padding is always appended (a full final block gains one extra all-pad
    block), so decoding is unambiguous for every input length including zero.
    With final=False, `data` is a chunk of whole blocks that more of the
    message follows, packed without padding: the chunks of a message, cut at
    whole blocks and encoded in turn, join to the encoding of the whole.
    """
    cap = block_capacity(d)
    if final:
        pad = cap - len(data) % cap
        data = data + bytes([pad]) * pad
    elif len(data) % cap:
        raise ValueError(f"a chunk before the last holds whole blocks of {cap} bytes, "
                         f"not {len(data)} bytes")
    chunks = np.frombuffer(data, dtype=np.uint8).reshape(-1, _PACK_CHUNK)
    # each chunk, behind one zero byte, is a big-endian 64-bit word
    words = np.zeros((len(chunks), _DIGITS_PER_CHUNK), dtype=np.uint8)
    words[:, 1:] = chunks
    values = words.view(">u8")[:, 0]
    # one place at a time, least significant first: no temporary holds a uint64 per digit
    digits = np.empty(words.shape, dtype=np.uint8)
    for place in range(_DIGITS_PER_CHUNK - 1, -1, -1):
        values, digits[:, place] = np.divmod(values, DEFAULT_PRIME)
    return digits.reshape(-1, d, d)


def decode_plaintext(blocks, *, final: bool = True) -> bytes:
    """Inverse of encode_plaintext, on an (N, d, d) stack or anything numpy
    reads as one (a list of MatrixFp, say); validates the shape, the digits,
    the digit groups and, in the final chunk only, the padding.  With
    final=False the blocks are a chunk that more of the message follows, and
    all of their bytes are returned."""
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
    if not final:
        return out
    pad = out[-1]
    if not 1 <= pad <= cap:
        raise PaddingError(f"pad length byte {pad} outside [1, {cap}]")
    if out[-pad:] != bytes([pad]) * pad:
        raise PaddingError("pad bytes are not uniform")
    return out[:-pad]
