import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geg import errors, wire
from geg.errors import CodecError, CorruptBlockError, PaddingError
from geg.field import RandomSource
from geg.linalg import MatrixFp

from oracles import loop_decode_plaintext, loop_encode_plaintext

FIXTURES = Path(__file__).parent / "fixtures" / "wire_vectors.json"
DERANDOMIZED = settings(derandomize=True, max_examples=200, database=None, deadline=None)


def outcome(call):
    """What `call()` returns, or the type and message of the CodecError it raises."""
    try:
        return call()
    except CodecError as exc:
        return type(exc), str(exc)


@st.composite
def cut_stacks(draw):
    """(d, raw, cuts): the bytes of a few whole blocks at dimension d, which
    end in valid padding about half the time, and sorted block indices
    inside the stack to cut it at."""
    d = draw(st.sampled_from([4, 8, 16]))
    cap, blocks = wire.block_capacity(d), draw(st.integers(1, 6))
    raw = draw(st.binary(min_size=blocks * cap, max_size=blocks * cap))
    if draw(st.booleans()):
        pad = draw(st.integers(1, cap))
        raw = raw[:-pad] + bytes([pad]) * pad
    cuts = sorted(draw(st.sets(st.integers(1, blocks - 1), max_size=3)) if blocks > 1 else set())
    return d, raw, cuts


@st.composite
def frame_bytes(draw):
    """A frame of a known type at a small d, whose payload may have the wrong
    length or bytes out of range, cut short or followed by more bytes."""
    types = [wire.MSG_BASIS_INIT, wire.MSG_TOKEN_ACK, wire.MSG_CIPHER_BLOCK, wire.MSG_CONTEXT_PARAMS]
    msg_type, d = draw(st.sampled_from(types)), draw(st.integers(2, 3))
    fits = {wire.MSG_CIPHER_BLOCK: 2 * d * d, wire.MSG_CONTEXT_PARAMS: 2}.get(msg_type, d * d)
    size = draw(st.sampled_from([fits, fits, draw(st.integers(0, 30))]))
    payload = bytes(draw(st.lists(st.integers(0, 251), min_size=size, max_size=size)))
    raw = wire.frame(wire.WireMessage(msg_type, d, payload))
    end = draw(st.sampled_from([len(raw), draw(st.integers(0, len(raw)))]))
    return raw[:end] + draw(st.binary(max_size=20))


class Pipe:
    """A binary stream of `data` that, like a pipe, cannot seek or tell."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)

    def read(self, size=-1):
        return self.buffer.read(size)

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def frame_by_frame(stream: bytes, d: int) -> list[list]:
    """The y1 and y2 lists of a cipher-block stream at d, parsed one frame at
    a time by read_frame: the reference for read_cipher_chunks."""
    blocks, offset = [[], []], 0
    while offset < len(stream):
        msg, offset = wire.read_frame(stream, offset)
        if msg.d != d:
            raise errors.FrameValueError(f"frame at d={msg.d} in a ciphertext stream at d={d}")
        if msg.msg_type != wire.MSG_CIPHER_BLOCK:
            raise errors.FrameTypeError("not a cipher-block message")
        for half, part in zip(blocks, (msg.payload[: d * d], msg.payload[d * d :])):
            half.append(np.frombuffer(part, np.uint8).reshape(d, d).tolist())
    return blocks


def pieces(items, cuts):
    return [items[a:b] for a, b in zip([0, *cuts], [*cuts, len(items)])]


@st.composite
def cipher_streams(draw):
    """(d, stream): the cipher-block frames of a few random blocks at d,
    with a few bytes overwritten, cut out or put in."""
    d = draw(st.sampled_from([2, 3]))
    blocks = draw(st.integers(0, 5))
    y1, y2 = (np.array(draw(st.lists(st.integers(0, 250), min_size=blocks * d * d,
                                     max_size=blocks * d * d)), np.uint8).reshape(-1, d, d)
              for _ in range(2))
    stream = bytearray(wire.cipher_frames(y1, y2))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(stream)))
        kind = draw(st.sampled_from(["overwrite", "delete", "insert", "frame"]))
        new = {"delete": b"", "frame": draw(frame_bytes())}.get(kind) or draw(st.binary(min_size=1, max_size=12))
        cut = {"overwrite": len(new), "delete": draw(st.integers(1, 12))}.get(kind, 0)
        stream[at : at + cut] = new
    return d, bytes(stream)


class TestFraming:
    @pytest.mark.parametrize(
        "msg_type",
        [
            wire.MSG_BASIS_INIT,
            wire.MSG_GENERATOR_INIT,
            wire.MSG_TOKEN_INITIAL,
            wire.MSG_TOKEN_OPEN,
            wire.MSG_TOKEN_ACK,
        ],
    )
    def test_matrix_message_round_trip(self, msg_type):
        rng = RandomSource.deterministic(msg_type)
        m = MatrixFp.random(rng, 8, 251)
        msg = wire.matrix_message(msg_type, m)
        assert wire.parse(wire.frame(msg)) == msg
        assert wire.matrix_from_message(msg) == m

    def test_cipher_block_round_trip(self):
        rng = RandomSource.deterministic(0)
        block = (MatrixFp.random(rng, 8, 251), MatrixFp.random(rng, 8, 251))
        msg = wire.cipher_block_message(block)
        parsed = wire.parse(wire.frame(msg))
        assert wire.cipher_block_from_message(parsed) == block

    @pytest.mark.parametrize("d", [8, 16])
    def test_cipher_block_message_is_one_bulk_frame(self, d):
        rng = RandomSource.deterministic(d)
        y1, y2 = MatrixFp.random(rng, d, 251), MatrixFp.random(rng, d, 251)
        raw = wire.frame(wire.cipher_block_message((y1, y2)))
        assert raw == wire.cipher_frames(y1.array[np.newaxis], y2.array[np.newaxis])

    @pytest.mark.parametrize("payload, error", [
        (bytes([251]) + bytes(127), errors.FrameValueError),  # in y1
        (bytes(127) + bytes([251]), errors.FrameValueError),  # in y2
        (bytes(127), errors.FrameLengthError),
        (bytes(129), errors.FrameLengthError),
    ])
    def test_cipher_block_from_bad_payload_rejected(self, payload, error):
        with pytest.raises(error):
            wire.cipher_block_from_message(wire.WireMessage(wire.MSG_CIPHER_BLOCK, 8, payload))

    def test_cipher_block_from_token_message_rejected(self):
        token = wire.matrix_message(wire.MSG_TOKEN_OPEN, MatrixFp.identity(8))
        with pytest.raises(errors.FrameTypeError):
            wire.cipher_block_from_message(token)

    def test_context_round_trip(self):
        msg = wire.context_message(8, 251)
        assert wire.context_from_message(wire.parse(wire.frame(msg))) == (8, 251)

    def test_truncated_frame(self):
        raw = wire.frame(wire.context_message(8, 251))
        with pytest.raises(errors.FrameLengthError):
            wire.parse(raw[:-1])

    def test_bad_magic(self):
        raw = wire.frame(wire.context_message(8, 251))
        with pytest.raises(errors.FrameMagicError):
            wire.parse(b"GEG2" + raw[4:])

    def test_unknown_type(self):
        raw = bytearray(wire.frame(wire.context_message(8, 251)))
        raw[4] = 0x77
        with pytest.raises(errors.FrameTypeError):
            wire.parse(bytes(raw))

    def test_out_of_range_matrix_byte(self):
        raw = bytearray(
            wire.frame(wire.matrix_message(wire.MSG_BASIS_INIT, MatrixFp.identity(2, 251)))
        )
        raw[-1] = 251
        with pytest.raises(errors.FrameValueError):
            wire.parse(bytes(raw))

    def test_identity_serialization_layout(self):
        raw = wire.matrix_to_bytes(MatrixFp.identity(8, 251))
        assert len(raw) == 64
        assert [i for i, b in enumerate(raw) if b] == [0, 9, 18, 27, 36, 45, 54, 63]

    def test_bytes_to_matrix_rejects_out_of_range(self):
        with pytest.raises(errors.FrameValueError):
            wire.bytes_to_matrix(bytes([251]) + bytes(63), 8)

    def test_matrix_bytes_round_trip(self):
        rng = RandomSource.deterministic(1)
        for d in (2, 8, 16):
            m = MatrixFp.random(rng, d, 251)
            assert wire.bytes_to_matrix(wire.matrix_to_bytes(m), d) == m

    @pytest.mark.parametrize("length", [0, 63, 65])
    def test_bytes_to_matrix_rejects_wrong_length(self, length):
        with pytest.raises(errors.FrameLengthError, match=f"expected 64 matrix bytes, got {length}"):
            wire.bytes_to_matrix(bytes(length), 8)

    @pytest.mark.parametrize("msg", [
        wire.context_message(8, 251),
        wire.WireMessage(wire.MSG_CIPHER_BLOCK, 8, bytes(128)),
    ])
    def test_matrix_from_other_message_rejected(self, msg):
        with pytest.raises(errors.FrameTypeError, match="does not carry a single matrix"):
            wire.matrix_from_message(msg)

    def test_context_from_matrix_message_rejected(self):
        msg = wire.matrix_message(wire.MSG_BASIS_INIT, MatrixFp.identity(8))
        with pytest.raises(errors.FrameTypeError, match="not a context-params message"):
            wire.context_from_message(msg)

    @pytest.mark.parametrize("msg_type", [wire.MSG_CIPHER_BLOCK, wire.MSG_CONTEXT_PARAMS, 0x77])
    def test_matrix_message_of_non_matrix_type_refused(self, msg_type):
        with pytest.raises(ValueError, match="does not carry a single matrix"):
            wire.matrix_message(msg_type, MatrixFp.identity(8))

    @pytest.mark.parametrize("msg", [
        wire.matrix_message(wire.MSG_TOKEN_INITIAL, MatrixFp.identity(256)),
        wire.context_message(300, 251),
        wire.context_message(1, 251),
    ], ids=["matrix-d256", "context-d300", "context-d1"])
    def test_frame_refuses_dimension_outside_header_byte(self, msg):
        with pytest.raises(ValueError, match="does not fit the frame header"):
            wire.frame(msg)

    def test_frame_takes_largest_header_dimension(self):
        msg = wire.context_message(255, 251)
        assert wire.parse(wire.frame(msg)) == msg

    @pytest.mark.parametrize("p", [-1, 0, 1, 0x10000])
    def test_context_message_modulus_out_of_range_refused(self, p):
        with pytest.raises(ValueError, match="modulus out of range"):
            wire.context_message(8, p)


    @DERANDOMIZED
    @given(st.one_of(frame_bytes(), st.binary(max_size=300)), st.integers(0, 320))
    def test_read_frame_from_reads_what_read_frame_reads(self, raw, cut):
        # the frame that begins with raw[:cut] and goes on in a stream that
        # cannot seek, read no further than its declared end
        stream = Pipe(raw[cut:])
        got = outcome(lambda: wire.read_frame_from(stream, raw[:cut]))
        assert got == outcome(lambda: wire.read_frame(raw)[0])
        if isinstance(got, wire.WireMessage):
            assert stream.buffer.tell() == max(wire.read_frame(raw)[1] - cut, 0)

    def test_read_frame_from_asks_a_piece_at_a_time(self):
        # a declared payload of 4 GiB is not a read of 4 GiB: the payload is
        # asked for a piece at a time, up to the end of the stream
        class Recorded(Pipe):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        raw = bytearray(wire.frame(wire.context_message(8, 251)))
        raw[6:10] = (2**32 - 1).to_bytes(4, "big")  # the declared payload length
        stream, sizes = Recorded(bytes(raw) + bytes(3 * wire._PIECE)), []
        with pytest.raises(errors.FrameLengthError, match="4294967295 bytes is truncated"):
            wire.read_frame_from(stream)
        assert sizes[0] == wire.HEADER_LEN and max(sizes) == wire._PIECE
        assert stream.buffer.tell() == len(raw) + 3 * wire._PIECE

    @DERANDOMIZED
    @given(cipher_streams(), st.integers(1, 4))
    def test_cipher_chunks_read_what_read_frame_reads(self, case, count):
        # a chunk's bad frame is read on to its declared end, past the chunk
        # and without a seek, so it raises what it raises when the stream is
        # parsed frame by frame
        d, stream = case
        chunks = outcome(lambda: list(wire.read_cipher_chunks(Pipe(stream), d, count)))
        if isinstance(chunks, list):
            assert all(len(y1) <= count for y1, _ in chunks)
            chunks = [sum((y.tolist() for y in part), []) for part in zip(*chunks)] or [[], []]
        assert chunks == outcome(lambda: frame_by_frame(stream, d))


class TestFixtures:
    def test_all_shipped_vectors(self):
        vectors = json.loads(FIXTURES.read_text())
        assert len(vectors) >= 15
        for v in vectors:
            raw = bytes.fromhex(v["hex"])
            if v["expect"] == "ok":
                msg = wire.parse(raw)
                assert msg.msg_type == v["msg_type"], v["name"]
                assert msg.d == v["d"], v["name"]
                assert msg.payload.hex() == v["payload_hex"], v["name"]
                assert wire.frame(msg).hex() == v["hex"], v["name"]
            else:
                with pytest.raises(getattr(errors, v["error"])):
                    wire.parse(raw)


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rnd = random.Random(0xF00D)
        ok = failures = 0
        for _ in range(20_000):
            n = rnd.randrange(0, 64)
            raw = bytes(rnd.randrange(256) for _ in range(n))
            try:
                wire.parse(raw)
                ok += 1
            except CodecError:
                failures += 1
        assert ok + failures == 20_000

    def test_mutated_valid_frames_never_crash(self):
        rnd = random.Random(0xBEEF)
        base = wire.frame(
            wire.matrix_message(wire.MSG_TOKEN_INITIAL, MatrixFp.identity(8, 251))
        )
        for _ in range(5_000):
            raw = bytearray(base)
            for _ in range(rnd.randrange(1, 5)):
                raw[rnd.randrange(len(raw))] = rnd.randrange(256)
            try:
                wire.parse(bytes(raw))
            except CodecError:
                pass


class TestBlockCodec:
    def test_empty_input_is_one_pad_block(self):
        blocks = wire.encode_plaintext(b"", 8)
        assert len(blocks) == 1
        assert wire.decode_plaintext(blocks) == b""

    def test_exact_block_gains_pad_block(self):
        data = bytes(range(56))
        blocks = wire.encode_plaintext(data, 8)
        assert len(blocks) == 2
        assert wire.decode_plaintext(blocks) == data

    def test_capacity(self):
        assert wire.block_capacity(8) == 56
        assert wire.block_capacity(16) == 224
        with pytest.raises(ValueError):
            wire.block_capacity(6)
        # d=20 would carry 350 bytes per block, more than one pad byte can count
        with pytest.raises(ValueError, match="exceeds one-byte padding range"):
            wire.block_capacity(20)

    def test_round_trip_boundary_lengths_both_dims(self):
        rnd = random.Random(7)
        for n in (0, 1, 7, 8, 55, 56, 57, 111, 112, 113, 223, 224, 225, 1000):
            data = rnd.randbytes(n)
            for d in (8, 16):
                assert wire.decode_plaintext(wire.encode_plaintext(data, d)) == data

    def test_round_trip_random_lengths(self):
        rnd = random.Random(8)
        for _ in range(1000):
            data = rnd.randbytes(rnd.randrange(0, 10_000))
            assert wire.decode_plaintext(wire.encode_plaintext(data, 8)) == data

    def test_expansion_rate(self):
        blocks = wire.encode_plaintext(bytes(56), 8)
        total = 2 * blocks[0].size * len(blocks)
        # 56 data bytes -> one data block + one pad block, 128 cipher bytes each
        assert total == 256

    def test_stack_and_matrix_list_decode_alike(self):
        rnd = random.Random(13)
        for d in (8, 16):
            stack = wire.encode_plaintext(rnd.randbytes(500), d)
            assert stack.dtype == np.uint8 and stack.shape[1:] == (d, d)
            as_list = [MatrixFp(b, 251) for b in stack]
            assert wire.decode_plaintext(as_list) == wire.decode_plaintext(stack)

    def test_malformed_stack_rejected(self):
        good = wire.encode_plaintext(b"hi", 8)
        ragged = [MatrixFp(good[0], 251), MatrixFp.identity(16, 251)]
        ragged_rows = [good[0].tolist(), good[0].tolist()[:4]]
        out_of_range = good.astype(np.int64)
        out_of_range[0, 7, 7] = 251
        for bad in (ragged, ragged_rows, out_of_range, good[:0], good[0],
                    np.zeros((1, 8, 4), np.uint8)):
            with pytest.raises(CorruptBlockError):
                wire.decode_plaintext(bad)

    def test_ndarray_times_matrix_refused(self):
        # numpy would otherwise multiply the entries as plain integers, unreduced
        m = MatrixFp.identity(8, 251)
        with pytest.raises(TypeError):
            np.ones((8, 8), dtype=np.int64) @ m
        assert np.stack([m, m]).shape == (2, 8, 8)
        assert not np.asarray(m).flags.writeable  # a view, so the matrix stays immutable

    def test_corrupt_digit_group_detected(self):
        blocks = wire.encode_plaintext(bytes(10), 8)
        rows = blocks[0].tolist()
        rows[0] = [250] * 8  # 250 * (251**7 + ...) overflows 2**56
        with pytest.raises(CorruptBlockError):
            wire.decode_plaintext([MatrixFp(rows, 251)])

    def test_bad_padding_detected(self):
        blocks = wire.encode_plaintext(b"", 8)
        digits = []
        value = int.from_bytes(bytes([57]) * 7, "big")  # pad byte > capacity
        for _ in range(8):
            digits.append(value % 251)
            value //= 251
        rows = [digits[::-1] for _ in range(8)]
        with pytest.raises(PaddingError):
            wire.decode_plaintext([MatrixFp(rows, 251)])

    def test_fuzzed_blocks_raise_cleanly(self):
        rnd = random.Random(99)
        caught = 0
        for _ in range(500):
            rows = [[rnd.randrange(251) for _ in range(8)] for _ in range(8)]
            try:
                wire.decode_plaintext([MatrixFp(rows, 251)])
            except CodecError:
                caught += 1
        assert caught > 400  # random digit groups rarely decode to valid padding

    def test_array_codec_matches_loop_oracle(self):
        rnd = random.Random(12)
        for d in (8, 16):
            for n in [0, 2000] + [rnd.randrange(0, 2001) for _ in range(60)]:
                data = rnd.randbytes(n)
                blocks = wire.encode_plaintext(data, d)
                rows = [b.tolist() for b in blocks]
                assert rows == loop_encode_plaintext(data, d)
                assert wire.decode_plaintext(blocks) == loop_decode_plaintext(rows) == data

    def test_fuzzed_blocks_match_loop_oracle(self):
        rnd = random.Random(99)
        # the inputs of test_fuzzed_blocks_raise_cleanly
        cases = [[[[rnd.randrange(251) for _ in range(8)] for _ in range(8)]] for _ in range(500)]
        # valid encodings with one digit changed, so groups and padding fail in every way
        for _ in range(500):
            rows = [b.tolist() for b in wire.encode_plaintext(rnd.randbytes(rnd.randrange(120)), 8)]
            rnd.choice(rows)[rnd.randrange(8)][rnd.randrange(8)] = rnd.randrange(251)
            cases.append(rows)
        # one group on either side of the 2**56 limit
        for value in (2**56 - 1, 2**56):
            rows = wire.encode_plaintext(b"", 8)[0].tolist()
            rows[3] = [value // 251**k % 251 for k in range(7, -1, -1)]
            cases.append([rows])
        outcomes = set()
        for blocks in cases:
            try:
                expected = loop_decode_plaintext(blocks)
            except CodecError as exc:
                outcomes.add(type(exc))
                with pytest.raises(type(exc)):
                    wire.decode_plaintext([MatrixFp(b, 251) for b in blocks])
            else:
                outcomes.add(bytes)
                assert wire.decode_plaintext([MatrixFp(b, 251) for b in blocks]) == expected
        assert outcomes == {bytes, CorruptBlockError, PaddingError}

    @DERANDOMIZED
    @given(cut_stacks(), st.booleans())
    def test_chunked_encode_joins_to_the_whole(self, case, short):
        # the message's chunks, cut at whole blocks with only the last padded,
        # encode to the stack of the whole; the last chunk may be short
        d, raw, cuts = case
        data = raw[: -1 - len(raw) // 3] if short else raw
        cap = wire.block_capacity(d)
        cuts = [cut for cut in cuts if cut * cap <= len(data)]
        *body, last = pieces(data, [cut * cap for cut in cuts])
        chunked = [wire.encode_plaintext(part, d, final=False) for part in body]
        chunked.append(wire.encode_plaintext(last, d))
        assert np.concatenate(chunked).tolist() == wire.encode_plaintext(data, d).tolist()

    @DERANDOMIZED
    @given(cut_stacks())
    def test_chunked_decode_matches_the_whole(self, case):
        # any stack of valid digit groups, its padding valid or not: every
        # chunk but the last decodes to its bytes and raises no PaddingError,
        # and the chunks join to what the whole stack decodes to or raises
        d, raw, cuts = case
        stack = wire.encode_plaintext(raw, d, final=False)
        *body, last = pieces(stack, cuts)
        decoded = [wire.decode_plaintext(part, final=False) for part in body]
        assert decoded == [bytes(part) for part in pieces(raw, [cut * wire.block_capacity(d) for cut in cuts])[:-1]]
        tail = outcome(lambda: wire.decode_plaintext(last))
        whole = outcome(lambda: wire.decode_plaintext(stack))
        assert (b"".join(decoded) + tail if isinstance(tail, bytes) else tail) == whole

    def test_chunk_before_the_last_holds_whole_blocks(self):
        with pytest.raises(ValueError, match="whole blocks of 56 bytes, not 57 bytes"):
            wire.encode_plaintext(bytes(57), 8, final=False)
        assert wire.encode_plaintext(b"", 8, final=False).shape == (0, 8, 8)
