import contextlib
import errno
import functools
import io
import itertools
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from geg import cli, protocol, wire
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import start_session

from oracles import loop_encode_plaintext, reference_encrypt
from test_entry import child_env


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# blocks per chunk that geg encrypt and decrypt read and write at each d
CHUNK = {d: cli.CHUNK_SLICES * protocol.slice_blocks(d) for d in cli.PROTOCOL_DIMS}


@functools.cache
def seeded_stream(dim: int, blocks: int) -> tuple[bytes, bytes]:
    """(responder state, cipher stream) of a `keyexchange --seed beef` at
    `dim` and an `encrypt --seed 11` of a seeded file of `blocks` blocks."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        prefix, src, enc = (Path(work) / name for name in ("kx", "p.bin", "c.geg"))
        assert cli.main(["keyexchange", "--state", str(prefix), "--seed", "beef",
                         "--dim", str(dim)]) == 0
        src.write_bytes(random.Random(blocks).randbytes(blocks * wire.block_capacity(dim) - 1))
        assert cli.main(["encrypt", "--state", f"{prefix}.initiator", "--in", str(src),
                         "--out", str(enc), "--seed", "11"]) == 0
        stream = enc.read_bytes()
        assert len(stream) == 12 + blocks * (10 + 2 * dim * dim)
        return Path(f"{prefix}.responder").read_bytes(), stream


class TestDemo:
    def test_demo_succeeds(self, capsys):
        code, out, err = run(capsys, ["demo", "--seed", "2a"])
        assert code == 0
        assert "round-trip: OK" in out

    def test_demo_reports_exponent_product(self, capsys):
        code, out, _ = run(capsys, ["demo", "--seed", "2a"])
        assert code == 0
        assert "m·n=" in out and "m=" in out and "n=" in out

    def test_demo_deterministic_transcript(self, capsys):
        _, first, _ = run(capsys, ["demo", "--seed", "0102"])
        _, second, _ = run(capsys, ["demo", "--seed", "0102"])
        assert first == second

    def test_demo_seeds_differ(self, capsys):
        _, first, _ = run(capsys, ["demo", "--seed", "01"])
        _, second, _ = run(capsys, ["demo", "--seed", "02"])
        assert first != second

    def test_demo_d16(self, capsys):
        code, out, _ = run(capsys, ["demo", "--seed", "aa", "--dim", "16"])
        assert code == 0
        assert "round-trip: OK" in out


class TestFileCrypto:
    def exchange(self, capsys, tmp_path, seed="beef", dim=8):
        prefix = tmp_path / "kx"
        code, _, _ = run(capsys, ["keyexchange", "--state", str(prefix), "--seed", seed,
                                  "--dim", str(dim)])
        assert code == 0
        return prefix.with_name("kx.initiator"), prefix.with_name("kx.responder")

    def round_trip(self, capsys, tmp_path, data: bytes):
        init, resp = self.exchange(capsys, tmp_path)
        src = tmp_path / "plain.bin"
        enc = tmp_path / "cipher.geg"
        dst = tmp_path / "out.bin"
        src.write_bytes(data)
        code, _, _ = run(
            capsys,
            ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc), "--seed", "11"],
        )
        assert code == 0
        code, _, _ = run(
            capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)]
        )
        assert code == 0
        return dst.read_bytes(), enc.read_bytes()

    def test_empty_file(self, capsys, tmp_path):
        out, _ = self.round_trip(capsys, tmp_path, b"")
        assert out == b""

    def test_small_file(self, capsys, tmp_path):
        data = b"attack at dawn"
        out, _ = self.round_trip(capsys, tmp_path, data)
        assert out == data

    def test_random_file(self, capsys, tmp_path):
        data = random.Random(5).randbytes(20_000)
        out, _ = self.round_trip(capsys, tmp_path, data)
        assert out == data

    def test_ciphertext_expansion(self, capsys, tmp_path):
        data = bytes(56)
        _, cipher = self.round_trip(capsys, tmp_path, data)
        # context frame + two block frames (data + pad), 128 payload bytes each
        assert len(cipher) == (10 + 2) + 2 * (10 + 128)

    def test_responder_can_encrypt_back(self, capsys, tmp_path):
        init, resp = self.exchange(capsys, tmp_path)
        src = tmp_path / "p.bin"
        enc = tmp_path / "c.geg"
        dst = tmp_path / "o.bin"
        src.write_bytes(b"reply")
        assert run(capsys, ["encrypt", "--state", str(resp), "--in", str(src), "--out", str(enc)])[0] == 0
        assert run(capsys, ["decrypt", "--state", str(init), "--in", str(enc), "--out", str(dst)])[0] == 0
        assert dst.read_bytes() == b"reply"

    def test_missing_state_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["encrypt", "--state", str(tmp_path / "nope"), "--in", str(tmp_path / "x"),
             "--out", str(tmp_path / "y")],
        )
        assert code == cli.EXIT_IO

    def test_corrupt_state_file_is_codec_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.state"
        bad.write_bytes(b"GEG1junk")
        src = tmp_path / "x"
        src.write_bytes(b"data")
        code, _, _ = run(
            capsys, ["encrypt", "--state", str(bad), "--in", str(src), "--out", str(tmp_path / "y")]
        )
        assert code == cli.EXIT_CODEC

    def test_garbage_ciphertext_is_codec_error(self, capsys, tmp_path):
        init, resp = self.exchange(capsys, tmp_path)
        junk = tmp_path / "junk"
        junk.write_bytes(b"\x00" * 64)
        code, _, _ = run(
            capsys, ["decrypt", "--state", str(resp), "--in", str(junk), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_CODEC

    def test_wrong_dim_state_rejected(self, capsys, tmp_path):
        prefix = tmp_path / "kx16"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "aa", "--dim", "16"])[0] == 0
        init8, _ = self.exchange(capsys, tmp_path)
        src = tmp_path / "m.bin"
        enc = tmp_path / "m.geg"
        src.write_bytes(b"hello")
        assert run(capsys, ["encrypt", "--state", str(init8), "--in", str(src), "--out", str(enc)])[0] == 0
        code, _, _ = run(
            capsys,
            ["decrypt", "--state", str(prefix.with_name("kx16.responder")),
             "--in", str(enc), "--out", str(tmp_path / "o")],
        )
        assert code == cli.EXIT_CODEC

    def test_block_dim_differs_from_context_frame(self, capsys, tmp_path):
        # a d=8 context frame followed by d=16 cipher blocks
        ciphertexts = []
        for dim, seed in (("8", "bb"), ("16", "aa")):
            prefix = tmp_path / f"kx{dim}"
            assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", seed, "--dim", dim])[0] == 0
            src, enc = tmp_path / "m.bin", tmp_path / f"m{dim}.geg"
            src.write_bytes(b"hello")
            argv = ["encrypt", "--state", str(prefix.with_name(f"kx{dim}.initiator")),
                    "--in", str(src), "--out", str(enc)]
            assert run(capsys, argv)[0] == 0
            ciphertexts.append(enc.read_bytes())
        spliced = tmp_path / "spliced.geg"
        spliced.write_bytes(ciphertexts[0][:12] + ciphertexts[1][12:])  # context frame: 12 bytes
        code, _, err = run(
            capsys,
            ["decrypt", "--state", str(tmp_path / "kx8.responder"),
             "--in", str(spliced), "--out", str(tmp_path / "o")],
        )
        assert code == cli.EXIT_CODEC
        assert "d=16" in err

    # a valid d=8 stream: context frame (12 bytes), then three cipher frames of
    # 10 + 128 bytes; the second cipher frame starts at byte 150
    BASIS_FRAME = wire.frame(wire.matrix_message(wire.MSG_BASIS_INIT, MatrixFp.identity(8)))
    RANDOM_Y1 = MatrixFp.random_invertible(RandomSource.deterministic(7), 8).array.tobytes()
    MALFORMED = {
        "truncated-last-frame": (lambda s: s[:-1], cli.EXIT_CODEC, "payload of 128 bytes is truncated"),
        "partial-trailing-header": (lambda s: s + s[12:17], cli.EXIT_CODEC, "truncated frame header"),
        "payload-byte-251": (lambda s: s[:165] + b"\xfb" + s[166:], cli.EXIT_CODEC, "out of range"),
        "context-frame-mid-stream": (lambda s: s[:150] + s[:12] + s[150:], cli.EXIT_CODEC,
                                     "not a cipher-block message"),
        "basis-frame-mid-stream": (lambda s: s[:150] + TestFileCrypto.BASIS_FRAME + s[150:],
                                   cli.EXIT_CODEC, "not a cipher-block message"),
        "other-d-byte": (lambda s: s[:155] + b"\x10" + s[156:], cli.EXIT_CODEC, "d=16"),
        "singular-y1": (lambda s: s[:160] + bytes(64) + s[224:], cli.EXIT_PROTOCOL, "singular"),
        "random-y1": (lambda s: s[:160] + TestFileCrypto.RANDOM_Y1 + s[224:], cli.EXIT_PROTOCOL,
                      "y1: matrix 1 of the stack is not a sandwich of the generator"),
        "context-frame-only": (lambda s: s[:12], cli.EXIT_CODEC, "holds no cipher-block frames"),
        "empty-file": (lambda s: b"", cli.EXIT_CODEC, "ciphertext stream is empty"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_cipher_stream(self, capsys, tmp_path, case):
        edit, exit_code, message = self.MALFORMED[case]
        init, resp = self.exchange(capsys, tmp_path)
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "o.bin"
        src.write_bytes(bytes(range(112)))  # two full blocks and a pad block
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        stream = enc.read_bytes()
        assert len(stream) == 12 + 3 * 138
        enc.write_bytes(edit(stream))
        code, _, err = run(
            capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)]
        )
        assert code == exit_code
        assert message in err
        assert not dst.exists()

    @pytest.mark.parametrize("seed", ["beef", "01", "02"])
    def test_ciphertext_of_an_earlier_session_refused(self, capsys, tmp_path, seed):
        # encrypted in one session, decrypted after both sides moved on one:
        # the responder's basis and generator have moved, and y1 fits them no more
        init, resp = self.exchange(capsys, tmp_path, seed)
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "o.bin"
        src.write_bytes(random.Random(6).randbytes(2000))
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        alice, bob = cli.load_state(init), cli.load_state(resp)
        start_session(alice, bob)
        cli.save_state(init, alice)
        cli.save_state(resp, bob)
        code, out, err = run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)])
        assert code == cli.EXIT_PROTOCOL
        assert out == "" and "malformed ciphertext: y1: matrix 0 of the stack" in err
        assert not dst.exists()

    def test_decrypt_eliminates_no_stack_of_blocks(self, capsys, tmp_path, monkeypatch):
        # 600 blocks at d=8 fill less than one chunk of cli.CHUNK_SLICES
        # slices, so they decrypt in one call of decrypt_blocks, in five slices; past
        # the state check, nothing eliminates: G~^-1 is the context's, and no block is inverted
        from geg import linalg

        init, resp = self.exchange(capsys, tmp_path)
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "o.bin"
        data = random.Random(600).randbytes(600 * wire.block_capacity(8) - 1)
        src.write_bytes(data)
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        shapes, eliminate = [], linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda aug, p: shapes.append(aug.shape) or eliminate(aug, p))
        assert run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)])[0] == 0
        assert dst.read_bytes() == data
        assert shapes == [(2, 8, 16), (1, 8, 8)]

    def test_refused_block_is_named_by_its_place_in_the_file(self, capsys, tmp_path):
        # decrypt_blocks runs in slices of protocol.BATCH_ENTRIES // d**2 blocks;
        # at each d the tampered block is the sixth of the third slice, and the
        # error names its place in the file, not in the slice
        for dim in cli.PROTOCOL_DIMS:
            work = tmp_path / f"d{dim}"
            work.mkdir()
            init, resp = self.exchange(capsys, work, dim=dim)
            src, enc, dst = work / "p.bin", work / "c.geg", work / "o.bin"
            step, size = protocol.BATCH_ENTRIES // dim**2, dim * dim
            bad = 2 * step + 5
            src.write_bytes(random.Random(dim).randbytes(3 * step * wire.block_capacity(dim)))
            assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
            stream = bytearray(enc.read_bytes())
            y1 = 12 + bad * (10 + 2 * size) + 10  # context frame, `bad` cipher frames, one frame header
            stream[y1 : y1 + size] = MatrixFp.random_invertible(RandomSource.deterministic(7), dim).array.tobytes()
            enc.write_bytes(bytes(stream))
            code, out, err = run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)])
            assert code == cli.EXIT_PROTOCOL and out == ""
            assert f"y1: matrix {bad} of the stack is not a sandwich of the generator" in err
            assert not dst.exists()

    def encrypted_stream(self, work, dim, blocks):
        """(responder state, cipher path) in `work` for a seeded stream of
        `blocks` blocks, pad included, at `dim`."""
        resp, enc = work / "kx.responder", work / "c.geg"
        resp_bytes, stream = seeded_stream(dim, blocks)
        resp.write_bytes(resp_bytes)
        enc.write_bytes(stream)
        return resp, enc

    def decrypt_edited(self, capsys, resp, enc, edits):
        """Exit code and stderr of decrypting the stream at `enc` with
        stream[at:at + len(new)] = new for each (at, new) of `edits`."""
        stream = bytearray(enc.read_bytes())
        for at, new in edits:
            stream[at : at + len(new)] = new
        edited, dst = enc.with_suffix(".edited"), enc.with_suffix(".out")
        edited.write_bytes(bytes(stream))
        code, out, err = run(capsys, ["decrypt", "--state", str(resp), "--in", str(edited),
                                      "--out", str(dst)])
        assert out == "" and not dst.exists()
        return code, err

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_every_frame_is_checked_before_any_block(self, capsys, tmp_path, dim):
        # the exit codes keep their order over the whole file: block 0's y1
        # is refused on its own (exit 5), and a bad frame in the second chunk
        # still wins (exit 4), although it is read after that refusal
        chunk, size = CHUNK[dim], 10 + 2 * dim * dim
        resp, enc = self.encrypted_stream(tmp_path, dim, 2 * chunk + 3)
        y1 = (12 + 10, MatrixFp.random_invertible(RandomSource.deterministic(7), dim).array.tobytes())
        byte_251 = (12 + (chunk + 3) * size + 15, b"\xfb")
        code, err = self.decrypt_edited(capsys, resp, enc, [y1])
        assert code == cli.EXIT_PROTOCOL and "y1: matrix 0 of the stack" in err
        code, err = self.decrypt_edited(capsys, resp, enc, [y1, byte_251])
        assert (code, err) == (cli.EXIT_CODEC, "geg: codec error: matrix payload byte out of range "
                                               "(must be < 251)\n")

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_refused_y1_outranks_an_earlier_codec_failure(self, capsys, tmp_path, dim):
        # block 0's y2 is overwritten, so its plaintext fails the codec (exit
        # 4 on its own); a y1 refused in a later chunk still decides, exit 5
        chunk, size = CHUNK[dim], 10 + 2 * dim * dim
        resp, enc = self.encrypted_stream(tmp_path, dim, 2 * chunk + 3)
        digits = random.Random(3).choices(range(251), k=dim * dim)
        y2 = (12 + 10 + dim * dim, bytes(digits))
        bad = chunk + 5
        y1 = (12 + bad * size + 10,
              MatrixFp.random_invertible(RandomSource.deterministic(7), dim).array.tobytes())
        code, err = self.decrypt_edited(capsys, resp, enc, [y2])
        assert (code, err) == (cli.EXIT_CODEC, "geg: codec error: digit group exceeds the "
                                               "packed-chunk range\n")
        code, err = self.decrypt_edited(capsys, resp, enc, [y2, y1])
        assert (code, err) == (cli.EXIT_PROTOCOL, f"geg: protocol error: malformed ciphertext: y1: "
                                                  f"matrix {bad} of the stack is not a sandwich "
                                                  f"of the generator\n")

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_in_and_out_may_name_one_file(self, capsys, tmp_path, dim):
        init, resp = self.exchange(capsys, tmp_path, dim=dim)
        path = tmp_path / "file"
        data = random.Random(dim).randbytes((2 * CHUNK[dim] + CHUNK[dim] // 2) * wire.block_capacity(dim))
        path.write_bytes(data)
        for state, command in ((init, "encrypt"), (resp, "decrypt")):
            code, _, err = run(capsys, [command, "--state", str(state), "--in", str(path),
                                        "--out", str(path)])
            assert (code, err) == (cli.EXIT_OK, "")
        assert path.read_bytes() == data
        assert sorted(tmp_path.iterdir()) == sorted([init, resp, path])  # no temporary file left

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_no_call_sees_more_than_one_chunk(self, capsys, tmp_path, monkeypatch, dim):
        # what encrypt and decrypt hold does not grow with the file: the
        # cipher and the codec see a file of two and a half chunks one chunk
        # at a time (peak RSS itself is measured outside this suite)
        chunk = CHUNK[dim]
        init, resp = self.exchange(capsys, tmp_path, dim=dim)
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "o.bin"
        src.write_bytes(random.Random(dim).randbytes((2 * chunk + chunk // 2) * wire.block_capacity(dim)))
        seen = []

        def record(owner, name, blocks):
            real = getattr(owner, name)

            def recorded(*args, **kwargs):
                result = real(*args, **kwargs)
                seen.append((name, blocks(args, result)))
                return result

            monkeypatch.setattr(owner, name, recorded)

        record(protocol.Entity, "encrypt_blocks", lambda args, _: len(args[1]))
        record(protocol.Entity, "decrypt_blocks", lambda args, _: len(args[1]))
        record(wire, "encode_plaintext", lambda _, result: len(result))
        record(wire, "decode_plaintext", lambda args, _: len(args[0]))
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        assert run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)])[0] == 0
        assert dst.read_bytes() == src.read_bytes()
        names = ("encode_plaintext", "encrypt_blocks", "decrypt_blocks", "decode_plaintext")
        assert [[size for called, size in seen if called == name] for name in names] == [
            [chunk, chunk, chunk // 2 + 1]] * 4

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_decrypt_reads_a_pipe(self, tmp_path, dim):
        # a stream of two and a half chunks fills more than one pipe buffer,
        # so a child decrypt reads it in pieces; from a pipe it writes what
        # it writes from the file, clean or with a bad frame that opens the
        # second chunk and declares a longer payload
        chunk, size = CHUNK[dim], 10 + 2 * dim * dim
        total = 2 * chunk + chunk // 2
        resp, enc = self.encrypted_stream(tmp_path, dim, total)
        clean = enc.read_bytes()
        bad = self.boundary_defects(dim)["longer-declared-payload"](clean, 12 + chunk * size)
        dst = tmp_path / "o.bin"

        def decrypt(stream, source):
            enc.write_bytes(stream)
            got = subprocess.run(
                [sys.executable, "-m", "geg", "decrypt", "--state", resp.name, "--in", source,
                 "--out", dst.name],
                input=stream if source == "/dev/stdin" else None, env=child_env(), cwd=tmp_path,
                capture_output=True, timeout=120, check=False)
            plain = dst.read_bytes() if dst.exists() else None
            dst.unlink(missing_ok=True)
            return got.returncode, got.stdout, got.stderr, plain

        piped = decrypt(clean, "/dev/stdin")
        assert piped == decrypt(clean, enc.name)
        data = random.Random(total).randbytes(total * wire.block_capacity(dim) - 1)
        assert piped == (cli.EXIT_OK, f"decrypted {total} blocks into {len(data)} bytes -> o.bin\n".encode(),
                         b"", data)
        message = f"geg: codec error: type 0x06 at d={dim} requires {2 * dim * dim} payload bytes, " \
                  f"got {2 * dim * dim + 200}\n"
        assert decrypt(bad, "/dev/stdin") == decrypt(bad, enc.name) == (
            cli.EXIT_CODEC, b"", message.encode(), None)

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    def test_decrypt_reads_the_file_once(self, capsys, tmp_path, monkeypatch, dim):
        # one pass over the cipher frames, for a clean file of two and a half
        # chunks and for the files of test_every_frame_is_checked_before_any_block
        chunk, size = CHUNK[dim], 10 + 2 * dim * dim
        calls, read = [], wire.read_cipher_chunks
        monkeypatch.setattr(wire, "read_cipher_chunks", lambda *args: calls.append(args) or read(*args))
        resp, enc = self.encrypted_stream(tmp_path, dim, 2 * chunk + chunk // 2)
        code, _, err = run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc),
                                    "--out", str(tmp_path / "o.bin")])
        assert (code, err, len(calls)) == (cli.EXIT_OK, "", 1)
        resp, enc = self.encrypted_stream(tmp_path, dim, 2 * chunk + 3)
        y1 = (12 + 10, MatrixFp.random_invertible(RandomSource.deterministic(7), dim).array.tobytes())
        byte_251 = (12 + (chunk + 3) * size + 15, b"\xfb")
        for edits, code in (([y1], cli.EXIT_PROTOCOL), ([y1, byte_251], cli.EXIT_CODEC)):
            calls.clear()
            assert self.decrypt_edited(capsys, resp, enc, edits)[0] == code
            assert len(calls) == 1

    # MALFORMED's defects, and a longer declared payload, as edits of the
    # frame at byte `at` of a stream at dimension d; the expected exit codes
    # and messages were recorded from the whole-file reader
    @staticmethod
    def boundary_defects(d):
        size, sq = 10 + 2 * d * d, d * d
        basis = wire.frame(wire.matrix_message(wire.MSG_BASIS_INIT, MatrixFp.identity(d)))
        y1 = MatrixFp.random_invertible(RandomSource.deterministic(7), d).array.tobytes()
        return {
            "truncated-last-frame": lambda s, at: s[: at + size - 1],
            "partial-trailing-header": lambda s, at: s[: at + size] + s[12:17],
            "payload-byte-251": lambda s, at: s[: at + 15] + b"\xfb" + s[at + 16 :],
            "context-frame-mid-stream": lambda s, at: s[:at] + s[:12] + s[at:],
            "basis-frame-mid-stream": lambda s, at: s[:at] + basis + s[at:],
            "other-d-byte": lambda s, at: s[: at + 5] + bytes([24 - d]) + s[at + 6 :],
            "singular-y1": lambda s, at: s[: at + 10] + bytes(sq) + s[at + 10 + sq :],
            "random-y1": lambda s, at: s[: at + 10] + y1 + s[at + 10 + sq :],
            "longer-declared-payload":
                lambda s, at: s[: at + 6] + (2 * sq + 200).to_bytes(4, "big") + s[at + 10 :],
        }

    BOUNDARY = {
        "truncated-last-frame": (cli.EXIT_CODEC, "declared payload of {payload} bytes is truncated"),
        "partial-trailing-header": (cli.EXIT_CODEC, "truncated frame header"),
        "payload-byte-251": (cli.EXIT_CODEC, "matrix payload byte out of range (must be < 251)"),
        "context-frame-mid-stream": (cli.EXIT_CODEC, "not a cipher-block message"),
        "basis-frame-mid-stream": (cli.EXIT_CODEC, "not a cipher-block message"),
        "other-d-byte": (cli.EXIT_CODEC,
                         "type 0x06 at d={other} requires {other_payload} payload bytes, got {payload}"),
        "singular-y1": (cli.EXIT_PROTOCOL, "malformed ciphertext: y1: matrix {index} of the stack is singular"),
        "random-y1": (cli.EXIT_PROTOCOL, "malformed ciphertext: y1: matrix {index} of the stack "
                                         "is not a sandwich of the generator"),
        # the last frame's longer payload runs past the end of the file
        "longer-declared-payload": (cli.EXIT_CODEC,
                                    "type 0x06 at d={d} requires {payload} payload bytes, got {longer}"),
    }

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    @pytest.mark.parametrize("where", ["last-of-chunk", "first-of-next", "last-frame"])
    @pytest.mark.parametrize("defect", sorted(BOUNDARY))
    def test_malformed_stream_at_chunk_boundary(self, capsys, tmp_path, dim, where, defect):
        # the stream's frames fill two chunks and half a third
        chunk, size = CHUNK[dim], 10 + 2 * dim * dim
        total = 2 * chunk + chunk // 2
        index = {"last-of-chunk": chunk - 1, "first-of-next": chunk, "last-frame": total - 1}[where]
        resp, enc = self.encrypted_stream(tmp_path, dim, total)
        enc.write_bytes(self.boundary_defects(dim)[defect](enc.read_bytes(), 12 + index * size))
        code, message = self.BOUNDARY[defect]
        if defect == "longer-declared-payload" and where == "last-frame":
            message = "declared payload of {longer} bytes is truncated"
        payload, other = 2 * dim * dim, 24 - dim
        message = message.format(d=dim, payload=payload, longer=payload + 200, index=index,
                                 other=other, other_payload=2 * other * other)
        kind = "codec" if code == cli.EXIT_CODEC else "protocol"
        assert self.decrypt_edited(capsys, resp, enc, []) == (code, f"geg: {kind} error: {message}\n")

    @pytest.mark.parametrize("dim", cli.PROTOCOL_DIMS)
    @pytest.mark.parametrize("edit, message", [
        (lambda s: s[12:], "not a context-params message"),
        (lambda s: s[:6] + (300).to_bytes(4, "big") + s[10:],
         "context-params payload must be exactly 2 bytes"),
        (lambda s: s[:6] + (2**32 - 1).to_bytes(4, "big") + s[10:],
         "declared payload of 4294967295 bytes is truncated"),
    ], ids=["no-context-frame", "longer-context-payload", "context-payload-past-end"])
    def test_malformed_context_frame(self, capsys, tmp_path, dim, edit, message):
        resp, enc = self.encrypted_stream(tmp_path, dim, CHUNK[dim] + 3)
        enc.write_bytes(edit(enc.read_bytes()))
        assert self.decrypt_edited(capsys, resp, enc, []) == (cli.EXIT_CODEC,
                                                              f"geg: codec error: {message}\n")

    @pytest.mark.parametrize("blocks, dim", [
        (blocks, dim) for dim in cli.PROTOCOL_DIMS for step in [protocol.BATCH_ENTRIES // dim**2]
        for blocks in (1, step - 1, step, step + 1, 2 * step + 1, 600)])
    def test_encrypt_matches_per_block_reference(self, capsys, tmp_path, dim, blocks):
        # encrypt_blocks runs in slices of protocol.BATCH_ENTRIES // d**2
        # blocks; the counts around one and two slices, and 600, cross their edges
        prefix = tmp_path / "kx"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "beef",
                            "--dim", str(dim)])[0] == 0
        init = prefix.with_name("kx.initiator")
        src, enc = tmp_path / "p.bin", tmp_path / "c.geg"
        cap = wire.block_capacity(dim)
        data = random.Random(blocks).randbytes(blocks * cap - 1)
        src.write_bytes(data)
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc),
                            "--seed", "11"])[0] == 0
        entity = cli.load_state(init)
        plains = loop_encode_plaintext(data, dim)
        assert len(plains) == blocks
        want_y1, want_y2 = reference_encrypt(
            entity.basis.tolist(), entity.generator.tolist(), entity.peer_token.tolist(),
            entity.exponents, plains, RandomSource.deterministic(bytes.fromhex("11")))
        # the CLI's stream, read frame by frame after the context-params frame
        raw = enc.read_bytes()
        _, offset = wire.read_frame(raw)
        cipher = []
        while offset < len(raw):
            msg, offset = wire.read_frame(raw, offset)
            assert msg.msg_type == wire.MSG_CIPHER_BLOCK
            cipher.append(np.frombuffer(msg.payload, np.uint8).reshape(2, dim, dim).tolist())
        assert [y1 for y1, _ in cipher] == [y.tolist() for y in want_y1]
        assert [y2 for _, y2 in cipher] == [y.tolist() for y in want_y2]
        # and one encrypt_blocks call over all blocks
        y1, y2 = entity.encrypt_blocks(np.array(plains), RandomSource.deterministic(bytes.fromhex("11")))
        assert y1.tolist() == [y.tolist() for y in want_y1]
        assert y2.tolist() == [y.tolist() for y in want_y2]

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    @pytest.mark.parametrize("dim, code", [("8", cli.EXIT_OK), ("16", cli.EXIT_USAGE)])
    def test_dim_must_match_state(self, capsys, tmp_path, command, dim, code):
        init, resp = self.exchange(capsys, tmp_path)  # d=8
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "o.bin"
        src.write_bytes(b"hello")
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        state, source, out = (init, src, tmp_path / "c2.geg") if command == "encrypt" else (resp, enc, dst)
        got, _, err = run(capsys, [command, "--dim", dim, "--state", str(state),
                                   "--in", str(source), "--out", str(out)])
        assert got == code
        assert out.exists() == (code == cli.EXIT_OK)
        if code != cli.EXIT_OK:
            assert "does not match the state file's d=8" in err

    def test_decrypt_takes_no_seed(self, capsys, tmp_path):
        init, resp = self.exchange(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["decrypt", "--state", str(resp), "--in", str(tmp_path / "c"),
                      "--out", str(tmp_path / "o"), "--seed", "11"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["keyexchange", "encrypt", "decrypt"])
    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch, command):
        init, resp = self.exchange(capsys, tmp_path)
        src, enc = tmp_path / "p.bin", tmp_path / "c.geg"
        src.write_bytes(b"hello")
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)])[0] == 0
        target = {"keyexchange": init, "encrypt": enc, "decrypt": tmp_path / "o.bin"}[command]
        target.write_bytes(b"old contents")
        before = sorted(tmp_path.iterdir())

        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        argv = {
            "keyexchange": ["keyexchange", "--state", str(tmp_path / "kx"), "--seed", "beef"],
            "encrypt": ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc)],
            "decrypt": ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(target)],
        }[command]
        code, _, err = run(capsys, argv)
        assert code == cli.EXIT_IO
        assert "simulated rename failure" in err
        assert target.read_bytes() == b"old contents"
        assert sorted(tmp_path.iterdir()) == before  # no temporary file left behind

    @pytest.mark.parametrize("module, name, failing", [
        (wire, "matrix_to_bytes", 5),  # the first matrix of the responder's file
        (tempfile, "mkstemp", 2),  # the responder's temporary file
    ])
    def test_failed_keyexchange_keeps_old_pair(self, capsys, tmp_path, monkeypatch,
                                               module, name, failing):
        # the initiator's file was renamed before the responder's write
        # failed, which left the halves of two exchanges
        init, resp = self.exchange(capsys, tmp_path)
        before = [init.read_bytes(), resp.read_bytes()]
        real, calls = getattr(module, name), []

        def flaky(*args, **kwargs):
            calls.append(name)
            if len(calls) == failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, flaky)
        code, _, err = run(capsys, ["keyexchange", "--state", str(tmp_path / "kx"), "--seed", "01"])
        assert code == cli.EXIT_IO
        assert "No space left on device" in err
        assert [init.read_bytes(), resp.read_bytes()] == before
        assert sorted(tmp_path.iterdir()) == [init, resp]  # no temporary file left behind


class TestStatePersistence:
    def test_save_load_identical_behavior(self, tmp_path):
        from geg.cli import load_state, save_state
        from geg.field import RandomSource
        from geg.linalg import MatrixFp
        from geg.protocol import handshake, setup_shared, start_session

        rng = RandomSource.deterministic(b"persist2")
        alice, bob = handshake(*setup_shared(rng, 8), rng)
        start_session(alice, bob)

        path = tmp_path / "alice.state"
        save_state(path, alice)
        clone = load_state(path)
        assert clone.shared_parameters() == alice.shared_parameters()
        assert clone.peer_token == alice.peer_token
        assert clone.eigenvalues == alice.eigenvalues

        plain = MatrixFp.random(rng, 8, 251)
        assert np.array_equal(bob.decrypt_blocks(*clone.encrypt_blocks([plain], rng)), [plain])

    def test_save_without_peer_token_rejected(self, tmp_path):
        from geg.cli import save_state
        from geg.errors import GegError
        from geg.field import RandomSource
        from geg.protocol import handshake, setup_shared

        rng = RandomSource.deterministic(b"persist3")
        alice, _ = handshake(*setup_shared(rng, 8), rng)
        alice.open_session()  # opener before receiving the ack: no peer token
        with pytest.raises(GegError):
            save_state(tmp_path / "x", alice)

    def test_save_keyed_entity_rejected(self, tmp_path):
        # after the handshake peer_token is the setup token; saved, the pair
        # came back session-open and its round trip failed
        from geg.cli import save_state
        from geg.errors import GegError
        from geg.field import RandomSource
        from geg.protocol import Phase, handshake, setup_shared

        rng = RandomSource.deterministic(6)
        for entity in handshake(*setup_shared(rng, 8), rng):
            assert entity.phase is Phase.KEYED and entity.peer_token is not None
            with pytest.raises(GegError, match="no open session"):
                save_state(tmp_path / entity.role, entity)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d, p", [(4, 251), (8, 11)])
    def test_save_unloadable_field_rejected(self, tmp_path, d, p):
        # saved, these came to 81 and 277 bytes that load_state refused
        from geg.cli import save_state
        from geg.errors import GegError
        from geg.field import RandomSource
        from geg.protocol import handshake, setup_shared, start_session

        rng = RandomSource.deterministic(7)
        pair = handshake(*setup_shared(rng, d, p), rng)
        start_session(*pair)
        for entity in pair:
            with pytest.raises(GegError, match=f"not d={d} over F_{p}"):
                save_state(tmp_path / entity.role, entity)
        assert list(tmp_path.iterdir()) == []

    # state header: magic(4) tag d p(2) role phase m n
    TAMPER = {"tag": (4, "unexpected file tag 0x11"),
              "role": (8, "role byte"), "phase": (9, "phase byte"),
              "m": (10, "exponent m="), "n": (11, "exponent n="),
              "p=10": (6, "modulus 10 "), "p=2": (6, "modulus 2 "), "p=257": (6, "modulus 257 ")}

    @pytest.mark.parametrize("side", ["initiator", "responder"])
    @pytest.mark.parametrize("field", [None, "role", "phase", "m", "n", "p=10", "p=2", "p=257",
                                       "tag"])
    def test_tampered_header_byte_rejected(self, capsys, tmp_path, side, field):
        prefix = tmp_path / "kx"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "beef"])[0] == 0
        state = prefix.with_name(f"kx.{side}")
        blob = bytearray(state.read_bytes())
        if field is not None:
            offset, _ = self.TAMPER[field]
            if field.startswith("p="):
                # not prime, a prime below 251, a prime above the byte range
                blob[offset : offset + 2] = int(field[2:]).to_bytes(2, "big")
            else:
                # role 0x7f and phase 0x55 are undefined; the tag and m, n move up by one
                blob[offset] = {"role": 0x7F, "phase": 0x55}.get(field, blob[offset] % 250 + 1)
            state.write_bytes(bytes(blob))
        src = tmp_path / "p.bin"
        src.write_bytes(b"hello")
        code, _, err = run(
            capsys, ["encrypt", "--state", str(state), "--in", str(src), "--out", str(tmp_path / "c")]
        )
        if field is None:
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_CODEC
            assert self.TAMPER[field][1] in err
            assert not (tmp_path / "c").exists()

    # the body after the 12-byte header: P, G, K, peer token, marker, eigenvalues
    MATRICES = ("basis", "generator", "session_key", "peer_token")
    BODY_FAULTS = [(name, fault, cli.EXIT_CODEC if fault == "byte 251" else cli.EXIT_PROTOCOL)
                   for name in MATRICES for fault in ("zero", "row copy", "byte 251")]
    BODY_FAULTS += [("eigenvalues", fault, cli.EXIT_CODEC) for fault in ("zero", "repeat")]
    BODY_FAULTS += [("marker", "zero", cli.EXIT_CODEC),
                    ("length", "short", cli.EXIT_CODEC), ("length", "long", cli.EXIT_CODEC)]

    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("target, fault, code", BODY_FAULTS)
    def test_tampered_body_rejected(self, capsys, tmp_path, d, target, fault, code):
        prefix = tmp_path / "kx"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "beef",
                            "--dim", str(d)])[0] == 0
        state = prefix.with_name("kx.initiator")
        blob = bytearray(state.read_bytes())
        size = len(blob)
        if target == "length":
            blob = blob[:-1] if fault == "short" else blob + b"\x00"
        elif target == "marker":
            blob[size - d - 1] = 0
        elif target == "eigenvalues":
            at = len(blob) - d
            blob[at + 1] = 0 if fault == "zero" else blob[at]
        else:
            at = 12 + self.MATRICES.index(target) * d * d
            if fault == "zero":
                blob[at : at + d * d] = bytes(d * d)
            elif fault == "row copy":
                blob[at + d : at + 2 * d] = blob[at : at + d]
            else:
                blob[at] = 251
        state.write_bytes(bytes(blob))
        messages = {"marker": "private section marker missing",
                    "length": f"expected {size} bytes, found {len(blob)}"}
        src, out = tmp_path / "p.bin", tmp_path / "c"
        src.write_bytes(b"hello")
        got, stdout, err = run(
            capsys, ["encrypt", "--state", str(state), "--in", str(src), "--out", str(out)]
        )
        assert got == code
        assert stdout == "" and err.startswith("geg: ") and "Traceback" not in err
        if code == cli.EXIT_PROTOCOL:
            # a row-copied peer token is singular, but no sandwich of the generator either
            refusal = "does not match this session's generator" if (
                target, fault) == ("peer_token", "row copy") else "is singular"
            assert f"{target} {refusal}" in err
        assert messages.get(target, "") in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["generator", "peer_token"])
    def test_generator_and_peer_token_checked_by_structure(self, capsys, tmp_path, target):
        # the identity is invertible, but the load reads the peer token
        # against the generator: in either place, the identity leaves a peer
        # token that is no sandwich of the generator, and decrypt never starts
        prefix = tmp_path / "kx"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "beef"])[0] == 0
        init, resp = prefix.with_name("kx.initiator"), prefix.with_name("kx.responder")
        blob = bytearray(resp.read_bytes())
        at = 12 + self.MATRICES.index(target) * 64
        blob[at : at + 64] = MatrixFp.identity(8, 251).array.tobytes()
        resp.write_bytes(bytes(blob))
        data = random.Random(5).randbytes(700)
        src, enc, dst = tmp_path / "p.bin", tmp_path / "c.geg", tmp_path / "out.bin"
        src.write_bytes(data)
        assert run(capsys, ["encrypt", "--state", str(init), "--in", str(src),
                            "--out", str(enc), "--seed", "11"])[0] == cli.EXIT_OK
        code, _, err = run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc),
                                    "--out", str(dst)])
        assert code == cli.EXIT_PROTOCOL
        assert "peer_token does not match this session's generator" in err
        assert not dst.exists()

    @pytest.mark.parametrize("d", [8, 16])
    def test_load_runs_two_eliminations(self, capsys, tmp_path, monkeypatch, d):
        # one inverse of the basis and generator together, then the determinant
        # of K; the peer token is read against them, with no elimination
        from geg import linalg

        prefix = tmp_path / "kx"
        assert run(capsys, ["keyexchange", "--state", str(prefix), "--seed", "beef",
                            "--dim", str(d)])[0] == 0
        shapes, eliminate = [], linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda aug, p: shapes.append(aug.shape) or eliminate(aug, p))
        cli.load_state(prefix.with_name("kx.responder"))
        assert shapes == [(2, d, 2 * d), (1, d, d)]

    @pytest.mark.parametrize("d", [0, 2, 12])
    def test_unsupported_dimension_rejected(self, capsys, tmp_path, d):
        # length-consistent: header, four zero matrices, marker, eigenvalues 1..d
        blob = b"GEG1" + bytes([cli.STATE_TAG, d, 0, 251, 0x01, cli.SESSION_OPEN_PHASE, 1, 1])
        blob += bytes(4 * d * d) + bytes([cli.PRIVATE_MARKER]) + bytes(range(1, d + 1))
        state = tmp_path / "hand.state"
        state.write_bytes(blob)
        src = tmp_path / "p.bin"
        src.write_bytes(b"hello")
        code, _, err = run(
            capsys, ["encrypt", "--state", str(state), "--in", str(src), "--out", str(tmp_path / "c")]
        )
        assert code == cli.EXIT_CODEC
        assert f"dimension {d} " in err


@pytest.fixture
def fake_clock(monkeypatch):
    # each clock read is 1 ms after the one before, so every bench phase takes 1 ms
    ticks = itertools.count()
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) / 1000)


# the line of the text analyze report that prints each kv figure
TEXT_LINE_OF_KV = {
    "order_gl": 1, "log10_order_gl": 2, "ambient": 3, "log10_ambient": 4, "nilpotent": 5,
    "subgroup_order_excl_zero_one": 6, "subgroup_order_excl_zero": 7,
    "singular_closed_form": 8, "singular_monte_carlo": 9, "security_bits": -1,
}


class TestBenchAndAnalyze:
    def test_bench_phases_in_order(self, capsys, fake_clock):
        code, out, _ = run(capsys, ["bench", "--iterations", "3", "--seed", "00"])
        assert code == 0
        assert out == (
            "mean over 3 random iterations at d=8, p=251:\n"
            "  setup of public pair (P, G)                 :    1.000 ms"
            "   (reference interpreted run: 0.12 ms)\n"
            "  token exchange to first key and exponents   :    1.000 ms"
            "   (reference interpreted run: 29.56 ms)\n"
            "  session update (open + acknowledge)         :    1.000 ms"
            "   (reference interpreted run: 52.94 ms)\n"
            "  encipher-decipher of one block              :    1.000 ms"
            "   (reference interpreted run: 32.36 ms)\n"
            "  full session (exchange+update+cipher)        :    3.000 ms"
            "   within 85 ms budget: yes\n"
        )

    def test_bench_kv(self, capsys, fake_clock):
        code, out, _ = run(capsys, ["bench", "--iterations", "3", "--format", "kv", "--seed", "00"])
        assert code == 0
        assert out == (
            "iterations=3\ndim=8\nsetup_ms=1.0000\nkey_exchange_ms=1.0000\n"
            "session_update_ms=1.0000\ncipher_cycle_ms=1.0000\nfull_session_ms=3.0000\n"
            "within_85ms_budget=yes\n"
        )

    @pytest.mark.parametrize("d, following", [(8, 481600000), (16, 567211397)])
    def test_bench_stream_position(self, d, following):
        # one benchmark iteration draws a fixed amount from a seeded stream
        rng = RandomSource.deterministic(b"bench-stream")
        cli._bench_once(rng, d)
        assert rng.randbelow(2**30) == following

    def test_analyze_reference_lines(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--dim", "8", "--iterations", "0"])
        assert code == 0
        assert "13190481178699144320" in out
        assert "153.577" in out  # exact log10 of |GL(8, 251)|

    def test_analyze_d16_security_bits(self, capsys):
        code, out, _ = run(
            capsys, ["analyze", "--dim", "16", "--iterations", "0", "--format", "kv"]
        )
        assert code == 0
        kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        assert 126 <= float(kv["log2_subgroup_order_excl_zero_one"]) <= 128

    def test_analyze_monte_carlo(self, capsys):
        code, out, _ = run(
            capsys,
            ["analyze", "--dim", "8", "--iterations", "3000", "--seed", "07", "--format", "kv"],
        )
        assert code == 0
        kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        assert abs(float(kv["singular_monte_carlo"]) - float(kv["singular_closed_form"])) < 0.01

    def test_analyze_text_monte_carlo_matches_kv(self, capsys):
        argv = ["analyze", "--dim", "4", "--iterations", "500", "--seed", "07"]
        code, text, _ = run(capsys, argv)
        assert code == 0
        code, out, _ = run(capsys, [*argv, "--format", "kv"])
        assert code == 0
        kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        assert kv["singular_trials"] == "500"
        assert f"{kv['singular_monte_carlo']} (monte carlo, 500 trials)" in text

    @pytest.mark.parametrize("trials", [0, 500])
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_analyze_text_prints_kv_figures(self, capsys, d, trials):
        argv = ["analyze", "--dim", str(d), "--iterations", str(trials), "--seed", "07"]
        _, text, _ = run(capsys, argv)
        _, out, _ = run(capsys, [*argv, "--format", "kv"])
        kv = dict(line.split("=", 1) for line in out.splitlines())
        lines = text.splitlines()
        assert ("singular_monte_carlo" in kv) == (trials > 0)
        for key, at in TEXT_LINE_OF_KV.items():
            if key in kv:
                assert kv[key] in re.findall(r"\d+(?:\.\d+)?", lines[at]), (key, lines[at])

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["demo", "--dim", "9"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["bench", "--iterations", "0"], ["bench", "--iterations", "-3"],
         ["analyze", "--iterations", "-1"], ["analyze", "--iterations", "many"]],
    )
    def test_bad_iterations_is_usage_error(self, capsys, argv):
        # bench divides by the count and would print a budget verdict for no run
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        assert "argument --iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["demo"], ["bench", "--iterations", "1"], ["keyexchange", "--state", "kx"],
        ["analyze", "--iterations", "0"],
    ], ids=["demo", "bench", "keyexchange", "analyze-no-trials"])
    def test_bad_seed_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, [*argv, "--seed", "zz"])
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("geg: invalid argument")
        assert list(tmp_path.iterdir()) == []
