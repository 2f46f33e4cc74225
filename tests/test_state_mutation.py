"""Generated mutations of a responder state file or of a cipher stream, fed
to `geg decrypt`, and of an initiator state file, fed to `geg encrypt`.

Every mutation either leaves a state and stream that still decrypt exactly,
or is refused with a data exit code (3 i/o, 4 codec, 5 protocol), one
`geg: ` line on stderr and no output file.  The one exception is an
overwrite inside a y2 payload, which decrypts silently to wrong plaintext
(y2 is malleable; see the README).  Exit 2 is for arguments only, and no
mutation may end in a traceback.
"""

import random

from hypothesis import given, settings, strategies as st

from geg import cli, wire

DATA_EXITS = (cli.EXIT_IO, cli.EXIT_CODEC, cli.EXIT_PROTOCOL)


@st.composite
def splices(draw, size: int) -> tuple[int, int, bytes]:
    """(at, cut, new): replace `cut` bytes at `at` by `new`, as an overwrite,
    a deletion or an insertion of up to 8 bytes."""
    at = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(["overwrite", "delete", "insert"]))
    new = b"" if kind == "delete" else draw(st.binary(min_size=1, max_size=8))
    cut = {"overwrite": len(new), "delete": draw(st.integers(1, 8)), "insert": 0}[kind]
    return at, cut, new


def encrypted(tmp_path) -> tuple[bytes, bytes, bytes]:
    """(responder state, cipher stream, plaintext) after a seeded d=8 key
    exchange and the encryption of 700 bytes to the responder."""
    prefix, src, enc = tmp_path / "kx", tmp_path / "p.bin", tmp_path / "c.geg"
    data = random.Random(700).randbytes(700)
    src.write_bytes(data)
    assert cli.main(["keyexchange", "--seed", "beef", "--state", str(prefix)]) == cli.EXIT_OK
    assert cli.main(["encrypt", "--state", f"{prefix}.initiator", "--in", str(src),
                     "--out", str(enc), "--seed", "01"]) == cli.EXIT_OK
    return (tmp_path / "kx.responder").read_bytes(), enc.read_bytes(), data


def test_mutated_state_decrypts_exactly_or_fails_cleanly(tmp_path, capsys):
    original, _, data = encrypted(tmp_path)
    state, enc, dst = tmp_path / "mutated.responder", tmp_path / "c.geg", tmp_path / "o.bin"
    codes = []

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(splices(len(original)))
    def decrypt_with(splice):
        at, cut, new = splice
        state.write_bytes(original[:at] + new + original[at + cut:])
        capsys.readouterr()
        code = cli.main(["decrypt", "--state", str(state), "--in", str(enc), "--out", str(dst)])
        err = capsys.readouterr().err
        codes.append(code)
        if code == cli.EXIT_OK:
            assert dst.read_bytes() == data
            dst.unlink()
        else:
            assert code in DATA_EXITS, err
            assert not dst.exists()
            assert err.startswith("geg: ") and err.count("\n") == 1, err

    decrypt_with()
    # the checks behind each outcome ran: an unread byte, the codec, the pair
    assert {cli.EXIT_OK, cli.EXIT_CODEC, cli.EXIT_PROTOCOL} <= set(codes)


def test_mutated_initiator_encrypts_exactly_or_fails_cleanly(tmp_path, capsys):
    encrypted(tmp_path)
    original = (tmp_path / "kx.initiator").read_bytes()
    state, src = tmp_path / "mutated.initiator", tmp_path / "p.bin"
    enc, dst = tmp_path / "m.geg", tmp_path / "o.bin"
    codes = []

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(splices(len(original)))
    def encrypt_with(splice):
        at, cut, new = splice
        state.write_bytes(original[:at] + new + original[at + cut:])
        capsys.readouterr()
        code = cli.main(["encrypt", "--state", str(state), "--in", str(src), "--out", str(enc),
                         "--seed", "01"])
        err = capsys.readouterr().err
        codes.append(code)
        if code != cli.EXIT_OK:
            assert code in DATA_EXITS, err
            assert not enc.exists()
            assert err.startswith("geg: ") and err.count("\n") == 1, err
            return
        # what the untouched responder reads is the plaintext, or is refused
        code = cli.main(["decrypt", "--state", str(tmp_path / "kx.responder"), "--in", str(enc),
                         "--out", str(dst)])
        err = capsys.readouterr().err
        enc.unlink()
        if code == cli.EXIT_OK:
            assert dst.read_bytes() == src.read_bytes(), splice
            dst.unlink()
        else:
            assert code in (cli.EXIT_CODEC, cli.EXIT_PROTOCOL), err
            assert not dst.exists()
            assert err.startswith("geg: ") and err.count("\n") == 1, err

    encrypt_with()
    # an unread or harmless byte, the codec and the pair each decided some run
    assert {cli.EXIT_OK, cli.EXIT_CODEC, cli.EXIT_PROTOCOL} <= set(codes)


def payloads(stream: bytes) -> tuple[list[range], list[range]]:
    """The byte ranges of the y1 payloads and of the y2 payloads of a d=8
    cipher stream's blocks."""
    y1, y2, offset = [], [], wire.read_frame(stream)[1]  # past the context frame
    while offset < len(stream):
        _, offset = wire.read_frame(stream, offset)
        y1.append(range(offset - 128, offset - 64))
        y2.append(range(offset - 64, offset))
    return y1, y2


def test_mutated_stream_decrypts_exactly_or_fails_cleanly(tmp_path, capsys):
    _, original, data = encrypted(tmp_path)
    state, enc, dst = tmp_path / "kx.responder", tmp_path / "mutated.geg", tmp_path / "o.bin"
    y1_spans, y2_spans = payloads(original)
    codes = []

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(splices(len(original)))
    def decrypt_with(splice):
        at, cut, new = splice
        enc.write_bytes(original[:at] + new + original[at + cut:])
        capsys.readouterr()
        code = cli.main(["decrypt", "--state", str(state), "--in", str(enc), "--out", str(dst)])
        err = capsys.readouterr().err
        codes.append(code)

        def overwrites(spans):  # changes bytes within one payload, and nothing else
            return (cut == len(new) and new != original[at:at + cut]
                    and any(at in span and at + cut - 1 in span for span in spans))

        if overwrites(y1_spans):  # refused by the frame parser, or else by the y1 reader
            assert code == (cli.EXIT_PROTOCOL if max(new) < 251 else cli.EXIT_CODEC), (splice, err)
        if code == cli.EXIT_OK:
            assert dst.read_bytes() == data or overwrites(y2_spans), splice
            dst.unlink()
        else:
            assert code in (cli.EXIT_CODEC, cli.EXIT_PROTOCOL), err
            assert not dst.exists()
            assert err.startswith("geg: ") and err.count("\n") == 1, err

    decrypt_with()
    # the frame parser and the y1 reader each refused some mutation
    assert {cli.EXIT_CODEC, cli.EXIT_PROTOCOL} <= set(codes)
