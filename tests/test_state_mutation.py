"""Generated mutations of a responder state file, fed to `geg decrypt`.

Every mutation either leaves a state that still decrypts the stream exactly,
or is refused with a data exit code (3 i/o, 4 codec, 5 protocol), one
`geg: ` line on stderr and no output file.  Exit 2 is for arguments only,
and no mutation may end in a traceback.
"""

import random

from hypothesis import given, settings, strategies as st

from geg import cli

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


def test_mutated_state_decrypts_exactly_or_fails_cleanly(tmp_path, capsys):
    prefix, src, enc = tmp_path / "kx", tmp_path / "p.bin", tmp_path / "c.geg"
    state, dst = tmp_path / "mutated.responder", tmp_path / "o.bin"
    data = random.Random(700).randbytes(700)
    src.write_bytes(data)
    assert cli.main(["keyexchange", "--seed", "beef", "--state", str(prefix)]) == cli.EXIT_OK
    assert cli.main(["encrypt", "--state", f"{prefix}.initiator", "--in", str(src),
                     "--out", str(enc), "--seed", "01"]) == cli.EXIT_OK
    original = (tmp_path / "kx.responder").read_bytes()
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
