"""Golden corpus: SHA-256 of seeded CLI output, pinned byte for byte.

Seeded runs must give the same transcript, state files and ciphertext across
refactors.  `fixtures/golden.json` was recorded once from the code before the
first refactor it guards; a change that moves any hash changes behaviour, and
the fixture is not re-recorded to make it pass.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from geg import cli

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden.json").read_text())
PLAIN = random.Random(7).randbytes(3000)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv) -> str:
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out


def keyexchange(capsys, tmp_path, dim):
    prefix = tmp_path / "kx"
    run(capsys, ["keyexchange", "--dim", str(dim), "--seed", "beef", "--state", str(prefix)])
    return prefix.with_name("kx.initiator"), prefix.with_name("kx.responder")


@pytest.mark.parametrize("dim", [8, 16])
def test_demo_transcript(capsys, dim):
    out = run(capsys, ["demo", "--dim", str(dim), "--seed", "2a"])
    assert sha256(out.encode()) == GOLDEN[f"demo_d{dim}"]


@pytest.mark.parametrize("dim", [8, 16])
def test_keyexchange_state_files(capsys, tmp_path, dim):
    init, resp = keyexchange(capsys, tmp_path, dim)
    assert sha256(init.read_bytes()) == GOLDEN[f"keyexchange_d{dim}_initiator"]
    assert sha256(resp.read_bytes()) == GOLDEN[f"keyexchange_d{dim}_responder"]


@pytest.mark.parametrize("dim", [8, 16])
def test_encrypt_ciphertext(capsys, tmp_path, dim):
    init, resp = keyexchange(capsys, tmp_path, dim)
    src, enc, dst = tmp_path / "plain.bin", tmp_path / "cipher.geg", tmp_path / "out.bin"
    src.write_bytes(PLAIN)
    run(capsys, ["encrypt", "--state", str(init), "--in", str(src), "--out", str(enc),
                 "--seed", "11"])
    assert sha256(enc.read_bytes()) == GOLDEN[f"encrypt_d{dim}"]
    run(capsys, ["decrypt", "--state", str(resp), "--in", str(enc), "--out", str(dst)])
    assert dst.read_bytes() == PLAIN


def test_analyze_monte_carlo_report(capsys):
    out = run(capsys, ["analyze", "--dim", "8", "--seed", "07", "--iterations", "3000",
                       "--format", "kv"])
    assert sha256(out.encode()) == GOLDEN["analyze_d8_kv"]


def test_analyze_monte_carlo_text_report(capsys):
    out = run(capsys, ["analyze", "--dim", "8", "--seed", "07", "--iterations", "3000"])
    assert sha256(out.encode()) == GOLDEN["analyze_d8_text"]


@pytest.mark.parametrize("key, argv", [
    ("analyze_d16_kv_no_trials", ["--dim", "16", "--iterations", "0", "--format", "kv"]),
    ("analyze_d8_text_no_trials", ["--dim", "8", "--iterations", "0"]),
])
def test_analyze_closed_form_report(capsys, key, argv):
    out = run(capsys, ["analyze", *argv])
    assert sha256(out.encode()) == GOLDEN[key]
