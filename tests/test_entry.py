"""`geg` as a process of its own.

`python -m geg` and the `geg` console script enter through `cli.main()` with
no argv, which in-process tests never do.  Importing the package also fixes
what every such process loads: one BLAS thread and no OpenSSL.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geg
from geg import cli

SRC = str(Path(geg.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    # no PYTHONUNBUFFERED: a piped stdout is then block-buffered and only
    # reaches the parent if the process flushes it on the way out
    drop = {"OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def python(*args: str, cwd: Path, **extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(**extra), cwd=cwd,
        capture_output=True, text=True, timeout=120, check=False,
    )


def geg_process(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return python("-m", "geg", *args, cwd=cwd)


class TestModuleEntry:
    def encrypted(self, tmp_path: Path, data: bytes) -> Path:
        assert geg_process("keyexchange", "--seed", "beef", "--state", "kx", cwd=tmp_path).returncode == 0
        (tmp_path / "plain.bin").write_bytes(data)
        enc = geg_process("encrypt", "--state", "kx.initiator", "--seed", "11",
                          "--in", "plain.bin", "--out", "cipher.geg", cwd=tmp_path)
        assert enc.returncode == 0, enc.stderr
        assert enc.stdout.startswith(f"encrypted {len(data)} bytes into ")
        assert enc.stdout.endswith(" blocks -> cipher.geg\n")
        return tmp_path / "cipher.geg"

    def test_round_trip(self, tmp_path, capsys):
        data = bytes(range(256)) * 2 + b"tail"
        cipher = self.encrypted(tmp_path, data)
        dec = geg_process("decrypt", "--state", "kx.responder",
                          "--in", "cipher.geg", "--out", "plain.out", cwd=tmp_path)
        assert dec.returncode == 0, dec.stderr
        assert dec.stdout == "decrypted 10 blocks into 516 bytes -> plain.out\n"
        assert (tmp_path / "plain.out").read_bytes() == data
        # the same seeds in process give the same bytes
        inproc = tmp_path / "inproc"
        inproc.mkdir()
        assert cli.main(["keyexchange", "--state", str(inproc / "kx"), "--seed", "beef"]) == 0
        assert cli.main(["encrypt", "--state", str(inproc / "kx.initiator"), "--seed", "11",
                         "--in", str(tmp_path / "plain.bin"),
                         "--out", str(inproc / "cipher.geg")]) == 0
        capsys.readouterr()
        assert (inproc / "cipher.geg").read_bytes() == cipher.read_bytes()

    def test_truncated_stream_is_codec_error(self, tmp_path):
        cipher = self.encrypted(tmp_path, b"attack at dawn" * 30)
        cipher.write_bytes(cipher.read_bytes()[:-1])
        dec = geg_process("decrypt", "--state", "kx.responder",
                          "--in", "cipher.geg", "--out", "plain.out", cwd=tmp_path)
        assert dec.returncode == cli.EXIT_CODEC
        assert dec.stderr.startswith("geg: codec error")
        assert not (tmp_path / "plain.out").exists()

    def test_singular_generator_is_protocol_error(self, tmp_path):
        assert geg_process("keyexchange", "--seed", "beef", "--state", "kx", cwd=tmp_path).returncode == 0
        state = bytearray((tmp_path / "kx.initiator").read_bytes())
        state[12 + 64 : 12 + 128] = bytes(64)  # G, the second d=8 matrix after the header
        (tmp_path / "kx.initiator").write_bytes(bytes(state))
        (tmp_path / "plain.bin").write_bytes(b"hello")
        enc = geg_process("encrypt", "--state", "kx.initiator",
                          "--in", "plain.bin", "--out", "cipher.geg", cwd=tmp_path)
        assert enc.returncode == cli.EXIT_PROTOCOL
        assert enc.stderr == "geg: protocol error: generator is singular\n"
        assert not (tmp_path / "cipher.geg").exists()

    def test_zero_bench_iterations_is_usage_error(self, tmp_path):
        got = geg_process("bench", "--iterations", "0", cwd=tmp_path)
        assert got.returncode == cli.EXIT_USAGE
        assert "argument --iterations" in got.stderr
        assert "Traceback" not in got.stderr

    def test_only_program_entry_freezes_gc(self, tmp_path, capsys):
        argv = ["geg", "analyze", "--dim", "2", "--iterations", "0", "--format", "kv"]
        child = python(
            "-c",
            "import gc, sys\nfrom geg import cli\n"
            f"sys.argv = {argv!r}\nassert cli.main() == 0\nprint(gc.get_freeze_count())",
            cwd=tmp_path,
        )
        assert child.returncode == 0, child.stderr
        assert int(child.stdout.splitlines()[-1]) > 0
        assert cli.main(argv[1:]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == 0


class TestImportGraph:
    PROBE = (
        "import os, sys\n{first}import geg.cli\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)\n"
        "print(','.join(m for m in ('secrets', 'hmac', '_hashlib') if m in sys.modules))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print('geg.analysis' in sys.modules)"
    )

    def probe(self, tmp_path, first="", **extra):
        got = python("-c", self.PROBE.format(first=first), cwd=tmp_path, **extra)
        assert got.returncode == 0, got.stderr
        tasks, crypto_modules, blas_threads, analysis_loaded = got.stdout.splitlines()
        return int(tasks), crypto_modules, blas_threads, analysis_loaded

    def test_one_thread_and_no_openssl(self, tmp_path):
        # nor the analyze report: the protocol core never imports it
        tasks, crypto_modules, blas_threads, analysis_loaded = self.probe(tmp_path)
        assert crypto_modules == ""
        assert blas_threads == "1"
        assert analysis_loaded == "False"
        if tasks < 0:
            pytest.skip("no /proc/self/task on this platform")
        assert tasks == 1

    def test_user_setting_wins(self, tmp_path):
        assert self.probe(tmp_path, OPENBLAS_NUM_THREADS="3")[2] == "3"

    def test_numpy_loaded_first_is_left_alone(self, tmp_path):
        assert self.probe(tmp_path, first="import numpy\n")[2] == "None"
