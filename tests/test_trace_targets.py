"""What the benchmark in `perfbench/` relies on in `geg`.

The span tracer wraps names in `geg` by string; keep them resolvable.  A
renamed or deleted traced name would otherwise fail only a traced benchmark
run (`perfbench/run.py --trace 1`), not this suite.  The same tracer also
pins which calls a decryption makes once per file rather than once per block.
The in-process churn workload calls the single-block cipher API and the
plaintext codec directly, so one of its pairings runs here too.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from geg import cli, wire

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module_name, class_name, attr", load("tracer").TARGETS)
def test_target_resolves(name, module_name, class_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    assert attr in owner.__dict__, f"{name}: {owner!r} defines no {attr}"


def test_decrypt_session_work_does_not_grow_with_blocks(tmp_path, capsys):
    # the context, the state file's matrices and their checks are per file,
    # not per block
    tracing = load("tracer")
    prefix = tmp_path / "kx"
    assert cli.main(["keyexchange", "--seed", "beef", "--state", str(prefix)]) == 0
    counts = {}
    for blocks in (1, 600):
        src, enc, dst = (tmp_path / f"{name}{blocks}" for name in ("p", "c", "o"))
        src.write_bytes(random.Random(blocks).randbytes(blocks * wire.block_capacity(8) - 1))
        assert cli.main(["encrypt", "--state", f"{prefix}.initiator", "--in", str(src),
                         "--out", str(enc)]) == 0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["decrypt", "--state", f"{prefix}.responder", "--in", str(enc),
                             "--out", str(dst)])
        finally:
            tracer.uninstall()
        assert code == 0 and dst.read_bytes() == src.read_bytes()
        assert f"decrypted {blocks} blocks" in capsys.readouterr().out
        counts[blocks] = tracing.summarize(tracer.spans)
    called = ("linalg.det", "linalg.matmul", "wire.bytes_to_matrix", "cli.load_state")
    for name in ("commuting.conjugate", "commuting.context_init", "linalg.inv", *called):
        assert counts[600][name]["calls"] == counts[1][name]["calls"], name
    for name in called:  # each runs, so its pin above is no 0 == 0
        assert counts[1][name]["calls"] >= 1, name


def test_session_churn_pairing_is_correct(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports the tracer by name
    workloads = load("workloads")
    tally = workloads.Tally()
    churn = workloads.SessionChurn(1, tally)
    sessions = churn.pairing(0, churn.new_samples())
    assert tally.failed == 0, tally.errors
    assert sessions == churn.UPDATES
