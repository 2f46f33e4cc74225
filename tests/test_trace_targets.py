"""The benchmark's span tracer wraps names in `geg` by string; keep them resolvable.

A renamed or deleted traced name would otherwise fail only a traced benchmark
run (`perfbench/run.py --trace 1`), not this suite.  The same tracer also
pins which calls a decryption makes once per file rather than once per block.
"""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from geg import cli, wire

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module_name, class_name, attr", load_tracer().TARGETS)
def test_target_resolves(name, module_name, class_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    assert attr in owner.__dict__, f"{name}: {owner!r} defines no {attr}"


def test_decrypt_session_work_does_not_grow_with_blocks(tmp_path, capsys):
    # subgroup conjugates, bases and scalar inverses are per file, not per block
    tracing = load_tracer()
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
    for name in ("commuting.conjugate", "commuting.context_init", "linalg.inv"):
        assert counts[600][name]["calls"] == counts[1][name]["calls"], name
