"""The benchmark's span tracer wraps names in `geg` by string; keep them resolvable.

A renamed or deleted traced name would otherwise fail only a traced benchmark
run (`perfbench/run.py --trace 1`), not this suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module_name, class_name, attr", load_targets())
def test_target_resolves(name, module_name, class_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name) if class_name else module
    assert attr in owner.__dict__, f"{name}: {owner!r} defines no {attr}"
