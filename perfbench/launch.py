"""Run one `geg` CLI command with the span tracer installed.

    python3 perfbench/launch.py SPANS_FILE -- <geg arguments>

Imports `geg.cli`, wraps the public layer calls, runs `geg.cli.main` on the
given arguments, writes the recorded spans to SPANS_FILE and exits with the
CLI's exit code.  Each cipher block starts a new request id.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import geg.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS_FILE -- <geg arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(roots=("protocol.encrypt_block", "protocol.decrypt_block"))
    tracer.install()
    try:
        code = geg.cli.main(argv[2:])
    finally:
        tracer.uninstall()
    tracer.dump(Path(argv[0]))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
