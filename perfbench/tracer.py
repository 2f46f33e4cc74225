"""Run-time span tracer for the geg layers, installed from outside the program.

`Tracer.install()` replaces each public call listed in `TARGETS` with a
wrapper that records one span (name, start, end, parent span, request id)
in memory.  Methods are wrapped on the class, so every instance sees the
wrapper; an alias on the same class (``MatrixFp.__pow__ is MatrixFp.pow``)
is bound to the same wrapper, so a call through either name counts once.
Module functions are rebound in every loaded ``geg`` module that holds the
original, so names brought in with ``from .protocol import setup_shared``
are traced too.  `uninstall()` restores every original.

Spans are kept in memory and written out once, by `dump()`;
`summarize()` turns a span list into per-name calls, self time and bytes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (span name, module, class or None, attribute)
TARGETS = [
    ("field.array_mod", "geg.field", "RandomSource", "array_mod"),
    ("field.distinct_nonzero", "geg.field", "RandomSource", "distinct_nonzero"),
    ("linalg.matmul", "geg.linalg", "MatrixFp", "__matmul__"),
    ("linalg.pow", "geg.linalg", "MatrixFp", "pow"),
    ("linalg.inv", "geg.linalg", "MatrixFp", "inv"),
    ("linalg.det", "geg.linalg", "MatrixFp", "det"),
    ("linalg.random", "geg.linalg", "MatrixFp", "random"),
    ("linalg.random_invertible", "geg.linalg", "MatrixFp", "random_invertible"),
    ("commuting.context_init", "geg.commuting", "CommutingContext", "__init__"),
    ("commuting.conjugate", "geg.commuting", "CommutingContext", "conjugate"),
    ("commuting.random_element", "geg.commuting", "CommutingContext", "random_element"),
    ("protocol.setup_shared", "geg.protocol", None, "setup_shared"),
    ("protocol.extract_exponents", "geg.protocol", None, "extract_exponents"),
    ("protocol.keygen", "geg.protocol", "Entity", "keygen"),
    ("protocol.derive_session_key", "geg.protocol", "Entity", "derive_session_key"),
    ("protocol.open_session", "geg.protocol", "Entity", "open_session"),
    ("protocol.ack_session", "geg.protocol", "Entity", "ack_session"),
    ("protocol.install_peer_token", "geg.protocol", "Entity", "install_peer_token"),
    ("protocol.encrypt_block", "geg.protocol", "Entity", "encrypt_block"),
    ("protocol.decrypt_block", "geg.protocol", "Entity", "decrypt_block"),
    ("wire.frame", "geg.wire", None, "frame"),
    ("wire.read_frame", "geg.wire", None, "read_frame"),
    ("wire.bytes_to_matrix", "geg.wire", None, "bytes_to_matrix"),
    ("wire.encode_plaintext", "geg.wire", None, "encode_plaintext"),
    ("wire.decode_plaintext", "geg.wire", None, "decode_plaintext"),
    ("cli.main", "geg.cli", None, "main"),
    ("cli.load_state", "geg.cli", None, "load_state"),
    ("cli.save_state", "geg.cli", None, "save_state"),
]

SPAN_NAMES = [t[0] for t in TARGETS]


def _plaintext_in(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["data"])


def _plaintext_out(args, kwargs, result) -> int:
    return len(result)


# plaintext bytes handled by a span, for the codec throughput metrics
_SIZERS = {
    "wire.encode_plaintext": _plaintext_in,
    "wire.decode_plaintext": _plaintext_out,
}


class Tracer:
    """In-memory span recorder for one process; single-threaded use only."""

    def __init__(self, roots: tuple[str, ...] = ()):
        # span: [name index, start ns, end ns, parent span index or -1, request, bytes]
        self.spans: list[list[int]] = []
        self.request = 0
        self._roots = frozenset(roots)  # entering one of these starts a new request
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        index = SPAN_NAMES.index(name)
        new_request = name in self._roots
        sizer = _SIZERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_request:
                self.request += 1
            span = [index, 0, 0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                span[5] = sizer(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; the geg modules must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        geg_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "geg" or n.startswith("geg."))
        ]
        for name, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            if class_name:
                # aliases such as MatrixFp.__pow__ = pow share one wrapper
                for alias, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._patch(owner, alias, wrapped)
            else:
                # the defining module and every `from .x import name` copy
                for holder in geg_modules:
                    for alias, value in list(vars(holder).items()):
                        if value is raw:
                            self._patch(holder, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.request = 0

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": SPAN_NAMES, "spans": self.spans}))


def load_spans(path: Path) -> list[list[int]]:
    blob = json.loads(path.read_text())
    if blob["names"] != SPAN_NAMES:
        raise ValueError(f"{path}: span names do not match this tracer")
    return blob["spans"]


def summarize(spans: list[list[int]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self nanoseconds, bytes, plus the
    number of `linalg.random` draws made inside `linalg.random_invertible`.

    Self time is a span's duration minus the durations of its direct child
    spans; in one thread the children never overlap, so their sum is the
    part of the parent's interval they cover.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    invertible = SPAN_NAMES.index("linalg.random_invertible")
    draw = SPAN_NAMES.index("linalg.random")
    out = {n: {"calls": 0, "ns": 0, "self_ns": 0, "bytes": 0} for n in SPAN_NAMES}
    draws = 0
    for i, s in enumerate(spans):
        row = out[SPAN_NAMES[s[0]]]
        row["calls"] += 1
        row["ns"] += s[2] - s[1]
        row["self_ns"] += s[2] - s[1] - child_ns[i]
        row["bytes"] += s[5]
        if s[0] == draw and s[3] >= 0 and spans[s[3]][0] == invertible:
            draws += 1
    out["linalg.random"]["draws_for_invertible"] = draws
    return out
