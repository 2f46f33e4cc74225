"""The three benchmark workloads: what one operation is and how it is checked.

All run in a closed loop from one process with no threads: each operation
finishes before the next starts.  Inputs come only from the workload seed.

* `CliFiles` drives the real `geg` CLI as fresh processes: `keyexchange`
  writes the two state files (set-up), then each operation is one
  `encrypt --seed` process followed by one `decrypt` process on a seeded
  file.  `file_bulk_d8` uses a 128 KiB file at d=8 (cipher, codec and file
  I/O dominate); `cli_small_d16` a 4 KiB file at d=16 (interpreter start,
  imports and `load_state` dominate).
* `SessionChurn` runs two in-process peers at d=16.  Each pairing is a
  handshake followed by `UPDATES` session updates, each carrying one message
  of 1 to 3 blocks; every matrix crosses `wire.frame`/`wire.parse`.  An
  end-to-end run spreads the pairings over several worker processes, one
  after another (`churn_worker`), because one interpreter's memory layout
  and hash seed shift its speed by several percent for its whole life.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

CHILD_TIMEOUT_S = 150


def derive(seed: int, purpose: str) -> bytes:
    """32 bytes for one purpose, fixed by the workload seed."""
    return hashlib.sha256(f"geg-bench:{seed}:{purpose}".encode()).digest()


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    env: dict[str, str]

    @property
    def bench(self) -> Path:
        return self.root / "perfbench"


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    code: int
    stderr: str


def run_child(argv: list[str], env: dict[str, str], cwd: Path) -> Child:
    """Run one process to completion; wall and CPU time are its own."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Child(wall, cpu, proc.returncode, proc.stderr.decode(errors="replace")[-500:])


def merge(into: dict, summary: dict) -> None:
    """Add one process's span summary into `into`."""
    for name, row in summary.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value


# -- CLI workloads ----------------------------------------------------------------


class CliFiles:
    """`geg` CLI processes on seeded files of one fixed size.

    Input set i is a seeded file, the state files from a `keyexchange` with
    its own seed, and the `--seed` for `geg encrypt`.  The session exponents
    in a state fix how much `pow` work every block costs, so a run cycles
    over many input sets rather than timing one key many times.
    """

    def __init__(self, ctx: Context, tally: Tally, dim: int, size: int):
        self.ctx, self.tally, self.dim, self.size = ctx, tally, dim, size
        self.digests: dict[int, str] = {}  # input set -> ciphertext sha256
        self.children: list[Child] = []

    def _geg(self, args: list[str], spans: Path | None) -> Child:
        if spans is None:
            argv = [sys.executable, "-m", "geg", *args]
        else:
            argv = [sys.executable, str(self.ctx.bench / "launch.py"), str(spans), "--", *args]
        child = run_child(argv, self.ctx.env, self.ctx.work)
        self.children.append(child)
        self.tally.record(child.code == 0, f"geg {args[0]} exited {child.code}: {child.stderr}")
        return child

    def setup(self, i: int, spans: Path | None = None) -> float:
        """Write input set i's file and state files; returns wall seconds."""
        t0 = time.perf_counter()
        data = random.Random(derive(self.ctx.seed, f"file{i}")).randbytes(self.size)
        (self.ctx.work / f"plain{i}.bin").write_bytes(data)
        self._geg(["keyexchange", "--dim", str(self.dim),
                   "--seed", derive(self.ctx.seed, f"keyexchange{i}")[:8].hex(),
                   "--state", str(self.ctx.work / f"kx{i}")], spans)
        return time.perf_counter() - t0

    def round_trip(self, i: int, spans: tuple[Path, Path] | None = None) -> tuple[Child, Child]:
        """Encrypt then decrypt input set i in two fresh processes; checks the
        exit codes, the recovered bytes and that a repeated seeded encryption
        of the same input gives the same ciphertext."""
        plain = self.ctx.work / f"plain{i}.bin"
        cipher = self.ctx.work / "cipher.geg"
        out = self.ctx.work / "plain.out"
        for stale in (cipher, out):
            stale.unlink(missing_ok=True)
        enc = self._geg(["encrypt", "--dim", str(self.dim),
                         "--seed", derive(self.ctx.seed, f"encrypt{i}")[:8].hex(),
                         "--state", str(self.ctx.work / f"kx{i}.initiator"),
                         "--in", str(plain), "--out", str(cipher)],
                        spans[0] if spans else None)
        dec = self._geg(["decrypt", "--dim", str(self.dim),
                         "--state", str(self.ctx.work / f"kx{i}.responder"),
                         "--in", str(cipher), "--out", str(out)],
                        spans[1] if spans else None)
        if enc.code == 0:
            digest = hashlib.sha256(cipher.read_bytes()).hexdigest()
            self.tally.record(self.digests.setdefault(i, digest) == digest,
                              f"seeded encryption of input set {i} is not repeatable")
        if dec.code == 0:
            self.tally.record(out.read_bytes() == plain.read_bytes(),
                              f"decryption of input set {i} differs from the input")
        return enc, dec

    def traced_unit(self) -> dict:
        """Set-up and one round trip of input set 0, every process traced."""
        names = ("spans-kx.json", "spans-enc.json", "spans-dec.json")
        paths = [self.ctx.work / n for n in names]
        self.setup(0, paths[0])
        self.round_trip(0, (paths[1], paths[2]))
        unit: dict = {}
        for path in paths:
            if path.exists():
                merge(unit, tracing.summarize(tracing.load_spans(path)))
                path.unlink()
        return unit


# -- in-process session churn -----------------------------------------------------


class SessionChurn:
    """Two in-process peers at d=16: handshake, then session updates with messages."""

    DIM = 16
    UPDATES = 8
    MAX_BLOCKS = 3

    def __init__(self, seed: int, tally: Tally):
        # looked up through the modules on every call, so a tracer installed
        # later sees the calls
        from geg import field, protocol, wire

        self.field, self.protocol, self.wire = field, protocol, wire
        self.seed, self.tally = seed, tally
        self.capacity = wire.block_capacity(self.DIM)

    def _send(self, msg_type: int, matrix):
        wire = self.wire
        return wire.matrix_from_message(wire.parse(wire.frame(wire.matrix_message(msg_type, matrix))))

    @staticmethod
    def new_samples() -> dict[str, list[float]]:
        return {k: [] for k in ("handshake", "session", "encrypt", "decrypt", "bytes")}

    def pairing(self, index: int, samples: dict[str, list[float]], tracer=None) -> int:
        """One pairing from seed-derived randomness; appends timings to
        `samples` and returns the number of completed sessions."""
        wire, tally = self.wire, self.tally
        rng = self.field.RandomSource.deterministic(derive(self.seed, f"pairing{index}"))
        lengths = random.Random(derive(self.seed, f"messages{index}"))
        clock = time.perf_counter
        t0 = clock()
        basis, generator = self.protocol.setup_shared(rng, self.DIM)
        basis = self._send(wire.MSG_BASIS_INIT, basis)
        generator = self._send(wire.MSG_GENERATOR_INIT, generator)
        alice = self.protocol.Entity("initiator", basis, generator)
        bob = self.protocol.Entity("responder", basis, generator)
        token_a = self._send(wire.MSG_TOKEN_INITIAL, alice.keygen(rng))
        token_b = self._send(wire.MSG_TOKEN_INITIAL, bob.keygen(rng))
        alice.derive_session_key(token_b)
        bob.derive_session_key(token_a)
        samples["handshake"].append(clock() - t0)
        if not tally.record(alice.shared_parameters() == bob.shared_parameters(),
                            f"pairing {index}: keys differ after the handshake"):
            return 0
        done = 0
        for update in range(self.UPDATES):
            if tracer is not None:
                tracer.request = update + 1
            opener, acker = (alice, bob) if update % 2 == 0 else (bob, alice)
            message = lengths.randbytes(lengths.randrange(self.capacity * self.MAX_BLOCKS))
            t1 = clock()
            token = self._send(wire.MSG_TOKEN_OPEN, opener.open_session())
            answer = self._send(wire.MSG_TOKEN_ACK, acker.ack_session(token))
            opener.install_peer_token(answer)
            t2 = clock()
            if not tally.record(opener.shared_parameters() == acker.shared_parameters(),
                                f"pairing {index} update {update}: parameters differ"):
                return done
            t3 = clock()
            frames = [
                wire.frame(wire.cipher_block_message(opener.encrypt_block(block, rng)))
                for block in wire.encode_plaintext(message, self.DIM)
            ]
            t4 = clock()
            received = wire.decode_plaintext([
                acker.decrypt_block(wire.cipher_block_from_message(wire.parse(f)))
                for f in frames
            ])
            t5 = clock()
            if not tally.record(received == message,
                                f"pairing {index} update {update}: message differs"):
                return done
            samples["session"].append((t2 - t1) + (t5 - t3))
            samples["encrypt"].append(t4 - t3)
            samples["decrypt"].append(t5 - t4)
            samples["bytes"].append(len(message))
            done += 1
        return done


def churn_worker(seed: int, first: int, seconds: float) -> None:
    """Body of one churn worker process: import geg and run one warm-up
    pairing (its set-up), print ``ready``, run pairings `first`, `first`+1, ...
    for `seconds`, then print one JSON line of samples."""
    tally = Tally()
    bench = SessionChurn(seed, tally)
    bench.pairing(-1, bench.new_samples())
    print("ready", flush=True)
    samples = bench.new_samples()
    pairings, pairing_s = 0, 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        bench.pairing(first + pairings, samples)
        pairing_s += time.perf_counter() - t0
        pairings += 1
    out = {
        "handshake": samples["handshake"],
        "session": samples["session"],
        "pairings": pairings,
        "pairing_s": pairing_s,
        "sessions": len(samples["session"]),
        "bytes": sum(samples["bytes"]),
        "encrypt_s": sum(samples["encrypt"]),
        "decrypt_s": sum(samples["decrypt"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    churn_worker(int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]))
