"""Command-line surface: demo transcript, key exchange to state files, file
encryption, benchmarks, and the analysis report.

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 wire/codec failure,
5 protocol failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import struct
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from . import protocol, wire
from .commuting import DiagonalSpec
from .errors import (
    CodecError,
    FrameLengthError,
    FrameMagicError,
    FrameValueError,
    GegError,
)
from .field import DEFAULT_PRIME, RandomSource
from .linalg import MatrixFp
from .protocol import Entity, Phase, handshake, setup_shared, start_session

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CODEC = 4
EXIT_PROTOCOL = 5

PROTOCOL_DIMS = (8, 16)  # the dimensions the CLI runs the protocol at
STATE_TAG = 0x10
SESSION_OPEN_PHASE = 0x03  # the only persistable phase
PRIVATE_MARKER = 0x90
# magic | tag | d | p | role | phase | m | n, then the matrices and the private section
_STATE_HEADER = struct.Struct(">4sBBHBBBB")
_ROLE_BYTES = {"initiator": 0x01, "responder": 0x02}
_ROLE_NAMES = {v: k for k, v in _ROLE_BYTES.items()}

# the protocol phases geg bench times: kv key, text label, and the mean of the
# reference interpreted-language run in ms, for context only
_PHASES = (
    ("setup_ms", "setup of public pair (P, G)", 0.12),
    ("key_exchange_ms", "token exchange to first key and exponents", 29.56),
    ("session_update_ms", "session update (open + acknowledge)", 52.94),
    ("cipher_cycle_ms", "encipher-decipher of one block", 32.36),
)
_FULL_SESSION_BUDGET_MS = 85.0
# cipher slices (protocol.slice_blocks) per chunk that encrypt and decrypt read
# and write: a chunk's fixed costs, a frame check, a cipher call and a codec
# call, amortize over 8 slices, and its frames take 138 KiB at d=8, 131 at d=16
CHUNK_SLICES = 8


def _rng_from(seed_hex: str | None) -> RandomSource:
    if seed_hex is None:
        return RandomSource.crypto()
    return RandomSource.deterministic(bytes.fromhex(seed_hex))


def _show(title: str, m: MatrixFp | np.ndarray) -> None:
    print(title)
    print("\n".join("  " + " ".join(f"{v:3d}" for v in row) for row in m.tolist()))


def _print_report(rows: list[tuple[str, str | None]], fmt: str) -> None:
    """Print a report's kv or text column; a text of None is shown in another row's line."""
    for kv, text in rows:
        line = kv if fmt == "kv" else text
        if line is not None:
            print(line)


# -- state files ---------------------------------------------------------------


def save_state(path: Path, entity: Entity) -> None:
    _write_atomic([(path, _state_chunks(entity))])


def _state_chunks(entity: Entity) -> list[bytes]:
    # a keyed entity holds the setup token as peer_token, but its key is not a session's
    if entity.phase is not Phase.SESSION_OPEN or entity.peer_token is None:
        raise GegError("entity has no open session with the peer's token; cannot save it")
    # load_state reads no other field: such a file could be written but never loaded
    if entity.d not in PROTOCOL_DIMS or entity.p != DEFAULT_PRIME:
        raise GegError(f"state files hold d in {PROTOCOL_DIMS} over F_{DEFAULT_PRIME}, "
                       f"not d={entity.d} over F_{entity.p}")
    header = _STATE_HEADER.pack(wire.MAGIC, STATE_TAG, entity.d, entity.p,
                                _ROLE_BYTES[entity.role], SESSION_OPEN_PHASE, *entity.exponents)
    matrices = (entity.basis, entity.generator, entity.session_key, entity.peer_token)
    private = bytes([PRIVATE_MARKER, *entity.eigenvalues.values])
    return [header, *map(wire.matrix_to_bytes, matrices), private]


def _write_atomic(files: list[tuple[Path, Iterable[bytes]]]) -> None:
    """Write each (path, chunks) to a temporary file beside its path, then rename them all:
    a failed write keeps every old file, a failed rename those not yet replaced."""
    pending: list[tuple[str, Path]] = []
    try:
        for path, chunks in files:
            fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
            pending.append((tmp, path))
            with os.fdopen(fd, "wb") as out:
                out.writelines(chunks)
        while pending:
            os.replace(*pending[0])
            del pending[0]
    except BaseException:
        for tmp, _ in pending:
            os.unlink(tmp)
        raise


def load_state(path: Path) -> Entity:
    blob = path.read_bytes()
    if len(blob) < _STATE_HEADER.size or blob[:4] != wire.MAGIC:
        raise FrameMagicError(f"{path}: not a state file")
    _, tag, d, p, role_byte, phase, m, n = _STATE_HEADER.unpack_from(blob)
    if tag != STATE_TAG:
        raise FrameMagicError(f"{path}: unexpected file tag 0x{tag:02x}")
    if p != DEFAULT_PRIME:
        raise FrameValueError(f"{path}: modulus {p} is not {DEFAULT_PRIME}")
    if d not in PROTOCOL_DIMS:
        raise FrameValueError(f"{path}: dimension {d} is not one of {PROTOCOL_DIMS}")
    role = _ROLE_NAMES.get(role_byte)
    if role is None:
        raise FrameValueError(f"{path}: unknown role byte 0x{role_byte:02x}")
    if phase != SESSION_OPEN_PHASE:
        raise FrameValueError(f"{path}: phase byte 0x{phase:02x} is not session-open")
    sq = d * d
    marker = _STATE_HEADER.size + 4 * sq
    if len(blob) != marker + 1 + d:
        raise FrameLengthError(f"{path}: expected {marker + 1 + d} bytes, found {len(blob)}")
    basis, generator, session_key, peer_token = (
        wire.bytes_to_matrix(blob[at : at + sq], d) for at in range(_STATE_HEADER.size, marker, sq)
    )
    if blob[marker] != PRIVATE_MARKER:
        raise FrameMagicError(f"{path}: private section marker missing")
    try:
        eigenvalues = DiagonalSpec(tuple(blob[marker + 1 :]), p)
    except ValueError as exc:
        raise FrameValueError(f"{path}: invalid private section: {exc}") from exc
    entity = Entity.restore(role, basis, generator, session_key, eigenvalues, peer_token)
    for name, stored, derived in zip("mn", (m, n), entity.exponents):
        if stored != derived:
            raise FrameValueError(
                f"{path}: exponent {name}={stored} does not match {derived} from the session key"
            )
    return entity


# -- subcommands -----------------------------------------------------------------


def run_demo(args) -> int:
    rng = _rng_from(args.seed)
    d = args.dim

    print(f"two-party demo over GL({d}, F_251)")
    print(f"randomness: {rng.mode}" + (f", seed {args.seed}" if args.seed else ""))

    basis, generator = setup_shared(rng, d)
    print("\n-- setup: either party samples the public pair and sends it --")
    _show("shared basis matrix P (public):", basis)
    _show("shared generator matrix G (public):", generator)

    alice, bob = handshake(basis, generator, rng)
    token_a, token_b = bob.peer_token, alice.peer_token

    k1, k2 = alice.initial_exponents
    print("\n-- alice samples private material --")
    print(f"alice initial exponents (private): k1={k1}, k2={k2}")
    print(f"alice eigenvalues (private): {list(alice.eigenvalues.values)}")
    _show("alice token A' = A^k1 G A^k2 (sent):", token_a)

    r1, r2 = bob.initial_exponents
    print("\n-- bob samples private material --")
    print(f"bob initial exponents (private): r1={r1}, r2={r2}")
    print(f"bob eigenvalues (private): {list(bob.eigenvalues.values)}")
    _show("bob token B' = B^r1 G B^r2 (sent):", token_b)

    agreed = alice.session_key == bob.session_key and alice.exponents == bob.exponents
    print("\n-- both derive the first common key --")
    _show("common session key K:", alice.session_key)
    m, n = alice.exponents
    print(f"exponent pair from K: m={m}, n={n}, m·n={m * n % alice.p}")
    print(f"bilateral agreement: {'yes' if agreed else 'NO'}")

    sess_a, sess_b = start_session(alice, bob)
    m, n = alice.exponents
    consistent = alice.shared_parameters() == bob.shared_parameters()
    print("\n-- alice opens a cipher session; bob acknowledges --")
    print("all of (K, m, n, P, G) re-derived from the shared secret")
    _show("updated session key K:", alice.session_key)
    print(f"updated exponent pair: m={m}, n={n}, m·n={m * n % alice.p}")
    _show("updated auxiliary basis P:", alice.basis)
    _show("updated auxiliary generator G:", alice.generator)
    _show("alice session token (sent):", sess_a)
    _show("bob session token (sent):", sess_b)
    print(f"bilateral consistency after update: {'yes' if consistent else 'NO'}")

    plain = MatrixFp.random(rng, d, alice.p)
    y1, y2 = alice.encrypt_blocks([plain], rng)
    recovered = bob.decrypt_blocks(y1, y2)[0]
    print("\n-- alice enciphers one message block for bob --")
    _show("message block H:", plain)
    _show("cipher part y1 = J^m G J^n:", y1[0])
    _show("cipher part y2 = H J^m B' J^n:", y2[0])
    _show("bob recovers y2 (B^m y1 B^n)^-1:", recovered)

    success = np.array_equal(recovered, plain) and agreed and consistent
    print(f"\nround-trip: {'OK' if success else 'FAILED'}")
    return EXIT_OK if success else EXIT_PROTOCOL


def run_keyexchange(args) -> int:
    rng = _rng_from(args.seed)
    alice, bob = handshake(*setup_shared(rng, args.dim), rng)
    start_session(alice, bob)

    prefix = Path(args.state)
    path_a = prefix.with_name(prefix.name + ".initiator")
    path_b = prefix.with_name(prefix.name + ".responder")
    _write_atomic([(path_a, _state_chunks(alice)), (path_b, _state_chunks(bob))])
    print(f"wrote {path_a}")
    print(f"wrote {path_b}")
    print(
        "warning: state files hold private key material in the clear; "
        "this is a simulation convenience, not key management"
    )
    return EXIT_OK


def _load_state_for(args) -> Entity:
    # --dim is optional for encrypt/decrypt: the state file fixes d
    entity = load_state(Path(args.state))
    if args.dim is not None and args.dim != entity.d:
        raise ValueError(f"--dim {args.dim} does not match the state file's d={entity.d}")
    return entity


def run_encrypt(args) -> int:
    entity = _load_state_for(args)
    rng = _rng_from(args.seed)
    d = entity.d
    step = CHUNK_SLICES * protocol.slice_blocks(d) * wire.block_capacity(d)  # bytes per chunk
    size = blocks = 0

    def frames(stream):
        # a short chunk ends the file; the pad goes after it
        nonlocal size, blocks
        yield wire.frame(wire.context_message(d, entity.p))
        while True:
            data = stream.read(step)
            plains = wire.encode_plaintext(data, d, final=len(data) < step)
            yield wire.cipher_frames(*entity.encrypt_blocks(plains, rng))
            size, blocks = size + len(data), blocks + len(plains)
            if len(data) < step:
                return

    with open(args.input, "rb") as stream:
        _write_atomic([(Path(args.output), frames(stream))])
    print(f"encrypted {size} bytes into {blocks} blocks -> {args.output}")
    return EXIT_OK


def run_decrypt(args) -> int:
    entity = _load_state_for(args)
    size = 0

    def plaintext(chunks, blocks):
        # a codec error waits until every block is decrypted: a refused y1 comes first
        nonlocal size
        done, failed = 0, None
        for y1, y2 in chunks:
            plains = entity.decrypt_blocks(y1, y2, first=done)
            done += len(plains)
            if failed is None:
                try:
                    data = wire.decode_plaintext(plains, final=done == blocks)
                except CodecError as exc:
                    failed = exc
                else:
                    size += len(data)
                    yield data
        if failed is not None:
            raise failed
        if done != blocks:
            raise FrameLengthError("ciphertext stream changed while it was read")

    with open(args.input, "rb") as stream:
        if not stream.peek(1):
            raise FrameLengthError("ciphertext stream is empty")
        d, p = wire.context_from_message(wire.read_frame_from(stream))
        if (d, p) != (entity.d, entity.p):
            raise CodecError(
                f"ciphertext parameters d={d}, p={p} do not match state d={entity.d}, p={entity.p}"
            )
        start, step = stream.tell(), CHUNK_SLICES * protocol.slice_blocks(d)
        # the file is read twice: every frame is checked before any block is decrypted
        blocks = sum(len(y1) for y1, _ in wire.read_cipher_chunks(stream, d, step))
        if not blocks:
            raise FrameLengthError("ciphertext stream holds no cipher-block frames")
        stream.seek(start)
        _write_atomic([(Path(args.output), plaintext(wire.read_cipher_chunks(stream, d, step), blocks))])
    print(f"decrypted {blocks} blocks into {size} bytes -> {args.output}")
    return EXIT_OK


def _bench_once(rng: RandomSource, d: int) -> list[float]:
    """The times of one run's phases in ms, in `_PHASES` order."""
    t0 = time.perf_counter()
    basis, generator = setup_shared(rng, d)
    t1 = time.perf_counter()
    alice, bob = handshake(basis, generator, rng)
    t2 = time.perf_counter()
    start_session(alice, bob)
    t3 = time.perf_counter()
    plain = MatrixFp.random(rng, d, alice.p)
    recovered = bob.decrypt_blocks(*alice.encrypt_blocks([plain], rng))
    t4 = time.perf_counter()
    if not np.array_equal(recovered[0], plain):
        raise GegError("benchmark round-trip failed")
    ticks = (t0, t1, t2, t3, t4)
    return [(end - start) * 1e3 for start, end in zip(ticks, ticks[1:])]


def run_bench(args) -> int:
    rng = _rng_from(args.seed)
    n, d = args.iterations, args.dim
    runs = [_bench_once(rng, d) for _ in range(n)]
    means = [sum(phase) / n for phase in zip(*runs)]
    full = sum(means[1:])  # exchange + update + cipher
    within = full < _FULL_SESSION_BUDGET_MS
    rows = [
        (f"iterations={n}", None),
        (f"dim={d}", f"mean over {n} random iterations at d={d}, p=251:"),
        *((f"{key}={mean:.4f}",
           f"  {label:<44}: {mean:8.3f} ms   (reference interpreted run: {ref:.2f} ms)")
          for (key, label, ref), mean in zip(_PHASES, means)),
        (f"full_session_ms={full:.4f}",
         f"  full session (exchange+update+cipher)        : {full:8.3f} ms"
         f"   within 85 ms budget: {'yes' if within else 'NO'}"),
        (f"within_85ms_budget={'yes' if within else 'no'}", None),
    ]
    _print_report(rows, args.format)
    return EXIT_OK if within else EXIT_PROTOCOL


def run_analyze(args) -> int:
    from . import analysis  # only this subcommand needs it; keeps CLI start-up lean

    rng = _rng_from(args.seed)  # refuses a bad seed even when no trial runs
    d, p, trials = args.dim, DEFAULT_PRIME, args.iterations
    gl = analysis.order_gl(d, p)
    counts = analysis.ambient_counts(d, p)
    subgroup = analysis.subgroup_orders(d, p)
    closed = analysis.singular_probability_closed(d, p)
    log10_gl, log10_all = math.log10(gl), math.log10(counts.total)
    bits, bits_alt = math.log2(subgroup.excluding_zero_one), math.log2(subgroup.excluding_zero)
    pad = " " * 31  # a continuation line lines up with the values
    rows = [
        (f"d={d}", f"parameters: d={d}, p={p}"),
        (f"p={p}", None),
        (f"order_gl={gl}", f"|GL(d, F_p)|                 = {gl}"),
        (f"log10_order_gl={log10_gl:.4f}", f"{pad}(log10 = {log10_gl:.4f})"),
        (f"ambient={counts.total}", f"all d x d matrices           = {counts.total}"),
        (f"log10_ambient={log10_all:.4f}", f"{pad}(log10 = {log10_all:.4f})"),
        (f"nilpotent={counts.nilpotent}", f"nilpotent matrices           = {counts.nilpotent}"),
        (f"subgroup_order_excl_zero_one={subgroup.excluding_zero_one}",
         f"commuting subgroup order     = {subgroup.excluding_zero_one}"
         f"  (eigenvalues excluding 0 and 1, log2 = {bits:.2f})"),
        (f"log2_subgroup_order_excl_zero_one={bits:.4f}", None),
        (f"subgroup_order_excl_zero={subgroup.excluding_zero}",
         f"alternative convention       = {subgroup.excluding_zero}"
         f"  (eigenvalues excluding 0 only, log2 = {bits_alt:.2f})"),
        (f"log2_subgroup_order_excl_zero={bits_alt:.4f}", None),
        (f"singular_closed_form={closed:.8f}",
         f"singular-draw probability    = {closed:.8f} (closed form)"),
    ]
    if trials > 0:
        mc = analysis.singular_probability(d, p, trials, rng).monte_carlo
        rows += [(f"singular_monte_carlo={mc:.8f}",
                  f"{pad}{mc:.8f} (monte carlo, {trials} trials)"),
                 (f"singular_trials={trials}", None)]
    rows.append((f"security_bits={bits:.1f}", f"brute-force security estimate: ~{bits:.1f} bits"))
    _print_report(rows, args.format)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geg",
        description="generalized ElGamal cipher over GL(d, F_251)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", metavar="HEX", help="deterministic seed (hex bytes)")

    def add_common(sp):
        sp.add_argument("--dim", type=int, choices=PROTOCOL_DIMS, default=8)
        add_seed(sp)

    def add_files(sp):
        # the state file fixes d; a --dim that differs is refused
        sp.add_argument("--dim", type=int, choices=PROTOCOL_DIMS,
                        help="must match the state file's d when given")
        sp.add_argument("--state", required=True, metavar="PATH")
        sp.add_argument("--in", dest="input", required=True, metavar="PATH")
        sp.add_argument("--out", dest="output", required=True, metavar="PATH")

    def at_least(low: int):
        def count(text: str) -> int:
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
            return int(text)
        return count

    p_demo = sub.add_parser("demo", help="run a full two-party transcript in-process")
    add_common(p_demo)
    p_demo.set_defaults(func=run_demo)

    p_kx = sub.add_parser("keyexchange", help="run setup and write both state files")
    add_common(p_kx)
    p_kx.add_argument("--state", required=True, metavar="PREFIX")
    p_kx.set_defaults(func=run_keyexchange)

    p_enc = sub.add_parser("encrypt", help="encrypt a file with a saved state")
    add_files(p_enc)
    add_seed(p_enc)
    p_enc.set_defaults(func=run_encrypt)

    p_dec = sub.add_parser("decrypt", help="decrypt a file with a saved state")
    add_files(p_dec)
    p_dec.set_defaults(func=run_decrypt)

    p_bench = sub.add_parser("bench", help="time the four protocol phases")
    add_common(p_bench)
    p_bench.add_argument("--iterations", type=at_least(1), default=1000)
    p_bench.add_argument("--format", choices=("text", "kv"), default="text")
    p_bench.set_defaults(func=run_bench)

    p_an = sub.add_parser("analyze", help="cardinality and singularity report")
    p_an.add_argument("--dim", type=int, choices=range(2, 17), default=8, metavar="{2..16}")
    add_seed(p_an)
    p_an.add_argument("--iterations", type=at_least(0), default=10_000,
                      help="monte-carlo trials (0 disables)")
    p_an.add_argument("--format", choices=("text", "kv"), default="text")
    p_an.set_defaults(func=run_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if argv is None:  # the program entry: what is loaded now lives until exit,
        gc.freeze()  # so the collector, at exit too, need not walk it again
    try:
        return args.func(args)
    except CodecError as exc:
        print(f"geg: codec error: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except GegError as exc:
        print(f"geg: protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:
        print(f"geg: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"geg: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
