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

from . import wire
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
from .protocol import Entity, handshake, setup_shared, start_session

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CODEC = 4
EXIT_PROTOCOL = 5

PROTOCOL_DIMS = (8, 16)  # the dimensions the CLI runs the protocol at
# blocks per encrypt_blocks/decrypt_blocks call: bounds the cipher's working
# memory (one call over a whole 128 KiB file at d=8 raised peak RSS by 7 MiB)
BATCH_BLOCKS = 256
STATE_TAG = 0x10
SESSION_OPEN_PHASE = 0x03  # the only persistable phase
PRIVATE_MARKER = 0x90
_ROLE_BYTES = {"initiator": 0x01, "responder": 0x02}
_ROLE_NAMES = {v: k for k, v in _ROLE_BYTES.items()}

# mean timings of the reference interpreted-language run, for context only
_REFERENCE_MS = {"setup": 0.12, "exchange": 29.56, "update": 52.94, "cipher": 32.36}
_FULL_SESSION_BUDGET_MS = 85.0


def _rng_from(seed_hex: str | None) -> RandomSource:
    if seed_hex is None:
        return RandomSource.crypto()
    return RandomSource.deterministic(bytes.fromhex(seed_hex))


def _format_matrix(m: MatrixFp, indent: str = "  ") -> str:
    return "\n".join(
        indent + " ".join(f"{v:3d}" for v in row) for row in m.tolist()
    )


# -- state files ---------------------------------------------------------------


def save_state(path: Path, entity: Entity) -> None:
    if entity.peer_token is None:
        raise GegError("entity has no peer session token; cannot save a usable state")
    m, n = entity.exponents
    blob = bytearray()
    blob += wire.MAGIC
    blob.append(STATE_TAG)
    blob.append(entity.d)
    blob += struct.pack(">H", entity.p)
    blob.append(_ROLE_BYTES[entity.role])
    blob.append(SESSION_OPEN_PHASE)
    blob.append(m)
    blob.append(n)
    blob += wire.matrix_to_bytes(entity.basis)
    blob += wire.matrix_to_bytes(entity.generator)
    blob += wire.matrix_to_bytes(entity.session_key)
    blob += wire.matrix_to_bytes(entity.peer_token)
    blob.append(PRIVATE_MARKER)
    blob += bytes(entity.eigenvalues.values)
    _write_atomic(path, [bytes(blob)])


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to a temporary file in the directory of `path`, then
    rename it over `path`: a write that fails leaves any old file as it was."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_state(path: Path) -> Entity:
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != wire.MAGIC:
        raise FrameMagicError(f"{path}: not a state file")
    if blob[4] != STATE_TAG:
        raise FrameMagicError(f"{path}: unexpected file tag 0x{blob[4]:02x}")
    d = blob[5]
    (p,) = struct.unpack(">H", blob[6:8])
    if p != DEFAULT_PRIME:
        raise FrameValueError(f"{path}: modulus {p} is not {DEFAULT_PRIME}")
    if d not in PROTOCOL_DIMS:
        raise FrameValueError(f"{path}: dimension {d} is not one of {PROTOCOL_DIMS}")
    role = _ROLE_NAMES.get(blob[8])
    if role is None:
        raise FrameValueError(f"{path}: unknown role byte 0x{blob[8]:02x}")
    if blob[9] != SESSION_OPEN_PHASE:
        raise FrameValueError(f"{path}: phase byte 0x{blob[9]:02x} is not session-open")
    m, n = blob[10], blob[11]
    sq = d * d
    expect = 12 + 4 * sq + 1 + d
    if len(blob) != expect:
        raise FrameLengthError(f"{path}: expected {expect} bytes, found {len(blob)}")
    off = 12
    mats = []
    for _ in range(4):
        mats.append(wire.bytes_to_matrix(blob[off : off + sq], d))
        off += sq
    if blob[off] != PRIVATE_MARKER:
        raise FrameMagicError(f"{path}: private section marker missing")
    off += 1
    try:
        eigenvalues = DiagonalSpec(tuple(blob[off : off + d]), p)
    except ValueError as exc:
        raise FrameValueError(f"{path}: invalid private section: {exc}") from exc
    basis, generator, session_key, peer_token = mats
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

    def show(title: str, m: MatrixFp) -> None:
        print(title)
        print(_format_matrix(m))

    print(f"two-party demo over GL({d}, F_251)")
    print(f"randomness: {rng.mode}" + (f", seed {args.seed}" if args.seed else ""))

    basis, generator = setup_shared(rng, d)
    print("\n-- setup: either party samples the public pair and sends it --")
    show("shared basis matrix P (public):", basis)
    show("shared generator matrix G (public):", generator)

    alice, bob = handshake(basis, generator, rng)
    token_a, token_b = bob.peer_token, alice.peer_token

    k1, k2 = alice.initial_exponents
    print("\n-- alice samples private material --")
    print(f"alice initial exponents (private): k1={k1}, k2={k2}")
    print(f"alice eigenvalues (private): {list(alice.eigenvalues.values)}")
    show("alice token A' = A^k1 G A^k2 (sent):", token_a)

    r1, r2 = bob.initial_exponents
    print("\n-- bob samples private material --")
    print(f"bob initial exponents (private): r1={r1}, r2={r2}")
    print(f"bob eigenvalues (private): {list(bob.eigenvalues.values)}")
    show("bob token B' = B^r1 G B^r2 (sent):", token_b)

    agreed = alice.session_key == bob.session_key and alice.exponents == bob.exponents
    print("\n-- both derive the first common key --")
    show("common session key K:", alice.session_key)
    m, n = alice.exponents
    print(f"exponent pair from K: m={m}, n={n}, m·n={m * n % alice.p}")
    print(f"bilateral agreement: {'yes' if agreed else 'NO'}")

    sess_a, sess_b = start_session(alice, bob)
    m, n = alice.exponents
    consistent = alice.shared_parameters() == bob.shared_parameters()
    print("\n-- alice opens a cipher session; bob acknowledges --")
    print("all of (K, m, n, P, G) re-derived from the shared secret")
    show("updated session key K:", alice.session_key)
    print(f"updated exponent pair: m={m}, n={n}, m·n={m * n % alice.p}")
    show("updated auxiliary basis P:", alice.basis)
    show("updated auxiliary generator G:", alice.generator)
    show("alice session token (sent):", sess_a)
    show("bob session token (sent):", sess_b)
    print(f"bilateral consistency after update: {'yes' if consistent else 'NO'}")

    plain = MatrixFp.random(rng, d, alice.p)
    block = alice.encrypt_block(plain, rng)
    recovered = bob.decrypt_block(block)
    print("\n-- alice enciphers one message block for bob --")
    show("message block H:", plain)
    show("cipher part y1 = J^m G J^n:", block.y1)
    show("cipher part y2 = H J^m B' J^n:", block.y2)
    show("bob recovers y2 (B^m y1 B^n)^-1:", recovered)

    success = recovered == plain and agreed and consistent
    print(f"\nround-trip: {'OK' if success else 'FAILED'}")
    return EXIT_OK if success else EXIT_PROTOCOL


def run_keyexchange(args) -> int:
    rng = _rng_from(args.seed)
    alice, bob = handshake(*setup_shared(rng, args.dim), rng)
    start_session(alice, bob)

    prefix = Path(args.state)
    path_a = prefix.with_name(prefix.name + ".initiator")
    path_b = prefix.with_name(prefix.name + ".responder")
    save_state(path_a, alice)
    save_state(path_b, bob)
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
    data = Path(args.input).read_bytes()
    blocks = wire.encode_plaintext(data, entity.d)

    def frames():
        yield wire.frame(wire.context_message(entity.d, entity.p))
        for start in range(0, len(blocks), BATCH_BLOCKS):
            batch = blocks[start : start + BATCH_BLOCKS]
            yield wire.cipher_frames(*entity.encrypt_blocks(batch, rng))

    _write_atomic(Path(args.output), frames())
    print(f"encrypted {len(data)} bytes into {len(blocks)} blocks -> {args.output}")
    return EXIT_OK


def run_decrypt(args) -> int:
    entity = _load_state_for(args)
    raw = Path(args.input).read_bytes()
    if not raw:
        raise FrameLengthError("ciphertext stream is empty")
    head, offset = wire.read_frame(raw)
    d, p = wire.context_from_message(head)
    if (d, p) != (entity.d, entity.p):
        raise CodecError(
            f"ciphertext parameters d={d}, p={p} do not match state d={entity.d}, p={entity.p}"
        )
    y1, y2 = wire.read_cipher_blocks(raw, offset, d)
    plains = np.empty_like(y1)
    for start in range(0, len(y1), BATCH_BLOCKS):
        batch = slice(start, start + BATCH_BLOCKS)
        plains[batch] = entity.decrypt_blocks(y1[batch], y2[batch])
    data = wire.decode_plaintext(plains)
    _write_atomic(Path(args.output), [data])
    print(f"decrypted {len(plains)} blocks into {len(data)} bytes -> {args.output}")
    return EXIT_OK


def _bench_once(rng: RandomSource, d: int) -> dict[str, float]:
    t0 = time.perf_counter()
    basis, generator = setup_shared(rng, d)
    t1 = time.perf_counter()
    alice, bob = handshake(basis, generator, rng)
    t2 = time.perf_counter()
    start_session(alice, bob)
    t3 = time.perf_counter()
    plain = MatrixFp.random(rng, d, alice.p)
    block = alice.encrypt_block(plain, rng)
    recovered = bob.decrypt_block(block)
    t4 = time.perf_counter()
    if recovered != plain:
        raise GegError("benchmark round-trip failed")
    return {
        "setup": (t1 - t0) * 1e3,
        "exchange": (t2 - t1) * 1e3,
        "update": (t3 - t2) * 1e3,
        "cipher": (t4 - t3) * 1e3,
    }


def run_bench(args) -> int:
    rng = _rng_from(args.seed)
    iterations = args.iterations
    totals = {k: 0.0 for k in _REFERENCE_MS}
    for _ in range(iterations):
        once = _bench_once(rng, args.dim)
        for k, v in once.items():
            totals[k] += v
    means = {k: v / iterations for k, v in totals.items()}
    full = means["exchange"] + means["update"] + means["cipher"]
    within = full < _FULL_SESSION_BUDGET_MS
    if args.format == "kv":
        print(f"iterations={iterations}")
        print(f"dim={args.dim}")
        print(f"setup_ms={means['setup']:.4f}")
        print(f"key_exchange_ms={means['exchange']:.4f}")
        print(f"session_update_ms={means['update']:.4f}")
        print(f"cipher_cycle_ms={means['cipher']:.4f}")
        print(f"full_session_ms={full:.4f}")
        print(f"within_85ms_budget={'yes' if within else 'no'}")
    else:
        labels = {
            "setup": "setup of public pair (P, G)",
            "exchange": "token exchange to first key and exponents",
            "update": "session update (open + acknowledge)",
            "cipher": "encipher-decipher of one block",
        }
        print(f"mean over {iterations} random iterations at d={args.dim}, p=251:")
        for key in ("setup", "exchange", "update", "cipher"):
            print(
                f"  {labels[key]:<44}: {means[key]:8.3f} ms"
                f"   (reference interpreted run: {_REFERENCE_MS[key]:.2f} ms)"
            )
        print(
            f"  full session (exchange+update+cipher)        : {full:8.3f} ms"
            f"   within 85 ms budget: {'yes' if within else 'NO'}"
        )
    return EXIT_OK if within else EXIT_PROTOCOL


def run_analyze(args) -> int:
    from . import analysis  # only this subcommand needs it; keeps CLI start-up lean

    d, p = args.dim, DEFAULT_PRIME
    gl = analysis.order_gl(d, p)
    counts = analysis.ambient_counts(d, p)
    subgroup = analysis.subgroup_orders(d, p)
    closed = analysis.singular_probability_closed(d, p)
    mc = None
    if args.iterations > 0:
        rng = _rng_from(args.seed)
        mc = analysis.singular_probability(d, p, args.iterations, rng).monte_carlo
    bits = math.log2(subgroup.excluding_zero_one)
    if args.format == "kv":
        print(f"d={d}")
        print(f"p={p}")
        print(f"order_gl={gl}")
        print(f"log10_order_gl={math.log10(gl):.4f}")
        print(f"ambient={counts.total}")
        print(f"log10_ambient={math.log10(counts.total):.4f}")
        print(f"nilpotent={counts.nilpotent}")
        print(f"subgroup_order_excl_zero_one={subgroup.excluding_zero_one}")
        print(f"log2_subgroup_order_excl_zero_one={bits:.4f}")
        print(f"subgroup_order_excl_zero={subgroup.excluding_zero}")
        print(f"log2_subgroup_order_excl_zero={math.log2(subgroup.excluding_zero):.4f}")
        print(f"singular_closed_form={closed:.8f}")
        if mc is not None:
            print(f"singular_monte_carlo={mc:.8f}")
            print(f"singular_trials={args.iterations}")
        print(f"security_bits={bits:.1f}")
    else:
        print(f"parameters: d={d}, p={p}")
        print(f"|GL(d, F_p)|                 = {gl}")
        print(f"                               (log10 = {math.log10(gl):.4f})")
        print(f"all d x d matrices           = {counts.total}")
        print(f"                               (log10 = {math.log10(counts.total):.4f})")
        print(f"nilpotent matrices           = {counts.nilpotent}")
        print(
            f"commuting subgroup order     = {subgroup.excluding_zero_one}"
            f"  (eigenvalues excluding 0 and 1, log2 = {bits:.2f})"
        )
        print(
            f"alternative convention       = {subgroup.excluding_zero}"
            f"  (eigenvalues excluding 0 only, log2 = "
            f"{math.log2(subgroup.excluding_zero):.2f})"
        )
        print(f"singular-draw probability    = {closed:.8f} (closed form)")
        if mc is not None:
            print(
                f"                               {mc:.8f} "
                f"(monte carlo, {args.iterations} trials)"
            )
        print(f"brute-force security estimate: ~{bits:.1f} bits")
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
