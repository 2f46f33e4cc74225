"""Two-party key agreement and block cipher over GL(d, F_p).

State machine per entity:

    fresh --keygen/derive_session_key--> keyed --open/ack--> session-open

Setup exchanges one token per side (a sandwich of the public generator
between powers of a private commuting element) and both parties derive the
same session key because their private elements share an eigenbasis.  Every
new cipher session re-derives the whole parameter set (key, exponent pair,
basis, generator) from the current shared secret, so the public values move
while the only long-term private material is each party's eigenvalue list.

Both sides must apply updates in lockstep; there is no in-band detection of
a desynchronized peer (a lost acknowledgement surfaces only as garbage
plaintext downstream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .commuting import CommutingContext, DiagonalSpec
from .errors import ProtocolError, SingularMatrixError
from .field import DEFAULT_PRIME, RandomSource, power_table
from .linalg import MatrixFp, det_stack, inv_stack


class Phase(enum.Enum):
    FRESH = "fresh"
    KEYED = "keyed"
    SESSION_OPEN = "session-open"


@dataclass(frozen=True)
class CipherBlock:
    """One encrypted block: y1 masks the ephemeral element, y2 carries the payload."""

    y1: MatrixFp
    y2: MatrixFp


def extract_exponents(key: MatrixFp) -> tuple[int, int]:
    """Derive the exponent pair (m, n) from a key matrix.

    m multiplies the first nonzero entries found scanning the anti-diagonal
    from both ends (lower-left towards upper-right, then the reverse); n
    does the same on the main diagonal (upper-left towards lower-right, then
    the reverse).  An all-zero diagonal contributes 1.  Both results are in
    [1, p-1]: products of nonzero residues mod a prime are nonzero and the
    fallback is 1.  Any party holding the key derives the identical pair;
    the scan order is a fixed protocol constant.
    """
    p = key.p

    def ends_product(diag) -> int:
        nonzero = [int(v) for v in diag if int(v) != 0]
        if not nonzero:
            return 1
        return nonzero[0] * nonzero[-1] % p

    m = ends_product(np.diagonal(np.flipud(key.array)))
    n = ends_product(np.diagonal(key.array))
    return m, n


def setup_shared(
    rng: RandomSource, d: int = 8, p: int = DEFAULT_PRIME
) -> tuple[MatrixFp, MatrixFp]:
    """Sample the two public setup matrices (basis, generator); sent in clear."""
    basis = MatrixFp.random_invertible(rng, d, p)
    generator = MatrixFp.random_invertible(rng, d, p)
    return basis, generator


def handshake(basis: MatrixFp, generator: MatrixFp, rng: RandomSource) -> tuple[Entity, Entity]:
    """Setup exchange over a public pair: keygen on both sides (initiator
    first), then the first key.  Returns (initiator, responder), both keyed;
    each holds the other's setup token as ``peer_token``."""
    initiator = Entity("initiator", basis, generator)
    responder = Entity("responder", basis, generator)
    token_i = initiator.keygen(rng)
    token_r = responder.keygen(rng)
    initiator.derive_session_key(token_r)
    responder.derive_session_key(token_i)
    return initiator, responder


def start_session(opener: Entity, acker: Entity) -> tuple[MatrixFp, MatrixFp]:
    """Open a cipher session, acknowledge it and install the answer;
    returns the two session tokens that cross the wire, (open, ack)."""
    open_token = opener.open_session()
    ack_token = acker.ack_session(open_token)
    opener.install_peer_token(ack_token)
    return open_token, ack_token


class Entity:
    """One party's protocol state; single-owner, mutated by the steps below."""

    def __init__(self, role: str, basis: MatrixFp, generator: MatrixFp):
        if role not in ("initiator", "responder"):
            raise ValueError(f"role must be 'initiator' or 'responder', got {role!r}")
        if basis.p != generator.p or basis.d != generator.d:
            raise ValueError("basis and generator must share dimensions and modulus")
        if generator.det() == 0:
            raise SingularMatrixError("public generator must be invertible")
        self.role = role
        self.context = CommutingContext(basis)  # checks basis invertibility
        self.generator = generator
        self.session_key: MatrixFp | None = None
        self.exponents: tuple[int, int] | None = None
        self.peer_token: MatrixFp | None = None
        self.phase = Phase.FRESH
        self._eigenvalues: DiagonalSpec | None = None
        self._initial_exponents: tuple[int, int] | None = None

    # -- read-only views -----------------------------------------------------

    @property
    def d(self) -> int:
        return self.context.d

    @property
    def p(self) -> int:
        return self.context.p

    @property
    def basis(self) -> MatrixFp:
        return self.context.basis

    @property
    def eigenvalues(self) -> DiagonalSpec | None:
        """Long-term private eigenvalue list (the actual secret)."""
        return self._eigenvalues

    @property
    def private_element(self) -> MatrixFp | None:
        """Current private commuting element; tracks the session basis."""
        if self._eigenvalues is None:
            return None
        return self.context.conjugate(self._eigenvalues)

    @property
    def initial_exponents(self) -> tuple[int, int] | None:
        """Private exponent pair used only for the setup token."""
        return self._initial_exponents

    def shared_parameters(self) -> tuple[MatrixFp, tuple[int, int], MatrixFp, MatrixFp]:
        """(key, exponents, basis, generator): identical on both sides after
        every completed exchange."""
        if self.session_key is None or self.exponents is None:
            raise ProtocolError("no session parameters before key derivation")
        return self.session_key, self.exponents, self.basis, self.generator

    # -- setup (run once per pairing) -----------------------------------------

    def keygen(self, rng: RandomSource) -> MatrixFp:
        """Sample private material and return the setup token to transmit."""
        if self.phase is not Phase.FRESH:
            raise ProtocolError("keygen only valid on a fresh entity")
        # exponents from [1, p-1]: zero would degrade the token to the bare generator
        k1 = rng.nonzero(self.p)
        k2 = rng.nonzero(self.p)
        self._initial_exponents = (k1, k2)
        self._eigenvalues = DiagonalSpec.random(rng, self.d, self.p)
        return self._sandwich(self.generator, (k1, k2))

    def derive_session_key(self, peer_token: MatrixFp) -> None:
        """Combine the peer's setup token into the first common key."""
        if self.phase is not Phase.FRESH or self._initial_exponents is None:
            raise ProtocolError("derive_session_key requires keygen on a fresh entity")
        self._check_received(peer_token=peer_token)
        self._set_key(self._sandwich(peer_token, self._initial_exponents))
        self.peer_token = peer_token
        self.phase = Phase.KEYED

    def _sandwich(self, x: MatrixFp, exponents: tuple[int, int]) -> MatrixFp:
        """A^e1 x A^e2 for this entity's private element A, (e1, e2) = exponents."""
        ctx = self.context
        weights = self._sandwich_weights(np.array(self._eigenvalues.values), exponents)
        return MatrixFp(ctx.from_eigenbasis(weights * ctx.to_eigenbasis(x) % self.p), self.p)

    def _set_key(self, key: MatrixFp) -> None:
        # the exponent pair is always the one extracted from the current key
        self.session_key = key
        self.exponents = extract_exponents(key)

    # -- recursive session updates --------------------------------------------

    def _refresh_session(self) -> MatrixFp:
        m, n = self.exponents
        key = self.session_key.pow(m * n % self.p)  # m, n nonzero, so never K**0
        self._set_key(key)
        m2, n2 = self.exponents
        k_m = key.pow(m2)
        k_n = key.pow(n2)
        self.context = CommutingContext(k_m @ self.basis @ k_n)
        self.generator = k_m @ self.generator @ k_n
        self.peer_token = None  # previous session's token is stale now
        return self._sandwich(self.generator, (m2, n2))

    def open_session(self) -> MatrixFp:
        """Start a new cipher session; returns the token to send.

        The opener cannot encrypt until the peer's answering token arrives
        through ``install_peer_token``.
        """
        if self.phase is Phase.FRESH:
            raise ProtocolError("open_session requires a derived key")
        token = self._refresh_session()
        self.phase = Phase.SESSION_OPEN
        return token

    def ack_session(self, peer_token: MatrixFp) -> MatrixFp:
        """Mirror the peer's session update and return the answering token."""
        if self.phase is Phase.FRESH:
            raise ProtocolError("ack_session requires a derived key")
        token = self._refresh_session()
        self.install_peer_token(peer_token)
        self.phase = Phase.SESSION_OPEN
        return token

    def install_peer_token(self, token: MatrixFp) -> None:
        """Store the peer's current session token (needed to encrypt)."""
        self._check_received(peer_token=token)
        self.peer_token = token

    def _check_received(self, **matrices: MatrixFp) -> None:
        """Refuse any of the named matrices that is not an invertible d-by-d
        matrix over this entity's field; one elimination checks them all."""
        for name, m in matrices.items():
            if m.d != self.d or m.p != self.p:
                raise ProtocolError(f"{name} is not a {self.d}x{self.d} matrix over F_{self.p}")
        for name, det in zip(matrices, det_stack(list(matrices.values()), self.p)):
            if det == 0:
                raise ProtocolError(f"{name} is singular")

    # -- cipher ----------------------------------------------------------------

    def encrypt_blocks(self, plains, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
        """Encrypt an (N, d, d) stack of plaintext blocks; returns the uint8
        stacks (y1, y2).

        Each block has its own fresh ephemeral element J: reusing one would
        relate blocks algebraically under known plaintext.  The N eigenvalue
        lists are drawn first, in block order, so the ciphertext equals that
        of N single-block calls on the same random stream.  Plaintext blocks
        may be singular.
        """
        if self.phase is not Phase.SESSION_OPEN:
            raise ProtocolError("encrypt requires an open session")
        if self.peer_token is None:
            raise ProtocolError("no session token from peer")
        plains = np.asarray(plains)
        if plains.ndim != 3 or plains.shape[1:] != (self.d, self.d):
            raise ValueError("plaintext blocks have wrong dimensions")
        p, ctx = self.p, self.context
        if plains.dtype.kind not in "iu" or plains.min(initial=0) < 0 or plains.max(initial=0) >= p:
            raise ValueError(f"plaintext block entries must be residues in [0, {p})")
        ephemeral = np.array(
            [rng.distinct_nonzero(self.d, p) for _ in range(len(plains))], dtype=np.int64
        ).reshape(-1, self.d)
        # J^m X J^n for X in (G, B'), B' the peer's session token, for every
        # block at once: y1 = J^m G J^n and y2 = H (J^m B' J^n)
        public = ctx.to_eigenbasis(np.stack([self.generator.array, self.peer_token.array]))
        weights = self._sandwich_weights(ephemeral, self.exponents)[:, np.newaxis]
        sandwiches = ctx.from_eigenbasis(weights * public % p)
        y1, mask = sandwiches[:, 0], sandwiches[:, 1]
        y2 = plains.astype(np.int64) @ mask % p
        return y1.astype(np.uint8), y2.astype(np.uint8)

    def decrypt_blocks(self, y1, y2) -> np.ndarray:
        """Invert (N, d, d) stacks of blocks encrypted against this entity's
        session token; returns the uint8 plaintext stack."""
        if self.phase is not Phase.SESSION_OPEN:
            raise ProtocolError("decrypt requires an open session")
        y1, y2 = np.asarray(y1), np.asarray(y2)
        if y1.ndim != 3 or y1.shape[1:] != (self.d, self.d) or y2.shape != y1.shape:
            raise ValueError("cipher blocks have wrong dimensions")
        p, ctx = self.p, self.context
        # B^m y1 B^n in the eigenbasis; y2 (B^m y1 B^n)^-1 = y2 P (that)^-1 P^-1
        weights = self._sandwich_weights(np.array(self._eigenvalues.values), self.exponents)
        masked = weights * ctx.to_eigenbasis(y1) % p
        try:
            unmask = inv_stack(masked, p)
        except SingularMatrixError as exc:
            raise ProtocolError("malformed ciphertext: masked generator is singular") from exc
        return (y2.astype(np.int64) @ ctx.from_eigenbasis(unmask) % p).astype(np.uint8)

    def _sandwich_weights(self, eigenvalues: np.ndarray, exponents: tuple[int, int]) -> np.ndarray:
        """outer(λ^m, λ^n) for each eigenvalue list λ (the last axis), with
        (m, n) = exponents.

        For Z = P diag(λ) P^-1, Z^m X Z^n = P (outer(λ^m, λ^n) ∘ X~) P^-1
        where X~ = P^-1 X P, so a sandwich costs no matrix power.
        """
        m_powers, n_powers = (power_table(e, self.p)[eigenvalues] for e in exponents)
        return m_powers[..., :, np.newaxis] * n_powers[..., np.newaxis, :] % self.p

    def encrypt_block(self, plain, rng: RandomSource) -> CipherBlock:
        """Encrypt one (d, d) block, a MatrixFp or any array-like of residues:
        the N=1 case of encrypt_blocks."""
        if isinstance(plain, MatrixFp) and plain.p != self.p:
            raise ValueError("plaintext block has wrong modulus")
        y1, y2 = self.encrypt_blocks([plain], rng)
        return CipherBlock(MatrixFp(y1[0], self.p), MatrixFp(y2[0], self.p))

    def decrypt_block(self, block: CipherBlock) -> MatrixFp:
        """Invert one block: the N=1 case of decrypt_blocks."""
        plain = self.decrypt_blocks(block.y1.array[np.newaxis], block.y2.array[np.newaxis])
        return MatrixFp(plain[0], self.p)

    # -- persistence (used by the CLI state files) ------------------------------

    @classmethod
    def restore(
        cls,
        role: str,
        basis: MatrixFp,
        generator: MatrixFp,
        session_key: MatrixFp,
        eigenvalues: DiagonalSpec,
        peer_token: MatrixFp,
    ) -> "Entity":
        """Rebuild a session-open entity from persisted fields; the exponent
        pair is re-derived from the session key."""
        entity = cls(role, basis, generator)
        entity._check_received(session_key=session_key, peer_token=peer_token)
        entity._set_key(session_key)
        entity._eigenvalues = eigenvalues
        entity.peer_token = peer_token
        entity.phase = Phase.SESSION_OPEN
        return entity

    def __repr__(self) -> str:
        return f"Entity(role={self.role!r}, d={self.d}, p={self.p}, phase={self.phase.value})"
