"""Two-party key agreement and block cipher over GL(d, F_p).

State machine per entity:

    fresh --keygen/derive_session_key--> keyed --open/ack--> session-open

Setup exchanges one token per side (a sandwich of the public generator
between powers of a private commuting element) and both parties derive the
same session key because their private elements share an eigenbasis.  Every
new cipher session raises the key K to m*n, for the pair (m, n) read off K,
and re-derives the basis and generator from the new key: `next_key` and
`session_step` are that rule's one home.  The basis and
generator move every session.  The key walks a finite set, so it ends in a
cycle, most often a fixed point K**(m*n) = K after which the key and the
pair stay fixed (m*n = 1 mod p is one way to reach one, not the only one).
The only long-term private material is each party's eigenvalue list.

Both sides must apply updates in lockstep.  Every matrix an entity receives
from its peer, both setup tokens, both session tokens and every y1, is a
sandwich Z^a G Z^b of the current generator, and is refused unless it is
one for the current basis and generator: a ciphertext from another session,
a stale acknowledgement and an open token from a peer a session ahead all
raise ProtocolError.  The check reads a matrix's weight pair, and each
matrix an entity builds is `CommutingContext.compose` of weight pairs.  The
check is for consistency, not authentication: anyone can build a token that
passes from public values.  A tampered y2
still decrypts silently to wrong plaintext.
"""

from __future__ import annotations

import enum

import numpy as np

from .commuting import CommutingContext, DiagonalSpec
from .errors import MalformedMatrixError, ProtocolError
from .field import DEFAULT_PRIME, RandomSource
from .linalg import MatrixFp, product_mod

# matrix entries per slice of the cipher's stacks at every d: an (N, d, d)
# float64 temporary is then 64 KiB, half of glibc's default mmap threshold, at
# or above which the heap's layout decides if each call page-faults it afresh
BATCH_ENTRIES = 8192


def slice_blocks(d: int) -> int:
    """Blocks per slice of the cipher's stacks at dimension d: BATCH_ENTRIES // d**2."""
    return BATCH_ENTRIES // (d * d)


def _slices(count: int, d: int) -> list[slice]:
    """Slices of slice_blocks(d) blocks that cover a stack of `count` blocks."""
    step = slice_blocks(d)
    return [slice(start, start + step) for start in range(0, count, step)]


class Phase(enum.Enum):
    FRESH = "fresh"
    KEYED = "keyed"
    SESSION_OPEN = "session-open"


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


def next_key(key: MatrixFp) -> MatrixFp:
    """K**(m*n mod p) for (m, n) = extract_exponents(K); m, n != 0, so never K**0."""
    m, n = extract_exponents(key)
    return key.pow(m * n % key.p)


def session_step(
    key: MatrixFp, context: CommutingContext
) -> tuple[MatrixFp, tuple[int, int], CommutingContext]:
    """The next session from public values alone: K' = next_key(K), (m2, n2)
    read off K', and the context of K'**m2 X K'**n2 for X = basis, generator."""
    key = next_key(key)
    m2, n2 = extract_exponents(key)
    k_m, k_n = key.pow(m2), key.pow(n2)
    return key, (m2, n2), CommutingContext(k_m @ context.basis @ k_n, k_m @ context.generator @ k_n)


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
    """One party's protocol state; single-owner, mutated by the steps below.
    The exponent pair is read off the session key, the public pair (basis,
    generator) off the context that checks it, and the peer token off the
    weights its check read; none of the three is stored as such."""

    def __init__(self, role: str, basis: MatrixFp, generator: MatrixFp):
        if role not in ("initiator", "responder"):
            raise ValueError(f"role must be 'initiator' or 'responder', got {role!r}")
        self.role = role
        self.context = CommutingContext(basis, generator)
        self.session_key: MatrixFp | None = None
        self._peer_weights: tuple[np.ndarray, np.ndarray] | None = None
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
    def generator(self) -> MatrixFp:
        return self.context.generator

    @property
    def peer_token(self) -> MatrixFp | None:
        """The peer's setup or session token, rebuilt from the weights its check read."""
        weights = self._peer_weights
        return None if weights is None else MatrixFp(self.context.compose(weights), self.p)

    @property
    def exponents(self) -> tuple[int, int] | None:
        """(m, n) as extract_exponents reads it off the session key; None before one."""
        return None if self.session_key is None else extract_exponents(self.session_key)

    @property
    def eigenvalues(self) -> DiagonalSpec | None:
        """Long-term private eigenvalue list (the actual secret)."""
        return self._eigenvalues

    @property
    def initial_exponents(self) -> tuple[int, int] | None:
        """Private exponent pair used only for the setup token."""
        return self._initial_exponents

    def shared_parameters(self) -> tuple[MatrixFp, tuple[int, int], MatrixFp, MatrixFp]:
        """(key, exponents, basis, generator): identical on both sides after
        every completed exchange."""
        if self.session_key is None:
            raise ProtocolError("no session parameters before key derivation")
        return self.session_key, self.exponents, self.basis, self.generator

    # -- setup (run once per pairing) -----------------------------------------

    def keygen(self, rng: RandomSource) -> MatrixFp:
        """Sample private material and return the setup token to transmit."""
        if self.phase is not Phase.FRESH or self._eigenvalues is not None:
            # a second draw would strand a peer already holding the first token
            raise ProtocolError("keygen runs once, on a fresh entity")
        # exponents from [1, p-1]: zero would degrade the token to the bare generator
        self._initial_exponents = (rng.nonzero(self.p), rng.nonzero(self.p))
        self._eigenvalues = DiagonalSpec.random(rng, self.d, self.p)
        own = self.context.weights(self._initial_exponents, self._eigenvalues.values)
        return MatrixFp(self.context.compose(own), self.p)

    def derive_session_key(self, peer_token: MatrixFp) -> None:
        """Combine the peer's setup token into the first common key."""
        if self.phase is not Phase.FRESH or self._initial_exponents is None:
            raise ProtocolError("derive_session_key requires keygen on a fresh entity")
        peer_weights = self._check_token(peer_token, self.context)
        own = self.context.weights(self._initial_exponents, self._eigenvalues.values)
        self.session_key = MatrixFp(self.context.compose(own, peer_weights), self.p)
        self._peer_weights, self.phase = peer_weights, Phase.KEYED

    # -- recursive session updates --------------------------------------------

    def _refresh_session(self, peer_token: MatrixFp | None) -> MatrixFp:
        """Move to the next session and return this side's token for it.
        session_step's key and context and the token are computed first,
        then committed together, so a failure partway changes nothing.
        `peer_token` is the acker's received token, checked against the next
        session's context; the opener's is None until the answer arrives."""
        key, pair, context = session_step(self.session_key, self.context)
        peer_weights = None if peer_token is None else self._check_token(peer_token, context)
        token = MatrixFp(context.compose(context.weights(pair, self._eigenvalues.values)), self.p)
        self.session_key, self.context = key, context
        self._peer_weights, self.phase = peer_weights, Phase.SESSION_OPEN
        return token

    def open_session(self) -> MatrixFp:
        """Start a new cipher session; returns the token to send.

        The opener cannot encrypt until the peer's answering token arrives
        through ``install_peer_token``.
        """
        if self.phase is Phase.FRESH:
            raise ProtocolError("open_session requires a derived key")
        return self._refresh_session(None)

    def ack_session(self, peer_token: MatrixFp) -> MatrixFp:
        """Mirror the peer's session update and return the answering token."""
        if self.phase is Phase.FRESH:
            raise ProtocolError("ack_session requires a derived key")
        return self._refresh_session(peer_token)

    def install_peer_token(self, token: MatrixFp) -> None:
        """Store the peer's current session token (needed to encrypt)."""
        if self.phase is not Phase.SESSION_OPEN:  # a keyed entity keeps its setup token
            raise ProtocolError("install_peer_token requires an open session")
        self._peer_weights = self._check_token(token, self.context)

    def _check_token(self, token: MatrixFp, context: CommutingContext) -> tuple[np.ndarray, np.ndarray]:
        """The (d,) weights (u, v) that `context.compose` rebuilds a peer token
        T from, or ProtocolError for a T that is no sandwich Z^a G Z^b by an
        element Z of `context`, the form of every honest token.  Such a T is
        invertible, det T = det G * prod(u) * prod(v), so no det is taken."""
        self._check_shape("peer_token", token)
        try:
            u, v = context.read_weights(token.array[np.newaxis])
        except MalformedMatrixError as exc:
            why = "is singular" if exc.singular else "does not match this session's generator"
            raise ProtocolError(f"peer_token {why}") from exc
        return u[0], v[0]

    def _check_shape(self, name: str, m: MatrixFp) -> None:
        if m.d != self.d or m.p != self.p:
            raise ProtocolError(f"{name} is not a {self.d}x{self.d} matrix over F_{self.p}")

    # -- cipher ----------------------------------------------------------------

    def encrypt_blocks(self, plains, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
        """Encrypt an (N, d, d) stack of plaintext blocks; returns the uint8
        stacks (y1, y2).

        Each block has its own fresh ephemeral element J: reusing one would
        relate blocks algebraically under known plaintext.  The stack is
        enciphered in slices of BATCH_ENTRIES matrix entries, and the N
        eigenvalue lists are drawn in block order, so the ciphertext equals
        that of N single-block calls on the same random stream.  Plaintext
        blocks may be singular.
        """
        if self.phase is not Phase.SESSION_OPEN:
            raise ProtocolError("encrypt requires an open session")
        if self._peer_weights is None:
            raise ProtocolError("no session token from peer")
        plains = self._check_blocks("plaintext", plains)
        exponents, d, p = self.exponents, self.d, self.p
        y1, y2 = np.empty(plains.shape, np.uint8), np.empty(plains.shape, np.uint8)
        for part in _slices(len(plains), d):
            ephemeral = [rng.distinct_nonzero(d, p) for _ in range(len(plains[part]))]
            # y1 = J^m G J^n and y2 = H (J^m B' J^n), B' the peer's session token
            weights = self.context.weights(exponents, ephemeral)
            y1[part] = self.context.compose(weights)
            y2[part] = product_mod([plains[part], self.context.compose(weights, self._peer_weights)], p)
        return y1, y2

    def decrypt_blocks(self, y1, y2, *, first: int = 0) -> np.ndarray:
        """Invert (N, d, d) stacks of blocks encrypted against this entity's
        session token, in slices of BATCH_ENTRIES matrix entries; returns the
        uint8 plaintext stack.  A refused y1 is named by its index in the
        stack plus `first`, the caller's place for y1[0]."""
        if self.phase is not Phase.SESSION_OPEN:
            raise ProtocolError("decrypt requires an open session")
        y1, y2 = self._check_blocks("y1", y1), self._check_blocks("y2", y2)
        if y2.shape != y1.shape:
            raise ValueError("y1 and y2 hold different numbers of blocks")
        # y2 (B^m y1 B^n)^-1, B this entity's private element: the mask is read
        # entrywise off y1 and the weights of its token B^m G B^n, inverting no block
        token_weights = self.context.weights(self.exponents, self._eigenvalues.values)
        plains = np.empty(y1.shape, np.uint8)
        for part in _slices(len(y1), self.d):
            try:
                plains[part] = self.context.unmask(y1[part], y2[part], token_weights)
            except MalformedMatrixError as exc:
                raise ProtocolError(f"malformed ciphertext: y1: matrix {first + part.start + exc.index} "
                                    f"of the stack {exc.reason}") from exc
        return plains

    def _check_blocks(self, name: str, blocks) -> np.ndarray:
        """`blocks` as an (N, d, d) integer array of residues in [0, p), or
        ValueError: entries outside the field would be reduced silently, and
        a MatrixFp over another field would be read as residues mod p."""
        stack = np.asarray(blocks)
        if stack.ndim != 3 or stack.shape[1:] != (self.d, self.d):
            raise ValueError(f"{name} blocks have wrong dimensions")
        if (stack.dtype.kind not in "iu"
                or stack.min(initial=0) < 0 or stack.max(initial=0) >= self.p):
            raise ValueError(f"{name} block entries must be residues in [0, {self.p})")
        if not isinstance(blocks, np.ndarray) and any(
                isinstance(b, MatrixFp) and b.p != self.p for b in blocks):
            raise ValueError(f"{name} block has wrong modulus")
        return stack

    def encrypt_block(self, plain, rng: RandomSource) -> tuple[MatrixFp, MatrixFp]:
        """Encrypt one (d, d) block, a MatrixFp or any array-like of residues,
        into the pair (y1, y2): the N=1 case of encrypt_blocks."""
        y1, y2 = self.encrypt_blocks([plain], rng)
        return MatrixFp(y1[0], self.p), MatrixFp(y2[0], self.p)

    def decrypt_block(self, block) -> MatrixFp:
        """Invert one (y1, y2) pair: the N=1 case of decrypt_blocks."""
        y1, y2 = block
        return MatrixFp(self.decrypt_blocks([y1], [y2])[0], self.p)

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
        # the session key is a power of the first key after an update: no sandwich
        entity._check_shape("session_key", session_key)
        if session_key.det() == 0:
            raise ProtocolError("session_key is singular")
        peer_weights = entity._check_token(peer_token, entity.context)
        if eigenvalues.d != entity.d or eigenvalues.p != entity.p:
            raise ProtocolError(f"eigenvalues are not {entity.d} residues mod {entity.p}")
        entity.session_key, entity._peer_weights = session_key, peer_weights
        entity._eigenvalues, entity.phase = eigenvalues, Phase.SESSION_OPEN
        return entity

    def __repr__(self) -> str:
        return f"Entity(role={self.role!r}, d={self.d}, p={self.p}, phase={self.phase.value})"
