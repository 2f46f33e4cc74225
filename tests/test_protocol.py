import numpy as np
import pytest

from geg import protocol
from geg.commuting import DiagonalSpec
from geg.errors import ProtocolError, SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import (
    Entity,
    Phase,
    extract_exponents,
    handshake,
    setup_shared,
    start_session,
)


def record_eliminations(monkeypatch):
    """The list that each later Gauss-Jordan elimination appends its stack's shape to."""
    from geg import linalg

    shapes, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda aug, p: shapes.append(aug.shape) or eliminate(aug, p))
    return shapes


def make_pair(seed, d=8, p=251):
    """Full setup through first common key; returns (alice, bob, rng)."""
    rng = RandomSource.deterministic(seed)
    alice, bob = handshake(*setup_shared(rng, d, p), rng)
    return alice, bob, rng


class TestSetup:
    def test_setup_invertible_and_distinct(self):
        rng = RandomSource.deterministic(0)
        seen = set()
        for _ in range(100):
            basis, generator = setup_shared(rng, 8)
            assert basis.det() != 0 and generator.det() != 0
            assert basis != generator
            seen.add(basis)
        assert len(seen) == 100

    def test_setup_deterministic_replay(self):
        a = setup_shared(RandomSource.deterministic(b"x"), 8)
        b = setup_shared(RandomSource.deterministic(b"x"), 8)
        assert a == b


class TestKeygen:
    def test_token_invertible_and_not_generator(self):
        rng = RandomSource.deterministic(1)
        basis, generator = setup_shared(rng, 8)
        hits = 0
        for _ in range(100):
            entity = Entity("initiator", basis, generator)
            token = entity.keygen(rng)
            assert token.det() != 0
            if token == generator:
                hits += 1
        assert hits == 0

    def test_token_formula(self):
        rng = RandomSource.deterministic(2)
        basis, generator = setup_shared(rng, 8)
        entity = Entity("initiator", basis, generator)
        token = entity.keygen(rng)
        k1, k2 = entity.initial_exponents
        a = entity.context.conjugate(entity.eigenvalues)
        assert token == a.pow(k1) @ generator @ a.pow(k2)
        assert 1 <= k1 <= 250 and 1 <= k2 <= 250

    def test_keygen_twice_rejected(self):
        alice, _, rng = make_pair(3)
        with pytest.raises(ProtocolError):
            alice.keygen(rng)

    def test_keygen_twice_before_derive_rejected(self):
        # accepted, the second draw replaced the private material behind the
        # token the peer already holds, and the two keys differed
        rng = RandomSource.deterministic(3)
        entity = Entity("initiator", *setup_shared(rng, 8))
        entity.keygen(rng)
        before = (entity.eigenvalues, entity.initial_exponents, entity.phase)
        with pytest.raises(ProtocolError, match="keygen runs once"):
            entity.keygen(rng)
        assert (entity.eigenvalues, entity.initial_exponents, entity.phase) == before

    @pytest.mark.parametrize("generator, error, message", [
        (MatrixFp([[1] * 8] * 8, 251), SingularMatrixError, "generator is singular"),
        (MatrixFp.identity(4, 251), ValueError, "generator is not a 8x8 matrix over F_251"),
    ])
    def test_bad_generator_rejected_at_construction(self, generator, error, message):
        # the context checks the public pair together, before any keygen
        rng = RandomSource.deterministic(8)
        with pytest.raises(error, match=f"^{message}$"):
            Entity("initiator", setup_shared(rng, 8)[0], generator)


class TestKeyAgreement:
    @pytest.mark.parametrize("d", [8, 16])
    def test_handshake_inverts_one_pair_per_side(self, monkeypatch, d):
        # each side's context inverts the basis and the generator together;
        # keygen takes no determinant and each setup token is read against it
        rng = RandomSource.deterministic(32)
        pair = setup_shared(rng, d)
        shapes = record_eliminations(monkeypatch)
        handshake(*pair, rng)
        assert shapes == [(2, d, 2 * d)] * 2

    def test_bilateral_key_equality(self):
        for seed in range(30):
            alice, bob, _ = make_pair(seed)
            assert alice.session_key == bob.session_key
            assert alice.exponents == bob.exponents
            assert alice.session_key.det() != 0
            assert alice.phase is Phase.KEYED

    def test_validation_identity(self):
        # the sandwich identity: A-powers commute through the B-token
        rng = RandomSource.deterministic(b"validation")
        for _ in range(1000):
            basis, generator = setup_shared(rng, 8)
            alice = Entity("initiator", basis, generator)
            bob = Entity("responder", basis, generator)
            alice.keygen(rng)
            bob.keygen(rng)
            k1, k2 = alice.initial_exponents
            r1, r2 = bob.initial_exponents
            a, b = (e.context.conjugate(e.eigenvalues) for e in (alice, bob))
            left = a.pow(k1) @ (b.pow(r1) @ generator @ b.pow(r2)) @ a.pow(k2)
            right = b.pow(r1) @ (a.pow(k1) @ generator @ a.pow(k2)) @ b.pow(r2)
            assert left == right

    def test_singular_peer_token_rejected(self):
        rng = RandomSource.deterministic(4)
        basis, generator = setup_shared(rng, 8)
        alice = Entity("initiator", basis, generator)
        alice.keygen(rng)
        with pytest.raises(ProtocolError):
            alice.derive_session_key(MatrixFp([[0] * 8] * 8, 251))

    def test_setup_token_of_another_generator_rejected(self):
        # invertible, but no sandwich of this pairing's generator
        rng = RandomSource.deterministic(5)
        alice = Entity("initiator", *setup_shared(rng, 8))
        alice.keygen(rng)
        with pytest.raises(ProtocolError, match="^peer_token does not match this session's generator$"):
            alice.derive_session_key(MatrixFp.random_invertible(rng, 8, 251))
        assert alice.phase is Phase.FRESH and alice.session_key is None

    @pytest.mark.parametrize("d, p", [(8, 7), (4, 251)])
    def test_peer_token_of_another_size_or_field_rejected(self, d, p):
        rng = RandomSource.deterministic(6)
        alice = Entity("initiator", *setup_shared(rng, 8))
        alice.keygen(rng)
        with pytest.raises(ProtocolError, match="peer_token is not a 8x8"):
            alice.derive_session_key(MatrixFp.random_invertible(rng, d, p))
        assert alice.phase is Phase.FRESH and alice.session_key is None

    def test_unknown_role_rejected(self):
        basis, generator = setup_shared(RandomSource.deterministic(7), 8)
        with pytest.raises(ValueError, match="role"):
            Entity("alice", basis, generator)

    def test_no_shared_parameters_before_key(self):
        rng = RandomSource.deterministic(5)
        alice = Entity("initiator", *setup_shared(rng, 8))
        alice.keygen(rng)
        assert alice.exponents is None
        with pytest.raises(ProtocolError, match="no session parameters"):
            alice.shared_parameters()

    def test_derive_before_keygen_rejected(self):
        rng = RandomSource.deterministic(5)
        basis, generator = setup_shared(rng, 8)
        alice = Entity("initiator", basis, generator)
        with pytest.raises(ProtocolError):
            alice.derive_session_key(MatrixFp.identity(8, 251))


class TestExtractExponents:
    def test_identity_matrix(self):
        assert extract_exponents(MatrixFp.identity(8, 251)) == (1, 1)

    def test_diagonal_rule(self):
        m = MatrixFp(np.diag([2] * 7 + [3]), 251)
        assert extract_exponents(m) == (1, 6)

    def test_corner_rule_direct_recomputation(self):
        rng = RandomSource.deterministic(6)
        checked = 0
        while checked < 50:
            k = MatrixFp.random_invertible(rng, 8, 251)
            corners = (k[7, 0], k[0, 7], k[0, 0], k[7, 7])
            if any(c == 0 for c in corners):
                continue
            m, n = extract_exponents(k)
            assert m == k[7, 0] * k[0, 7] % 251
            assert n == k[0, 0] * k[7, 7] % 251
            checked += 1

    def test_first_nonzero_scan(self):
        rows = [[0] * 8 for _ in range(8)]
        rows[6][1] = 5   # anti-diagonal, second slot from lower-left
        rows[2][5] = 7   # anti-diagonal, third slot from upper-right
        rows[1][1] = 11  # main diagonal, second from top
        rows[5][5] = 13  # main diagonal, third from bottom
        m, n = extract_exponents(MatrixFp(rows, 251))
        assert m == 5 * 7 % 251
        assert n == 11 * 13 % 251

    def test_single_nonzero_counts_both_ends(self):
        rows = [[0] * 8 for _ in range(8)]
        rows[4][3] = 9  # lone anti-diagonal entry
        m, n = extract_exponents(MatrixFp(rows, 251))
        assert m == 9 * 9 % 251
        assert n == 1

    def test_always_in_unit_range(self):
        rng = RandomSource.deterministic(7)
        for _ in range(300):
            k = MatrixFp.random_invertible(rng, 8, 251)
            m, n = extract_exponents(k)
            assert 1 <= m <= 250 and 1 <= n <= 250


class TestSessions:
    def test_bilateral_consistency_over_sessions(self):
        alice, bob, _ = make_pair(8)
        for _ in range(10):
            start_session(alice, bob)
            ka, ea, pa, ga = alice.shared_parameters()
            kb, eb, pb, gb = bob.shared_parameters()
            assert (ka, ea, pa, ga) == (kb, eb, pb, gb)
            for m in (ka, pa, ga):
                assert m.det() != 0

    def test_parameters_evolve(self):
        alice, bob, _ = make_pair(9)
        history = set()
        for _ in range(5):
            start_session(alice, bob)
            key, exps, basis, generator = alice.shared_parameters()
            snapshot = (key, basis, generator)
            assert snapshot not in history
            history.add(snapshot)

    def test_key_freezes_while_basis_and_generator_move(self):
        # the key walks K -> K**(m*n) only until K**(m*n) = K; at seed 16 the
        # seventh session reaches m*n = 1, and from the eighth on the key and
        # the pair stay fixed while the basis and generator keep moving
        alice, bob, _ = make_pair(16)
        for _ in range(7):
            start_session(alice, bob)
        key, pair, basis, generator = alice.shared_parameters()
        assert pair[0] * pair[1] % 251 == 1
        seen = {basis, generator}
        for _ in range(6):
            start_session(alice, bob)
            assert alice.shared_parameters() == bob.shared_parameters()
            k, e, basis, generator = alice.shared_parameters()
            assert (k, e) == (key, pair)
            assert basis not in seen and generator not in seen
            seen.update((basis, generator))

    @pytest.mark.parametrize("d", [8, 16])
    def test_session_step_gives_both_parties_next_parameters(self, d):
        # the update is public: applied to the current shared parameters it
        # gives both parties' next ones, whichever side opens.  At d=8, seed
        # 16's key freezes from the eighth session on: a fixed point of next_key
        alice, bob, _ = make_pair(16, d)
        for session in range(25):
            key, pair, context = protocol.session_step(alice.session_key, alice.context)
            expected = (key, pair, context.basis, context.generator)
            start_session(*((alice, bob) if session % 2 else (bob, alice)))
            assert alice.shared_parameters() == expected == bob.shared_parameters()
            if d == 8 and session >= 7:
                assert protocol.next_key(expected[0]) == expected[0] == key

    def test_tokens_change_each_session(self):
        alice, bob, _ = make_pair(10)
        tokens = set()
        for _ in range(100):
            ta, tb = start_session(alice, bob)
            assert ta not in tokens and tb not in tokens
            tokens.update((ta, tb))

    def test_private_elements_commute_after_update(self):
        alice, bob, _ = make_pair(11)
        start_session(alice, bob)
        a, b = (e.context.conjugate(e.eigenvalues) for e in (alice, bob))
        assert a @ b == b @ a

    def test_open_before_keyed_rejected(self):
        rng = RandomSource.deterministic(12)
        basis, generator = setup_shared(rng, 8)
        entity = Entity("initiator", basis, generator)
        with pytest.raises(ProtocolError):
            entity.open_session()
        with pytest.raises(ProtocolError):
            entity.ack_session(MatrixFp.identity(8, 251))

    def test_peer_token_installed_only_in_open_session(self):
        # accepted, a keyed entity lost the setup token that
        # the oracle gsdp.instance_from_exchange reads
        alice, _, rng = make_pair(30)
        fresh = Entity("initiator", alice.basis, alice.generator)
        token = MatrixFp.random_invertible(rng, 8, 251)
        for entity in (fresh, alice):
            before = (entity.phase, entity.peer_token)
            with pytest.raises(ProtocolError, match="open session"):
                entity.install_peer_token(token)
            assert (entity.phase, entity.peer_token) == before

    @pytest.mark.parametrize("token", ["singular", "d=4"])
    def test_refused_ack_moves_nothing(self, token):
        # refused after the update, the acker was a session ahead of the opener
        alice, bob, rng = make_pair(12)
        start_session(alice, bob)
        before = (bob.shared_parameters(), bob.peer_token, bob.phase)
        bad = (MatrixFp([[0] * 8] * 8, 251) if token == "singular"
               else MatrixFp.random_invertible(rng, 4, 251))
        with pytest.raises(ProtocolError, match="peer_token"):
            bob.ack_session(bad)
        assert (bob.shared_parameters(), bob.peer_token, bob.phase) == before

    @pytest.mark.parametrize("d", [8, 16])
    def test_dropped_ack_refused(self, d):
        # the opener opens, no ack arrives, and it opens again: its second
        # open token is a session ahead of the acker's next basis and generator
        for seed in range(5):
            alice, bob, _ = make_pair(seed, d)
            start_session(alice, bob)
            alice.open_session()
            ahead = alice.open_session()
            before = (bob.shared_parameters(), bob.peer_token, bob.phase)
            with pytest.raises(ProtocolError, match="^peer_token does not match this session's generator$"):
                bob.ack_session(ahead)
            assert (bob.shared_parameters(), bob.peer_token, bob.phase) == before

    @pytest.mark.parametrize("d", [8, 16])
    def test_stale_ack_refused(self, d):
        # the ack of the session before does not fit the current generator
        for seed in range(5):
            alice, bob, _ = make_pair(seed, d)
            _, stale = start_session(alice, bob)
            _, current = start_session(alice, bob)
            with pytest.raises(ProtocolError, match="^peer_token does not match this session's generator$"):
                alice.install_peer_token(stale)
            assert alice.peer_token == current

    @pytest.mark.parametrize("d, seed", [(8, 4), (8, 25), (8, 28), (16, 1), (16, 23), (16, 35)])
    def test_honest_tokens_pass_where_the_generator_has_zeros(self, d, seed):
        # G~ = P^-1 G P has a zero entry after the first update on these
        # seeds; both setup tokens and every session token are checked
        alice, bob, _ = make_pair(seed, d)
        start_session(alice, bob)
        assert (bob.context.to_eigenbasis(bob.generator) == 0).any()
        for _ in range(2):
            open_token, ack_token = start_session(alice, bob)
            # each side keeps the token as the weights its check read: rebuilt, it is exact
            assert (bob.peer_token, alice.peer_token) == (open_token, ack_token)
        assert alice.shared_parameters() == bob.shared_parameters()

    @pytest.mark.parametrize("d", [8, 16])
    def test_start_session_inverts_two_bases_and_nothing_else(self, monkeypatch, d):
        # each side builds one context for the next basis and generator, in
        # one elimination; the two tokens are read against it, with no determinant
        alice, bob, _ = make_pair(31, d)
        shapes = record_eliminations(monkeypatch)
        start_session(alice, bob)
        assert shapes == [(2, d, 2 * d)] * 2

    @pytest.mark.parametrize("step", ["open", "ack"])
    def test_failed_update_moves_nothing(self, monkeypatch, step):
        # with the next key assigned before the next basis was built, a
        # failure there left the entity half a session ahead of its peer
        alice, bob, rng = make_pair(14)
        start_session(alice, bob)
        entity = alice if step == "open" else bob
        before = (entity.shared_parameters(), entity.phase, entity.peer_token)

        def refuse(basis, generator):
            raise MemoryError("no room for the next basis")

        monkeypatch.setattr(protocol, "CommutingContext", refuse)
        with pytest.raises(MemoryError):
            entity.open_session() if step == "open" else entity.ack_session(alice.peer_token)
        assert (entity.shared_parameters(), entity.phase, entity.peer_token) == before
        monkeypatch.undo()
        start_session(alice, bob)  # still in step with the peer
        assert alice.shared_parameters() == bob.shared_parameters()

    def test_update_exponent_reduction(self):
        # the key-update exponent is the reduced product of the pair:
        # with the documented sample pair (41, 178) it is 19
        assert 41 * 178 % 251 == 19
        alice, bob, _ = make_pair(13)
        m, n = alice.exponents
        expected_key = alice.session_key.pow(m * n % 251)
        alice.open_session()
        assert alice.session_key == expected_key


class TestCipher:
    def test_round_trip_including_singular_plaintext(self):
        alice, bob, rng = make_pair(14)
        start_session(alice, bob)
        for i in range(50):
            plain = (
                MatrixFp.random(rng, 8, 251)
                if i % 2
                else MatrixFp([[0] * 8] * 8, 251)  # deliberately singular
            )
            y1, y2 = alice.encrypt_blocks([plain], rng)
            assert np.array_equal(bob.decrypt_blocks(y1, y2), [plain])

    def test_bob_can_encrypt_to_alice(self):
        alice, bob, rng = make_pair(15)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        y1, y2 = bob.encrypt_blocks([plain], rng)
        assert np.array_equal(alice.decrypt_blocks(y1, y2), [plain])

    def test_fresh_ephemeral_each_block(self):
        alice, bob, rng = make_pair(16)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        y1, y2 = alice.encrypt_blocks([plain, plain], rng)
        assert not np.array_equal(y1[0], y1[1]) and not np.array_equal(y2[0], y2[1])
        assert np.array_equal(bob.decrypt_blocks(y1, y2), [plain, plain])

    def test_y1_invertible(self):
        alice, bob, rng = make_pair(17)
        start_session(alice, bob)
        for _ in range(20):
            y1, _ = alice.encrypt_blocks([MatrixFp.random(rng, 8, 251)], rng)
            assert MatrixFp(y1[0], 251).det() != 0

    def test_tampered_payload_decrypts_wrong(self):
        alice, bob, rng = make_pair(18)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        y1, y2 = alice.encrypt_blocks([plain], rng)
        tampered = y2.copy()
        tampered[0, 0, 0] = (tampered[0, 0, 0] + 1) % 251
        assert not np.array_equal(bob.decrypt_blocks(y1, tampered), [plain])

    def test_mismatched_session_refused(self):
        # y1 is read against the receiver's basis and generator, and those
        # of another pairing do not fit it
        alice, bob, rng = make_pair(19)
        start_session(alice, bob)
        other_alice, other_bob, _ = make_pair(20)
        start_session(other_alice, other_bob)
        plain = MatrixFp.random(rng, 8, 251)
        y1, y2 = alice.encrypt_blocks([plain], rng)
        with pytest.raises(ProtocolError, match="malformed ciphertext: y1: matrix 0 of the stack is not"):
            other_bob.decrypt_blocks(y1, y2)

    @pytest.mark.parametrize("d", [8, 16])
    def test_decrypt_is_the_paper_formula(self, d):
        # H = y2 (B^m y1 B^n)^-1 with B the receiver's private element, for
        # any y2: the entrywise unmask and the inverse of the mask agree
        alice, bob, rng = make_pair(33, d)
        start_session(alice, bob)
        y1, _ = alice.encrypt_blocks(np.zeros((6, d, d), np.int64), rng)
        y2 = np.array([MatrixFp.random(rng, d, 251).array for _ in range(6)])
        b = bob.context.conjugate(bob.eigenvalues)
        b_m, b_n = (b.pow(e) for e in bob.exponents)
        masks = [b_m @ MatrixFp(y, 251) @ b_n for y in y1]
        want = [(MatrixFp(h, 251) @ mask.inv()).array for h, mask in zip(y2, masks)]
        assert np.array_equal(bob.decrypt_blocks(y1, y2), want)

    def test_encrypt_requires_open_session(self):
        alice, bob, rng = make_pair(21)
        with pytest.raises(ProtocolError):
            alice.encrypt_blocks([MatrixFp.identity(8, 251)], rng)

    def test_encrypt_requires_peer_token(self):
        alice, bob, _ = make_pair(22)
        rng = RandomSource.deterministic(23)
        alice.open_session()  # no ack received yet
        with pytest.raises(ProtocolError):
            alice.encrypt_blocks([MatrixFp.identity(8, 251)], rng)

    def test_works_at_d16(self):
        alice, bob, rng = make_pair(24, d=16)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 16, 251)
        assert np.array_equal(bob.decrypt_blocks(*alice.encrypt_blocks([plain], rng)), [plain])

    @pytest.mark.parametrize("entry", [-1, 251, 255, 1000])
    def test_entries_outside_the_field_rejected(self, entry):
        # accepted, they would decrypt to entry mod 251 without an error
        alice, bob, rng = make_pair(25)
        start_session(alice, bob)
        plains = np.zeros((3, 8, 8), dtype=np.int64)
        plains[1, 2, 3] = entry
        with pytest.raises(ValueError, match="residues"):
            alice.encrypt_blocks(plains, rng)

    @pytest.mark.parametrize("stack", [0, 1])
    @pytest.mark.parametrize("change", ["+0.7", "+251", "-251"])
    def test_cipher_entries_outside_the_field_rejected(self, change, stack):
        # accepted, they would be truncated or reduced mod 251 and decrypt
        # to the original plaintext
        alice, bob, rng = make_pair(25)
        start_session(alice, bob)
        cipher = [y.astype(np.int64) for y in alice.encrypt_blocks(np.zeros((3, 8, 8), np.int64), rng)]
        if change == "+0.7":
            cipher[stack] = cipher[stack] + 0.7
        else:
            cipher[stack][1, 2, 3] += int(change)
        with pytest.raises(ValueError, match="residues"):
            bob.decrypt_blocks(*cipher)

    @pytest.mark.parametrize("batch", [False, True], ids=["encrypt_block", "encrypt_blocks"])
    def test_block_of_another_modulus_rejected(self, batch):
        # encrypt_blocks took the entries as residues mod 251 and decrypted
        # them to a matrix over F_251
        alice, bob, rng = make_pair(26)
        start_session(alice, bob)
        plain = MatrixFp.identity(8, 7)
        with pytest.raises(ValueError, match="modulus"):
            alice.encrypt_blocks([plain], rng) if batch else alice.encrypt_block(plain, rng)

    def test_decrypt_requires_open_session(self):
        alice, bob, rng = make_pair(21)
        start_session(alice, bob)
        y1, y2 = alice.encrypt_blocks([MatrixFp.identity(8, 251)], rng)
        keyed, _, _ = make_pair(21)
        with pytest.raises(ProtocolError, match="decrypt requires an open session"):
            keyed.decrypt_blocks(y1, y2)

    @pytest.mark.parametrize("shape1, shape2, message", [
        ((2, 8, 8), (3, 8, 8), "different numbers of blocks"),
        ((2, 8, 8), (2, 4, 4), "y2 blocks have wrong dimensions"),
        ((8, 8), (8, 8), "y1 blocks have wrong dimensions"),
    ])
    def test_decrypt_refuses_mismatched_stacks(self, shape1, shape2, message):
        alice, bob, _ = make_pair(22)
        start_session(alice, bob)
        with pytest.raises(ValueError, match=message):
            bob.decrypt_blocks(np.ones(shape1, np.uint8), np.ones(shape2, np.uint8))

    def test_block_may_be_any_array_like(self):
        alice, bob, _ = make_pair(27)
        start_session(alice, bob)
        plain = MatrixFp.random(RandomSource.deterministic(28), 8, 251)
        blocks = [alice.encrypt_block(form, RandomSource.deterministic(29))
                  for form in (plain, plain.array, plain.tolist())]
        assert blocks[0] == blocks[1] == blocks[2]
        assert bob.decrypt_block(blocks[0]) == plain


class TestSlices:
    def test_slices_fit_the_entry_budget(self):
        # at every d a slice holds a block, one (N, d, d) float64 temporary of
        # the cipher stays within 64 KiB, and the slices cover the stack in order
        blocks = range(1000)
        for d in (8, 16):
            slices = protocol._slices(len(blocks), d)
            assert all(blocks[part] for part in slices)
            assert max(len(blocks[part]) for part in slices) * d * d * 8 <= 64 * 1024
            assert [i for part in slices for i in blocks[part]] == list(blocks)

    @pytest.mark.parametrize("d", [8, 16])
    def test_cipher_bounds_its_own_stacks(self, monkeypatch, d):
        # one encrypt_blocks and one decrypt_blocks call on 600 blocks: every
        # factor of every residue product holds at most BATCH_ENTRIES entries
        from geg import commuting

        alice, bob, rng = make_pair(34, d)
        start_session(alice, bob)
        plains = rng.array_mod(600 * d * d).reshape(600, d, d)
        sizes, product_mod = [], protocol.product_mod
        record = lambda factors, p: sizes.extend(np.size(f) for f in factors) or product_mod(factors, p)
        monkeypatch.setattr(protocol, "product_mod", record)
        monkeypatch.setattr(commuting, "product_mod", record)
        recovered = bob.decrypt_blocks(*alice.encrypt_blocks(plains, rng))
        assert np.array_equal(recovered, plains)
        assert sizes and max(sizes) <= protocol.BATCH_ENTRIES

    @pytest.mark.parametrize("d", [8, 16])
    def test_refused_block_is_named_by_its_index_in_the_stack(self, d):
        # the sixth block of the third slice is refused, and so is one in the
        # fourth: one decrypt_blocks call names the lowest by its index in the stack
        alice, bob, rng = make_pair(35, d)
        start_session(alice, bob)
        step = protocol.BATCH_ENTRIES // d**2
        bad = 2 * step + 5
        y1, y2 = alice.encrypt_blocks(np.zeros((4 * step, d, d), np.int64), rng)
        y1[bad] = y1[bad + step] = MatrixFp.random_invertible(RandomSource.deterministic(7), d).array
        with pytest.raises(ProtocolError, match=f"y1: matrix {bad} of the stack is not a sandwich"):
            bob.decrypt_blocks(y1, y2)


class TestRestore:
    def test_restore_round_trip(self):
        alice, bob, rng = make_pair(25)
        start_session(alice, bob)
        clone = Entity.restore(
            bob.role,
            bob.basis,
            bob.generator,
            bob.session_key,
            bob.eigenvalues,
            peer_token=bob.peer_token,
        )
        plain = MatrixFp.random(rng, 8, 251)
        y1, y2 = alice.encrypt_blocks([plain], rng)
        assert np.array_equal(clone.decrypt_blocks(y1, y2), [plain])
        assert clone.shared_parameters() == bob.shared_parameters()

    def test_restore_checks_session_key_and_peer_token(self):
        alice, bob, _ = make_pair(26)
        start_session(alice, bob)
        fields = (bob.role, bob.basis, bob.generator)
        zero = MatrixFp([[0] * 8] * 8, 251)
        with pytest.raises(ProtocolError, match="session_key is singular"):
            Entity.restore(*fields, zero, bob.eigenvalues, bob.peer_token)
        with pytest.raises(ProtocolError, match="peer_token is singular"):
            Entity.restore(*fields, bob.session_key, bob.eigenvalues, zero)
        with pytest.raises(ProtocolError, match="peer_token is not a 8x8 matrix over F_251"):
            Entity.restore(*fields, bob.session_key, bob.eigenvalues,
                           MatrixFp.identity(8, 7))
        with pytest.raises(ProtocolError, match="peer_token does not match this session's generator"):
            Entity.restore(*fields, bob.session_key, bob.eigenvalues, MatrixFp.identity(8, 251))

    def test_restore_checks_generator(self):
        alice, bob, _ = make_pair(27)
        start_session(alice, bob)
        singular = MatrixFp([[1] * 8] * 8, 251)
        with pytest.raises(SingularMatrixError, match="^generator is singular$"):
            Entity.restore(bob.role, bob.basis, singular, bob.session_key, bob.eigenvalues,
                           bob.peer_token)

    @pytest.mark.parametrize("d, p", [(4, 251), (8, 11)])
    def test_restore_refuses_eigenvalues_of_another_size_or_field(self, d, p):
        alice, bob, _ = make_pair(28)
        start_session(alice, bob)
        with pytest.raises(ProtocolError, match="eigenvalues are not 8 residues mod 251"):
            Entity.restore(bob.role, bob.basis, bob.generator, bob.session_key,
                           DiagonalSpec(tuple(range(1, d + 1)), p), bob.peer_token)
