import numpy as np
import pytest

from geg.commuting import commutes
from geg.errors import ProtocolError
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import (
    CipherBlock,
    Entity,
    Phase,
    extract_exponents,
    handshake,
    setup_shared,
    start_session,
)


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
        a = entity.private_element
        assert token == a.pow(k1) @ generator @ a.pow(k2)
        assert 1 <= k1 <= 250 and 1 <= k2 <= 250

    def test_keygen_twice_rejected(self):
        alice, _, rng = make_pair(3)
        with pytest.raises(ProtocolError):
            alice.keygen(rng)


class TestKeyAgreement:
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
            a, b = alice.private_element, bob.private_element
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
        m = MatrixFp.diagonal([2] * 7 + [3], 251)
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
        assert commutes(alice.private_element, bob.private_element)

    def test_open_before_keyed_rejected(self):
        rng = RandomSource.deterministic(12)
        basis, generator = setup_shared(rng, 8)
        entity = Entity("initiator", basis, generator)
        with pytest.raises(ProtocolError):
            entity.open_session()
        with pytest.raises(ProtocolError):
            entity.ack_session(MatrixFp.identity(8, 251))

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
            block = alice.encrypt_block(plain, rng)
            assert bob.decrypt_block(block) == plain

    def test_bob_can_encrypt_to_alice(self):
        alice, bob, rng = make_pair(15)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        block = bob.encrypt_block(plain, rng)
        assert alice.decrypt_block(block) == plain

    def test_fresh_ephemeral_each_block(self):
        alice, bob, rng = make_pair(16)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        one = alice.encrypt_block(plain, rng)
        two = alice.encrypt_block(plain, rng)
        assert one.y1 != two.y1 and one.y2 != two.y2
        assert bob.decrypt_block(one) == plain == bob.decrypt_block(two)

    def test_y1_invertible(self):
        alice, bob, rng = make_pair(17)
        start_session(alice, bob)
        for _ in range(20):
            block = alice.encrypt_block(MatrixFp.random(rng, 8, 251), rng)
            assert block.y1.det() != 0

    def test_tampered_payload_decrypts_wrong(self):
        alice, bob, rng = make_pair(18)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        block = alice.encrypt_block(plain, rng)
        rows = block.y2.tolist()
        rows[0][0] = (rows[0][0] + 1) % 251
        tampered = CipherBlock(block.y1, MatrixFp(rows, 251))
        assert bob.decrypt_block(tampered) != plain

    def test_mismatched_session_decrypts_wrong(self):
        alice, bob, rng = make_pair(19)
        start_session(alice, bob)
        other_alice, other_bob, _ = make_pair(20)
        start_session(other_alice, other_bob)
        plain = MatrixFp.random(rng, 8, 251)
        block = alice.encrypt_block(plain, rng)
        assert other_bob.decrypt_block(block) != plain

    def test_encrypt_requires_open_session(self):
        alice, bob, rng = make_pair(21)
        with pytest.raises(ProtocolError):
            alice.encrypt_block(MatrixFp.identity(8, 251), rng)

    def test_encrypt_requires_peer_token(self):
        alice, bob, _ = make_pair(22)
        rng = RandomSource.deterministic(23)
        alice.open_session()  # no ack received yet
        with pytest.raises(ProtocolError):
            alice.encrypt_block(MatrixFp.identity(8, 251), rng)

    def test_works_at_d16(self):
        alice, bob, rng = make_pair(24, d=16)
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 16, 251)
        assert bob.decrypt_block(alice.encrypt_block(plain, rng)) == plain

    @pytest.mark.parametrize("entry", [-1, 251, 255, 1000])
    def test_entries_outside_the_field_rejected(self, entry):
        # accepted, they would decrypt to entry mod 251 without an error
        alice, bob, rng = make_pair(25)
        start_session(alice, bob)
        plains = np.zeros((3, 8, 8), dtype=np.int64)
        plains[1, 2, 3] = entry
        with pytest.raises(ValueError, match="residues"):
            alice.encrypt_blocks(plains, rng)

    def test_block_of_another_modulus_rejected(self):
        alice, bob, rng = make_pair(26)
        start_session(alice, bob)
        with pytest.raises(ValueError, match="modulus"):
            alice.encrypt_block(MatrixFp.identity(8, 7), rng)

    def test_block_may_be_any_array_like(self):
        alice, bob, _ = make_pair(27)
        start_session(alice, bob)
        plain = MatrixFp.random(RandomSource.deterministic(28), 8, 251)
        blocks = [alice.encrypt_block(form, RandomSource.deterministic(29))
                  for form in (plain, plain.array, plain.tolist())]
        assert blocks[0] == blocks[1] == blocks[2]
        assert bob.decrypt_block(blocks[0]) == plain


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
        block = alice.encrypt_block(plain, rng)
        assert clone.decrypt_block(block) == plain
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
