"""A state machine over one d=8 pair of entities: sessions opened by either
side (also twice with no ack between, a dropped ack), acks with or without
the answer delivered, short messages either way, and a save and reload of
either side through the CLI's state files.

The model is each side's session count: the number of updates it has
applied since the shared key.  Updates are public and deterministic, so two
sides with the same count hold the same shared parameters.  An ack succeeds
exactly when the acker is one session behind the open token, an answer is
installed exactly when the opener is still in the token's session, and a
message decrypts exactly when both sides are in the same session.  Every
refused step raises ProtocolError and leaves the entity as it was; any
other exception (an AssertionError, a numpy error, a bare ValueError) fails
the machine.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from geg import GegError, ProtocolError, RandomSource, cli, handshake, setup_shared, wire

SIDES = st.sampled_from([0, 1])
REFUSED = object()


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="geg-machine-"))

    def teardown(self):
        shutil.rmtree(self.directory)

    @initialize(seed=st.integers(0, 2**16))
    def pair(self, seed):
        rng = RandomSource.deterministic(seed)
        self.sides = list(handshake(*setup_shared(rng, 8), rng))
        self.rng = RandomSource.deterministic(seed + 1)
        self.count = [0, 0]  # session updates applied since the shared key
        self.answered = [False, False]  # holds the peer's token of its session
        self.opened = []  # (opener, open token, its session) of every open so far

    def snapshot(self, side):
        entity = self.sides[side]
        return entity.shared_parameters(), entity.phase, entity.peer_token

    def attempt(self, side, step):
        """step()'s result, or REFUSED if it raised ProtocolError, which must
        leave `side` as it was."""
        before = self.snapshot(side)
        try:
            return step()
        except ProtocolError:
            assert self.snapshot(side) == before
            return REFUSED

    @rule(side=SIDES)
    def open_session(self, side):
        token = self.sides[side].open_session()
        self.count[side] += 1
        self.answered[side] = False
        self.opened.append((side, token, self.count[side]))

    @precondition(lambda self: self.opened)
    @rule(back=st.integers(0, 2), drop_answer=st.booleans())
    def ack_session(self, back, drop_answer):
        # the latest open, or one before it whose ack was dropped
        opener, token, session = self.opened[-1 - min(back, len(self.opened) - 1)]
        acker = 1 - opener
        answer = self.attempt(acker, lambda: self.sides[acker].ack_session(token))
        assert (answer is not REFUSED) == (self.count[acker] == session - 1)
        if answer is REFUSED:
            return
        self.count[acker], self.answered[acker] = session, True
        if not drop_answer:
            installed = self.attempt(opener, lambda: self.sides[opener].install_peer_token(answer))
            assert (installed is not REFUSED) == (self.count[opener] == session)
            self.answered[opener] |= installed is not REFUSED

    @rule(sender=SIDES, data=st.binary(max_size=40))
    def message(self, sender, data):
        receiver = 1 - sender
        blocks = wire.encode_plaintext(data, 8)
        sealed = self.attempt(sender, lambda: self.sides[sender].encrypt_blocks(blocks, self.rng))
        assert (sealed is not REFUSED) == (self.count[sender] > 0 and self.answered[sender])
        if sealed is REFUSED:
            return
        plains = self.attempt(receiver, lambda: self.sides[receiver].decrypt_blocks(*sealed))
        assert (plains is not REFUSED) == (self.count[receiver] == self.count[sender])
        if plains is not REFUSED:
            assert wire.decode_plaintext(plains) == data

    @rule(side=SIDES)
    def save_and_reload(self, side):
        path = self.directory / f"side{side}"
        entity = self.sides[side]
        if self.count[side] == 0 or not self.answered[side]:
            saved = path.read_bytes() if path.exists() else None
            with pytest.raises(GegError, match="no open session"):
                cli.save_state(path, entity)
            assert (path.read_bytes() if path.exists() else None) == saved
            return
        before = self.snapshot(side)
        cli.save_state(path, entity)
        self.sides[side] = cli.load_state(path)
        assert self.snapshot(side) == before

    @invariant()
    def same_session_same_parameters(self):
        if self.count[0] == self.count[1]:
            assert self.sides[0].shared_parameters() == self.sides[1].shared_parameters()


SessionMachine.TestCase.settings = settings(
    derandomize=True, database=None, max_examples=200, stateful_step_count=20, deadline=None
)
TestSessionMachine = SessionMachine.TestCase
