"""Organizer sign decisions, voter workflow, receipts."""

import math
import random

import pytest

from blindvote import blindsig, messages
from blindvote.actors import (
    Organizer,
    prove_receipt,
    verify_receipt,
    voter_cast,
    voter_obtain_signature,
    voter_prepare,
)
from blindvote.blindsig import REFUSED, TOY_KEYPAIR, keygen, keypair_from_primes, verify
from blindvote.errors import (
    CheckFailed,
    DuplicateAddress,
    NoSignature,
    OutOfWindow,
    Redeploy,
    SignRefused,
)
from blindvote.ledger import Ledger, create_account

TOY = TOY_KEYPAIR
SEALING = keypair_from_primes(67, 71, 17)
KEY_512 = keygen(512, 3)

#: (m, c) for the blinded value m * n + c: 0, n, n + 5, 2n - 1 and -3, all outside [1, n)
OUT_OF_RANGE = [(0, 0), (1, 0), (1, 5), (2, -1), (0, -3)]


def _deployed(key):
    """Deployed election with two eligible voters (bob has two chances)."""
    ledger = Ledger()
    organizer = Organizer(key=key, account=create_account(100))
    alice, bob = create_account(1), create_account(2)
    organizer.setup(ledger, [(alice.address, 1), (bob.address, 2)], st=10, ct=20, et=30)
    ledger.advance_clock(10)
    return ledger, organizer, alice, bob


@pytest.fixture
def world():
    return _deployed(TOY)


class TestPermissionList:
    """The organizer's voter list: Organizer.chances as setup builds it."""

    def test_duplicate_address(self):
        ledger = Ledger()
        organizer = Organizer(key=TOY, account=create_account(100))
        a, b = create_account(1), create_account(2)
        with pytest.raises(DuplicateAddress):
            organizer.setup(ledger, [(a.address, 1), (b.address, 1), (a.address, 1)], 10, 20, 30)
        assert organizer.chances == {} and organizer.budget == 0
        organizer.setup(ledger, [(a.address, 1), (b.address, 1)], 10, 20, 30)
        assert organizer.chances == {a.address: 1, b.address: 1}

    def test_unlisted_chance_is_zero(self, world):
        _, organizer, alice, bob = world
        outsider = create_account(999)
        assert organizer.chances.get(outsider.address, 0) == 0
        assert set(organizer.chances) == {alice.address, bob.address}


class TestOrganizerSign:
    def test_listed_voter_signed_and_decremented(self, world):
        ledger, organizer, alice, _ = world
        sig = organizer.decide_sign(alice.address, 1234, clock=10)
        assert pow(sig, TOY.e, TOY.n) == 1234
        assert organizer.chances[alice.address] == 0

    def test_multi_chance_budget(self, world):
        _, organizer, _, bob = world
        assert organizer.chances[bob.address] == 2
        organizer.decide_sign(bob.address, 1, clock=10)
        assert organizer.chances[bob.address] == 1

    def test_unlisted_gets_sentinel(self, world):
        _, organizer, _, _ = world
        outsider = create_account(999)
        assert outsider.address not in organizer.chances
        assert organizer.decide_sign(outsider.address, 1234, clock=10) == REFUSED
        assert outsider.address not in organizer.chances and organizer.issued == 0

    def test_exhausted_gets_sentinel(self, world):
        _, organizer, alice, _ = world
        organizer.decide_sign(alice.address, 1, clock=10)
        assert organizer.decide_sign(alice.address, 2, clock=10) == REFUSED
        assert organizer.chances[alice.address] == 0 and organizer.issued == 1

    @pytest.mark.parametrize(
        "key, m, c",
        [pytest.param(TOY, m, c, id=str(m * TOY.n + c)) for m, c in OUT_OF_RANGE]
        + [pytest.param(KEY_512, m, c, id=f"512bit-{m}n{c:+d}") for m, c in OUT_OF_RANGE],
    )
    def test_out_of_range_refused_free(self, key, m, c):
        # sign_blinded's fault check is the one range guard
        _, organizer, alice, _ = _deployed(key)
        assert organizer.decide_sign(alice.address, m * key.n + c, clock=10) == REFUSED
        assert organizer.chances[alice.address] == 1
        assert organizer.issued == 0

    @pytest.mark.parametrize("clock", [9, 20, 25])
    def test_out_of_window(self, world, clock):
        _, organizer, alice, _ = world
        with pytest.raises(OutOfWindow):
            organizer.decide_sign(alice.address, 1, clock=clock)

    def test_chance_conservation(self, world):
        _, organizer, alice, bob = world
        organizer.decide_sign(alice.address, 1, clock=10)
        organizer.decide_sign(bob.address, 2, clock=10)
        organizer.decide_sign(create_account(999).address, 3, clock=10)  # refused
        assert organizer.budget - sum(organizer.chances.values()) == organizer.issued == 2

    def test_faulty_signature_refused_free(self, world, monkeypatch):
        _, organizer, alice, _ = world
        good = organizer.decide_sign(alice.address, 1234, clock=10)
        organizer.chances[alice.address] = 1
        organizer.issued = 0
        monkeypatch.setattr(blindsig, "crt_pow", lambda x, key: (good + 1) % key.n)
        assert organizer.decide_sign(alice.address, 1234, clock=10) == REFUSED
        assert organizer.chances[alice.address] == 1
        assert organizer.issued == 0

    def test_duplicate_setup_address(self):
        ledger = Ledger()
        organizer = Organizer(key=TOY, account=create_account(100))
        a = create_account(1)
        with pytest.raises(DuplicateAddress):
            organizer.setup(ledger, [(a.address, 1), (a.address, 2)], 10, 20, 30)
        assert len(ledger) == 0 and organizer.deploy is None and organizer.chances == {}

    def test_zero_chances_setup_refused(self):
        ledger = Ledger()
        organizer = Organizer(key=TOY, account=create_account(100))
        with pytest.raises(ValueError):
            organizer.setup(ledger, [(create_account(1).address, 0)], 10, 20, 30)
        assert len(ledger) == 0 and organizer.deploy is None and organizer.chances == {}

    def test_setup_budget(self, world):
        _, organizer, alice, bob = world
        assert organizer.chances == {alice.address: 1, bob.address: 2}
        assert organizer.budget == 3

    def test_refused_second_setup_changes_nothing(self, world):
        ledger, organizer, alice, bob = world
        deploy, length = organizer.deploy, len(ledger)
        with pytest.raises(Redeploy):
            organizer.setup(ledger, [(bob.address, 5)], 11, 21, 31)
        assert organizer.chances == {alice.address: 1, bob.address: 2}
        assert organizer.budget == 3
        assert organizer.deploy is deploy and len(ledger) == length


class TestVoterPrepare:
    def test_distinct_blinded_values(self):
        # at the toy modulus 100 draws from ~3200 values birthday-collide,
        # so distinctness is asserted at a real key size
        from blindvote.blindsig import keygen

        key = keygen(128, 1)
        rng = random.Random(0)
        account = create_account(1)
        blinded = {
            voter_prepare(b"A", rng, key.public, account).blinded for _ in range(100)
        }
        assert len(blinded) == 100

    def test_distinct_uuids_at_toy_modulus(self):
        rng = random.Random(0)
        account = create_account(1)
        uuids = {
            voter_prepare(b"A", rng, TOY.public, account).uuid for _ in range(100)
        }
        assert len(uuids) == 100

    def test_r_unit_and_uuid_length(self):
        state = voter_prepare(b"A", 5, TOY.public, create_account(1))
        assert math.gcd(state.r, TOY.n) == 1
        assert len(state.uuid) == 16

    def test_sealed_prepare_hides_plaintext(self):
        state = voter_prepare(
            b"CANDIDATE-ALPHA", 5, TOY.public, create_account(1),
            sealing_pk=SEALING.public,
        )
        assert state.plain_ballot == b"CANDIDATE-ALPHA"
        assert b"CANDIDATE" not in state.ballot

    def test_nothing_on_ledger(self, world):
        ledger, _, alice, _ = world
        before = len(ledger.log)
        voter_prepare(b"A", 5, TOY.public, alice)
        assert len(ledger.log) == before


class TestSignStage:
    def test_honest_flow_yields_verifying_signature(self, world):
        ledger, organizer, alice, _ = world
        state = voter_prepare(b"A", 5, TOY.public, alice)
        voter_obtain_signature(state, ledger, organizer)
        assert state.signed is not None
        from blindvote.blindsig import ballot_digest

        assert verify(state.signed, ballot_digest(b"A", state.uuid), TOY.public)
        assert state.sign_tx_index is not None
        response = ledger.log[state.sign_tx_index].payload
        assert isinstance(response, messages.SignResponse)
        assert response.blinded == state.blinded
        # the check went to the ledger's contract, which accepted it
        (check,) = [
            i for i, tx in enumerate(ledger.log) if isinstance(tx.payload, messages.Check)
        ]
        assert ledger.entry(check).recipient == ledger.contract_address
        assert ledger.results[check] is True

    def test_ineligible_refused(self, world):
        ledger, organizer, _, _ = world
        outsider = create_account(999)
        state = voter_prepare(b"A", 5, TOY.public, outsider)
        with pytest.raises(SignRefused):
            voter_obtain_signature(state, ledger, organizer)
        assert state.signed is None

    def test_garbage_signature_caught_by_contract(self, world):
        ledger, organizer, alice, _ = world

        class CheatingOrganizer(Organizer):
            def decide_sign(self, sender, blinded, clock):
                super().decide_sign(sender, blinded, clock)
                return 1111  # arbitrary wrong value

        cheat = CheatingOrganizer(key=TOY, account=organizer.account)
        cheat.chances = organizer.chances
        cheat.deploy = organizer.deploy
        state = voter_prepare(b"A", 5, TOY.public, alice)
        with pytest.raises(CheckFailed):
            voter_obtain_signature(state, ledger, cheat)


class TestVoteStage:
    def _signed_state(self, world, seed=5):
        ledger, organizer, alice, _ = world
        state = voter_prepare(b"A", seed, TOY.public, alice)
        voter_obtain_signature(state, ledger, organizer)
        ledger.advance_clock(20)
        return ledger, state

    def test_honest_cast_accepted(self, world):
        ledger, state = self._signed_state(world)
        assert voter_cast(state, ledger, seed=77) is True
        assert state.anon_account is not None
        assert state.anon_account.address != state.eligible_account.address
        assert ledger.log[-1].recipient == ledger.contract_address
        assert ledger.contract.ballot_box == {state.uuid: state.ballot}

    def test_second_cast_rejected(self, world):
        ledger, state = self._signed_state(world)
        assert voter_cast(state, ledger, seed=77)
        assert voter_cast(state, ledger, seed=78) is False

    def test_cast_without_signature(self, world):
        ledger, _, alice, _ = world
        state = voter_prepare(b"A", 5, TOY.public, alice)
        with pytest.raises(NoSignature):
            voter_cast(state, ledger, seed=77)
        assert len(ledger) == 1  # the deploy only

    def test_careless_cast_from_eligible_account_still_lands(self, world):
        ledger, state = self._signed_state(world)
        assert voter_cast(state, ledger, seed=77, anonymous=False) is True
        cast_tx = next(
            tx for tx in ledger.log if isinstance(tx.payload, messages.Cast)
        )
        # accepted, but trivially linkable: the harness flags this
        assert cast_tx.sender == state.eligible_account.address


class TestReceipts:
    def _completed(self, world):
        ledger, organizer, alice, _ = world
        state = voter_prepare(b"A", 5, TOY.public, alice)
        voter_obtain_signature(state, ledger, organizer)
        ledger.advance_clock(20)
        assert voter_cast(state, ledger, seed=77)
        return ledger, state

    def test_genuine_receipt_verifies(self, world):
        ledger, state = self._completed(world)
        assert verify_receipt(prove_receipt(state), ledger) is True

    def test_altered_ballot_fails(self, world):
        ledger, state = self._completed(world)
        receipt = prove_receipt(state)
        forged = type(receipt)(
            ballot=b"B",
            uuid=receipt.uuid,
            r=receipt.r,
            blinded=receipt.blinded,
            sign_tx_index=receipt.sign_tx_index,
        )
        assert verify_receipt(forged, ledger) is False

    def test_altered_r_fails(self, world):
        ledger, state = self._completed(world)
        receipt = prove_receipt(state)
        forged = type(receipt)(
            ballot=receipt.ballot,
            uuid=receipt.uuid,
            r=receipt.r + 1,
            blinded=receipt.blinded,
            sign_tx_index=receipt.sign_tx_index,
        )
        assert verify_receipt(forged, ledger) is False

    def test_forged_tx_index_fails(self, world):
        ledger, state = self._completed(world)
        receipt = prove_receipt(state)
        forged = type(receipt)(
            ballot=receipt.ballot,
            uuid=receipt.uuid,
            r=receipt.r,
            blinded=receipt.blinded,
            sign_tx_index=0,  # the deploy transaction
        )
        assert verify_receipt(forged, ledger) is False

    def test_uncast_ballot_fails(self, world):
        ledger, organizer, alice, _ = world
        state = voter_prepare(b"A", 5, TOY.public, alice)
        voter_obtain_signature(state, ledger, organizer)
        # never cast: box membership link is missing
        receipt = prove_receipt(state)
        assert verify_receipt(receipt, ledger) is False

    def test_receipt_before_sign_stage(self, world):
        _, _, alice, _ = world
        state = voter_prepare(b"A", 5, TOY.public, alice)
        with pytest.raises(NoSignature):
            prove_receipt(state)
