"""Organizer and voter client logic.

The organizer deploys the contract, keeps the remaining chances of every
listed address, and answers on-ledger signing requests: a listed address
with a chance left gets a signature and loses one chance, everyone else
gets the refusal sentinel 0.

Voters blind locally (r and uuid never leave their state), obtain and
check the signature through their eligible account, then cast through a
fresh anonymous account. The receipt machinery at the bottom exists to
demonstrate the known weakness: r is enough to prove vote content to a
third party.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import messages
from .blindsig import (
    REFUSED,
    KeyPair,
    PublicKey,
    ballot_digest,
    blind,
    new_blinding_factor,
    new_uuid,
    sign_blinded,
    unblind,
)
from .contract import seal_ballot
from .errors import (
    CheckFailed,
    DuplicateAddress,
    NoSignature,
    NonUnit,
    OutOfWindow,
    SignRefused,
)
from .ledger import Account, Ledger, create_account
from .rng import as_rng


class Organizer:
    """Holds the signing key, the voters' chances, and the sign-stage loop."""

    def __init__(self, key: KeyPair, account: Account, sealing_key: KeyPair | None = None):
        self.key = key
        self.account = account
        self.sealing_key = sealing_key
        self.chances: dict[bytes, int] = {}  # listed address -> chances left
        self.budget = 0  # total chances at setup
        self.issued = 0  # non-zero signatures handed out
        self._cursor = 0  # first log index not yet scanned for requests
        self.deploy: messages.Deploy | None = None  # the payload setup submitted

    @property
    def address(self) -> bytes:
        return self.account.address

    def setup(
        self,
        ledger: Ledger,
        voters: list[tuple[bytes, int]],
        st: int,
        ct: int,
        et: int,
    ) -> None:
        """Deploy the contract and freeze the voter list (sealed when the
        organizer holds a sealing key); a refused setup changes nothing."""
        chances = {}
        for address, count in voters:
            if address in chances:
                raise DuplicateAddress(f"address {address.hex()} listed twice")
            if count < 1:
                raise ValueError(f"chances must be >= 1, got {count}")
            chances[address] = count
        sealing = self.sealing_key
        deploy = messages.Deploy(
            n=self.key.n,
            e=self.key.e,
            st=st,
            ct=ct,
            et=et,
            sealed=sealing is not None,
            sealing_n=sealing.n if sealing else None,
            sealing_e=sealing.e if sealing else None,
        )
        ledger.submit(self.account, None, deploy)
        self.deploy = deploy
        self.chances = chances
        self.budget = sum(chances.values())

    def decide_sign(self, sender: bytes, blinded: int, clock: int) -> int:
        """Sign-or-refuse: listed sender with a chance left gets blinded^d, else 0.

        A signature that fails its own check is refused free; so is a blinded
        value outside [1, n), whose signature is 0 or fails that check.
        """
        if self.deploy is None:
            raise RuntimeError("setup() has not run")
        st, ct = self.deploy.st, self.deploy.ct
        if not st <= clock < ct:
            raise OutOfWindow(f"sign request at clock {clock}, window [{st}, {ct})")
        if self.chances.get(sender, 0) < 1:
            return REFUSED
        signed = sign_blinded(blinded, self.key)
        if signed != REFUSED:
            self.chances[sender] -= 1
            self.issued += 1
        return signed

    def process_requests(self, ledger: Ledger) -> dict[int, int]:
        """Answer every unanswered signing request addressed to us; returns
        {request index: answer index} of the requests answered."""
        answers = {}
        while self._cursor < len(ledger):
            tx = ledger.entry(self._cursor)
            self._cursor += 1
            if tx.recipient != self.address or not isinstance(
                tx.payload, messages.SignRequest
            ):
                continue
            response = self.decide_sign(tx.sender, tx.payload.blinded, ledger.clock)
            answers[tx.index] = ledger.submit(
                self.account,
                tx.sender,
                messages.SignResponse(blinded=tx.payload.blinded, signed_blinded=response),
            ).index
        return answers

    def publish_result(self, ledger: Ledger) -> None:
        """Reveal the sealing private key on-ledger (sealed elections only)."""
        ledger.submit(
            self.account,
            ledger.contract_address,
            messages.Publish(n=self.sealing_key.n, d=self.sealing_key.d),
        )


# --- voter side -----------------------------------------------------------------

@dataclass
class VoterState:
    """Everything a voter keeps locally for one ballot.

    r and uuid exist only here until the cast; the anonymous account is
    created at cast time and is never the eligible account.
    """

    ballot: bytes  # payload that gets signed and cast (ciphertext when sealed)
    plain_ballot: bytes  # the voter's actual choice
    r: int
    uuid: bytes
    eligible_account: Account
    blinded: int
    anon_account: Account | None = None
    signed_blinded: int | None = None
    signed: int | None = None
    sign_tx_index: int | None = None


@dataclass(frozen=True)
class Receipt:
    """Proof of vote content a voter can hand to a third party."""

    ballot: bytes
    uuid: bytes
    r: int
    blinded: int
    sign_tx_index: int


def voter_prepare(
    ballot: bytes,
    seed: int | random.Random,
    pk: PublicKey,
    eligible_account: Account,
    sealing_pk: PublicKey | None = None,
) -> VoterState:
    """Draw fresh r and uuid, blind the ballot digest, keep it all local."""
    rng = as_rng(seed)
    payload = ballot if sealing_pk is None else seal_ballot(ballot, sealing_pk, rng)
    r = new_blinding_factor(pk, rng)
    uuid = new_uuid(rng)
    return VoterState(
        ballot=payload,
        plain_ballot=ballot,
        r=r,
        uuid=uuid,
        eligible_account=eligible_account,
        blinded=blind(ballot_digest(payload, uuid), r, pk),
    )


def voter_obtain_signature(
    state: VoterState,
    ledger: Ledger,
    organizer: Organizer,
) -> VoterState:
    """Sign stage: request, collect the response, check it on-contract, unblind.

    Raises SignRefused on the sentinel answer or none, and CheckFailed when the
    contract disagrees with the organizer's signature; the latter is the
    cue for the out-of-band dispute the protocol leaves unspecified.
    """
    request = ledger.submit(
        state.eligible_account, organizer.address, messages.SignRequest(state.blinded)
    )
    answer = organizer.process_requests(ledger).get(request.index)
    if answer is None:
        raise SignRefused("organizer never answered")
    response = ledger.entry(answer).payload
    if response.signed_blinded == REFUSED:
        raise SignRefused(f"organizer refused request at index {request.index}")
    check = ledger.submit(
        state.eligible_account,
        ledger.contract_address,
        messages.Check(response.signed_blinded, state.blinded),
    )
    if not check.result:
        raise CheckFailed("contract rejected the organizer's signature")
    state.signed_blinded = response.signed_blinded
    state.signed = unblind(response.signed_blinded, state.r, ledger.contract.params.pk)
    state.sign_tx_index = answer
    return state


def voter_cast(
    state: VoterState,
    ledger: Ledger,
    seed: int | random.Random,
    anonymous: bool = True,
) -> bool:
    """Vote stage: cast (signed, ballot, uuid) from a fresh anonymous account.

    ``anonymous=False`` casts from the eligible account instead; the
    contract accepts it all the same, which is exactly the linkability
    mistake the scenario assertions flag.
    """
    if state.signed is None:
        raise NoSignature("sign stage incomplete")
    if anonymous:
        state.anon_account = create_account(as_rng(seed))
        sender = state.anon_account
    else:
        sender = state.eligible_account
    receipt = ledger.submit(
        sender,
        ledger.contract_address,
        messages.Cast(signed=state.signed, ballot=state.ballot, uuid=state.uuid),
    )
    return bool(receipt.result)


# --- the receipt-freeness attack, kept working on purpose ------------------------

def prove_receipt(state: VoterState) -> Receipt:
    """Bundle (ballot, uuid, r, blinded, response index) for a third party."""
    if state.sign_tx_index is None:
        raise NoSignature("nothing to prove before the sign stage completes")
    return Receipt(
        ballot=state.ballot,
        uuid=state.uuid,
        r=state.r,
        blinded=state.blinded,
        sign_tx_index=state.sign_tx_index,
    )


def verify_receipt(receipt: Receipt, ledger: Ledger) -> bool:
    """Third-party check that a receipt proves a counted vote.

    Three links must all hold: re-blinding (ballot, uuid, r) reproduces the
    blinded value; that value sits in the signing response at the claimed
    ledger index; and the uuid maps to the ballot in the ledger's ballot box.
    """
    pk = ledger.contract.params.pk
    try:
        reconstructed = blind(ballot_digest(receipt.ballot, receipt.uuid), receipt.r, pk)
    except (NonUnit, ValueError):
        return False
    if reconstructed != receipt.blinded:
        return False
    if not 0 <= receipt.sign_tx_index < len(ledger):
        return False
    tx = ledger.entry(receipt.sign_tx_index)
    if not isinstance(tx.payload, messages.SignResponse):
        return False
    if tx.payload.blinded != receipt.blinded or tx.payload.signed_blinded == REFUSED:
        return False
    return ledger.contract.ballot_box.get(receipt.uuid) == receipt.ballot
