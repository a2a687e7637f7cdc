"""Organizer and voter client logic.

The organizer deploys the contract, keeps the permission list with its
per-address submission budget, and answers on-ledger signing requests:
listed address with budget left gets a signature and loses one unit of
budget, everyone else gets the refusal sentinel 0.

Voters blind locally (r and uuid never leave their state), obtain and
check the signature through their eligible account, then cast through a
fresh anonymous account. The receipt machinery at the bottom exists to
demonstrate the known weakness: r is enough to prove vote content to a
third party.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import messages
from .blindsig import (
    REFUSED,
    KeyPair,
    PublicKey,
    ballot_digest,
    blind,
    hex_to_int,
    int_to_hex,
    new_blinding_factor,
    new_uuid,
    sign_blinded,
    unblind,
)
from .contract import ElectionContract, seal_ballot
from .errors import (
    CheckFailed,
    DuplicateAddress,
    NoSignature,
    NonUnit,
    OutOfWindow,
    SignRefused,
)
from .ledger import Account, Ledger, create_account, derive_address
from .rng import as_rng


class PermissionList:
    """Address -> remaining submission budget. Budgets only ever decrease."""

    def __init__(self, entries: list[tuple[bytes, int]]):
        seen = set()
        for address, chances in entries:
            if address in seen:
                raise DuplicateAddress(f"address {address.hex()} listed twice")
            if chances < 1:
                raise ValueError(f"chances must be >= 1, got {chances}")
            seen.add(address)
        self._chances = {address: chances for address, chances in entries}
        self.initial_total = sum(c for _, c in entries)

    def chance(self, address: bytes) -> int:
        return self._chances.get(address, 0)

    def decrement(self, address: bytes) -> None:
        if self._chances.get(address, 0) < 1:
            raise ValueError("no budget left to decrement")
        self._chances[address] -= 1

    def total(self) -> int:
        return sum(self._chances.values())


class Organizer:
    """Holds the signing key, the permission list, and the sign-stage loop."""

    def __init__(self, key: KeyPair, account: Account, sealing_key: KeyPair | None = None):
        self.key = key
        self.account = account
        self.sealing_key = sealing_key
        self.permissions: PermissionList | None = None
        self.contract_address: bytes | None = None
        self.issued = 0  # non-zero signatures handed out
        self._cursor = 0  # first log index not yet scanned for requests
        self._windows: tuple[int, int] | None = None

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
        sealed: bool = False,
    ) -> bytes:
        """Deploy the contract and freeze the permission list."""
        self.permissions = PermissionList(voters)
        if sealed and self.sealing_key is None:
            raise ValueError("sealed election requires a sealing keypair")
        deploy = messages.Deploy(
            n=self.key.n,
            e=self.key.e,
            st=st,
            ct=ct,
            et=et,
            sealed=sealed,
            sealing_n=self.sealing_key.n if sealed else None,
            sealing_e=self.sealing_key.e if sealed else None,
        )
        receipt = ledger.submit(self.account, None, deploy)
        self.contract_address = receipt.result
        self._windows = (st, ct)
        return self.contract_address

    def decide_sign(self, sender: bytes, blinded: int, clock: int) -> int:
        """Sign-or-refuse: listed sender with budget gets blinded^d, else 0."""
        if self._windows is None:
            raise RuntimeError("setup() has not run")
        st, ct = self._windows
        if not st <= clock < ct:
            raise OutOfWindow(f"sign request at clock {clock}, window [{st}, {ct})")
        if self.permissions.chance(sender) > 0:
            self.permissions.decrement(sender)
            self.issued += 1
            return sign_blinded(blinded, self.key)
        return REFUSED

    def process_requests(self, ledger: Ledger) -> int:
        """Answer every unanswered signing request addressed to us."""
        answered = 0
        log = ledger.log
        while self._cursor < len(log):
            tx = log[self._cursor]
            self._cursor += 1
            if tx.recipient != self.address or not isinstance(
                tx.payload, messages.SignRequest
            ):
                continue
            response = self.decide_sign(tx.sender, tx.payload.blinded, ledger.clock)
            ledger.submit(
                self.account,
                tx.sender,
                messages.SignResponse(blinded=tx.payload.blinded, signed_blinded=response),
            )
            answered += 1
        return answered

    def publish_result(self, ledger: Ledger) -> None:
        """Reveal the sealing private key on-ledger (sealed elections only)."""
        ledger.submit(
            self.account,
            self.contract_address,
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
    pk: PublicKey
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
        pk=pk,
        blinded=blind(ballot_digest(payload, uuid), r, pk),
    )


def voter_obtain_signature(
    state: VoterState,
    ledger: Ledger,
    contract_address: bytes,
    organizer: Organizer,
) -> VoterState:
    """Sign stage: request, collect the response, check it on-contract, unblind.

    Raises SignRefused on the sentinel answer and CheckFailed when the
    contract disagrees with the organizer's signature; the latter is the
    cue for the out-of-band dispute the protocol leaves unspecified.
    """
    request = ledger.submit(
        state.eligible_account, organizer.address, messages.SignRequest(state.blinded)
    )
    organizer.process_requests(ledger)
    response_index, response = _find_response(ledger, state, request.index)
    if response.signed_blinded == REFUSED:
        raise SignRefused(f"organizer refused request at index {request.index}")
    check = ledger.submit(
        state.eligible_account,
        contract_address,
        messages.Check(response.signed_blinded, state.blinded),
    )
    if not check.result:
        raise CheckFailed("contract rejected the organizer's signature")
    state.signed_blinded = response.signed_blinded
    state.signed = unblind(response.signed_blinded, state.r, state.pk)
    state.sign_tx_index = response_index
    return state


def _find_response(ledger: Ledger, state: VoterState, after: int):
    for tx in ledger.log[after + 1 :]:
        if (
            tx.recipient == state.eligible_account.address
            and isinstance(tx.payload, messages.SignResponse)
            and tx.payload.blinded == state.blinded
        ):
            return tx.index, tx.payload
    raise SignRefused("organizer never answered")


def voter_cast(
    state: VoterState,
    ledger: Ledger,
    contract_address: bytes,
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
        contract_address,
        messages.Cast(signed=state.signed, ballot=state.ballot, uuid=state.uuid),
    )
    return bool(receipt.result)


def save_voter_state(path: str | Path, state: VoterState) -> None:
    """Persist voter-local state to disk.

    This file is the receipt-freeness liability in the flesh: whoever
    reads it learns r and uuid and can prove how the vote went. The
    simulator writes it anyway because real voters would, too.
    """
    doc = {
        "ballot": state.ballot.hex(),
        "plain_ballot": state.plain_ballot.hex(),
        "r": int_to_hex(state.r),
        "uuid": state.uuid.hex(),
        "eligible_secret": state.eligible_account.auth_secret.hex(),
        "pk_n": int_to_hex(state.pk.n),
        "pk_e": int_to_hex(state.pk.e),
        "blinded": int_to_hex(state.blinded),
        "anon_secret": state.anon_account.auth_secret.hex() if state.anon_account else None,
        "signed_blinded": int_to_hex(state.signed_blinded)
        if state.signed_blinded is not None
        else None,
        "signed": int_to_hex(state.signed) if state.signed is not None else None,
        "sign_tx_index": state.sign_tx_index,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_voter_state(path: str | Path) -> VoterState:
    doc = json.loads(Path(path).read_text())
    eligible_secret = bytes.fromhex(doc["eligible_secret"])
    anon = None
    if doc["anon_secret"] is not None:
        anon_secret = bytes.fromhex(doc["anon_secret"])
        anon = Account(derive_address(anon_secret), anon_secret)
    return VoterState(
        ballot=bytes.fromhex(doc["ballot"]),
        plain_ballot=bytes.fromhex(doc["plain_ballot"]),
        r=hex_to_int(doc["r"]),
        uuid=bytes.fromhex(doc["uuid"]),
        eligible_account=Account(derive_address(eligible_secret), eligible_secret),
        pk=PublicKey(hex_to_int(doc["pk_n"]), hex_to_int(doc["pk_e"])),
        blinded=hex_to_int(doc["blinded"]),
        anon_account=anon,
        signed_blinded=hex_to_int(doc["signed_blinded"])
        if doc["signed_blinded"] is not None
        else None,
        signed=hex_to_int(doc["signed"]) if doc["signed"] is not None else None,
        sign_tx_index=doc["sign_tx_index"],
    )


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


def verify_receipt(receipt: Receipt, ledger: Ledger, contract: ElectionContract) -> bool:
    """Third-party check that a receipt proves a counted vote.

    Three links must all hold: re-blinding (ballot, uuid, r) reproduces the
    blinded value; that value sits in the signing response at the claimed
    ledger index; and the uuid maps to the ballot in the ballot box.
    """
    pk = contract.params.pk
    try:
        reconstructed = blind(ballot_digest(receipt.ballot, receipt.uuid), receipt.r, pk)
    except (NonUnit, ValueError):
        return False
    if reconstructed != receipt.blinded:
        return False
    log = ledger.log
    if not 0 <= receipt.sign_tx_index < len(log):
        return False
    tx = log[receipt.sign_tx_index]
    if not isinstance(tx.payload, messages.SignResponse):
        return False
    if tx.payload.blinded != receipt.blinded or tx.payload.signed_blinded == REFUSED:
        return False
    return contract.ballot_box.get(receipt.uuid) == receipt.ballot
