"""Deterministic single-node ledger.

Accounts are secret-derived addresses; possession of the secret is the
whole authentication story. Transactions enter an append-only log under a
lock (the serialization point), execute synchronously against deployed
contracts, and carry a logical timestamp that never decreases along the
log. There is no consensus, gas or forking: immutability is checked by
exporting the log and replaying it into identical contract state.

Wire format, one transaction per line:

    index timestamp sender_hex recipient_hex|create kind field...

index and timestamp are decimal; addresses are 40 lowercase hex chars;
payload fields follow the codecs in ``messages``.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass

from . import messages
from .blindsig import PublicKey
from .contract import ElectionContract, ElectionParams
from .errors import AuthFailure, ClockViolation, ParseError, Redeploy, ReplayDivergence
from .rng import as_rng

ADDRESS_LEN = 20


@dataclass(frozen=True)
class Account:
    address: bytes
    auth_secret: bytes


def derive_address(auth_secret: bytes) -> bytes:
    return hashlib.sha256(b"addr:" + auth_secret).digest()[:ADDRESS_LEN]


def create_account(seed: int | random.Random) -> Account:
    """Fresh account; the address is a pure function of the secret."""
    secret = as_rng(seed).randbytes(32)
    return Account(address=derive_address(secret), auth_secret=secret)


def derive_contract_address(creator: bytes, index: int) -> bytes:
    return hashlib.sha256(b"contract:" + creator + index.to_bytes(8, "big")).digest()[
        :ADDRESS_LEN
    ]


@dataclass(frozen=True)
class Transaction:
    index: int
    timestamp: int
    sender: bytes
    recipient: bytes | None  # None = contract creation
    payload: messages.Payload


@dataclass(frozen=True)
class TxReceipt:
    index: int
    result: object


class Ledger:
    """Ordered transaction log plus the registry of deployed contracts."""

    def __init__(self):
        self._log: list[Transaction] = []
        self._results: list[object] = []
        self._clock = 0
        self._contracts: dict[bytes, ElectionContract] = {}
        self._lock = threading.Lock()

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def log(self) -> tuple[Transaction, ...]:
        return tuple(self._log)

    @property
    def results(self) -> tuple:
        """Execution result per log index (not part of the wire format)."""
        return tuple(self._results)

    @property
    def contracts(self) -> dict[bytes, ElectionContract]:
        return dict(self._contracts)

    def contract(self, address: bytes) -> ElectionContract:
        return self._contracts[address]

    def advance_clock(self, to: int) -> None:
        with self._lock:
            if to < self._clock:
                raise ClockViolation(f"clock {self._clock} cannot move back to {to}")
            self._clock = to

    def submit(
        self,
        account: Account,
        recipient: bytes | None,
        payload: messages.Payload,
        timestamp: int | None = None,
    ) -> TxReceipt:
        """Authenticate, execute and append atomically.

        A failing execution leaves the log untouched and re-raises; the
        logged history therefore contains only successful transactions.
        """
        with self._lock:
            if derive_address(account.auth_secret) != account.address:
                raise AuthFailure("auth secret does not derive the sender address")
            tx = Transaction(
                index=len(self._log),
                timestamp=self._clock if timestamp is None else timestamp,
                sender=account.address,
                recipient=recipient,
                payload=payload,
            )
            return TxReceipt(index=tx.index, result=self._apply(tx))

    def _apply(self, tx: Transaction):
        """Execute one transaction and append it; a failure appends nothing."""
        if tx.timestamp < self._clock:
            raise ClockViolation(f"timestamp {tx.timestamp} behind clock {self._clock}")
        result = self._execute(tx)
        self._clock = tx.timestamp
        self._log.append(tx)
        self._results.append(result)
        return result

    def _execute(self, tx: Transaction):
        if tx.recipient is None:
            return self._deploy(tx)
        if tx.recipient in self._contracts:
            return self._contracts[tx.recipient].execute(tx.payload, tx.timestamp)
        return None  # plain account-to-account message

    def _deploy(self, tx: Transaction) -> bytes:
        payload = tx.payload
        if not isinstance(payload, messages.Deploy):
            raise TypeError("contract creation requires a deploy payload")
        address = derive_contract_address(tx.sender, tx.index)
        if address in self._contracts:
            raise Redeploy(f"contract address {address.hex()} already taken")
        params = ElectionParams(
            pk=PublicKey(payload.n, payload.e),
            st=payload.st,
            ct=payload.ct,
            et=payload.et,
            sealed=payload.sealed,
            sealing_pk=(
                PublicKey(payload.sealing_n, payload.sealing_e)
                if payload.sealed
                else None
            ),
        )
        self._contracts[address] = ElectionContract(params)
        return address

    # -- transcript export / import -------------------------------------------

    def export(self) -> str:
        return export_log(self._log)


def export_log(transactions) -> str:
    lines = []
    for tx in transactions:
        recipient = "create" if tx.recipient is None else tx.recipient.hex()
        payload = " ".join(messages.encode_payload(tx.payload))
        lines.append(f"{tx.index} {tx.timestamp} {tx.sender.hex()} {recipient} {payload}\n")
    return "".join(lines)


def import_log(text: str) -> list[Transaction]:
    """Parse a transcript; a bad line raises ParseError with its index."""
    transactions = []
    for pos, line in enumerate(text.splitlines()):
        try:
            index, timestamp, sender, recipient, kind, *fields = line.split(" ")
            sender = bytes.fromhex(sender)
            recipient = None if recipient == "create" else bytes.fromhex(recipient)
            if len(sender) != ADDRESS_LEN or (
                recipient is not None and len(recipient) != ADDRESS_LEN
            ):
                raise ValueError("malformed address")
            payload = messages.decode_payload(kind, fields)
            transactions.append(
                Transaction(int(index), int(timestamp), sender, recipient, payload)
            )
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {pos + 1}: {exc}", index=pos) from exc
    return transactions


def replay(transactions, expected_results=None) -> Ledger:
    """Re-execute an exported log on a fresh ledger.

    Senders are taken on faith (secrets never leave the wire format).
    Structural breaks raise ReplayDivergence with the first bad index;
    when the live run's receipt results are supplied, the first result
    mismatch is reported the same way.
    """
    transactions = list(transactions)
    if expected_results is not None and len(expected_results) != len(transactions):
        raise ReplayDivergence(
            f"log has {len(transactions)} entries, expected {len(expected_results)}",
            index=min(len(expected_results), len(transactions)),
        )
    fresh = Ledger()
    for pos, tx in enumerate(transactions):
        if tx.index != pos:
            raise ReplayDivergence(
                f"index {tx.index} at position {pos}", index=pos
            )
        try:
            result = fresh._apply(tx)
        except Exception as exc:
            raise ReplayDivergence(
                f"execution failed at index {pos}: {exc}", index=pos
            ) from exc
        if expected_results is not None and result != expected_results[pos]:
            raise ReplayDivergence(
                f"result mismatch at index {pos}: {result!r} != {expected_results[pos]!r}",
                index=pos,
            )
    return fresh
