"""Deterministic single-node ledger.

Accounts are secret-derived addresses; possession of the secret is the
whole authentication story. Transactions enter an append-only log under a
lock (the serialization point), execute synchronously against the one
election contract, and carry a logical timestamp that never decreases
along the log. There is no consensus, gas or forking: immutability is
checked by exporting the log and replaying it into identical contract
state.

Wire format, one transaction per line:

    index timestamp sender_hex recipient_hex|create kind field...

index and timestamp are decimal without sign or leading zero; addresses
are 40 lowercase hex chars; ``messages`` holds ``Transaction``, the payload
codecs and the line grammar. Every line ends in ``\n`` and fields are
separated by one space. Only that form parses, so each log has one transcript.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass

from . import messages
from .contract import ElectionContract
from .errors import AuthFailure, ClockViolation, ParseError, Redeploy, ReplayDivergence
from .messages import Transaction
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
class TxReceipt:
    index: int
    result: object


class Ledger:
    """Ordered transaction log plus the one election contract it holds.

    ``contract`` and ``contract_address`` are None until the deploy, and a
    second deploy raises Redeploy. Only a replay of a run's own transcript
    has ``recorded``, the live contract, which the contract deployed here
    is handed (see :class:`ElectionContract`).
    """

    def __init__(self, recorded: ElectionContract | None = None):
        self._log: list[Transaction] = []
        self._results: list[object] = []
        self._clock = 0
        self.contract: ElectionContract | None = None
        self.contract_address: bytes | None = None
        self._recorded = recorded
        self._lock = threading.Lock()

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def log(self) -> tuple[Transaction, ...]:
        """A copy of the whole log; :meth:`entry` and ``len`` do not copy."""
        return tuple(self._log)

    def __len__(self) -> int:
        return len(self._log)

    def entry(self, index: int) -> Transaction:
        return self._log[index]

    @property
    def results(self) -> tuple:
        """Execution result per log index (not part of the wire format)."""
        return tuple(self._results)

    def advance_clock(self, to: int) -> None:
        with self._lock:
            if to < self._clock:
                raise ClockViolation(f"clock {self._clock} cannot move back to {to}")
            self._clock = to

    def submit(
        self, account: Account, recipient: bytes | None, payload: messages.Payload
    ) -> TxReceipt:
        """Authenticate, stamp with the clock, execute and append atomically.

        A failing execution leaves the log untouched and re-raises; the
        logged history therefore contains only successful transactions.
        """
        with self._lock:
            if derive_address(account.auth_secret) != account.address:
                raise AuthFailure("auth secret does not derive the sender address")
            tx = Transaction(
                index=len(self._log),
                timestamp=self._clock,
                sender=account.address,
                recipient=recipient,
                payload=payload,
            )
            return TxReceipt(index=tx.index, result=self._apply(tx))

    def _apply(self, tx: Transaction):
        """Execute one transaction and append it; a failure appends nothing."""
        # submit stamps the clock; only a replayed transcript can regress
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
        if tx.recipient == self.contract_address:
            return self.contract.execute(tx.payload, tx.timestamp)
        if tx.payload.kind not in ("sign_request", "sign_response"):
            raise TypeError(f"a {tx.payload.kind} payload cannot go to an account")
        return None  # plain account-to-account message

    def _deploy(self, tx: Transaction) -> bytes:
        if not isinstance(tx.payload, messages.Deploy):
            raise TypeError("contract creation requires a deploy payload")
        if self.contract is not None:
            raise Redeploy("the ledger already holds its election contract")
        self.contract = ElectionContract(tx.payload, recorded=self._recorded)
        self.contract_address = derive_contract_address(tx.sender, tx.index)
        return self.contract_address

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
    """Parse a transcript that is exactly as :func:`export_log` writes it.

    Each line must match the line grammar of ``messages``, so ``export_log``
    of the result gives back ``text``. The first line that does not raises
    ParseError with its index, naming its first bad field; a last line
    without its ``\n`` is a bad line.
    """
    match, convert = messages.grammar()
    transactions, end = [], 0
    try:
        # one match per line, at its start: a search would rescan a bad
        # line from each of its characters, quadratic in its length
        while line := match(text, end):
            transactions.append(convert[line.lastindex](line))
            end = line.end()
        if end == len(text):
            return transactions
        # the grammar stops at this line: name its first bad field
        stop = text.find("\n", end)
        if stop < 0:
            raise ParseError("no final newline")
        index, timestamp, sender, recipient, kind, *fields = text[end:stop].split(" ")
        messages.check(messages.ENVELOPE, (index, timestamp, sender, recipient))
        messages.decode_payload(kind, fields)
        # not reached while the field checks state the grammar's language
        raise ParseError("not a transaction")
    except (ParseError, ValueError) as exc:
        pos = len(transactions)
        raise ParseError(f"line {pos + 1}: {exc}", index=pos) from exc


def replay(transactions, expected_results=None, recorded=None) -> Ledger:
    """Re-execute an exported log on a fresh ledger.

    Senders are taken on faith (secrets never leave the wire format).
    Structural breaks raise ReplayDivergence with the first bad index;
    when the live run's receipt results are supplied, the first result
    mismatch is reported the same way; a second deploy diverges at its
    index. An OSError is a failure of the machine, not of the log, and
    propagates. ``recorded`` is the live contract of a run's own transcript
    (see :class:`Ledger`).
    """
    transactions = list(transactions)
    if expected_results is not None and len(expected_results) != len(transactions):
        raise ReplayDivergence(
            f"log has {len(transactions)} entries, expected {len(expected_results)}",
            index=min(len(expected_results), len(transactions)),
        )
    fresh = Ledger(recorded)
    for pos, tx in enumerate(transactions):
        if tx.index != pos:
            raise ReplayDivergence(
                f"index {tx.index} at position {pos}", index=pos
            )
        try:
            result = fresh._apply(tx)
        except OSError:
            raise
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
