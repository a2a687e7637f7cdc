"""Election contract state machine.

One deployed contract holds immutable parameters, a ballot box keyed by
uuid, and (in sealed mode) the published decryption key. State changes
only inside ledger execution; every method takes the logical clock so the
phase windows are explicit:

    sign/check window   [st, ct)
    vote window         [ct, et)
    tally, publish      clock >= et

The judge function accepts a cast iff the signature verifies against the
full-domain hash of sha256(ballot) || uuid under the election public key
and the uuid is fresh. Invalid casts return False and leave the box
untouched; only window violations raise.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import messages
from .blindsig import PublicKey, ballot_digest, fdh
from .errors import (
    BadWindow,
    ElectionOpen,
    KeyMismatch,
    NotSealed,
    OutOfWindow,
    ResultSealed,
)
from .rng import as_rng

_NONCE_LEN = 12


@dataclass(frozen=True)
class ElectionParams:
    """Immutable contract configuration fixed at deployment."""

    pk: PublicKey
    st: int
    ct: int
    et: int
    sealed: bool = False
    sealing_pk: PublicKey | None = None

    def __post_init__(self):
        if not self.st < self.ct < self.et:
            raise BadWindow(
                f"need st < ct < et, got st={self.st} ct={self.ct} et={self.et}"
            )
        if self.sealed != (self.sealing_pk is not None):
            raise ValueError("sealing_pk must be present exactly when sealed")
        if self.pk.n < 2 or (self.sealed and self.sealing_pk.n < 2):
            raise ValueError("a modulus must be at least 2")


class ElectionContract:
    """Deterministic contract instance addressed by the ledger."""

    def __init__(self, params: ElectionParams):
        self.params = params
        self.ballot_box: dict[bytes, bytes] = {}
        self.published_sealing_d: int | None = None

    def __eq__(self, other):
        if not isinstance(other, ElectionContract):
            return NotImplemented
        return (
            self.params == other.params
            and self.ballot_box == other.ballot_box
            and self.published_sealing_d == other.published_sealing_d
        )

    # -- call dispatch (used by the ledger) -----------------------------------

    def execute(self, payload: messages.Payload, clock: int):
        if isinstance(payload, messages.Check):
            return self.check_signature(payload.signed_blinded, payload.blinded, clock)
        if isinstance(payload, messages.Cast):
            return self.cast(payload.signed, payload.ballot, payload.uuid, clock)
        if isinstance(payload, messages.Publish):
            return self.publish_key(payload.n, payload.d, clock)
        if isinstance(payload, messages.Tally):
            return self.tally(clock)
        raise TypeError(f"contract cannot execute payload {payload!r}")

    # -- operations ------------------------------------------------------------

    def check_signature(self, signed_blinded: int, blinded: int, clock: int) -> bool:
        """True iff signed_blinded^e mod n recovers the blinded value."""
        p = self.params
        if not p.st <= clock < p.ct:
            raise OutOfWindow(f"check at clock {clock}, window [{p.st}, {p.ct})")
        return pow(signed_blinded, p.pk.e, p.pk.n) == blinded

    def cast(self, signed: int, ballot: bytes, uuid: bytes, clock: int) -> bool:
        """Judge a ballot; accepted entries go into the box keyed by uuid."""
        p = self.params
        if not p.ct <= clock < p.et:
            raise OutOfWindow(f"cast at clock {clock}, window [{p.ct}, {p.et})")
        if len(uuid) != 16 or uuid in self.ballot_box:
            return False
        expected = fdh(ballot_digest(ballot, uuid), p.pk.n)
        if pow(signed, p.pk.e, p.pk.n) != expected:
            return False
        self.ballot_box[uuid] = ballot
        return True

    def publish_key(self, n: int, d: int, clock: int) -> None:
        """Record the sealing private exponent once the vote window closed."""
        p = self.params
        if not p.sealed:
            raise NotSealed("election has no sealed result")
        if clock < p.et:
            raise ElectionOpen(f"publish at clock {clock}, vote ends at {p.et}")
        spk = p.sealing_pk
        if n != spk.n or pow(pow(2, spk.e, spk.n), d, spk.n) != 2:
            raise KeyMismatch("private exponent does not invert the sealing key")
        self.published_sealing_d = d

    def tally(self, clock: int) -> Counter:
        """The on-chain tally: :meth:`count`, once the vote window closed."""
        if clock < self.params.et:
            raise ElectionOpen(f"tally at clock {clock}, vote ends at {self.params.et}")
        return self.count()

    def count(self) -> Counter:
        """Multiset of stored ballots, decrypted in sealed mode; no window."""
        p = self.params
        if not p.sealed:
            return Counter(self.ballot_box.values())
        if self.published_sealing_d is None:
            raise ResultSealed("sealing key not published")
        return Counter(
            unseal_ballot(entry, p.sealing_pk.n, self.published_sealing_d)
            for entry in self.ballot_box.values()
        )


# --- sealed-mode ballot encryption --------------------------------------------
# Randomized hybrid scheme: a fresh secret x in [1, n) is wrapped as
# x^e mod n, its hash keys AES-GCM over the ballot bytes. Fresh x and
# nonce per ballot keep equal ballots indistinguishable on the ledger.

def _kem_key(x: int, nbytes: int) -> bytes:
    return hashlib.sha256(b"kem:" + x.to_bytes(nbytes, "big")).digest()


def seal_ballot(ballot: bytes, sealing_pk: PublicKey, seed) -> bytes:
    rng = as_rng(seed)
    nbytes = (sealing_pk.n.bit_length() + 7) // 8
    x = rng.randrange(1, sealing_pk.n)
    wrapped = pow(x, sealing_pk.e, sealing_pk.n).to_bytes(nbytes, "big")
    nonce = rng.randbytes(_NONCE_LEN)
    body = AESGCM(_kem_key(x, nbytes)).encrypt(nonce, ballot, None)
    return wrapped + nonce + body


def unseal_ballot(sealed: bytes, n: int, d: int) -> bytes:
    nbytes = (n.bit_length() + 7) // 8
    if len(sealed) < nbytes + _NONCE_LEN + 16:
        raise ValueError("sealed ballot too short")
    wrapped = int.from_bytes(sealed[:nbytes], "big")
    nonce = sealed[nbytes : nbytes + _NONCE_LEN]
    body = sealed[nbytes + _NONCE_LEN :]
    x = pow(wrapped, d, n)
    try:
        return AESGCM(_kem_key(x, nbytes)).decrypt(nonce, body, None)
    except InvalidTag:
        raise ValueError("sealed ballot does not decrypt under this key") from None


def hex_tally(tally: Counter) -> dict[str, int]:
    """Ballot payload hex -> count, in hex order."""
    return dict(sorted((messages.bytes_to_field(b), c) for b, c in tally.items()))
