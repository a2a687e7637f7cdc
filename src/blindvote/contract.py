"""Election contract state machine.

The one contract a ledger holds has immutable parameters (its deploy
payload), a ballot box keyed by uuid, and (in sealed mode) the published
decryption key. State changes only inside ledger execution; every method
takes the logical clock so the phase windows are explicit:

    sign/check window   [st, ct)
    vote window         [ct, et)
    tally, publish      clock >= et

The judge function accepts a cast iff the signature lies in [1, n),
verifies against the full-domain hash of sha256(ballot) || uuid under the
election public key, and the uuid is fresh. Invalid casts return False
and leave the box untouched; only window violations raise. Requiring
[1, n) gives each signature exactly one wire encoding.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import messages
from .blindsig import (
    UUID_LEN,
    KeyPair,
    PublicKey,
    ballot_digest,
    crt_pow,
    factor_modulus,
    verify,
)
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


@dataclass
class ElectionContract:
    """The ledger's deterministic election contract; its parameters are
    the deploy payload, checked when the ledger applies it."""

    params: messages.Deploy
    ballot_box: dict[bytes, bytes] = field(default_factory=dict)
    published_key: KeyPair | None = None
    # uuid -> KEM secret x that another count of this box recorded, handed in
    # by a replay of the same transcript (see count)
    recorded: dict[bytes, int] = field(default_factory=dict, compare=False, repr=False)
    # the sealing key the live contract published, handed in likewise;
    # publish_key takes it on the same (n, e, d) instead of factoring n again
    recorded_key: KeyPair | None = field(default=None, compare=False, repr=False)
    # uuid -> (ballot, KEM secret x) of each entry opened under published_key,
    # None when spoiled; neither the entries nor the key ever change, so each
    # entry is opened at most once
    _opened: dict[bytes, tuple[bytes, int] | None] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self):
        p = self.params
        if not p.st < p.ct < p.et:
            raise BadWindow(f"need st < ct < et, got st={p.st} ct={p.ct} et={p.et}")
        if p.n < 2 or (p.sealed and p.sealing_n < 2):
            raise ValueError("a modulus must be at least 2")

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
        """True iff signed_blinded^e mod n recovers the blinded value.

        Either value outside [1, n) fails the check.
        """
        p = self.params
        if not p.st <= clock < p.ct:
            raise OutOfWindow(f"check at clock {clock}, window [{p.st}, {p.ct})")
        if not (0 < signed_blinded < p.n and 0 < blinded < p.n):
            return False
        return p.pk.power(signed_blinded) == blinded

    def cast(self, signed: int, ballot: bytes, uuid: bytes, clock: int) -> bool:
        """Judge a ballot; accepted entries go into the box keyed by uuid."""
        p = self.params
        if not p.ct <= clock < p.et:
            raise OutOfWindow(f"cast at clock {clock}, window [{p.ct}, {p.et})")
        if len(uuid) != UUID_LEN or uuid in self.ballot_box or not 0 < signed < p.n:
            return False
        if not verify(signed, ballot_digest(ballot, uuid), p.pk):
            return False
        self.ballot_box[uuid] = ballot
        return True

    def publish_key(self, n: int, d: int, clock: int) -> None:
        """Record the sealing private key, once, after the vote window closed.

        The exponent must invert the sealing key on the base 2 and, with the
        deployed e, factor n, which the CRT decryption needs. For odd n
        factor_modulus checks both (2^(ed - 1) = 1 mod n), so a publish costs
        one factoring walk on one Montgomery context; only an even n, where 2
        is no unit, needs a separate check, by ``pow``. A second publication is
        refused. After every check, a ``recorded_key`` with the same (n, e, d)
        is taken instead of factoring. A failed native power raises OSError.
        """
        p = self.params
        if not p.sealed:
            raise NotSealed("election has no sealed result")
        if clock < p.et:
            raise ElectionOpen(f"publish at clock {clock}, vote ends at {p.et}")
        if self.published_key is not None:
            raise KeyMismatch("sealing key already published")
        e = p.sealing_e
        if n != p.sealing_n or (n % 2 == 0 and pow(pow(2, e, n), d, n) != 2):
            raise KeyMismatch("private exponent does not invert the sealing key")
        try:
            key = self.recorded_key
            if key is None or (key.n, key.e, key.d) != (n, e, d):
                key = KeyPair(n, e, d, *factor_modulus(n, e, d))
            self.published_key = key
        except ValueError:
            raise KeyMismatch("private exponent does not invert the sealing key") from None

    def tally(self, clock: int) -> Counter:
        """The on-chain tally: :meth:`count`, once the vote window closed."""
        if clock < self.params.et:
            raise ElectionOpen(f"tally at clock {clock}, vote ends at {self.params.et}")
        return self.count()

    def count(self) -> Counter:
        """Multiset of stored ballots, decrypted in sealed mode; no window.

        A sealed entry that does not unseal is spoiled and not counted: the
        organizer signs blind, so any eligible voter can get a payload that
        is no ciphertext accepted. An entry with a ``recorded`` secret that
        checks out is opened with it instead of being decrypted.
        """
        if not self.params.sealed:
            return Counter(self.ballot_box.values())
        key = self.published_key
        if key is None:
            raise ResultSealed("sealing key not published")
        for uuid, sealed in self.ballot_box.items():
            if uuid not in self._opened:
                self._opened[uuid] = _open_entry(sealed, key, self.recorded.get(uuid))
        return Counter(out[0] for out in self._opened.values() if out is not None)

    def kem_secrets(self) -> dict[bytes, int]:
        """uuid -> KEM secret of every entry opened so far.

        For replays of this contract's own transcript: a replayed contract
        handed these opens each entry with one public-exponent power.
        """
        return {uuid: out[1] for uuid, out in self._opened.items() if out is not None}


# --- sealed-mode ballot encryption --------------------------------------------
# Randomized hybrid scheme, RSA-KEM (Shoup, ISO/IEC 18033-2) with AES-GCM: a
# fresh secret x in [1, n) is wrapped as x^e mod n, its hash keys AES-GCM over
# the ballot bytes. Fresh x and nonce per ballot keep equal ballots
# indistinguishable on the ledger.

def _kem_key(x: int, nbytes: int) -> bytes:
    return hashlib.sha256(b"kem:" + x.to_bytes(nbytes, "big")).digest()


def seal_ballot(ballot: bytes, sealing_pk: PublicKey, seed) -> bytes:
    rng = as_rng(seed)
    nbytes = (sealing_pk.n.bit_length() + 7) // 8
    x = rng.randrange(1, sealing_pk.n)
    wrapped = sealing_pk.power(x).to_bytes(nbytes, "big")
    nonce = rng.randbytes(_NONCE_LEN)
    body = AESGCM(_kem_key(x, nbytes)).encrypt(nonce, ballot, None)
    return wrapped + nonce + body


def _wrapped(sealed: bytes, n: int) -> int:
    """The wrapped value of ``sealed``; ValueError when it cannot be one.

    The wrapped value must lie in [1, n), so each ciphertext has one
    encoding: wrapped + n would otherwise decrypt like wrapped.
    """
    nbytes = (n.bit_length() + 7) // 8
    if len(sealed) < nbytes + _NONCE_LEN + 16:
        raise ValueError("sealed ballot too short")
    wrapped = int.from_bytes(sealed[:nbytes], "big")
    if not 0 < wrapped < n:
        raise ValueError("wrapped value outside [1, n)")
    return wrapped


def _open(sealed: bytes, x: int, n: int) -> bytes:
    """The AES-GCM step: the ballot sealed under KEM secret x."""
    nbytes = (n.bit_length() + 7) // 8
    nonce = sealed[nbytes : nbytes + _NONCE_LEN]
    body = sealed[nbytes + _NONCE_LEN :]
    try:
        return AESGCM(_kem_key(x, nbytes)).decrypt(nonce, body, None)
    except InvalidTag:
        raise ValueError("sealed ballot does not decrypt under this key") from None


def unseal_ballot(sealed: bytes, key: KeyPair) -> tuple[bytes, int]:
    """The ballot inside ``sealed`` and its KEM secret x = wrapped^d mod n.

    ValueError when it does not unseal.
    """
    x = crt_pow(_wrapped(sealed, key.n), key)
    return _open(sealed, x, key.n), x


def _open_entry(sealed: bytes, key: KeyPair, x: int | None) -> tuple[bytes, int] | None:
    """:func:`unseal_ballot` of one box entry, None when it is spoiled.

    A recorded secret x opens the entry when 0 < x < n and x^e equals its
    wrapped value mod n, one public-exponent power: x -> x^e mod n permutes
    Z_n for an RSA key, so that x is the one secret decrypting gives.
    """
    try:
        wrapped = _wrapped(sealed, key.n)
    except ValueError:
        wrapped = None  # no secret opens it; unseal_ballot spoils it
    try:
        if x is not None and 0 < x < key.n and key.public.power(x) == wrapped:
            return _open(sealed, x, key.n), x
        return unseal_ballot(sealed, key)
    except ValueError:
        return None


def hex_tally(tally: Counter) -> dict[str, int]:
    """Ballot payload hex -> count, in hex order."""
    return dict(sorted((messages.bytes_to_field(b), c) for b, c in tally.items()))
