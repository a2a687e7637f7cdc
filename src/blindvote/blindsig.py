"""RSA blind signatures over full-domain-hashed ballot digests.

The signing flow follows Chaum's construction:

    digest  = sha256(ballot) || uuid            uuid: 16 bytes, voter-local
    m       = FDH(digest)    in [1, n)
    blinded = m * r^e mod n                     r: random unit, voter-local
    sb      = blinded^d mod n                   signer never sees m
    sig     = sb * r^-1 mod n  =  m^d mod n
    valid   iff  sig^e mod n == FDH(digest)

The full-domain hash maps the 48-byte digest into the signing domain for
any modulus size and blocks the multiplicative forgeries that raw RSA
would allow. All modular values are plain Python ints. The value 0 is the
reserved refusal sentinel: FDH outputs and blinding factors are drawn
from [1, n), so 0 can never be a legitimate signature or message.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import NonUnit, RefusalSentinel
from .rng import as_rng

HASH_LEN = 32
UUID_LEN = 16

#: Signer's answer when it declines to sign.
REFUSED = 0

_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)


@dataclass(frozen=True)
class PublicKey:
    n: int
    e: int


@dataclass(frozen=True)
class KeyPair:
    n: int
    e: int
    d: int

    @property
    def public(self) -> PublicKey:
        return PublicKey(self.n, self.e)


# --- key generation ----------------------------------------------------------

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(1000)


def _is_probable_prime(x: int, rng: random.Random) -> bool:
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    # Miller-Rabin: fixed bases are deterministic below 3.3e24, extra
    # rng-chosen bases cover larger candidates.
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    if x.bit_length() > 80:
        bases += [rng.randrange(2, x - 1) for _ in range(28)]
    for a in bases:
        a %= x
        if a in (0, 1, x - 1):
            continue
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(cand, rng):
            return cand


def keypair_from_primes(p: int, q: int, e: int | None = None) -> KeyPair:
    """Assemble a keypair from two distinct primes.

    The private exponent is e^-1 mod phi(n); the classic textbook
    parameters (p=61, q=53, e=17) therefore give n=3233, d=2753.
    """
    if p == q:
        raise ValueError("p and q must be distinct")
    n = p * q
    phi = (p - 1) * (q - 1)
    if e is None:
        for cand in _PUBLIC_EXPONENTS:
            if math.gcd(cand, phi) == 1:
                e = cand
                break
        else:
            raise ValueError("no usable public exponent for these primes")
    elif math.gcd(e, phi) != 1:
        raise ValueError("public exponent shares a factor with phi(n)")
    return KeyPair(n=n, e=e, d=pow(e, -1, phi))


def keygen(bits: int, seed: int | random.Random) -> KeyPair:
    """Deterministic RSA key generation; ``bits`` is the modulus size."""
    if bits < 16:
        raise ValueError(f"key size too small: {bits} bits (minimum 16)")
    rng = as_rng(seed)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q or (p * q).bit_length() != bits:
            continue
        try:
            return keypair_from_primes(p, q)
        except ValueError:
            continue


#: Enumeration-scale parameter set used throughout the test suite.
TOY_KEYPAIR = keypair_from_primes(61, 53, 17)


# --- message encoding ---------------------------------------------------------

def hash_ballot(ballot: bytes) -> bytes:
    """sha256 of the raw ballot payload."""
    return hashlib.sha256(ballot).digest()


def ballot_digest(ballot: bytes, uuid: bytes) -> bytes:
    """Hash of the ballot with the voter's one-time uuid appended."""
    if len(uuid) != UUID_LEN:
        raise ValueError(f"uuid must be {UUID_LEN} bytes, got {len(uuid)}")
    return hash_ballot(ballot) + uuid


def fdh(digest: bytes, n: int) -> int:
    """Full-domain hash of ``digest`` into [1, n).

    Counter-indexed sha256 blocks are concatenated to the byte length of
    n, truncated to its bit length, and rejected until the value lands in
    range. Deterministic in (digest, n).
    """
    if n < 2:
        raise ValueError(f"modulus {n} leaves [1, n) empty")
    nbits = n.bit_length()
    nbytes = (nbits + 7) // 8
    ctr = 0
    while True:
        material = b""
        block = 0
        while len(material) < nbytes:
            material += hashlib.sha256(
                digest + ctr.to_bytes(4, "big") + block.to_bytes(4, "big")
            ).digest()
            block += 1
        cand = int.from_bytes(material[:nbytes], "big") >> (8 * nbytes - nbits)
        if 1 <= cand < n:
            return cand
        ctr += 1


# --- the four signature moves --------------------------------------------------

def new_uuid(seed: int | random.Random) -> bytes:
    return as_rng(seed).randbytes(UUID_LEN)


def new_blinding_factor(key: PublicKey, seed: int | random.Random) -> int:
    """Random unit in [1, n)."""
    rng = as_rng(seed)
    while True:
        r = rng.randrange(1, key.n)
        if math.gcd(r, key.n) == 1:
            return r


def blind(digest: bytes, r: int, key: PublicKey) -> int:
    """FDH(digest) * r^e mod n."""
    if math.gcd(r, key.n) != 1:
        raise NonUnit(f"blinding factor {r} is not a unit mod n")
    return fdh(digest, key.n) * pow(r, key.e, key.n) % key.n


def sign_blinded(blinded: int, key: KeyPair) -> int:
    """blinded^d mod n. The signer sees only the blinded value."""
    return pow(blinded, key.d, key.n)


def unblind(signed_blinded: int, r: int, key: PublicKey) -> int:
    """Divide the blinding factor back out: signed_blinded * r^-1 mod n."""
    if signed_blinded == REFUSED:
        raise RefusalSentinel("signer refused (sentinel 0)")
    try:
        r_inv = pow(r, -1, key.n)
    except ValueError:
        raise NonUnit(f"blinding factor {r} is not invertible mod n") from None
    return signed_blinded * r_inv % key.n


def verify(signed: int, digest: bytes, key: PublicKey) -> bool:
    """True iff signed^e mod n equals FDH(digest)."""
    return pow(signed, key.e, key.n) == fdh(digest, key.n)


# --- serialization --------------------------------------------------------------
# Integers travel as lowercase big-endian hex without leading zeros; byte
# strings as plain hex. Key files are JSON documents with fields n, e and,
# for private keys only, d.

def int_to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers do not serialize")
    return format(value, "x")


def hex_to_int(text: str) -> int:
    """Parse an integer in exactly the form int_to_hex writes.

    That is ``0|[1-9a-f][0-9a-f]*``: no sign, ``0x``, ``_``, whitespace,
    upper case or leading zero.
    """
    value = int(text, 16)
    if value < 0 or format(value, "x") != text:
        raise ValueError(f"not a canonical hex integer: {text!r}")
    return value


def save_key(path: str | Path, key: KeyPair | PublicKey) -> None:
    doc = {"n": int_to_hex(key.n), "e": int_to_hex(key.e)}
    if isinstance(key, KeyPair):
        doc["d"] = int_to_hex(key.d)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_key(path: str | Path) -> KeyPair | PublicKey:
    doc = json.loads(Path(path).read_text())
    n, e = hex_to_int(doc["n"]), hex_to_int(doc["e"])
    if "d" in doc:
        return KeyPair(n=n, e=e, d=hex_to_int(doc["d"]))
    return PublicKey(n=n, e=e)
