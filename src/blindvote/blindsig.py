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

import functools
import hashlib
import math
import random
import threading
from dataclasses import dataclass, field

from .errors import NonUnit, RefusalSentinel
from .rng import as_rng

UUID_LEN = 16

#: Signer's answer when it declines to sign.
REFUSED = 0

_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)


@dataclass(frozen=True)
class PublicKey:
    n: int
    e: int
    _mont: _Mont = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mont", _Mont(self.n, self.e))

    def power(self, x: int) -> int:
        """x^e mod n."""
        return self._mont.pow(x)


@dataclass(frozen=True)
class KeyPair:
    """RSA key with its primes, larger first, for CRT private-key operations."""

    n: int
    e: int
    d: int
    p: int
    q: int
    # the one public half, whose context serves every power x^e mod n
    public: PublicKey = field(init=False, repr=False, compare=False)
    # (q^-1 mod p, x -> x^dp mod p, x -> x^dq mod q); dp lies in [1, p - 1]
    # and is congruent to d, so x^dp = x^d mod p for every x, multiples of p
    # included (likewise dq)
    _crt: tuple[int, _Mont, _Mont] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 < self.q < self.p or self.p * self.q != self.n:
            raise ValueError("need n = p * q with 1 < q < p")
        dp = (self.d - 1) % (self.p - 1) + 1
        dq = (self.d - 1) % (self.q - 1) + 1
        crt = (pow(self.q, -1, self.p), _Mont(self.p, dp), _Mont(self.q, dq))
        object.__setattr__(self, "public", PublicKey(self.n, self.e))
        object.__setattr__(self, "_crt", crt)


# --- modular exponentiation -----------------------------------------------------

#: Smallest modulus, in bits, at which a power goes to OpenSSL with an
#: exponent at least half as long as the modulus, such as a private one.
#: Measured for the power a key runs (:class:`_Mont`) on a shared 2-vCPU VM
#: (Python 3.11.7, OpenSSL 3.0.19; medians of three runs of 41 interleaved
#: samples), ``pow`` against OpenSSL with a half-length exponent: 5.4 / 5.7
#: us at 56 bits, 8.3 / 6.2 at 64, 9.4 / 4.5 at 72. A throwaway context,
#: ``_Mont(n, s).pow(2)`` with s 16 bits longer than n, breaks even only near
#: 72 bits (12.9 / 17.8 us at 64, 14.8 / 14.3 at 72, 16.2 / 14.4 at 80), so
#: ``pow`` wins below that; only :func:`factor_modulus` on keys under 80 bits
#: sets up a context there, and no workload does. Not a setting.
NATIVE_BITS = 64

#: Smallest modulus, in bits, at which e = 65537 goes to OpenSSL; a shorter
#: exponent needs a longer modulus (:func:`_goes_native`). Same machine,
#: ``pow`` against OpenSSL (us): e = 65537 at 160 bits 5.0 / 4.2, 224 6.2 /
#: 4.4; e = 3 at 832 bits 4.9 / 5.2, 896 5.6 / 5.6, 960 6.2 / 5.9. Set above
#: e = 65537's own crossover, which lies below 160 bits, so that e = 3 goes
#: native from 896 bits, not before its crossover. No short power sets up a
#: context for itself alone: each runs on its key's. Not a setting.
SHORT_EXP_BITS = 224


@functools.cache
def _bn():
    """(libcrypto with its bignum calls declared, ctypes' buffer maker), or None.

    None where the library or a symbol cannot be loaded. Loaded on the
    first call: ``import blindvote`` loads no ctypes. The library is the
    one ``hashlib`` already links, found by its soname.
    """
    import ctypes

    try:
        lib = ctypes.CDLL("libcrypto.so.3")
        ptr, size = ctypes.c_void_p, ctypes.c_int
        for name, restype, argtypes in [
            ("BN_CTX_new", ptr, []),
            ("BN_CTX_free", None, [ptr]),
            ("BN_new", ptr, []),
            ("BN_bin2bn", ptr, [ctypes.c_char_p, size, ptr]),
            ("BN_bn2binpad", size, [ptr, ctypes.c_char_p, size]),
            ("BN_clear_free", None, [ptr]),
            ("BN_MONT_CTX_new", ptr, []),
            ("BN_MONT_CTX_set", size, [ptr, ptr, ptr]),
            ("BN_MONT_CTX_free", None, [ptr]),
            ("BN_mod_exp_mont", size, [ptr, ptr, ptr, ptr, ptr, ptr]),
        ]:
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):  # no such library, or no such symbol
        return None
    return lib, ctypes.create_string_buffer


def _bignum(lib, value: int):
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return lib.BN_bin2bn(raw, len(raw), None)


def _goes_native(bits: int, exp_bits: int) -> bool:
    """Whether OpenSSL beats ``pow``: from NATIVE_BITS on for an exponent half as long as
    the modulus, else once its exp_bits - 1 squarings cost what 65537's do at SHORT_EXP_BITS."""
    return bits >= NATIVE_BITS and (
        2 * exp_bits >= bits or (exp_bits - 1) * bits * bits >= 16 * SHORT_EXP_BITS**2
    )


class _Scratch:
    """A thread's ``BN_CTX`` and operand and result ``BIGNUM``s, freed when the thread ends."""

    __slots__ = ("lib", "ctx", "a", "r")  # BN_mod_exp_mont's names: operand a, result r

    def __init__(self, lib):
        self.lib, self.ctx, self.a, self.r = lib, lib.BN_CTX_new(), lib.BN_new(), lib.BN_new()
        if not (self.ctx and self.a and self.r):
            raise OSError("BN_CTX_new or BN_new failed")  # __del__ frees the rest

    def __del__(self):
        self.lib.BN_clear_free(self.a)
        self.lib.BN_clear_free(self.r)
        self.lib.BN_CTX_free(self.ctx)


class _Mont:
    """x -> x^exp mod mod for one modulus and exponent. If :func:`_goes_native`, in
    OpenSSL, keeping both as ``BIGNUM``s with a ``BN_MONT_CTX``, made at the first power,
    shared read-only by threads, freed with this object, each thread with its own scratch."""

    __slots__ = ("mod", "exp", "_native", "_size", "_made")
    _building = threading.Lock()
    _thread = threading.local()

    def __init__(self, mod: int, exp: int):
        self.mod, self.exp, self._size, self._made = mod, exp, (mod.bit_length() + 7) // 8, None
        # Montgomery form needs an odd modulus: an even one stays on pow
        self._native = mod % 2 == 1 and _goes_native(mod.bit_length(), exp.bit_length())

    def __reduce__(self):
        return _Mont, (self.mod, self.exp)

    def pow(self, base: int) -> int:
        if not self._native or (bn := _bn()) is None:
            return pow(base, self.exp, self.mod)
        lib, buffer = bn
        if (s := getattr(self._thread, "scratch", None)) is None:
            s = self._thread.scratch = _Scratch(lib)
        if self._made is None:
            self._build(lib, s.ctx)
        _, mod, exp, mont = self._made
        raw, out = (base % self.mod).to_bytes(self._size, "big"), buffer(self._size)
        if not lib.BN_bin2bn(raw, self._size, s.a):
            raise OSError("BN_bin2bn failed")
        if lib.BN_mod_exp_mont(s.r, s.a, exp, mod, s.ctx, mont) != 1:
            raise OSError(f"BN_mod_exp_mont failed for a {self.mod.bit_length()}-bit modulus")
        if lib.BN_bn2binpad(s.r, out, self._size) != self._size:
            raise OSError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")

    def _build(self, lib, ctx) -> None:
        with self._building:
            if self._made is not None:  # another thread made them
                return
            made = (lib, _bignum(lib, self.mod), _bignum(lib, self.exp), lib.BN_MONT_CTX_new())
            if not all(made) or lib.BN_MONT_CTX_set(made[3], made[1], ctx) != 1:
                self._free(*made)
                raise OSError(f"BN_MONT_CTX_set failed for a {self.mod.bit_length()}-bit modulus")
            self._made = made

    @staticmethod
    def _free(lib, mod, exp, mont) -> None:
        lib.BN_MONT_CTX_free(mont)
        lib.BN_clear_free(exp)
        lib.BN_clear_free(mod)

    def __del__(self):
        if self._made is not None:
            self._free(*self._made)


# --- key generation ----------------------------------------------------------

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(1000)
#: Product of the primes in (1000, 2^14): one gcd with it screens a large
#: candidate against all of them (Menezes, van Oorschot and Vanstone,
#: Handbook of Applied Cryptography, Note 4.45).
_SCREEN = math.prod(_sieve(1 << 14)[len(_SMALL_PRIMES):])


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
        # after the draws, so a screened-out candidate uses the same rng
        # stream as one that Miller-Rabin rejects, and keys do not change
        if math.gcd(x, _SCREEN) != 1:
            return False
    mont = _Mont(x, d)
    for a in bases:
        a %= x
        if a in (0, 1, x - 1):
            continue
        y = mont.pow(a)
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
    p, q = max(p, q), min(p, q)
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
    return KeyPair(n=n, e=e, d=pow(e, -1, phi), p=p, q=q)


def factor_modulus(n: int, e: int, d: int) -> tuple[int, int]:
    """Recover (p, q), larger first, from a modulus and both its exponents.

    Boneh, "Twenty Years of Attacks on the RSA Cryptosystem" (Notices AMS,
    1999), Fact 1: k = ed - 1 is a multiple of lambda(n), so for a base g
    the sequence g^(k/2^t), ..., g^k mod n ends in 1, and a square root of 1
    met on the way that is not +-1 mod n shares exactly one prime with n.
    Each base works with probability at least 1/2; the bases are the fixed
    small primes, and one that shares a factor with n gives it directly.
    Raises ValueError when no base splits n, and when base 2's sequence ends
    without reaching 1: then 2^(ed - 1) != 1 mod n, so for odd n, where 2 is
    a unit, d does not invert e on the base 2. Every base is raised to k/2^t
    on one :class:`_Mont`, so a walk sets up one Montgomery context.
    """
    k = e * d - 1
    s, t = k, 0
    while s > 0 and s % 2 == 0:
        s //= 2
        t += 1
    if t == 0:  # k odd or not positive: no RSA key has these exponents
        raise ValueError("e * d - 1 must be positive and even")
    mont = _Mont(n, s)
    for g in _SMALL_PRIMES:
        f = math.gcd(g, n)
        if 1 < f < n:
            return max(f, n // f), min(f, n // f)
        x = mont.pow(g)
        for _ in range(t):
            if x in (1, n - 1):
                break
            y = x * x % n
            if y == 1:  # x is a square root of 1 other than +-1
                f = math.gcd(x - 1, n)
                return max(f, n // f), min(f, n // f)
            x = y
        else:
            if g == 2:
                raise ValueError("2^(ed - 1) is not 1 mod n")
    raise ValueError("the exponents do not factor the modulus")


def keygen(bits: int, seed: int | random.Random) -> KeyPair:
    """Deterministic RSA key generation; ``bits`` is the modulus size.

    The key depends on ``seed`` alone. The Miller-Rabin witness powers on
    candidates of NATIVE_BITS or more run in OpenSSL.
    """
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
    return fdh(digest, key.n) * key.power(r) % key.n


def crt_pow(x: int, key: KeyPair) -> int:
    """x^d mod n from x^dp mod p and x^dq mod q (Garner's recombination).

    Equal to ``pow(x, key.d, key.n)`` for every x >= 0 (p and q prime, as
    keygen and factor_modulus give them), at about a third of its cost.
    Both half-size powers run in OpenSSL once the primes reach NATIVE_BITS.
    """
    q_inv, mont_p, mont_q = key._crt
    mp = mont_p.pow(x)
    mq = mont_q.pow(x)
    return mq + (mp - mq) * q_inv % key.p * key.q


def sign_blinded(blinded: int, key: KeyPair) -> int:
    """blinded^d mod n by CRT. The signer sees only the blinded value.

    A result whose e-th power is not ``blinded`` is withheld as REFUSED: a
    CRT signature that is wrong modulo one prime only gives away that
    prime (Boneh, DeMillo and Lipton, EUROCRYPT 1997).
    """
    signed = crt_pow(blinded, key)
    if key.public.power(signed) != blinded:
        return REFUSED
    return signed


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
    return key.power(signed) == fdh(digest, key.n)


# --- serialization --------------------------------------------------------------
# Integers travel as lowercase big-endian hex without leading zeros;
# ``messages.INT`` holds the pattern that reads them back.

def int_to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers do not serialize")
    return format(value, "x")


