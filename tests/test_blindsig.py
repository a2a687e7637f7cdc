"""Blind-signature core: frozen oracle values, algebraic laws, formats.

Expected residues were computed with naive repeated modular
multiplication (no pow()) before the implementation existed:

    7^17 mod 3233           = 2369
    65 * 7^17 mod 3233      = 2034
    65^2753 mod 3233        = 588
    lambda(3233) = lcm(60, 52) = 780, and 17 * 2753 mod 780 = 1
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindvote.blindsig import (
    REFUSED,
    TOY_KEYPAIR,
    KeyPair,
    PublicKey,
    ballot_digest,
    blind,
    fdh,
    hash_ballot,
    hex_to_int,
    int_to_hex,
    keygen,
    keypair_from_primes,
    load_key,
    new_blinding_factor,
    new_uuid,
    save_key,
    sign_blinded,
    unblind,
    verify,
)
from blindvote.errors import NonUnit, RefusalSentinel

TOY = TOY_KEYPAIR
PUB = TOY.public

SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def digest_of(tag: bytes, uuid_byte: int = 0) -> bytes:
    return ballot_digest(tag, bytes([uuid_byte]) * 16)


unit_toy = st.integers(min_value=1, max_value=TOY.n - 1).filter(
    lambda r: math.gcd(r, TOY.n) == 1
)


class TestKeygen:
    def test_textbook_parameters(self):
        kp = keypair_from_primes(61, 53, 17)
        assert (kp.n, kp.e, kp.d) == (3233, 17, 2753)

    def test_private_exponent_inverts_mod_carmichael(self):
        # lambda(3233) = lcm(60, 52) = 780
        assert 17 * 2753 % 780 == 1

    def test_same_seed_same_keypair(self):
        assert keygen(32, 7) == keygen(32, 7)

    def test_different_seeds_differ(self):
        assert keygen(32, 7) != keygen(32, 8)

    def test_rejects_tiny_keys(self):
        with pytest.raises(ValueError):
            keygen(8, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_at_16_bits(self, seed):
        kp = keygen(16, seed)
        assert kp.n.bit_length() == 16
        # small enough to factor by trial division
        p = next(f for f in range(3, kp.n, 2) if kp.n % f == 0)
        q = kp.n // p
        assert p != q
        lam = math.lcm(p - 1, q - 1)
        assert math.gcd(kp.e, lam) == 1
        assert kp.e * kp.d % lam == 1

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            keypair_from_primes(61, 61)

    def test_shared_factor_exponent_rejected(self):
        with pytest.raises(ValueError):
            keypair_from_primes(61, 53, e=15)  # gcd(15, 3120) = 15


class TestHashing:
    def test_empty_input_vector(self):
        assert hash_ballot(b"") == SHA256_EMPTY

    def test_deterministic(self):
        assert hash_ballot(b"ballot") == hash_ballot(b"ballot")

    def test_one_bit_change(self):
        assert hash_ballot(b"ballot") != hash_ballot(b"callot")

    def test_digest_layout(self):
        d = ballot_digest(b"x", b"\x01" * 16)
        assert len(d) == 48
        assert d[:32] == hash_ballot(b"x")
        assert d[32:] == b"\x01" * 16

    def test_digest_rejects_bad_uuid_length(self):
        with pytest.raises(ValueError):
            ballot_digest(b"x", b"\x01" * 15)


class TestFdh:
    def test_deterministic(self):
        d = digest_of(b"a")
        assert fdh(d, TOY.n) == fdh(d, TOY.n)

    def test_range(self):
        for tag in (b"a", b"b", b"c", b""):
            v = fdh(digest_of(tag), TOY.n)
            assert 1 <= v < TOY.n

    def test_uuid_byte_flip_changes_output(self):
        assert fdh(digest_of(b"a", 0), TOY.n) != fdh(digest_of(b"a", 1), TOY.n)

    @given(st.binary(min_size=48, max_size=48))
    @settings(max_examples=50)
    def test_range_large_modulus(self, digest):
        kp = keygen(128, 3)
        assert 1 <= fdh(digest, kp.n) < kp.n


@pytest.mark.parametrize("n", [0, 1])
def test_fdh_rejects_modulus_below_two(n):
    with pytest.raises(ValueError):
        fdh(b"x", n)


class TestBlindSignUnblind:
    def test_blind_with_unit_r_is_fdh(self):
        d = digest_of(b"a")
        assert blind(d, 1, PUB) == fdh(d, TOY.n)

    def test_blind_against_frozen_residue(self):
        # r^e factor pinned by the naive oracle: 7^17 mod 3233 = 2369
        d = digest_of(b"a")
        assert blind(d, 7, PUB) == fdh(d, TOY.n) * 2369 % TOY.n

    def test_arithmetic_matches_oracle(self):
        # 65 * 7^17 mod 3233 = 2034 and 65^2753 mod 3233 = 588
        assert 65 * pow(7, 17, TOY.n) % TOY.n == 2034
        assert sign_blinded(65, TOY) == 588

    def test_sign_identity(self):
        assert sign_blinded(1, TOY) == 1

    def test_blind_rejects_non_unit(self):
        with pytest.raises(NonUnit):
            blind(digest_of(b"a"), 61, PUB)  # 61 divides 3233

    def test_unblind_identity_r(self):
        assert unblind(588, 1, PUB) == 588

    def test_unblind_refusal_sentinel(self):
        with pytest.raises(RefusalSentinel):
            unblind(REFUSED, 7, PUB)

    def test_unblind_non_unit(self):
        with pytest.raises(NonUnit):
            unblind(588, 53, PUB)

    @given(ballot=st.binary(max_size=64), r=unit_toy)
    @settings(max_examples=200)
    def test_roundtrip_law(self, ballot, r):
        d = ballot_digest(ballot, b"\x07" * 16)
        sig = unblind(sign_blinded(blind(d, r, PUB), TOY), r, PUB)
        assert verify(sig, d, PUB)

    @given(r=unit_toy)
    @settings(max_examples=200)
    def test_unblinded_equals_direct_signature(self, r):
        # Chaum commutativity: m^d * r^{ed} / r = m^d
        d = digest_of(b"law")
        direct = sign_blinded(fdh(d, TOY.n), TOY)
        assert unblind(sign_blinded(blind(d, r, PUB), TOY), r, PUB) == direct

    @given(x=st.integers(min_value=1, max_value=TOY.n - 1).filter(
        lambda x: math.gcd(x, TOY.n) == 1
    ))
    @settings(max_examples=100)
    def test_rsa_correctness_law(self, x):
        assert pow(sign_blinded(x, TOY), TOY.e, TOY.n) == x


class TestVerify:
    def test_roundtrip_verifies(self):
        d = digest_of(b"v")
        r = 101
        assert verify(unblind(sign_blinded(blind(d, r, PUB), TOY), r, PUB), d, PUB)

    def test_wrong_digest_fails(self):
        d, other = digest_of(b"v"), digest_of(b"w")
        sig = sign_blinded(fdh(d, TOY.n), TOY)
        assert not verify(sig, other, PUB)

    def test_refusal_sentinel_never_verifies(self):
        for tag in (b"a", b"b", b"c"):
            assert not verify(0, digest_of(tag), PUB)

    def test_random_values_rejected(self):
        # exactly one value in [0, n) verifies per digest, so uniform
        # guesses almost never land; the count is deterministic for the
        # pinned seed
        d = digest_of(b"mc")
        rng = random.Random(99)
        accepted = sum(
            1 for _ in range(1000) if verify(rng.randrange(0, TOY.n), d, PUB)
        )
        assert accepted == 0

    def test_unique_signature_spot_check(self):
        d = digest_of(b"unique")
        m = fdh(d, TOY.n)
        matches = [s for s in range(TOY.n) if pow(s, TOY.e, TOY.n) == m]
        assert matches == [pow(m, TOY.d, TOY.n)]


class TestRandomness:
    def test_blinding_factor_is_unit(self):
        rng = random.Random(1)
        for _ in range(50):
            r = new_blinding_factor(PUB, rng)
            assert 1 <= r < TOY.n and math.gcd(r, TOY.n) == 1

    def test_uuid_length_and_determinism(self):
        assert len(new_uuid(5)) == 16
        assert new_uuid(5) == new_uuid(5)
        assert new_uuid(5) != new_uuid(6)


class TestSerialization:
    def test_int_hex_format(self):
        assert int_to_hex(0) == "0"
        assert int_to_hex(3233) == "ca1"
        assert hex_to_int("ca1") == 3233

    @given(st.integers(min_value=0, max_value=2**256))
    @settings(max_examples=100)
    def test_int_hex_roundtrip(self, v):
        text = int_to_hex(v)
        assert text == text.lower() and not (len(text) > 1 and text[0] == "0")
        assert hex_to_int(text) == v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_hex(-1)

    @pytest.mark.parametrize(
        "text", ["", "-1", "+1", "0x1f", "1F", "01", "00", "1_0", " 1", "1 ", "g"]
    )
    def test_non_canonical_hex_rejected(self, text):
        with pytest.raises(ValueError):
            hex_to_int(text)

    def test_key_file_with_non_canonical_hex_rejected(self, tmp_path):
        path = tmp_path / "key.json"
        path.write_text('{"n": "0xca1", "e": "11"}')
        with pytest.raises(ValueError):
            load_key(path)

    def test_private_key_file_roundtrip(self, tmp_path):
        path = tmp_path / "key.json"
        save_key(path, TOY)
        assert load_key(path) == TOY

    def test_public_key_file_has_no_d(self, tmp_path):
        path = tmp_path / "pub.json"
        save_key(path, TOY.public)
        loaded = load_key(path)
        assert isinstance(loaded, PublicKey)
        assert loaded == PUB
        assert "d" not in path.read_text()
