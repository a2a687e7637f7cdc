"""Contract state machine: windows, the judge function, tallying, sealing."""

import dataclasses
from collections import Counter

import pytest

from blindvote.blindsig import (
    TOY_KEYPAIR,
    PublicKey,
    ballot_digest,
    blind,
    fdh,
    keypair_from_primes,
    sign_blinded,
    unblind,
)
from blindvote.contract import (
    ElectionContract,
    ElectionParams,
    hex_tally,
    seal_ballot,
    unseal_ballot,
)
from blindvote.errors import (
    BadWindow,
    ElectionOpen,
    KeyMismatch,
    NotSealed,
    OutOfWindow,
    ResultSealed,
)

TOY = TOY_KEYPAIR
SEALING = keypair_from_primes(67, 71, 17)


def make_contract(sealed=False):
    return ElectionContract(
        ElectionParams(
            pk=TOY.public,
            st=10,
            ct=20,
            et=30,
            sealed=sealed,
            sealing_pk=SEALING.public if sealed else None,
        )
    )


def signed_ballot(ballot: bytes, uuid: bytes) -> int:
    """Honest signature on a ballot, produced off-contract."""
    digest = ballot_digest(ballot, uuid)
    r = 7
    return unblind(sign_blinded(blind(digest, r, TOY.public), TOY), r, TOY.public)


def uuid_of(i: int) -> bytes:
    return i.to_bytes(16, "big")


class TestParams:
    def test_bad_ordering(self):
        with pytest.raises(BadWindow):
            ElectionParams(pk=TOY.public, st=20, ct=10, et=30)

    def test_equal_boundaries_rejected(self):
        with pytest.raises(BadWindow):
            ElectionParams(pk=TOY.public, st=10, ct=10, et=30)

    def test_sealed_requires_key(self):
        with pytest.raises(ValueError):
            ElectionParams(pk=TOY.public, st=1, ct=2, et=3, sealed=True)

    @pytest.mark.parametrize("sealed", [False, True])
    def test_modulus_below_two_rejected(self, sealed):
        unit = PublicKey(1, 3)
        with pytest.raises(ValueError):
            ElectionParams(
                pk=TOY.public if sealed else unit,
                st=1,
                ct=2,
                et=3,
                sealed=sealed,
                sealing_pk=unit if sealed else None,
            )

    def test_params_immutable(self):
        params = ElectionParams(pk=TOY.public, st=10, ct=20, et=30)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.st = 11
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.pk = keypair_from_primes(67, 71, 17).public


class TestCheckSignature:
    def test_valid_pair_true(self):
        c = make_contract()
        blinded = 1234
        assert c.check_signature(sign_blinded(blinded, TOY), blinded, clock=10)

    def test_wrong_signature_false(self):
        c = make_contract()
        blinded = 1234
        assert not c.check_signature(sign_blinded(blinded + 1, TOY), blinded, clock=10)

    def test_sentinel_false(self):
        c = make_contract()
        assert not c.check_signature(0, 1234, clock=15)

    def test_stateless(self):
        c = make_contract()
        c.check_signature(sign_blinded(9, TOY), 9, clock=15)
        assert c.ballot_box == {}

    @pytest.mark.parametrize("clock", [9, 20, 25])
    def test_out_of_window(self, clock):
        with pytest.raises(OutOfWindow):
            make_contract().check_signature(1, 1, clock=clock)


class TestCast:
    def test_first_valid_cast_accepted(self):
        c = make_contract()
        uuid = uuid_of(1)
        assert c.cast(signed_ballot(b"A", uuid), b"A", uuid, clock=20) is True
        assert c.ballot_box == {uuid: b"A"}

    def test_exact_replay_rejected(self):
        c = make_contract()
        uuid = uuid_of(1)
        sig = signed_ballot(b"A", uuid)
        assert c.cast(sig, b"A", uuid, clock=20)
        assert c.cast(sig, b"A", uuid, clock=21) is False
        assert len(c.ballot_box) == 1

    def test_reused_uuid_with_other_ballot_rejected(self):
        # two honestly signed ballots sharing one uuid: the second loses
        c = make_contract()
        uuid = uuid_of(2)
        assert c.cast(signed_ballot(b"A", uuid), b"A", uuid, clock=20)
        assert c.cast(signed_ballot(b"B", uuid), b"B", uuid, clock=20) is False
        assert c.ballot_box[uuid] == b"A"

    def test_bad_signature_rejected(self):
        c = make_contract()
        assert c.cast(1234, b"A", uuid_of(3), clock=20) is False
        assert c.ballot_box == {}

    def test_signature_for_other_ballot_rejected(self):
        c = make_contract()
        uuid = uuid_of(4)
        assert c.cast(signed_ballot(b"A", uuid), b"B", uuid, clock=20) is False

    def test_malformed_uuid_rejected_not_raised(self):
        c = make_contract()
        assert c.cast(1, b"A", b"\x01" * 15, clock=20) is False

    @pytest.mark.parametrize("clock", [19, 30, 35])
    def test_out_of_window(self, clock):
        with pytest.raises(OutOfWindow):
            make_contract().cast(1, b"A", uuid_of(5), clock=clock)


class TestTally:
    def test_multiset(self):
        c = make_contract()
        for i in range(6):
            uuid = uuid_of(i)
            assert c.cast(signed_ballot(b"A", uuid), b"A", uuid, clock=20)
        for i in range(6, 10):
            uuid = uuid_of(i)
            assert c.cast(signed_ballot(b"B", uuid), b"B", uuid, clock=20)
        assert c.tally(clock=30) == Counter({b"A": 6, b"B": 4})

    def test_zero_casts(self):
        assert make_contract().tally(clock=30) == Counter()

    def test_before_close_rejected(self):
        with pytest.raises(ElectionOpen):
            make_contract().tally(clock=29)

    def test_count_ignores_the_window(self):
        c = make_contract()
        uuid = uuid_of(0)
        assert c.cast(signed_ballot(b"A", uuid), b"A", uuid, clock=20)
        assert c.count() == Counter({b"A": 1})


class TestSealedMode:
    def _with_sealed_casts(self):
        c = make_contract(sealed=True)
        plains = [b"CANDIDATE-ALPHA", b"CANDIDATE-ALPHA", b"CANDIDATE-BETA"]
        for i, plain in enumerate(plains):
            payload = seal_ballot(plain, SEALING.public, seed=100 + i)
            uuid = uuid_of(i)
            assert c.cast(signed_ballot(payload, uuid), payload, uuid, clock=20)
        return c, Counter(plains)

    def test_tally_sealed_until_published(self):
        c, _ = self._with_sealed_casts()
        with pytest.raises(ResultSealed):
            c.tally(clock=30)

    def test_publish_then_tally(self):
        c, expected = self._with_sealed_casts()
        c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.tally(clock=30) == expected

    def test_publish_wrong_key(self):
        c, _ = self._with_sealed_casts()
        with pytest.raises(KeyMismatch):
            c.publish_key(SEALING.n, SEALING.d + 2, clock=30)
        with pytest.raises(ResultSealed):
            c.tally(clock=30)

    def test_publish_before_close(self):
        c, _ = self._with_sealed_casts()
        with pytest.raises(ElectionOpen):
            c.publish_key(SEALING.n, SEALING.d, clock=29)

    def test_publish_on_unsealed_election(self):
        with pytest.raises(NotSealed):
            make_contract().publish_key(SEALING.n, SEALING.d, clock=30)

    def test_box_holds_only_ciphertext(self):
        c, _ = self._with_sealed_casts()
        for entry in c.ballot_box.values():
            assert b"CANDIDATE" not in entry


class TestSealing:
    def test_roundtrip(self):
        ct = seal_ballot(b"payload", SEALING.public, seed=1)
        assert unseal_ballot(ct, SEALING.n, SEALING.d) == b"payload"

    def test_randomized(self):
        a = seal_ballot(b"same", SEALING.public, seed=1)
        b = seal_ballot(b"same", SEALING.public, seed=2)
        assert a != b
        assert unseal_ballot(a, SEALING.n, SEALING.d) == unseal_ballot(
            b, SEALING.n, SEALING.d
        )

    def test_tamper_detected(self):
        ct = bytearray(seal_ballot(b"payload", SEALING.public, seed=3))
        ct[-1] ^= 1
        with pytest.raises(ValueError):
            unseal_ballot(bytes(ct), SEALING.n, SEALING.d)

    def test_wrong_key_detected(self):
        ct = seal_ballot(b"payload", SEALING.public, seed=4)
        with pytest.raises(ValueError):
            unseal_ballot(ct, SEALING.n, SEALING.d + 2)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            unseal_ballot(b"\x00" * 4, SEALING.n, SEALING.d)


class TestHexTally:
    def test_sorted_lines(self):
        tally = hex_tally(Counter({b"B": 1, b"A": 2}))
        assert list(tally.items()) == [("41", 2), ("42", 1)]

    def test_empty(self):
        assert hex_tally(Counter()) == {}

    def test_empty_payload_key(self):
        assert hex_tally(Counter({b"": 3})) == {"-": 3}
