"""Contract state machine: windows, the judge function, tallying, sealing."""

import dataclasses
import errno
import os
import random
from collections import Counter

import pytest

from blindvote import blindsig, contract
from blindvote.blindsig import (
    TOY_KEYPAIR,
    KeyPair,
    ballot_digest,
    blind,
    factor_modulus,
    fdh,
    keygen,
    keypair_from_primes,
    sign_blinded,
    unblind,
)
from blindvote.cli import main
from blindvote.contract import (
    ElectionContract,
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
from blindvote.messages import Deploy, encode_payload
from blindvote.scenario import Election, ScenarioConfig, VoterSpec, verify_transcript

TOY = TOY_KEYPAIR
SEALING = keypair_from_primes(67, 71, 17)


def make_contract(sealed=False, sealing=SEALING):
    return ElectionContract(
        Deploy(
            n=TOY.n,
            e=TOY.e,
            st=10,
            ct=20,
            et=30,
            sealed=sealed,
            sealing_n=sealing.n if sealed else None,
            sealing_e=sealing.e if sealed else None,
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
        with pytest.raises(BadWindow, match="need st < ct < et, got st=20 ct=10 et=30"):
            ElectionContract(Deploy(n=TOY.n, e=TOY.e, st=20, ct=10, et=30))

    def test_equal_boundaries_rejected(self):
        with pytest.raises(BadWindow):
            ElectionContract(Deploy(n=TOY.n, e=TOY.e, st=10, ct=10, et=30))

    @pytest.mark.parametrize("sealed", [False, True])
    def test_modulus_below_two_rejected(self, sealed):
        deploy = Deploy(
            n=TOY.n if sealed else 1,
            e=TOY.e,
            st=1,
            ct=2,
            et=3,
            sealed=sealed,
            sealing_n=1 if sealed else None,
            sealing_e=3 if sealed else None,
        )
        with pytest.raises(ValueError, match="a modulus must be at least 2"):
            ElectionContract(deploy)

    def test_params_immutable(self):
        params = make_contract().params
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.st = 11
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.pk = keypair_from_primes(67, 71, 17).public
        assert params.pk == TOY.public
        # the cached key is no field: reading it changes no comparison or encoding
        fresh = make_contract().params
        assert fresh == params and hash(fresh) == hash(params)
        assert encode_payload(fresh) == encode_payload(params)


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

    def test_signature_plus_modulus_false(self):
        c = make_contract()
        blinded = 1234
        assert not c.check_signature(sign_blinded(blinded, TOY) + TOY.n, blinded, clock=10)

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

    def test_signature_plus_modulus_rejected(self):
        c = make_contract()
        uuid = uuid_of(6)
        assert c.cast(signed_ballot(b"A", uuid) + TOY.n, b"A", uuid, clock=20) is False
        assert c.ballot_box == {}

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

    def test_publish_needs_exponents_that_factor_n(self, monkeypatch):
        c, _ = self._with_sealed_casts()

        def no_split(n, e, d):
            raise ValueError("no base splits n")

        monkeypatch.setattr(contract, "factor_modulus", no_split)
        with pytest.raises(KeyMismatch):
            c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.published_key is None

    def test_published_key_carries_the_primes(self):
        c, _ = self._with_sealed_casts()
        c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.published_key == SEALING

    def test_unsealed_map_is_not_contract_state(self):
        counted, expected = self._with_sealed_casts()
        fresh, _ = self._with_sealed_casts()
        for c in (counted, fresh):
            c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert counted.tally(clock=30) == counted.count() == expected
        assert counted == fresh and repr(counted) == repr(fresh)

    def test_second_publish_refused(self):
        c, expected = self._with_sealed_casts()
        c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.tally(clock=30) == expected
        key, opened = c.published_key, dict(c._opened)
        phi = (SEALING.p - 1) * (SEALING.q - 1)
        for d in (SEALING.d, SEALING.d + phi):  # the same key, and its other exponent
            with pytest.raises(KeyMismatch, match="already published"):
                c.publish_key(SEALING.n, d, clock=31)
            assert c.published_key is key and c._opened == opened
        assert c.tally(clock=31) == expected

    def test_publish_before_close(self):
        c, _ = self._with_sealed_casts()
        with pytest.raises(ElectionOpen):
            c.publish_key(SEALING.n, SEALING.d, clock=29)

    def test_publish_on_unsealed_election(self):
        with pytest.raises(NotSealed):
            make_contract().publish_key(SEALING.n, SEALING.d, clock=30)

    def test_entry_that_does_not_unseal_is_spoiled(self):
        c, expected = self._with_sealed_casts()
        for i, junk in enumerate([b"NOT-A-CIPHERTEXT", bytes(200)], start=10):
            uuid = uuid_of(i)
            assert c.cast(signed_ballot(junk, uuid), junk, uuid, clock=20)
        c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.tally(clock=30) == expected

    def test_box_holds_only_ciphertext(self):
        c, _ = self._with_sealed_casts()
        for entry in c.ballot_box.values():
            assert b"CANDIDATE" not in entry

    def test_wrapped_value_plus_n_is_spoiled(self):
        c, expected = self._with_sealed_casts()
        # the same ciphertext with its wrapped value moved up by n
        sealed = c.ballot_box[uuid_of(0)]
        shifted = (int.from_bytes(sealed[:2], "big") + SEALING.n).to_bytes(2, "big") + sealed[2:]
        uuid = uuid_of(10)
        assert c.cast(signed_ballot(shifted, uuid), shifted, uuid, clock=20)
        c.publish_key(SEALING.n, SEALING.d, clock=30)
        assert c.tally(clock=30) == expected


def _two_step_publish_accepts(n: int, e: int, d: int) -> bool:
    """publish_key's acceptance with its separate base-2 check, for any n.

    factor_modulus's own base-2 exit never fires on an input that passes
    the check, so this is the predicate from before that exit existed.
    """
    if pow(pow(2, e, n), d, n) != 2:
        return False
    try:
        KeyPair(n, e, d, *factor_modulus(n, e, d))
    except ValueError:
        return False
    return True


def _publish_accepts(n: int, e: int, d: int) -> bool:
    params = dataclasses.replace(make_contract(sealed=True).params, sealing_n=n, sealing_e=e)
    c = ElectionContract(params)
    try:
        c.publish_key(n, d, clock=30)
    except KeyMismatch:
        return False
    return True


class TestPublishPredicate:
    def test_one_modexp_accepts_what_the_two_step_check_did(self):
        rng = random.Random(9)
        cases = []
        for _ in range(30_000):
            n = rng.randrange(2, 5000)
            cases.append((n, rng.randrange(1, n), rng.randrange(n)))
        for seed in range(200):
            key = keygen(24, seed)
            phi = (key.p - 1) * (key.q - 1)
            for d in (key.d, key.d + 1, key.d + 2, key.d + phi, key.d + phi // 2):
                cases.append((key.n, key.e, d))
        verdicts = [_publish_accepts(*case) for case in cases]
        assert verdicts == [_two_step_publish_accepts(*case) for case in cases]
        # d, d + phi and d + phi/2 (a multiple of lambda(n)) of every key
        assert sum(verdicts[30_000:]) == 600


#: Three voters, sealed, 1024-bit keys: every private power runs in OpenSSL.
SEALED_1024 = ScenarioConfig(
    st=10, ct=20, et=30, sealed=True, key_bits=1024, seed=5,
    voters=[VoterSpec(name, ballot) for name, ballot in
            [("alice", "ALPHA"), ("bob", "BETA"), ("carol", "ALPHA")]],
)


@pytest.fixture(scope="module")
def key_1024():
    return keygen(1024, 0)


def _unseal_in_turn(entries, key):
    """The one-at-a-time loop a count must equal: (ballot, secret) or None."""
    out = []
    for sealed in entries:
        try:
            out.append(unseal_ballot(sealed, key))
        except ValueError:
            out.append(None)
    return out


def _batch(key):
    """Six entries: two spoiled ones and an empty ballot."""
    tampered = bytearray(seal_ballot(b"CANDIDATE-BETA", key.public, seed=7))
    tampered[-1] ^= 1
    return [
        seal_ballot(b"CANDIDATE-ALPHA", key.public, seed=1),
        bytes(tampered),
        seal_ballot(b"CANDIDATE-BETA", key.public, seed=2),
        seal_ballot(b"", key.public, seed=3),
        b"NOT-A-CIPHERTEXT",
        seal_ballot(b"CANDIDATE-GAMMA", key.public, seed=4),
    ]


def _published(key, entries):
    """A sealed contract holding ``entries`` under uuid_of(0), ..., key published."""
    c = make_contract(sealed=True, sealing=key)
    for i, sealed in enumerate(entries):
        uuid = uuid_of(i)
        assert c.cast(signed_ballot(sealed, uuid), sealed, uuid, clock=20)
    c.publish_key(key.n, key.d, clock=30)
    return c


@pytest.fixture
def unseal_calls(monkeypatch):
    """The entries handed to contract.unseal_ballot, which still decrypts."""
    calls = []
    unseal = contract.unseal_ballot

    def counted(sealed, key):
        calls.append(sealed)
        return unseal(sealed, key)

    monkeypatch.setattr(contract, "unseal_ballot", counted)
    return calls


@pytest.fixture
def factor_calls(monkeypatch):
    """The (n, e, d) handed to contract.factor_modulus, which still factors."""
    calls = []
    factor = contract.factor_modulus

    def counted(n, e, d):
        calls.append((n, e, d))
        return factor(n, e, d)

    monkeypatch.setattr(contract, "factor_modulus", counted)
    return calls


class _FailingModExp:
    """libcrypto whose powers fail, as on an allocation failure: every
    ``BN_mod_exp_mont``, on a key's kept Montgomery context or a factoring
    walk's."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return (lambda *args: 0) if name == "BN_mod_exp_mont" else getattr(self._lib, name)


class TestUnsealAll:
    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    def test_batch_equals_the_loop(self, bits):
        key = keygen(bits, 0)
        entries = _batch(key)
        expected = [b"CANDIDATE-ALPHA", None, b"CANDIDATE-BETA", b"", None, b"CANDIDATE-GAMMA"]
        in_turn = _unseal_in_turn(entries, key)
        assert [None if out is None else out[0] for out in in_turn] == expected
        c = _published(key, entries)
        c.count()
        assert list(c._opened.values()) == in_turn

    def test_contract_counts_a_batch_once(self, key_1024, unseal_calls):
        entries = _batch(key_1024)
        c = _published(key_1024, entries)
        expected = Counter([b"CANDIDATE-ALPHA", b"CANDIDATE-BETA", b"", b"CANDIDATE-GAMMA"])
        assert c.tally(clock=30) == expected
        assert unseal_calls == entries
        in_turn = _unseal_in_turn(entries, key_1024)
        assert list(c._opened.values()) == in_turn
        assert c.kem_secrets() == {
            uuid_of(i): out[1] for i, out in enumerate(in_turn) if out is not None
        }
        del unseal_calls[:]
        assert c.count() == expected and unseal_calls == []  # nothing left to unseal

    def test_sealed_1024_bit_election(self, tmp_path):
        election = Election(SEALED_1024)
        election.run()
        assert election.onchain_tally == election.offchain_tally == Counter(
            {b"ALPHA": 2, b"BETA": 1}
        )
        report = election.build_report()
        report.write(tmp_path)
        assert verify_transcript(report.transcript_path, report.report_path).ok

    def test_a_failed_fork_in_verify_is_no_divergence(self, tmp_path, monkeypatch, capsys):
        # at the process limit a refused fork no longer fails verify: it never forks
        election = Election(SEALED_1024)
        election.run()
        report = election.build_report()
        report.write(tmp_path)

        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)
        assert verify_transcript(report.transcript_path, report.report_path).ok
        assert main(["verify", report.transcript_path]) == 0
        out = capsys.readouterr()
        assert "DIVERGENCE" not in out.out
        assert os.strerror(errno.EAGAIN) not in out.err

    @pytest.mark.parametrize("bits, size", [(512, 6), (1023, 6), (1024, 1)])
    def test_below_the_floor_nothing_forks(self, monkeypatch, bits, size):
        # 1024 bits was the floor from which a batch forked; now none does
        def no_fork():
            raise AssertionError("forked")

        key = keygen(bits, 0)
        entries = _batch(key)[:size]
        c = _published(key, entries)
        monkeypatch.setattr(os, "fork", no_fork)
        c.count()
        assert list(c._opened.values()) == _unseal_in_turn(entries, key)

    def test_a_failed_native_call_in_verify_is_no_divergence(
        self, tmp_path, monkeypatch, capsys
    ):
        if blindsig._bn() is None:
            pytest.skip("libcrypto cannot be loaded here")
        election = Election(SEALED_1024)
        election.run()
        report = election.build_report()
        report.write(tmp_path)

        lib, buffer = blindsig._bn()
        factor, walks = contract.factor_modulus, []

        def failing_walk(n, e, d):
            walks.append(n)
            monkeypatch.setattr(blindsig, "_bn", lambda: (_FailingModExp(lib), buffer))
            return factor(n, e, d)

        def from_the_walk():  # Publish's factoring walk is the first power to fail
            monkeypatch.setattr(blindsig, "_bn", lambda: (lib, buffer))
            monkeypatch.setattr(contract, "factor_modulus", failing_walk)

        def from_the_start():  # every power fails, the first cast's check first
            monkeypatch.setattr(contract, "factor_modulus", factor)
            monkeypatch.setattr(blindsig, "_bn", lambda: (_FailingModExp(lib), buffer))

        for fail in (from_the_walk, from_the_start):
            fail()
            with pytest.raises(OSError, match="BN_mod_exp_mont failed for a 1024-bit modulus"):
                verify_transcript(report.transcript_path, report.report_path)
            fail()
            assert main(["verify", report.transcript_path]) == 2
            out = capsys.readouterr()
            assert "DIVERGENCE" not in out.out
            assert "BN_mod_exp_mont failed for a 1024-bit modulus" in out.err
        assert walks == [election.sealing_key.n] * 2
        # the failures freed nothing kept: this thread's next powers are right
        monkeypatch.setattr(contract, "factor_modulus", factor)
        monkeypatch.setattr(blindsig, "_bn", lambda: (lib, buffer))
        assert verify_transcript(report.transcript_path, report.report_path).ok

    def test_a_failed_power_in_publish_is_no_key_mismatch(self, monkeypatch):
        # a failure of the machine, not of the key: publish_key lets it through
        if blindsig._bn() is None:
            pytest.skip("libcrypto cannot be loaded here")
        key = keygen(512, 0)
        c = make_contract(sealed=True, sealing=key)
        lib, buffer = blindsig._bn()
        monkeypatch.setattr(blindsig, "_bn", lambda: (_FailingModExp(lib), buffer))
        with pytest.raises(OSError, match="BN_mod_exp_mont failed for a 512-bit modulus"):
            c.publish_key(key.n, key.d, clock=30)
        assert c.published_key is None
        monkeypatch.setattr(blindsig, "_bn", lambda: (lib, buffer))
        c.publish_key(key.n, key.d, clock=30)
        assert c.published_key == key

    def test_a_failed_native_signature_check_in_verify_is_no_divergence(
        self, tmp_path, monkeypatch, capsys
    ):
        # a cast's signature check is a public-exponent power, in OpenSSL at
        # 1024 bits on the deploy key's kept context; the powers fail from the
        # first one on
        if blindsig._bn() is None:
            pytest.skip("libcrypto cannot be loaded here")
        election = Election(SEALED_1024)
        election.run()
        election.build_report().write(tmp_path)

        lib, buffer = blindsig._bn()
        checked = []

        def failing_from_here(*args):
            checked.append(args)
            monkeypatch.setattr(blindsig, "_bn", lambda: (_FailingModExp(lib), buffer))
            return blindsig.verify(*args)

        monkeypatch.setattr(contract, "verify", failing_from_here)
        assert main(["verify", str(tmp_path / "transcript.log")]) == 2
        out = capsys.readouterr()
        assert len(checked) == 1  # the replay stopped at its first cast
        assert "DIVERGENCE" not in out.out
        assert "BN_mod_exp_mont failed for a 1024-bit modulus" in out.err
        # the failed power freed nothing kept: this thread's next powers are right
        monkeypatch.setattr(blindsig, "_bn", lambda: (lib, buffer))
        monkeypatch.setattr(contract, "verify", blindsig.verify)
        assert main(["verify", str(tmp_path / "transcript.log")]) == 0
        assert "DIVERGENCE" not in capsys.readouterr().out


def _recorded_cases(key):
    """(case id, entry, secret, exponent the count publishes, whether the secret
    opens it)."""
    nbytes = (key.n.bit_length() + 7) // 8
    valid = seal_ballot(b"CANDIDATE-ALPHA", key.public, seed=1)
    spoiled = bytearray(seal_ballot(b"CANDIDATE-BETA", key.public, seed=2))
    spoiled[-1] ^= 1
    entries = {
        "valid": valid,
        "spoiled": bytes(spoiled),
        "outside": key.n.to_bytes(nbytes, "big") + valid[nbytes:],
        "short": valid[: nbytes + 12 + 15],
    }
    other_d = key.d + (key.p - 1) * (key.q - 1)  # the same key's other exponent
    for kind, sealed in entries.items():
        # an entry with no wrapped value gets the secret of the valid one
        source = sealed if kind in ("valid", "spoiled") else valid
        x = pow(int.from_bytes(source[:nbytes], "big"), key.d, key.n)
        for name, secret, d in [
            ("correct", x, key.d),
            ("off-by-one", x + 1, key.d),
            ("zero", 0, key.d),
            ("plus-n", x + key.n, key.d),
            ("other-key", x, other_d),
        ]:
            # a secret that checks out opens its entry whatever exponent the
            # count publishes: x -> x^e permutes Z_n
            usable = name in ("correct", "other-key") and kind in ("valid", "spoiled")
            yield f"{kind}/{name}", sealed, secret, d, usable


def _count_one(key, sealed, recorded=None, d=None):
    c = make_contract(sealed=True, sealing=key)
    c.recorded = recorded or {}
    uuid = uuid_of(0)
    assert c.cast(signed_ballot(sealed, uuid), sealed, uuid, clock=20)
    c.publish_key(key.n, key.d if d is None else d, clock=30)
    return c.count(), c._opened, c.kem_secrets()


class TestRecordedSecrets:
    @pytest.mark.parametrize("bits", [None, 512, 1024], ids=["toy", "512", "1024"])
    def test_opening_by_secret_equals_decryption(self, unseal_calls, bits):
        key = SEALING if bits is None else keygen(bits, 3)
        for case, sealed, secret, d, usable in _recorded_cases(key):
            decrypted = _count_one(key, sealed)
            del unseal_calls[:]
            assert _count_one(key, sealed, {uuid_of(0): secret}, d) == decrypted, case
            assert unseal_calls == ([] if usable else [sealed]), case

    def test_batch_with_secrets_equals_the_loop(self, key_1024, unseal_calls):
        entries = _batch(key_1024)
        in_turn = _unseal_in_turn(entries, key_1024)
        c = _published(key_1024, entries)
        # correct secrets for entries 0 and 5, a wrong one for 2, none for the rest
        c.recorded = {
            uuid_of(0): in_turn[0][1], uuid_of(2): in_turn[2][1] + 1, uuid_of(5): in_turn[5][1]
        }
        del unseal_calls[:]
        c.count()
        assert list(c._opened.values()) == in_turn
        assert unseal_calls == entries[1:5]  # only the entries left are decrypted


    @pytest.mark.parametrize("bits", [None, 512], ids=["toy", "512"])
    def test_recorded_key_taken_only_on_the_same_n_e_d(self, factor_calls, bits):
        key = SEALING if bits is None else keygen(bits, 3)
        other = keypair_from_primes(61, 53, 17) if bits is None else keygen(bits, 4)
        other_d = key.d + (key.p - 1) * (key.q - 1)  # the same key's other exponent
        entries = _batch(key)[:4]
        for case, recorded, d, taken in [
            ("same", key, key.d, True),
            ("other-exponent", key, other_d, False),
            ("recorded-other-exponent", dataclasses.replace(key, d=other_d), key.d, False),
            ("other-e", dataclasses.replace(key, e=key.e + 2), key.d, False),
            ("other-key", other, key.d, False),
            ("none", None, key.d, False),
        ]:
            c = make_contract(sealed=True, sealing=key)
            c.recorded_key = recorded
            fresh = make_contract(sealed=True, sealing=key)
            for con in (c, fresh):
                for i, sealed in enumerate(entries):
                    uuid = uuid_of(i)
                    assert con.cast(signed_ballot(sealed, uuid), sealed, uuid, clock=20)
            fresh.publish_key(key.n, d, clock=30)
            del factor_calls[:]
            c.publish_key(key.n, d, clock=30)
            assert factor_calls == ([] if taken else [(key.n, key.e, d)]), case
            assert (c.published_key is recorded) == taken, case
            assert c == fresh and c.count() == fresh.count(), case

    def test_refusals_do_not_depend_on_a_recorded_key(self):
        other = keypair_from_primes(61, 53, 17)  # same e as SEALING, another n
        even = KeyPair(122, 17, 2, 61, 2)  # 2 is no unit mod 122
        assert pow(pow(2, even.e, even.n), even.d, even.n) != 2
        # (deployed key, the key published, clock, publish it before): each
        # refused publication carries exactly the recorded key's (n, e, d)
        cases = {
            "wrong-n": (SEALING, other, 30, False),
            "second": (SEALING, SEALING, 31, True),
            "before-et": (SEALING, SEALING, 29, False),
            "even-n": (even, even, 30, False),
        }
        expected = {
            "wrong-n": (KeyMismatch, "does not invert"),
            "second": (KeyMismatch, "already published"),
            "before-et": (ElectionOpen, "vote ends at 30"),
            "even-n": (KeyMismatch, "does not invert"),
        }
        for case, (deployed, published, clock, twice) in cases.items():
            outcomes = []
            for recorded in (None, published):
                c = make_contract(sealed=True, sealing=deployed)
                c.recorded_key = recorded
                if twice:
                    c.publish_key(published.n, published.d, clock=30)
                before = c.published_key
                with pytest.raises(expected[case][0], match=expected[case][1]) as exc:
                    c.publish_key(published.n, published.d, clock=clock)
                assert c.published_key is before, case
                outcomes.append((type(exc.value), str(exc.value)))
            assert outcomes[0] == outcomes[1], case


class TestSealing:
    def test_roundtrip(self):
        ct = seal_ballot(b"payload", SEALING.public, seed=1)
        ballot, x = unseal_ballot(ct, SEALING)
        assert ballot == b"payload"
        assert pow(x, SEALING.e, SEALING.n) == int.from_bytes(ct[:2], "big")

    def test_randomized(self):
        a = seal_ballot(b"same", SEALING.public, seed=1)
        b = seal_ballot(b"same", SEALING.public, seed=2)
        assert a != b
        assert unseal_ballot(a, SEALING)[0] == unseal_ballot(b, SEALING)[0]

    def test_tamper_detected(self):
        ct = bytearray(seal_ballot(b"payload", SEALING.public, seed=3))
        ct[-1] ^= 1
        with pytest.raises(ValueError):
            unseal_ballot(bytes(ct), SEALING)

    def test_wrong_key_detected(self):
        ct = seal_ballot(b"payload", SEALING.public, seed=4)
        with pytest.raises(ValueError):
            unseal_ballot(ct, dataclasses.replace(SEALING, d=SEALING.d + 2))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            unseal_ballot(b"\x00" * 4, SEALING)

    def test_wrapped_value_outside_1_to_n_rejected(self):
        ct = seal_ballot(b"payload", SEALING.public, seed=1)
        wrapped = int.from_bytes(ct[:2], "big")
        for other in (wrapped + SEALING.n, 0):
            with pytest.raises(ValueError, match="outside"):
                unseal_ballot(other.to_bytes(2, "big") + ct[2:], SEALING)


class TestHexTally:
    def test_sorted_lines(self):
        tally = hex_tally(Counter({b"B": 1, b"A": 2}))
        assert list(tally.items()) == [("41", 2), ("42", 1)]

    def test_empty(self):
        assert hex_tally(Counter()) == {}

    def test_empty_payload_key(self):
        assert hex_tally(Counter({b"": 3})) == {"-": 3}
