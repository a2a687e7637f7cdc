"""Acceptance battery: one test per exit criterion, each at its stated
tolerance. conftest prints a PASS/FAIL line per criterion as they run.

Toy-modulus note: with n = 3233 exactly one signature value exists per
digest, so uniform guessing succeeds with probability 1/3233 per trial.
Sampled outcomes below are therefore pinned by seed, with the exhaustive
enumerations carrying the zero-tolerance guarantees.
"""

import json
import math
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from blindvote.attacks import double_vote, forge_signature, replay_cast, run_attack
from blindvote.blindsig import (
    TOY_KEYPAIR,
    ballot_digest,
    blind,
    fdh,
    keygen,
    new_blinding_factor,
    sign_blinded,
    unblind,
    verify,
)
from blindvote.contract import ElectionContract
from blindvote.errors import ElectionOpen, OutOfWindow, ResultSealed
from blindvote.ledger import export_log, import_log, replay
from blindvote.messages import Deploy
from blindvote.scenario import (
    Election,
    ScenarioConfig,
    VoterSpec,
    verify_transcript,
)

TOY = TOY_KEYPAIR
PUB = TOY.public

TOY_UNITS = [r for r in range(1, TOY.n) if math.gcd(r, TOY.n) == 1]


def honest_config(seed=42, n_voters=10):
    split = (n_voters * 6) // 10
    return ScenarioConfig(
        st=10,
        ct=20,
        et=30,
        voters=[
            VoterSpec(name=f"voter{i}", ballot="ALPHA" if i < split else "BETA")
            for i in range(n_voters)
        ],
        seed=seed,
    )


def test_c01_blind_signature_laws():
    """1,000 random (digest, r) pairs at 2048 bits and the exhaustive
    all-units version at n=3233 both verify with zero failures, < 60 s."""
    started = time.monotonic()
    key = keygen(2048, 12345)
    rng = random.Random(777)
    failures = 0
    for _ in range(1000):
        digest = rng.randbytes(48)
        r = new_blinding_factor(key.public, rng)
        sig = unblind(sign_blinded(blind(digest, r, key.public), key), r, key.public)
        if not verify(sig, digest, key.public):
            failures += 1
    assert failures == 0

    for i in range(10):
        digest = ballot_digest(b"law-%d" % i, bytes(16))
        direct = sign_blinded(fdh(digest, TOY.n), TOY)
        for r in TOY_UNITS:
            if unblind(sign_blinded(blind(digest, r, PUB), TOY), r, PUB) != direct:
                failures += 1
    assert failures == 0
    assert time.monotonic() - started < 60


def test_c02_perfect_blinding_enumeration():
    """At n=3233 a fixed unit digest blinds onto the whole unit group,
    each element exactly once."""
    digest = next(
        ballot_digest(b"blinding-%d" % i, bytes(16))
        for i in range(100)
        if math.gcd(fdh(ballot_digest(b"blinding-%d" % i, bytes(16)), TOY.n), TOY.n) == 1
    )
    images = [blind(digest, r, PUB) for r in TOY_UNITS]
    assert len(images) == len(TOY_UNITS)
    assert set(images) == set(TOY_UNITS)


def test_c03_correctness_and_byte_identical_replay(tmp_path):
    """Honest 10-voter tally equals the configured multiset; the exported
    transcript replays byte-identically into the same state."""
    election = Election(honest_config())
    election.run()
    assert election.onchain_tally == Counter({b"ALPHA": 6, b"BETA": 4})

    text = election.ledger.export()
    txs = import_log(text)
    assert export_log(txs) == text
    replayed = replay(txs, expected_results=election.ledger.results)
    assert replayed.contract is not None and replayed.contract == election.ledger.contract
    assert replayed.contract_address == election.ledger.contract_address
    assert replayed.log == election.ledger.log


def test_c04_democracy_eligibility_bound():
    """Unlisted and exhausted requesters get the sentinel; the ballot box
    never exceeds the total chance budget over 100 randomized scenarios."""
    report = Election(
        replace(
            honest_config(seed=7, n_voters=3),
            voters=[
                VoterSpec("greedy", "ALPHA", chances=1, votes=2),
                VoterSpec("honest", "BETA"),
                VoterSpec("mallory", "EVIL", kind="unlisted"),
            ],
        )
    )
    report.run()
    by_name = {v.spec.name: v for v in report.voters}
    assert by_name["mallory"].granted == 0 and by_name["mallory"].refusals == 1
    assert by_name["greedy"].granted == 1 and by_name["greedy"].refusals == 1

    meta = random.Random(20260809)
    ballots = ["ALPHA", "BETA", "GAMMA", "DELTA"]
    for case in range(100):
        voters = []
        for i in range(meta.randint(1, 6)):
            kind = meta.choices(
                ["honest", "careless", "unlisted"], weights=[7, 1, 2]
            )[0]
            chances = meta.randint(1, 3)
            voters.append(
                VoterSpec(
                    name=f"v{i}",
                    ballot=meta.choice(ballots),
                    chances=chances,
                    kind=kind,
                    votes=chances + meta.randint(0, 1),
                )
            )
        election = Election(
            ScenarioConfig(st=10, ct=20, et=30, voters=voters, seed=meta.getrandbits(32))
        )
        election.run()
        budget = election.organizer.budget
        assert len(election.ledger.contract.ballot_box) <= budget, f"case {case}"


def test_c05_multiple_voting_prevention_sweep():
    """double-vote and replay-cast lose on the second attempt for every
    seed in a 100-seed sweep."""
    base = honest_config(n_voters=3)
    for seed in range(100):
        config = replace(base, seed=seed)
        _, outcome = double_vote(config)
        assert outcome.succeeded is False, f"double-vote broke at seed {seed}"
        _, outcome = replay_cast(config)
        assert outcome.succeeded is False, f"replay-cast broke at seed {seed}"


def test_c06_forgery_rejection():
    """1,000 random signature values accepted zero times (pinned sample),
    and exhaustively exactly one valid signature exists per digest."""
    _, outcome = forge_signature(honest_config(seed=0, n_voters=4))
    assert outcome.succeeded is False
    assert outcome.detail.startswith("0/1000")

    for i in range(3):
        digest = ballot_digest(b"forge-%d" % i, bytes(16))
        m = fdh(digest, TOY.n)
        valid = [s for s in range(TOY.n) if pow(s, TOY.e, TOY.n) == m]
        assert valid == [pow(m, TOY.d, TOY.n)]


def test_c07_fairness_sealed_mode():
    """Sealed: tally errors before key publication and no plaintext ballot
    bytes reach the transcript; published sealed tally equals the plain
    tally for the same config and seed."""
    voters = [
        VoterSpec("a", "CANDIDATE-ALPHA"),
        VoterSpec("b", "CANDIDATE-BETA"),
        VoterSpec("c", "CANDIDATE-ALPHA"),
    ]
    plain_cfg = ScenarioConfig(st=10, ct=20, et=30, voters=voters, seed=11)
    sealed_cfg = replace(plain_cfg, sealed=True)

    election = Election(sealed_cfg)
    election.setup_stage()
    election.sign_stage()
    election.vote_stage()
    election.ledger.advance_clock(30)
    with pytest.raises(ResultSealed):
        election.ledger.contract.tally(election.ledger.clock)
    transcript = election.ledger.export()
    for spec in voters:
        assert spec.ballot.encode().hex() not in transcript
        assert spec.ballot not in transcript
    election.count_stage()  # publishes the sealing key, then tallies

    plain = Election(plain_cfg)
    plain.run()
    assert election.onchain_tally == plain.onchain_tally


def test_c08_verifiability_mutation_trials(tmp_path):
    """50 delete-one / edit-one transcript mutations, all detected."""
    from blindvote.scenario import run_scenario

    report = run_scenario(honest_config(), out_dir=tmp_path)
    original = (tmp_path / "transcript.log").read_text()
    lines = original.splitlines(keepends=True)
    cast_lines = [i for i, line in enumerate(lines) if " cast " in line]
    assert len(cast_lines) == 10

    mutant_path = tmp_path / "mutant.log"
    rng = random.Random(4242)
    detected = 0
    for trial in range(50):
        target = rng.choice(cast_lines)
        if trial % 2 == 0:
            mutated = lines[:target] + lines[target + 1 :]
        else:
            parts = lines[target].rstrip("\n").split(" ")
            ballot = parts[6]
            pos = rng.randrange(len(ballot))
            repl = rng.choice([c for c in "0123456789abcdef" if c != ballot[pos]])
            parts[6] = ballot[:pos] + repl + ballot[pos + 1 :]
            mutated = lines[:target] + [" ".join(parts) + "\n"] + lines[target + 1 :]
        mutant_path.write_text("".join(mutated))
        check = verify_transcript(mutant_path, report.report_path)
        detected += not check.ok
    assert detected == 50


def test_c09_receipt_freeness_attack_pin():
    """The receipt attack must succeed for every honest voter. A future
    run where this fails means the protocol changed; document it."""
    report = run_attack("receipt-prove", honest_config())
    assert report.attack.succeeded is True
    assert report.attack.detail == "10/10 vote receipts verified by a third party"
    assert report.all_ok()


def test_c10_window_discipline_boundary_matrix():
    """Sign requests at ct, casts at et, tallies at et-1 all rejected;
    in-window boundaries accepted."""
    from blindvote.actors import Organizer
    from blindvote.ledger import Ledger, create_account

    st_, ct, et = 10, 20, 30
    contract = ElectionContract(Deploy(n=PUB.n, e=PUB.e, st=st_, ct=ct, et=et))
    digest = ballot_digest(b"A", bytes(16))
    signed = sign_blinded(fdh(digest, TOY.n), TOY)

    # check window [st, ct)
    for clock in (st_ - 1, ct, et):
        with pytest.raises(OutOfWindow):
            contract.check_signature(signed, fdh(digest, TOY.n), clock)
    for clock in (st_, ct - 1):
        assert contract.check_signature(sign_blinded(9, TOY), 9, clock) is True

    # cast window [ct, et)
    for clock in (ct - 1, et, et + 5):
        with pytest.raises(OutOfWindow):
            contract.cast(signed, b"A", bytes(16), clock)
    assert contract.cast(signed, b"A", bytes(16), ct) is True
    uuid2 = (1).to_bytes(16, "big")
    signed2 = sign_blinded(fdh(ballot_digest(b"A", uuid2), TOY.n), TOY)
    assert contract.cast(signed2, b"A", uuid2, et - 1) is True

    # tally at clock >= et only
    with pytest.raises(ElectionOpen):
        contract.tally(et - 1)
    assert contract.tally(et) == Counter({b"A": 2})

    # organizer refuses outside [st, ct) as well
    ledger = Ledger()
    organizer = Organizer(key=TOY, account=create_account(1))
    voter = create_account(2)
    organizer.setup(ledger, [(voter.address, 1)], st_, ct, et)
    for clock in (st_ - 1, ct, et):
        with pytest.raises(OutOfWindow):
            organizer.decide_sign(voter.address, 5, clock)
    assert organizer.decide_sign(voter.address, 5, ct - 1) != 0
