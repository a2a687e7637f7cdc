"""Scenario runner: configs, determinism, the assertion battery, transcripts."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from blindvote import contract, messages
from blindvote.actors import voter_cast, voter_obtain_signature, voter_prepare
from blindvote.blindsig import ballot_digest, fdh
from blindvote.errors import ConfigInvalid, ResultSealed
from blindvote.ledger import Ledger, create_account, import_log, replay
from blindvote.scenario import (
    EXPECTED_VERDICTS,
    Election,
    ScenarioConfig,
    VoterSpec,
    evaluate_assertions,
    recount,
    run_scenario,
    verify_transcript,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WINDOWS = {"st": 1, "ct": 2, "et": 3}

PLAIN_ROWS = {
    "privacy",
    "receipt-freeness",
    "robustness",
    "verifiability",
    "democracy-eligibility",
    "democracy-pmv",
    "correctness",
}


class TestConfig:
    def test_zero_voters_invalid(self):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig(st=1, ct=2, et=3, voters=[]).validate()

    def test_bad_windows_invalid(self):
        cfg = ScenarioConfig(st=20, ct=10, et=30, voters=[VoterSpec("a", "A")])
        with pytest.raises(ConfigInvalid, match="windows"):
            cfg.validate()

    def test_duplicate_names_invalid(self):
        cfg = ScenarioConfig(
            st=1, ct=2, et=3, voters=[VoterSpec("a", "A"), VoterSpec("a", "B")]
        )
        with pytest.raises(ConfigInvalid, match="duplicate"):
            cfg.validate()

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_invalid(self, seed):
        # random.Random(-7) draws the same stream as Random(7)
        cfg = ScenarioConfig(st=1, ct=2, et=3, voters=[VoterSpec("a", "A")], seed=seed)
        with pytest.raises(ConfigInvalid, match=r"^seed: must be an integer >= 0$"):
            cfg.validate()

    def test_bad_seed_does_not_hide_bad_windows(self):
        cfg = ScenarioConfig(st=20, ct=10, et=5, voters=[VoterSpec("a", "A")], seed=True)
        with pytest.raises(ConfigInvalid, match=r"^windows: .*; seed: must be"):
            cfg.validate()

    def test_unknown_kind_invalid(self):
        cfg = ScenarioConfig(st=1, ct=2, et=3, voters=[VoterSpec("a", "A", kind="evil")])
        with pytest.raises(ConfigInvalid, match="kind"):
            cfg.validate()

    def test_empty_ballot_invalid(self):
        cfg = ScenarioConfig(st=1, ct=2, et=3, voters=[VoterSpec("a", "")])
        with pytest.raises(ConfigInvalid, match="ballot"):
            cfg.validate()

    def test_small_key_bits_invalid(self):
        cfg = ScenarioConfig(
            st=1, ct=2, et=3, voters=[VoterSpec("a", "A")], key_bits=8
        )
        with pytest.raises(ConfigInvalid, match="key_bits"):
            cfg.validate()

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            ScenarioConfig.from_dict(
                {"windows": {"st": 1, "ct": 2, "et": 3}, "voters": [], "bogus": 1}
            )

    @pytest.mark.parametrize("voters", [{}, "", 0, False, "A", {"a": "A"}])
    def test_voters_not_a_list_rejected(self, voters):
        with pytest.raises(ConfigInvalid, match="voters: must be a list"):
            ScenarioConfig.from_dict({"windows": {"st": 1, "ct": 2, "et": 3}, "voters": voters})

    @pytest.mark.parametrize("doc", [{}, {"voters": None}], ids=["absent", "null"])
    def test_no_voters_is_an_empty_list(self, doc):
        with pytest.raises(ConfigInvalid, match="voters: at least one required"):
            ScenarioConfig.from_dict({"windows": {"st": 1, "ct": 2, "et": 3}, **doc})

    @pytest.mark.parametrize(
        "doc, problem",
        [
            ([], r"^config document must be an object$"),
            ({"voters": []}, r"^windows: object with st, ct, et required$"),
            ({"windows": {"st": 1, "ct": 2}}, r"^windows: object with st, ct, et required$"),
            ({"windows": WINDOWS, "voters": ["alice"]}, r"^voters\[0\]: must be an object$"),
            (
                {"windows": WINDOWS, "voters": [{"name": "a", "ballot": "A", "colour": "red"}]},
                r"^voters\[0\]: .*unexpected keyword argument 'colour'",
            ),
            (
                {"windows": WINDOWS, "voters": [{"ballot": "A"}]},
                r"^voters\[0\]: .*missing 1 required positional argument: 'name'",
            ),
        ],
        ids=["not-an-object", "no-windows", "window-missing", "voter-not-an-object",
             "voter-unknown-key", "voter-no-name"],
    )
    def test_malformed_document_rejected(self, doc, problem):
        with pytest.raises(ConfigInvalid, match=problem):
            ScenarioConfig.from_dict(doc)

    def test_dict_round_trip(self, honest_config):
        assert ScenarioConfig.from_dict(honest_config.to_dict()) == honest_config

    def test_from_json_file(self, tmp_path, honest_config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(honest_config.to_dict()))
        assert ScenarioConfig.from_json_file(path) == honest_config

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalid, match="JSON"):
            ScenarioConfig.from_json_file(path)


class TestHonestRun:
    def test_tally_matches_config_multiset(self, honest_config):
        report = run_scenario(honest_config)
        assert report.tally_hex == {b"ALPHA".hex(): 6, b"BETA".hex(): 4}

    def test_all_assertions_ok(self, honest_config):
        report = run_scenario(honest_config)
        assert report.all_ok()
        assert {row.prop for row in report.assertions} == PLAIN_ROWS

    def test_verdict_pattern_matches_security_table(self, honest_config):
        report = run_scenario(honest_config)
        for row in report.assertions:
            assert row.expected == EXPECTED_VERDICTS[row.prop]
            assert row.observed == row.expected
        flagged = [r.prop for r in report.assertions if r.observed == "attack-found"]
        assert flagged == ["receipt-freeness"]

    def test_deterministic_transcripts(self, honest_config):
        a = run_scenario(honest_config)
        b = run_scenario(honest_config)
        assert a.transcript_text == b.transcript_text
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_transcript(self, honest_config):
        a = run_scenario(honest_config)
        b = run_scenario(replace(honest_config, seed=43))
        assert a.transcript_text != b.transcript_text

    def test_report_is_json_serializable(self, honest_config):
        json.dumps(run_scenario(honest_config).to_dict())


class TestAdversarialKinds:
    def test_careless_voter_flags_privacy(self, small_config):
        cfg = replace(
            small_config,
            voters=small_config.voters + [VoterSpec("dave", "ALPHA", kind="careless")],
        )
        report = run_scenario(cfg)
        by_prop = {row.prop: row for row in report.assertions}
        assert not by_prop["privacy"].ok
        assert "linkable" in by_prop["privacy"].detail
        # the ballot still counts; only anonymity was thrown away
        assert by_prop["correctness"].ok
        assert not report.all_ok()

    def test_unlisted_adversary_contained(self, small_config):
        cfg = replace(
            small_config,
            voters=small_config.voters + [VoterSpec("mallory", "EVIL", kind="unlisted")],
        )
        report = run_scenario(cfg)
        assert report.all_ok()
        mallory = next(v for v in report.voters if v["name"] == "mallory")
        assert mallory["granted"] == 0
        assert mallory["refusals"] == 1
        assert report.tally_hex.get(b"EVIL".hex()) is None

    def test_exhausted_voter_refused(self, small_config):
        cfg = replace(
            small_config,
            voters=[VoterSpec("greedy", "ALPHA", chances=1, votes=3)]
            + small_config.voters[1:],
        )
        report = run_scenario(cfg)
        assert report.all_ok()
        greedy = next(v for v in report.voters if v["name"] == "greedy")
        assert greedy["granted"] == 1
        assert greedy["refusals"] == 2
        assert greedy["accepted_casts"] == 1

    def test_multi_chance_voter_votes_twice(self, small_config):
        cfg = replace(
            small_config,
            voters=[VoterSpec("double", "GAMMA", chances=2)] + small_config.voters[1:],
        )
        report = run_scenario(cfg)
        assert report.all_ok()
        assert report.tally_hex[b"GAMMA".hex()] == 2


class TestPrivacyRow:
    def _privacy(self, report):
        return next(row for row in report.assertions if row.prop == "privacy")

    def test_nonunit_first_request_is_violated(self):
        # the first sign request (index 1) and the fdh of all three ballots
        # with uuids 0, 1 and 2 share a factor with n = 3233
        voters = [VoterSpec(f"v{i}", ballot) for i, ballot in enumerate(["C121", "C73", "C16"])]
        cfg = ScenarioConfig(st=10, ct=20, et=30, voters=voters, seed=60)
        row = self._privacy(run_scenario(cfg))
        assert row.observed == "violated"
        assert row.detail == "sign request at index 1 is not a unit mod n"

    def test_honest_10_seed_10_names_the_request(self):
        cfg = replace(ScenarioConfig.from_json_file(CONFIGS / "honest-10.json"), seed=10)
        row = self._privacy(run_scenario(cfg))
        assert row.observed == "violated"
        assert row.detail == "sign request at index 1 is not a unit mod n"

    def test_detail_lists_linkable_casts_before_surfaced_values(self, small_config):
        cfg = replace(
            small_config,
            voters=small_config.voters + [VoterSpec("dave", "ALPHA", kind="careless")],
            key_bits=64,
        )
        election = Election(cfg)
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        election.count_stage()
        _r_is_a_request_value(election)
        transcript = election.ledger.export()
        row = next(r for r in evaluate_assertions(election, transcript) if r.prop == "privacy")
        assert row.detail == (
            "cast at index 16 linkable to a known address; "
            "voter-local value surfaced at index 1; "
            "voter-local value surfaced at index 2; "
            "voter-local value surfaced at index 3"
        )


class TestSealedRun:
    def test_fairness_row_present_and_ok(self, small_config):
        cfg = replace(small_config, sealed=True)
        report = run_scenario(cfg)
        assert report.all_ok()
        assert {row.prop for row in report.assertions} == PLAIN_ROWS | {"fairness"}

    def test_sealed_tally_equals_plain_tally(self, small_config):
        plain = run_scenario(small_config)
        sealed = run_scenario(replace(small_config, sealed=True))
        assert sealed.tally_hex == plain.tally_hex

    def test_short_ballots_inside_ciphertext_are_no_leak(self):
        # one-byte ballots turn up inside ciphertexts by chance
        voters = [VoterSpec(f"v{i}", "AB"[i % 2]) for i in range(40)]
        cfg = ScenarioConfig(st=10, ct=20, et=30, voters=voters, sealed=True, seed=1)
        election = Election(cfg)
        election.run()
        assert election.fairness_problems == []
        report = election.build_report()
        fairness = next(row for row in report.assertions if row.prop == "fairness")
        assert fairness.observed == "holds"

    def test_unsealed_short_ballot_in_a_cast_leaks(self, small_config):
        election = Election(replace(small_config, sealed=True, voters=[VoterSpec("a", "A")]))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        cast = messages.Cast(signed=1, ballot=b"A", uuid=bytes(16))
        voter = election.voters[0].account
        election.ledger.submit(voter, election.ledger.contract_address, cast)
        election.count_stage()
        assert election.fairness_problems == ["a: ballot bytes inside a cast payload"]

    def test_an_outsiders_plaintext_is_no_voters_leak(self, small_config):
        # an account that is no voter's posts ALPHA in hex and in a cast; alice
        # and carol chose ALPHA, but neither leaked it
        election = Election(replace(small_config, sealed=True))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        outsider = create_account(99)
        request = messages.SignRequest(int.from_bytes(b"ALPHA", "big"))
        election.ledger.submit(outsider, bytes(20), request)
        cast = messages.Cast(signed=1, ballot=b"ALPHA", uuid=bytes(16))
        election.ledger.submit(outsider, election.ledger.contract_address, cast)
        election.count_stage()
        assert election.fairness_problems == []
        report = election.build_report()
        fairness = next(row for row in report.assertions if row.prop == "fairness")
        assert fairness.observed == "holds"

    def test_ballot_that_does_not_unseal_is_spoiled(self, tmp_path, small_config):
        # the organizer signs blind, so a listed voter can get a payload that
        # is no ciphertext signed and cast; the Tally counts the other ballots
        dave = VoterSpec("dave", "ALPHA", chances=2, votes=1)
        cfg = replace(small_config, sealed=True, voters=small_config.voters + [dave])
        election = Election(cfg)
        election.setup_stage()
        election.sign_stage()
        junk = voter_prepare(
            b"NOT-A-CIPHERTEXT", election.rng, election.key.public, election.voters[-1].account
        )
        voter_obtain_signature(junk, election.ledger, election.organizer)
        election.vote_stage()
        assert voter_cast(junk, election.ledger, election.rng)
        election.count_stage()
        assert election.onchain_tally == Counter({b"ALPHA": 3, b"BETA": 1})
        report = election.build_report()
        report.write(tmp_path)
        check = verify_transcript(report.transcript_path, report.report_path)
        assert check.ok
        assert check.tally_hex == report.tally_hex

    def test_each_contract_unseals_a_ballot_once(self, tmp_path, monkeypatch):
        # count_stage and the grader: only the live contract decrypts, each
        # replay opens every entry with the secret it recorded; verify: one
        # replay, which decrypts
        calls = []
        unseal = contract.unseal_ballot

        def counted(sealed, *key):
            calls.append(sealed)
            return unseal(sealed, *key)

        monkeypatch.setattr(contract, "unseal_ballot", counted)
        config = ScenarioConfig.from_json_file(CONFIGS / "sealed.json")
        for key_bits in (None, 512):
            del calls[:]
            election = Election(replace(config, key_bits=key_bits))
            election.run()
            box = list(election.ledger.contract.ballot_box.values())
            assert len(box) == 4 and calls == box
            report = election.build_report()
            report.write(tmp_path / str(key_bits))
            assert calls == box
            del calls[:]
            assert verify_transcript(report.transcript_path, report.report_path).ok
            assert calls == box

    def test_each_sealed_run_factors_its_key_once(self, tmp_path, monkeypatch):
        # count_stage and the grader: only the live Publish factors n, each
        # replay takes the key it published; verify: one replay, which factors
        calls = []
        factor = contract.factor_modulus

        def counted(n, e, d):
            calls.append((n, e, d))
            return factor(n, e, d)

        monkeypatch.setattr(contract, "factor_modulus", counted)
        config = ScenarioConfig.from_json_file(CONFIGS / "sealed.json")
        for key_bits in (None, 512):
            del calls[:]
            election = Election(replace(config, key_bits=key_bits))
            election.run()
            key = election.ledger.contract.published_key
            assert calls == [(key.n, key.e, key.d)]
            report = election.build_report()
            report.write(tmp_path / str(key_bits))
            assert calls == [(key.n, key.e, key.d)]
            del calls[:]
            assert verify_transcript(report.transcript_path, report.report_path).ok
            assert calls == [(key.n, key.e, key.d)]

    def test_transcript_carries_no_plaintext(self, small_config):
        cfg = replace(small_config, sealed=True)
        report = run_scenario(cfg)
        for spec in cfg.voters:
            assert spec.ballot.encode().hex() not in report.transcript_text


class TestLogNotCopied:
    def test_sign_stage_and_receipts_read_single_entries(self, honest_config, monkeypatch):
        # Ledger.log copies the whole log; per-voter reads of it made the
        # sign stage and the receipt check quadratic in the voter count
        def copy_forbidden(ledger):
            raise AssertionError("Ledger.log copied")

        election = Election(honest_config)
        election.setup_stage()
        with monkeypatch.context() as patch:
            patch.setattr(Ledger, "log", property(copy_forbidden))
            election.sign_stage()
        election.vote_stage()
        election.count_stage()
        with monkeypatch.context() as patch:
            patch.setattr(Ledger, "log", property(copy_forbidden))
            assert election.receipts == (10, 10)


class TestTranscripts:
    def test_write_and_verify(self, tmp_path, honest_config):
        report = run_scenario(honest_config, out_dir=tmp_path)
        assert (tmp_path / "transcript.log").exists()
        assert (tmp_path / "report.json").exists()
        check = verify_transcript(report.transcript_path, report.report_path)
        assert check.ok
        assert check.tally_hex == report.tally_hex

    def test_deleted_cast_detected(self, tmp_path, honest_config):
        report = run_scenario(honest_config, out_dir=tmp_path)
        lines = (tmp_path / "transcript.log").read_text().splitlines(keepends=True)
        cast_line = next(i for i, l in enumerate(lines) if " cast " in l)
        (tmp_path / "transcript.log").write_text(
            "".join(lines[:cast_line] + lines[cast_line + 1 :])
        )
        check = verify_transcript(report.transcript_path, report.report_path)
        assert not check.ok

    def test_edited_ballot_detected(self, tmp_path, honest_config):
        report = run_scenario(honest_config, out_dir=tmp_path)
        lines = (tmp_path / "transcript.log").read_text().splitlines(keepends=True)
        idx = next(i for i, l in enumerate(lines) if " cast " in l)
        parts = lines[idx].rstrip("\n").split(" ")
        ballot = parts[6]
        parts[6] = ("45" + ballot[2:]) if not ballot.startswith("45") else ("46" + ballot[2:])
        lines[idx] = " ".join(parts) + "\n"
        (tmp_path / "transcript.log").write_text("".join(lines))
        check = verify_transcript(report.transcript_path, report.report_path)
        assert not check.ok

    def test_recount_matches_onchain(self, honest_config):
        election = Election(honest_config)
        election.run()
        offchain = recount(replay(import_log(election.ledger.export())))
        assert offchain == election.onchain_tally

    def test_recount_sealed_unpublished_raises(self, small_config):
        election = Election(replace(small_config, sealed=True))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        with pytest.raises(ResultSealed):
            recount(replay(import_log(election.ledger.export())))

    @pytest.mark.parametrize("tally, ok", [({}, True), ({"41": 99}, False)], ids=["empty", "votes"])
    def test_unpublished_report_tally_must_be_empty(self, tmp_path, tally, ok):
        election = Election(ScenarioConfig.from_json_file(CONFIGS / "sealed.json"))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        text = election.ledger.export()
        (tmp_path / "transcript.log").write_text(text)
        report = {"tx_count": len(import_log(text)), "tally": tally}
        (tmp_path / "report.json").write_text(json.dumps(report))
        check = verify_transcript(tmp_path / "transcript.log", tmp_path / "report.json")
        assert check.ok == ok and check.tally_hex is None


# --- every grader row can fail -----------------------------------------------


def _respec(election, **changes):
    """Rewrite the first voter's config after the run: the grader now sees a
    budget or a listing the organizer never applied."""
    voter = election.voters[0]
    voter.spec = replace(voter.spec, **changes)


def _r_is_a_request_value(election):
    # the blinding factor equal to a value the sign stage put on the ledger
    state = election.voters[0].states[0]
    state.r = state.blinded


def _tally_readable_before_publication(election, monkeypatch):
    monkeypatch.setattr(election.ledger.contract, "tally", lambda clock: Counter())


def _ballot_hex_in_a_message(election, monkeypatch):
    # a plain message from the first voter's eligible account whose one field
    # is that voter's ballot, ALPHA, in hex
    request = messages.SignRequest(int.from_bytes(b"ALPHA", "big"))
    election.ledger.submit(election.voters[0].account, bytes(20), request)


def _stuffed_cast(election, monkeypatch):
    # a cast that no voter made, carrying the one valid signature a search of
    # [1, n) finds at n = 3233, sent straight to the ledger from a fresh account
    ballot, uuid = b"STUFFED", bytes(range(16))
    key = election.key
    m = fdh(ballot_digest(ballot, uuid), key.n)
    signed = next(s for s in range(1, key.n) if pow(s, key.e, key.n) == m)
    cast = messages.Cast(signed, ballot, uuid)
    account = create_account(election.rng)
    receipt = election.ledger.submit(account, election.ledger.contract_address, cast)
    assert receipt.result


#: (row, detail, config changes, tamper before the count stage (election,
#: monkeypatch), tamper after it (election) returning a replacement
#: transcript or None)
GRADER_FAULTS = [
    ("privacy", "voter-local value surfaced at index", {"key_bits": 64}, None,
     _r_is_a_request_value),
    ("robustness", "unlisted but granted a signature", {}, None,
     lambda e: _respec(e, kind="unlisted")),
    ("robustness", "granted beyond budget", {}, None,
     lambda e: _respec(e, chances=0, votes=1)),
    ("robustness", "a refused request went unnoticed", {}, None,
     lambda e: setattr(e.voters[0], "refusals", 1)),
    ("robustness", "an unsigned adversarial cast was accepted", {}, _stuffed_cast, None),
    ("verifiability", "replay failed:", {}, None, lambda e: e.ledger.export()[:-1]),
    ("verifiability", "replayed contract state diverged", {}, None,
     lambda e: e.ledger.contract.ballot_box.update({bytes(16): b"X"})),
    ("verifiability", "off-chain recount disagrees with contract", {}, None,
     lambda e: setattr(e, "offchain_tally", Counter())),
    ("democracy-eligibility", "lacks an organizer signature", {}, None,
     lambda e: setattr(e.voters[0].landed[0], "signed_blinded", None)),
    ("democracy-eligibility", "unlisted adversary got through", {}, None,
     lambda e: _respec(e, kind="unlisted")),
    ("democracy-eligibility", "forged cast accepted", {}, _stuffed_cast, None),
    ("democracy-pmv", "accepted casts exceed chances", {}, None,
     lambda e: _respec(e, chances=0, votes=1)),
    ("correctness", "tally unavailable", {}, None, lambda e: setattr(e, "onchain_tally", None)),
    ("fairness", "tally was readable before key publication", {"sealed": True},
     _tally_readable_before_publication, None),
    ("fairness", "ballot hex visible in transcript", {"sealed": True},
     _ballot_hex_in_a_message, None),
]


@pytest.mark.parametrize(
    "prop, detail, changes, before_count, after_count",
    GRADER_FAULTS,
    ids=[f"{prop}: {detail}" for prop, detail, *_ in GRADER_FAULTS],
)
def test_row_flags_a_tampered_fact(
    small_config, monkeypatch, prop, detail, changes, before_count, after_count
):
    election = Election(replace(small_config, **changes))
    election.setup_stage()
    election.sign_stage()
    election.vote_stage()
    if before_count:
        before_count(election, monkeypatch)
    election.count_stage()
    transcript = election.ledger.export()
    if after_count:
        transcript = after_count(election) or transcript
    row = next(row for row in evaluate_assertions(election, transcript) if row.prop == prop)
    assert row.expected == "holds" and row.observed == "violated"
    assert detail in row.detail
