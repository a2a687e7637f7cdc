"""Scenario runner: configs, determinism, the assertion battery, transcripts."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from blindvote import contract, messages
from blindvote.actors import voter_cast, voter_obtain_signature, voter_prepare
from blindvote.errors import ConfigInvalid, ResultSealed
from blindvote.ledger import Ledger, create_account, import_log, replay
from blindvote.scenario import (
    EXPECTED_VERDICTS,
    Election,
    ScenarioConfig,
    VoterSpec,
    recount,
    run_scenario,
    verify_transcript,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        election.ledger.submit(create_account(99), election.contract_address, cast)
        election.count_stage()
        assert election.fairness_problems == ["a: ballot bytes inside a cast payload"]

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
        voter_obtain_signature(
            junk, election.ledger, election.contract_address, election.organizer
        )
        election.vote_stage()
        assert voter_cast(junk, election.ledger, election.contract_address, election.rng)
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
            box = list(election.contract.ballot_box.values())
            assert len(box) == 4 and calls == box
            report = election.build_report()
            report.write(tmp_path / str(key_bits))
            assert calls == box
            del calls[:]
            assert verify_transcript(report.transcript_path, report.report_path).ok
            assert calls == box

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
