"""The named attacks behave per the security table: all contained except
the receipt proof, which must keep succeeding."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from blindvote import scenario
from blindvote.attacks import ATTACKS, forge_signature, run_attack
from blindvote.errors import ConfigInvalid, UnknownAttack
from blindvote.scenario import VoterSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# in registration order, which CI and the benchmark sweep both iterate
ALL_NAMES = [
    "double-vote",
    "ineligible",
    "forge-signature",
    "replay-cast",
    "receipt-prove",
    "early-tally",
    "sealed-peek",
]


def test_registry_names():
    assert list(ATTACKS) == ALL_NAMES


def test_unknown_attack_rejected(small_config):
    with pytest.raises(UnknownAttack, match="choose from"):
        run_attack("rubber-hose", small_config)


@pytest.mark.parametrize("name", sorted(set(ALL_NAMES) - {"receipt-prove", "forge-signature"}))
def test_contained_attacks_fail(name, small_config):
    report = run_attack(name, small_config)
    assert report.attack.name == name
    assert report.attack.succeeded is False
    assert report.attack.expected_success is False
    assert report.all_ok(), [r for r in report.assertions if not r.ok]


@pytest.mark.parametrize("name", ["double-vote", "replay-cast"])
def test_recast_attacks_need_a_landed_honest_cast(name, small_config):
    cfg = replace(small_config, voters=[VoterSpec("dave", "ALPHA", kind="careless")])
    with pytest.raises(ConfigInvalid, match="needs at least one honest voter whose cast lands"):
        run_attack(name, cfg)


def test_forge_signature_fails(small_config):
    # guessing hits the single valid signature with probability 1/3233 per
    # trial at the toy modulus, so the sampled outcome is pinned by seed;
    # seed 1 draws 1000 misses (the exhaustive count below is the proof)
    report = run_attack("forge-signature", replace(small_config, seed=1))
    assert report.attack.succeeded is False
    assert report.all_ok(), [r for r in report.assertions if not r.ok]


def test_receipt_prove_succeeds(small_config):
    report = run_attack("receipt-prove", small_config)
    assert report.attack.succeeded is True
    assert report.attack.expected_success is True
    assert report.attack.detail == "3/3 vote receipts verified by a third party"
    assert report.all_ok()


def test_receipt_prove_checks_each_receipt_once(monkeypatch):
    # the attack and the grader's receipt row read one count per election
    calls = []
    check = scenario.verify_receipt

    def counted(receipt, *rest):
        calls.append(receipt)
        return check(receipt, *rest)

    monkeypatch.setattr(scenario, "verify_receipt", counted)
    config = scenario.ScenarioConfig.from_json_file(CONFIGS / "sealed.json")
    report = run_attack("receipt-prove", config)
    assert report.attack.detail == "4/4 vote receipts verified by a third party"
    assert len(calls) == 4


def test_double_vote_keeps_tally_intact(small_config):
    report = run_attack("double-vote", small_config)
    assert report.tally_hex == {b"ALPHA".hex(): 2, b"BETA".hex(): 1}


def test_ineligible_injects_intruder_when_absent(small_config):
    report = run_attack("ineligible", small_config)
    names = {v["name"] for v in report.voters}
    assert "intruder" in names


def test_forge_signature_reports_exhaustive_uniqueness(small_config):
    _, outcome = forge_signature(replace(small_config, seed=1))
    assert "exhaustive: 1 valid signature(s) exist" in outcome.detail
    assert outcome.detail.startswith("0/1000")


def test_sealed_peek_seals_unsealed_config(small_config):
    report = run_attack("sealed-peek", small_config)
    assert report.attack.succeeded is False
    assert any(row.prop == "fairness" and row.ok for row in report.assertions)


def test_attack_report_serializes(small_config):
    import json

    json.dumps(run_attack("double-vote", small_config).to_dict())


def test_attack_writes_artifacts(tmp_path, small_config):
    report = run_attack("early-tally", small_config, out_dir=tmp_path)
    assert (tmp_path / "transcript.log").exists()
    doc = (tmp_path / "report.json").read_text()
    assert '"attack"' in doc
    assert report.report_path == str(tmp_path / "report.json")


def test_attack_sweep_script_exits_zero(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "attack_sweep.py"
    spec = importlib.util.spec_from_file_location("attack_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main() == 0
    assert "UNEXPECTED" not in capsys.readouterr().out
