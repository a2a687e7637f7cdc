"""Tests for the benchmark's output checks.

    python3 -m pytest perfbench

The formulas are held against counts made by hand from the protocol, and
each check must flag a deliberately wrong output.
"""

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blindvote.scenario import ScenarioConfig, run_scenario  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def load(name):
    return ScenarioConfig.from_json_file(ROOT / "configs" / name)


def tally_hex(tally):
    return {ballot.encode().hex(): count for ballot, count in tally.items()}


def test_formulas_match_hand_counts():
    adversarial = load("adversarial.json")
    assert checks.expected_tx_count(adversarial.voters, adversarial.sealed) == 21
    assert checks.expected_tally(adversarial.voters) == Counter({"ALPHA": 2, "BETA": 1})
    sealed = load("sealed.json")
    assert checks.expected_tx_count(sealed.voters, sealed.sealed) == 19


def test_checks_pass_on_program_output():
    for name in ("adversarial.json", "sealed.json", "honest-10.json"):
        config = load(name)
        report = run_scenario(config)
        tally = checks.expected_tally(config.voters)
        assert checks.check_tally(tally, report.tally_hex, name) == []
        expected = checks.expected_tx_count(config.voters, config.sealed)
        assert checks.check_tx_count(expected, report.tx_count, name) == []
        rows = [(row.prop, row.observed) for row in report.assertions]
        assert checks.check_rows(rows, config.sealed, name) == []


def test_tally_check_flags_a_moved_vote():
    expected = Counter({"ALPHA": 2, "BETA": 1})
    moved = tally_hex(Counter({"ALPHA": 1, "BETA": 2}))
    assert checks.check_tally(expected, tally_hex(expected), "x") == []
    assert checks.check_tally(expected, moved, "x")
    assert checks.check_tally(expected, None, "x")


def test_tx_count_check_flags_off_by_one():
    assert checks.check_tx_count(21, 21, "x") == []
    assert checks.check_tx_count(21, 22, "x")
    assert checks.check_tx_count(21, 20, "x")


def test_attack_check_flags_a_flipped_verdict():
    for name in ("double-vote", "ineligible", "forge-signature", "replay-cast",
                 "early-tally", "sealed-peek"):
        assert checks.check_attack(name, False) == []
        assert checks.check_attack(name, True)
    assert checks.check_attack("receipt-prove", True) == []
    assert checks.check_attack("receipt-prove", False)


def test_row_check_flags_a_flipped_or_missing_row():
    rows = [(p, v) for p, v in checks.EXPECTED_VERDICTS.items() if p != "fairness"]
    assert checks.check_rows(rows, False, "x") == []
    assert checks.check_rows(rows, True, "x")  # sealed runs grade fairness too
    flipped = [(p, "violated" if p == "correctness" else v) for p, v in rows]
    assert checks.check_rows(flipped, False, "x")
    assert checks.check_rows(rows[1:], False, "x")
    privacy = [(p, "violated" if p == "privacy" else v) for p, v in rows]
    assert checks.check_rows(privacy, False, "x", waive={"privacy"}) == []


def test_probe_hits_the_nonunit_first_request():
    report = run_scenario(workloads.probe_config())
    assert checks.first_request_is_nonunit(report.transcript_text)
    assert dict((r.prop, r.observed) for r in report.assertions)["privacy"] == "violated"
    honest = run_scenario(load("honest-10.json"))
    assert not checks.first_request_is_nonunit(honest.transcript_text)


def test_rosters_have_the_stated_make_up():
    toy = workloads.toy_roster(200, random.Random(1))
    assert {v.kind for v in toy} == {"honest"}
    assert any(v.chances == 2 for v in toy)
    assert any(v.attempts > v.chances for v in toy)
    mixed = workloads.mixed_roster(24, random.Random(1))
    assert [v.kind for v in mixed].count("unlisted") == 1
    assert sum(v.attempts > v.chances for v in mixed) == 1
    assert all(len(v.ballot) >= 4 for v in toy + mixed)
