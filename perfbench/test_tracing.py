"""Tests for the tracer: spans are recorded at every lookup site and every
replaced binding is restored afterwards.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blindvote import attacks, ledger, scenario  # noqa: E402
from blindvote.scenario import ScenarioConfig, run_scenario  # noqa: E402

import tracing  # noqa: E402


def test_tracer_counts_and_restores():
    config = ScenarioConfig.from_json_file(ROOT / "configs" / "adversarial.json")
    before = (scenario.replay, ledger.Ledger.submit, vars(ledger.Ledger)["log"],
              dict(attacks.ATTACKS))
    with tracing.Tracer() as tracer:
        run_scenario(config)
    totals = tracer.totals()
    assert totals["ledger.Ledger.submit.calls"] == 21
    # looked up by name in scenario: count_stage and the verifiability row
    assert totals["ledger.replay.calls"] == 2
    assert totals["scenario.grade.privacy.calls"] == 1
    assert totals["ledger.Ledger.log.calls"] > 0
    for name in ("ledger.Ledger.submit", "scenario.Election.build_report"):
        assert 0 <= totals[f"{name}.self_s"] <= totals[f"{name}.s"]
    assert before == (scenario.replay, ledger.Ledger.submit, vars(ledger.Ledger)["log"],
                      dict(attacks.ATTACKS))
