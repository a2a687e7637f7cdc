"""Named adversarial scenarios.

Each attack drives a full election while one party misbehaves, then
reports whether the misbehavior got anywhere. Every attack is expected to
fail except receipt-prove: a voter who kept the blinding factor really
can prove vote content to a third party, and the suite pins that weakness
so it cannot silently disappear behind an undocumented protocol change.
"""

from __future__ import annotations

from dataclasses import replace
from functools import wraps
from pathlib import Path

from . import messages
from .blindsig import ballot_digest, fdh, new_uuid
from .errors import ConfigInvalid, ElectionOpen, UnknownAttack
from .ledger import create_account
from .scenario import AttackOutcome, Election, RunReport, ScenarioConfig, VoterSpec

FORGERY_TRIALS = 1000

# name -> attack(config) -> (election, outcome), in registration order
ATTACKS = {}


def _attack(name: str, prop: str, expected_success: bool = False):
    """Register an attack returning (election, succeeded, detail); the grader
    reads any cast it slipped into the ballot box from the box itself."""

    def register(fn):
        @wraps(fn)
        def attack(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
            election, succeeded, detail = fn(config)
            return election, AttackOutcome(name, prop, succeeded, expected_success, detail)

        ATTACKS[name] = attack
        return attack

    return register


def _first_landed(election: Election):
    landed = election.landed_honest
    if not landed:
        raise ConfigInvalid("attack needs at least one honest voter whose cast lands")
    return landed[0]


def _voted(config: ScenarioConfig) -> Election:
    """An election run through its setup, sign and vote stages."""
    e = Election(config)
    e.setup_stage()
    e.sign_stage()
    e.vote_stage()
    return e


def _recast(config: ScenarioConfig, what: str, rejected: str) -> tuple[Election, bool, str]:
    """Cast the first landed (signed, ballot, uuid) again from a fresh account."""
    e = _voted(config)
    state = _first_landed(e)
    payload = messages.Cast(signed=state.signed, ballot=state.ballot, uuid=state.uuid)
    receipt = e.ledger.submit(create_account(e.rng), e.ledger.contract_address, payload)
    accepted = bool(receipt.result)
    e.count_stage()
    return e, accepted, f"{what} " + ("was accepted" if accepted else rejected)


@_attack("double-vote", "democracy-pmv")
def double_vote(config: ScenarioConfig):
    """Recast an already-counted ballot from a fresh anonymous account."""
    what = "second cast of the same signed ballot"
    return _recast(config, what, "was rejected by the uuid guard")


@_attack("ineligible", "democracy-eligibility")
def ineligible(config: ScenarioConfig):
    """Unlisted address asks for a signature and then casts a guess."""
    if not any(v.kind == "unlisted" for v in config.voters):
        config = replace(
            config,
            voters=config.voters
            + [VoterSpec(name="intruder", ballot="INTRUDER", kind="unlisted")],
        )
    e = Election(config)
    e.run()
    got_signature = any(v.granted > 0 for v in e.voters if not v.listed)
    got_cast = e.injected_casts > 0
    detail = f"signature granted: {got_signature}, forged cast accepted: {got_cast}"
    return e, got_signature or got_cast, detail


@_attack("forge-signature", "democracy-eligibility")
def forge_signature(config: ScenarioConfig):
    """Cast with random signature values instead of an organizer signature."""
    e = _voted(config)
    n = e.key.n
    forger = create_account(e.rng)
    ballot = b"FORGED-CHOICE"
    uuid = new_uuid(e.rng)
    accepted = 0
    for _ in range(FORGERY_TRIALS):
        guess = e.rng.randrange(0, n)
        receipt = e.ledger.submit(
            forger, e.ledger.contract_address, messages.Cast(guess, ballot, uuid)
        )
        if receipt.result:
            accepted += 1
    detail = f"{accepted}/{FORGERY_TRIALS} random signatures accepted"
    if n.bit_length() <= 16:
        # small enough to prove the stronger statement outright
        m = fdh(ballot_digest(ballot, uuid), n)
        valid = sum(1 for s in range(n) if pow(s, e.key.e, n) == m)
        detail += f"; exhaustive: {valid} valid signature(s) exist in [0, n)"
    e.count_stage()
    return e, accepted > 0, detail


@_attack("replay-cast", "democracy-pmv")
def replay_cast(config: ScenarioConfig):
    """Eavesdropper resubmits an accepted cast transaction verbatim."""
    return _recast(config, "replayed triple", "was rejected")


@_attack("receipt-prove", "receipt-freeness", expected_success=True)
def receipt_prove(config: ScenarioConfig):
    """Voters hand (ballot, uuid, r, response index) to a third party."""
    e = Election(config)
    e.run()
    proven, total = e.receipts
    detail = f"{proven}/{total} vote receipts verified by a third party"
    return e, total > 0 and proven == total, detail


@_attack("early-tally", "fairness")
def early_tally(config: ScenarioConfig):
    """Read the tally one tick before the vote window closes."""
    e = _voted(config)
    e.ledger.advance_clock(config.et - 1)
    snoop = create_account(e.rng)
    try:
        e.ledger.submit(snoop, e.ledger.contract_address, messages.Tally())
        succeeded = True
    except ElectionOpen:
        succeeded = False
    e.count_stage()
    verdict = "returned a result" if succeeded else "was rejected"
    return e, succeeded, f"tally call at et-1 {verdict}"


@_attack("sealed-peek", "fairness")
def sealed_peek(config: ScenarioConfig):
    """Look for partial results in a sealed election before publication."""
    if not config.sealed:
        config = replace(config, sealed=True)
    e = Election(config)
    e.run()  # count_stage probes the pre-publication tally and scans for leaks
    detail = "; ".join(e.fairness_problems) or "only ciphertexts visible before publication"
    return e, bool(e.fairness_problems), detail


def run_attack(
    name: str, config: ScenarioConfig, out_dir: str | Path | None = None
) -> RunReport:
    """Run one named attack; the report's attack row states the verdict."""
    try:
        attack = ATTACKS[name]
    except KeyError:
        raise UnknownAttack(
            f"unknown attack {name!r}; choose from {sorted(ATTACKS)}"
        ) from None
    election, outcome = attack(config)
    report = election.build_report(attack=outcome)
    if out_dir is not None:
        report.write(out_dir)
    return report
