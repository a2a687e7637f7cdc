"""Named adversarial scenarios.

Each attack drives a full election while one party misbehaves, then
reports whether the misbehavior got anywhere. Every attack is expected to
fail except receipt-prove: a voter who kept the blinding factor really
can prove vote content to a third party, and the suite pins that weakness
so it cannot silently disappear behind an undocumented protocol change.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import messages
from .actors import prove_receipt, verify_receipt, voter_cast
from .blindsig import ballot_digest, fdh, new_uuid
from .errors import ConfigInvalid, ElectionOpen, UnknownAttack
from .ledger import create_account
from .scenario import AttackOutcome, Election, RunReport, ScenarioConfig, VoterSpec

FORGERY_TRIALS = 1000


def _first_accepted(election: Election):
    for v in election.voters:
        if v.spec.kind != "honest":
            continue
        for state, ok in zip(v.states, v.cast_results):
            if ok:
                return state
    raise ConfigInvalid("attack needs at least one honest voter whose cast lands")


def _voted(config: ScenarioConfig) -> Election:
    """An election run through its setup, sign and vote stages."""
    e = Election(config)
    e.setup_stage()
    e.sign_stage()
    e.vote_stage()
    return e


def double_vote(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Recast an already-counted ballot from a fresh anonymous account."""
    e = _voted(config)
    state = _first_accepted(e)
    second = voter_cast(state, e.ledger, e.contract_address, e.rng)
    e.adversary_cast_results.append(second)
    e.count_stage()
    return e, AttackOutcome(
        name="double-vote",
        property_exercised="democracy-pmv",
        succeeded=second,
        expected_success=False,
        detail="second cast of the same signed ballot "
        + ("was accepted" if second else "was rejected by the uuid guard"),
    )


def replay_cast(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Eavesdropper resubmits an accepted cast transaction verbatim."""
    e = _voted(config)
    state = _first_accepted(e)
    eavesdropper = create_account(e.rng)
    payload = messages.Cast(signed=state.signed, ballot=state.ballot, uuid=state.uuid)
    receipt = e.ledger.submit(eavesdropper, e.contract_address, payload)
    succeeded = bool(receipt.result)
    e.adversary_cast_results.append(succeeded)
    e.count_stage()
    return e, AttackOutcome(
        name="replay-cast",
        property_exercised="democracy-pmv",
        succeeded=succeeded,
        expected_success=False,
        detail="replayed triple " + ("was accepted" if succeeded else "was rejected"),
    )


def ineligible(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Unlisted address asks for a signature and then casts a guess."""
    if not any(v.kind == "unlisted" for v in config.voters):
        config = replace(
            config,
            voters=config.voters
            + [VoterSpec(name="intruder", ballot="INTRUDER", kind="unlisted")],
        )
    e = Election(config)
    e.run()
    intruders = [v for v in e.voters if not v.listed]
    got_signature = any(v.granted > 0 for v in intruders)
    got_cast = any(any(v.junk_results) for v in intruders)
    return e, AttackOutcome(
        name="ineligible",
        property_exercised="democracy-eligibility",
        succeeded=got_signature or got_cast,
        expected_success=False,
        detail=f"signature granted: {got_signature}, forged cast accepted: {got_cast}",
    )


def forge_signature(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
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
            forger, e.contract_address, messages.Cast(guess, ballot, uuid)
        )
        if receipt.result:
            accepted += 1
        e.adversary_cast_results.append(bool(receipt.result))
    detail = f"{accepted}/{FORGERY_TRIALS} random signatures accepted"
    if n.bit_length() <= 16:
        # small enough to prove the stronger statement outright
        m = fdh(ballot_digest(ballot, uuid), n)
        valid = sum(1 for s in range(n) if pow(s, e.key.e, n) == m)
        detail += f"; exhaustive: {valid} valid signature(s) exist in [0, n)"
    e.count_stage()
    return e, AttackOutcome(
        name="forge-signature",
        property_exercised="democracy-eligibility",
        succeeded=accepted > 0,
        expected_success=False,
        detail=detail,
    )


def receipt_prove(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Voters hand (ballot, uuid, r, response index) to a third party."""
    e = Election(config)
    e.run()
    proven = 0
    total = 0
    for v in e.voters:
        if v.spec.kind != "honest":
            continue
        for state, ok in zip(v.states, v.cast_results):
            if not ok:
                continue
            total += 1
            if verify_receipt(prove_receipt(state), e.ledger, e.contract):
                proven += 1
    return e, AttackOutcome(
        name="receipt-prove",
        property_exercised="receipt-freeness",
        succeeded=total > 0 and proven == total,
        expected_success=True,
        detail=f"{proven}/{total} vote receipts verified by a third party",
    )


def early_tally(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Read the tally one tick before the vote window closes."""
    e = _voted(config)
    e.ledger.advance_clock(config.et - 1)
    snoop = create_account(e.rng)
    try:
        e.ledger.submit(snoop, e.contract_address, messages.Tally())
        succeeded = True
    except ElectionOpen:
        succeeded = False
    e.count_stage()
    return e, AttackOutcome(
        name="early-tally",
        property_exercised="fairness",
        succeeded=succeeded,
        expected_success=False,
        detail="tally call at et-1 "
        + ("returned a result" if succeeded else "was rejected"),
    )


def sealed_peek(config: ScenarioConfig) -> tuple[Election, AttackOutcome]:
    """Look for partial results in a sealed election before publication."""
    if not config.sealed:
        config = replace(config, sealed=True)
    e = Election(config)
    e.run()  # count_stage probes the pre-publication tally and scans for leaks
    succeeded = (e.sealed_peek_raised is False) or bool(e.sealed_leaks)
    return e, AttackOutcome(
        name="sealed-peek",
        property_exercised="fairness",
        succeeded=succeeded,
        expected_success=False,
        detail="; ".join(e.sealed_leaks) or "only ciphertexts visible before publication",
    )


ATTACKS = {
    "double-vote": double_vote,
    "ineligible": ineligible,
    "forge-signature": forge_signature,
    "replay-cast": replay_cast,
    "receipt-prove": receipt_prove,
    "early-tally": early_tally,
    "sealed-peek": sealed_peek,
}


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
