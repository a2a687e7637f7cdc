"""Output checks worked out from the voter list, apart from the program.

Every function returns a list of problems; an empty list means the output
passed. None of them reads a stored copy of earlier output.
"""

from __future__ import annotations

import math
from collections import Counter

#: The README's property table: the verdict each graded row must hold on a
#: well-behaved run. Fairness is graded only in sealed mode.
EXPECTED_VERDICTS = {
    "privacy": "holds",
    "receipt-freeness": "attack-found",
    "robustness": "holds",
    "verifiability": "holds",
    "democracy-eligibility": "holds",
    "democracy-pmv": "holds",
    "fairness": "holds",
    "correctness": "holds",
}

#: Only the receipt-proving attack is expected to succeed.
SUCCEEDING_ATTACKS = {"receipt-prove"}

#: Transactions each attack adds to its base election: one extra cast for
#: double-vote and replay-cast, 1,000 guessed casts for forge-signature.
#: The early tally is refused, so it never reaches the log; sealed-peek
#: runs the base sealed, which adds the key publication.
ATTACK_EXTRA_TX = {"double-vote": 1, "replay-cast": 1, "forge-signature": 1000}


def expected_tally(voters) -> Counter:
    """Each listed voter is counted min(chances, attempts) times."""
    tally = Counter()
    for v in voters:
        if v.kind != "unlisted":
            tally[v.ballot] += min(v.chances, v.attempts)
    return tally


def expected_tx_count(voters, sealed: bool) -> int:
    """deploy + request/response per attempt + check/cast per grant
    + one guessed cast per unlisted attempt + publish when sealed + tally."""
    attempts = sum(v.attempts for v in voters)
    granted = sum(min(v.chances, v.attempts) for v in voters if v.kind != "unlisted")
    unlisted = sum(v.attempts for v in voters if v.kind == "unlisted")
    return 1 + 2 * attempts + 2 * granted + unlisted + int(sealed) + 1


def check_tally(expected: Counter, tally_hex: dict | None, where: str) -> list[str]:
    want = {ballot.encode().hex(): count for ballot, count in expected.items() if count}
    if tally_hex != want:
        return [f"{where}: tally {tally_hex} != expected {want}"]
    return []


def check_tx_count(expected: int, observed: int, where: str) -> list[str]:
    if observed != expected:
        return [f"{where}: {observed} transactions, expected {expected}"]
    return []


def check_rows(rows, sealed: bool, where: str, waive=()) -> list[str]:
    """rows: (property, observed verdict) pairs as graded by the program."""
    observed = dict(rows)
    want = [p for p in EXPECTED_VERDICTS if sealed or p != "fairness"]
    problems = []
    if sorted(observed) != sorted(want):
        problems.append(f"{where}: graded rows {sorted(observed)} != {sorted(want)}")
    for prop in want:
        if prop in waive or prop not in observed:
            continue
        if observed[prop] != EXPECTED_VERDICTS[prop]:
            problems.append(
                f"{where}: {prop} graded {observed[prop]}, expected {EXPECTED_VERDICTS[prop]}"
            )
    return problems


def check_attack(name: str, succeeded: bool) -> list[str]:
    expected = name in SUCCEEDING_ATTACKS
    if succeeded != expected:
        verb = "succeeded" if succeeded else "failed"
        return [f"attack {name}: {verb}, expected the opposite"]
    return []


def check_same(a: str, b: str, where: str) -> list[str]:
    if a != b:
        return [f"{where}: equal configs gave different transcripts"]
    return []


def first_request_is_nonunit(transcript: str) -> bool:
    """True when the first sign request's blinded value shares a factor with
    the signing modulus: the input on which the toy privacy enumeration,
    which looks at that request only, finds no matching unit."""
    n = None
    for line in transcript.splitlines():
        parts = line.split(" ")
        if parts[4] == "deploy":
            n = int(parts[5], 16)
        elif parts[4] == "sign_request":
            return n is not None and math.gcd(int(parts[5], 16), n) != 1
    return False
