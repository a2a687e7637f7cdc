"""Scenario runner.

Builds an election from a config, drives organizer and voters through the
four stages on a fresh ledger, and grades the run against the protocol's
security-property table. Everything downstream of the config seed is
deterministic, so transcripts for equal (config, seed) are byte-identical.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

from . import messages
from .actors import (
    Organizer,
    VoterState,
    prove_receipt,
    verify_receipt,
    voter_cast,
    voter_obtain_signature,
    voter_prepare,
)
from .blindsig import (
    TOY_KEYPAIR,
    ballot_digest,
    fdh,
    int_to_hex,
    keygen,
    keypair_from_primes,
)
from .contract import hex_tally
from .errors import (
    CheckFailed,
    ConfigInvalid,
    ParseError,
    ReplayDivergence,
    ResultSealed,
    SignRefused,
)
from .ledger import Account, Ledger, create_account, import_log, replay
from .rng import as_rng

VOTER_KINDS = ("honest", "careless", "unlisted")

#: The phase-window fields, nested under "windows" in a config document.
WINDOWS = ("st", "ct", "et")

#: Second enumeration-scale keypair so sealed toy elections do not reuse
#: the signing modulus.
TOY_SEALING_KEYPAIR = keypair_from_primes(67, 71, 17)

#: Expected verdict per security-property row for a well-behaved run.
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


# --- configuration ---------------------------------------------------------------

@dataclass
class VoterSpec:
    name: str
    ballot: str
    chances: int = 1
    kind: str = "honest"
    votes: int | None = None  # attempted votes; defaults to chances

    @property
    def attempts(self) -> int:
        return self.chances if self.votes is None else self.votes


def _is_int(value) -> bool:
    """A JSON integer; JSON's true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    st: int
    ct: int
    et: int
    voters: list[VoterSpec]
    sealed: bool = False
    key_bits: int | None = None  # None = enumeration-scale toy keys
    seed: int = 0

    def validate(self) -> None:
        problems = []
        for name in (*WINDOWS, "seed"):
            if not _is_int(getattr(self, name)):
                problems.append(f"{name}: must be an integer")
        if not problems and not 0 <= self.st < self.ct < self.et:
            problems.append(
                f"windows: need 0 <= st < ct < et, got {self.st}/{self.ct}/{self.et}"
            )
        if not isinstance(self.sealed, bool):
            problems.append("sealed: must be true or false")
        if not self.voters:
            problems.append("voters: at least one required")
        names = set()
        for i, v in enumerate(self.voters):
            where = f"voters[{i}]"
            if not isinstance(v.name, str) or not v.name:
                problems.append(f"{where}.name: must be a non-empty string")
            elif v.name in names:
                problems.append(f"{where}.name: duplicate {v.name!r}")
            else:
                names.add(v.name)
            if not isinstance(v.ballot, str) or not v.ballot:
                problems.append(f"{where}.ballot: must be a non-empty string")
            if not _is_int(v.chances) or v.chances < 1:
                problems.append(f"{where}.chances: must be an integer >= 1")
            if v.votes is not None and (not _is_int(v.votes) or v.votes < 0):
                problems.append(f"{where}.votes: must be an integer >= 0")
            if v.kind not in VOTER_KINDS:
                problems.append(f"{where}.kind: {v.kind!r} not in {VOTER_KINDS}")
        if self.key_bits is not None and (
            not _is_int(self.key_bits) or self.key_bits < 16
        ):
            problems.append("key_bits: must be null or an integer >= 16")
        if problems:
            raise ConfigInvalid("; ".join(problems))

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        """Build and validate a config; absent keys take the field defaults."""
        if not isinstance(doc, dict):
            raise ConfigInvalid("config document must be an object")
        known = set(cls.__dataclass_fields__) - set(WINDOWS) | {"windows"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        windows = doc.get("windows")
        if not isinstance(windows, dict) or set(windows) != set(WINDOWS):
            raise ConfigInvalid("windows: object with st, ct, et required")
        entries = doc.get("voters")
        if not isinstance(entries, (list, type(None))):
            raise ConfigInvalid("voters: must be a list")
        voters = []
        for i, entry in enumerate(entries or []):
            if not isinstance(entry, dict):
                raise ConfigInvalid(f"voters[{i}]: must be an object")
            try:
                voters.append(VoterSpec(**entry))
            except TypeError as exc:  # an unknown key, or name or ballot missing
                raise ConfigInvalid(f"voters[{i}]: {exc}") from None
        options = {k: v for k, v in doc.items() if k not in ("windows", "voters")}
        config = cls(**windows, voters=voters, **options)
        config.validate()
        return config

    def to_dict(self) -> dict:
        doc = asdict(self)
        return {"windows": {k: doc.pop(k) for k in WINDOWS}, **doc}

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


# --- run bookkeeping ----------------------------------------------------------------

@dataclass
class VoterRun:
    spec: VoterSpec
    account: Account
    states: list[VoterState] = field(default_factory=list)
    refusals: int = 0
    check_failures: int = 0
    landed: list[VoterState] = field(default_factory=list)  # casts the contract accepted
    rejected: int = 0  # casts the contract turned down, an unlisted voter's guessed ones too

    @property
    def granted(self) -> int:
        return sum(1 for s in self.states if s.signed is not None)

    @property
    def accepted(self) -> int:
        return len(self.landed)

    @property
    def listed(self) -> bool:
        return self.spec.kind != "unlisted"


@dataclass(frozen=True)
class AssertionRow:
    prop: str
    expected: str
    observed: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


@dataclass(frozen=True)
class AttackOutcome:
    name: str
    property_exercised: str
    succeeded: bool
    expected_success: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.succeeded == self.expected_success


@dataclass
class RunReport:
    seed: int
    tally_hex: dict[str, int]
    assertions: list[AssertionRow]
    voters: list[dict]
    tx_count: int
    transcript_text: str
    transcript_path: str | None = None
    report_path: str | None = None
    attack: AttackOutcome | None = None

    def all_ok(self) -> bool:
        rows = all(row.ok for row in self.assertions)
        return rows and (self.attack is None or self.attack.ok)

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "tally": self.tally_hex,
            "tx_count": self.tx_count,
            "assertions": [
                {
                    "property": row.prop,
                    "expected": row.expected,
                    "observed": row.observed,
                    "ok": row.ok,
                    "detail": row.detail,
                }
                for row in self.assertions
            ],
            "voters": self.voters,
            "all_ok": self.all_ok(),
        }
        if self.attack is not None:
            doc["attack"] = {
                "name": self.attack.name,
                "property": self.attack.property_exercised,
                "succeeded": self.attack.succeeded,
                "expected_success": self.attack.expected_success,
                "ok": self.attack.ok,
                "detail": self.attack.detail,
            }
        return doc

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        transcript = out / "transcript.log"
        report = out / "report.json"
        transcript.write_text(self.transcript_text, encoding="ascii", newline="")
        doc = self.to_dict()
        doc["transcript"] = transcript.name
        report.write_text(json.dumps(doc, indent=2) + "\n")
        self.transcript_path = str(transcript)
        self.report_path = str(report)


# --- election harness ------------------------------------------------------------------

class Election:
    """One election over a fresh ledger, driven stage by stage.

    The attack harness reuses the stages and injects extra traffic in
    between; plain scenario runs call :meth:`run`.
    """

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = as_rng(config.seed)
        if config.key_bits is None:
            self.key = TOY_KEYPAIR
            self.sealing_key = TOY_SEALING_KEYPAIR if config.sealed else None
        else:
            # one child seed per key, drawn before either key is made
            seeds = [self.rng.getrandbits(64) for _ in range(1 + config.sealed)]
            self.key, *sealing = [keygen(config.key_bits, seed) for seed in seeds]
            self.sealing_key = sealing[0] if sealing else None
        self.ledger = Ledger()
        self.organizer = Organizer(
            key=self.key, account=create_account(self.rng), sealing_key=self.sealing_key
        )
        self.voters = [VoterRun(spec, create_account(self.rng)) for spec in config.voters]
        self.contract_address: bytes | None = None
        self.contract = None
        # populated by count_stage
        self.onchain_tally: Counter | None = None
        self.offchain_tally: Counter | None = None
        self.fairness_problems: list[str] = []
        # adversarial casts injected outside the voter workflow
        self.adversary_cast_results: list[bool] = []

    # -- stages -------------------------------------------------------------

    def setup_stage(self) -> None:
        listed = [(v.account.address, v.spec.chances) for v in self.voters if v.listed]
        self.contract_address = self.organizer.setup(
            self.ledger,
            listed,
            self.config.st,
            self.config.ct,
            self.config.et,
        )
        self.contract = self.ledger.contract(self.contract_address)

    def sign_stage(self) -> None:
        self.ledger.advance_clock(self.config.st)
        sealing_pk = self.sealing_key.public if self.sealing_key else None
        for v in self.voters:
            for _ in range(v.spec.attempts):
                state = voter_prepare(
                    v.spec.ballot.encode(),
                    self.rng,
                    self.key.public,
                    v.account,
                    sealing_pk=sealing_pk,
                )
                v.states.append(state)
                try:
                    voter_obtain_signature(
                        state, self.ledger, self.contract_address, self.organizer
                    )
                except SignRefused:
                    v.refusals += 1
                except CheckFailed:
                    v.check_failures += 1

    def vote_stage(self) -> None:
        self.ledger.advance_clock(self.config.ct)
        for v in self.voters:
            for state in v.states:
                if state.signed is None:
                    if v.spec.kind == "unlisted" and not self._junk_cast(state):
                        v.rejected += 1
                    continue
                if voter_cast(
                    state,
                    self.ledger,
                    self.contract_address,
                    self.rng,
                    anonymous=(v.spec.kind != "careless"),
                ):
                    v.landed.append(state)
                else:
                    v.rejected += 1

    def _junk_cast(self, state: VoterState) -> bool:
        """Unsigned adversary casts with a guessed signature value."""
        fake_signed = self.rng.randrange(1, self.key.n)
        receipt = self.ledger.submit(
            create_account(self.rng),
            self.contract_address,
            messages.Cast(signed=fake_signed, ballot=state.ballot, uuid=state.uuid),
        )
        result = bool(receipt.result)
        self.adversary_cast_results.append(result)
        return result

    def count_stage(self) -> None:
        self.ledger.advance_clock(self.config.et)
        if self.config.sealed:
            # the pre-publication peek every sealed run gets probed with
            try:
                self.contract.tally(self.ledger.clock)
                self.fairness_problems.append("tally was readable before key publication")
            except ResultSealed:
                pass
            self.fairness_problems += self._scan_plaintext(self.ledger.export())
            self.organizer.publish_result(self.ledger)
        observer = create_account(self.rng)
        receipt = self.ledger.submit(observer, self.contract_address, messages.Tally())
        self.onchain_tally = receipt.result
        # this run's own replays, here and in the verifiability row, open each
        # sealed entry with the secret the live count recorded; ``verify`` and
        # ``tally`` decrypt every entry, as anyone recounting a transcript has to
        secrets = {self.contract_address: self.contract.kem_secrets()}
        self.offchain_tally = recount(replay(self.ledger.log, secrets=secrets))

    def _scan_plaintext(self, transcript: str) -> list[str]:
        """Plaintext ballot bytes that leak into a sealed transcript.

        A cast payload leaks a ballot it equals or, for ballots of at least
        4 bytes (shorter ones turn up in ciphertext by chance), contains;
        the same 4-byte rule applies to the ballot's hex in the transcript.
        """
        blobs = [
            tx.payload.ballot
            for tx in self.ledger.log
            if isinstance(tx.payload, messages.Cast)
        ]
        found = {}
        for plain in {v.spec.ballot.encode() for v in self.voters}:
            long = len(plain) >= 4
            found[plain] = (
                long and plain.hex() in transcript,
                any(blob == plain or (long and plain in blob) for blob in blobs),
            )
        leaks = []
        for v in self.voters:
            in_hex, in_payload = found[v.spec.ballot.encode()]
            if in_hex:
                leaks.append(f"{v.spec.name}: ballot hex visible in transcript")
            if in_payload:
                leaks.append(f"{v.spec.name}: ballot bytes inside a cast payload")
        return leaks

    def run(self) -> None:
        self.setup_stage()
        self.sign_stage()
        self.vote_stage()
        self.count_stage()

    @property
    def landed_honest(self) -> list[VoterState]:
        """Honest voters' states whose cast landed in the box, in voter order."""
        return [s for v in self.voters if v.spec.kind == "honest" for s in v.landed]

    @cached_property
    def receipts(self) -> tuple[int, int]:
        """(verified, total) third-party receipts over the landed honest ballots.

        Computed on first read and kept, so it is read only after the
        election is over.
        """
        landed = self.landed_honest
        verified = sum(
            1
            for state in landed
            if verify_receipt(prove_receipt(state), self.ledger, self.contract)
        )
        return verified, len(landed)

    # -- reporting -----------------------------------------------------------

    def build_report(self, attack: AttackOutcome | None = None) -> RunReport:
        transcript = self.ledger.export()
        return RunReport(
            seed=self.config.seed,
            tally_hex=hex_tally(self.onchain_tally or Counter()),
            assertions=evaluate_assertions(self, transcript),
            voters=[
                {
                    "name": v.spec.name,
                    "kind": v.spec.kind,
                    "listed": v.listed,
                    "attempts": v.spec.attempts,
                    "granted": v.granted,
                    "refusals": v.refusals,
                    "check_failures": v.check_failures,
                    "accepted_casts": v.accepted,
                    "rejected_casts": v.rejected,
                }
                for v in self.voters
            ],
            tx_count=len(self.ledger),
            transcript_text=transcript,
            attack=attack,
        )


# --- the security-property battery -------------------------------------------------------

def evaluate_assertions(election: Election, transcript: str) -> list[AssertionRow]:
    """Grade the run; ``transcript`` is the ledger's export."""
    rows = [
        _privacy_row(election),
        _receipt_row(election),
        _robustness_row(election),
        _verifiability_row(election, transcript),
        _eligibility_row(election),
        _pmv_row(election),
    ]
    if election.config.sealed:
        rows.append(_fairness_row(election))
    rows.append(_correctness_row(election))
    return [row for row in rows if row is not None]


def _row(prop: str, holds: bool, detail: str = "") -> AssertionRow:
    observed = EXPECTED_VERDICTS[prop] if holds else _flip(EXPECTED_VERDICTS[prop])
    return AssertionRow(prop, EXPECTED_VERDICTS[prop], observed, detail)


def _flip(verdict: str) -> str:
    return "violated" if verdict == "holds" else "attack-not-found"


def _privacy_row(election: Election) -> AssertionRow:
    eligible = {v.account.address for v in election.voters}
    eligible.add(election.organizer.address)
    problems = []
    for tx in election.ledger.log:
        if isinstance(tx.payload, messages.Cast) and tx.sender in eligible:
            problems.append(f"cast at index {tx.index} linkable to a known address")
    # exact-match scan of the sign-stage transcript for voter-local values;
    # at the toy modulus 3-hex-char values collide by chance, so blinding
    # factors only count as leaks at real key sizes
    secret_hex = set()
    for v in election.voters:
        for state in v.states:
            secret_hex.add(state.uuid.hex())
            if election.key.n.bit_length() >= 64:
                secret_hex.add(int_to_hex(state.r))
    for tx in election.ledger.log:
        if isinstance(tx.payload, (messages.SignRequest, messages.SignResponse, messages.Check)):
            fields = messages.encode_payload(tx.payload)[1:]
            if not secret_hex.isdisjoint(fields):
                problems.append(f"voter-local value surfaced at index {tx.index}")
    if election.key.n == TOY_KEYPAIR.n and not problems:
        if not _toy_unlinkability(election):
            problems.append("blinding enumeration found an unbalanced transcript")
    return _row("privacy", not problems, "; ".join(problems))


def _toy_unlinkability(election: Election) -> bool:
    """Enumeration form of blindness at the toy modulus.

    For an observed blinded value B and any candidate digest with a unit
    hash, exactly one unit r explains B, so the sign-stage transcript
    carries no information about the digest.
    """
    n, e = election.key.n, election.key.e
    observed = [
        tx.payload.blinded
        for tx in election.ledger.log
        if isinstance(tx.payload, messages.SignRequest)
    ]
    if not observed:
        return True
    blinded = observed[0]
    candidates = []
    for v in election.voters:
        for state in v.states:
            candidates.append(state.ballot)
            if len(candidates) >= 3:
                break
        if len(candidates) >= 3:
            break
    units = [r for r in range(1, n) if math.gcd(r, n) == 1]
    for i, payload in enumerate(candidates):
        digest = ballot_digest(payload, i.to_bytes(16, "big"))
        m = fdh(digest, n)
        if math.gcd(m, n) != 1:
            continue
        target = blinded * pow(m, -1, n) % n
        matches = sum(1 for r in units if pow(r, e, n) == target)
        if matches != 1:
            return False
    return True


def _receipt_row(election: Election) -> AssertionRow | None:
    verified, receipts = election.receipts
    if receipts == 0:
        return None  # no completed honest voter: row not applicable
    return _row(
        "receipt-freeness",
        verified == receipts,
        f"{verified}/{receipts} receipts verified by a third party",
    )


def _robustness_row(election: Election) -> AssertionRow:
    problems = []
    for v in election.voters:
        if not v.listed and v.granted > 0:
            problems.append(f"{v.spec.name}: unlisted but granted a signature")
        if v.granted > v.spec.chances:
            problems.append(f"{v.spec.name}: granted beyond budget")
        # every attempt ends granted, refused, or check-failed; anything
        # else is a silent failure
        if v.refusals != v.spec.attempts - v.granted - v.check_failures:
            problems.append(f"{v.spec.name}: a refused request went unnoticed")
    if any(election.adversary_cast_results):
        problems.append("an unsigned adversarial cast was accepted")
    return _row("robustness", not problems, "; ".join(problems))


def _verifiability_row(election: Election, transcript: str) -> AssertionRow:
    secrets = {election.contract_address: election.contract.kem_secrets()}
    try:
        replayed = replay(import_log(transcript), election.ledger.results, secrets)
    except (ParseError, ReplayDivergence) as exc:
        return _row("verifiability", False, f"replay failed: {exc}")
    if replayed.contracts != election.ledger.contracts:
        return _row("verifiability", False, "replayed contract state diverged")
    if election.onchain_tally is not None:
        if election.offchain_tally != election.onchain_tally:
            return _row("verifiability", False, "off-chain recount disagrees with contract")
    return _row("verifiability", True)


def _eligibility_row(election: Election) -> AssertionRow:
    owner_by_uuid = {}
    for v in election.voters:
        for state in v.states:
            owner_by_uuid[state.uuid] = state
    problems = []
    for uuid in election.contract.ballot_box:
        state = owner_by_uuid.get(uuid)
        if state is None:
            problems.append(f"box entry {uuid.hex()} traces to no voter")
        elif state.signed_blinded in (None, 0):
            problems.append(f"box entry {uuid.hex()} lacks an organizer signature")
    for v in election.voters:
        if not v.listed and (v.granted > 0 or v.accepted > 0):
            problems.append(f"{v.spec.name}: unlisted adversary got through")
    if any(election.adversary_cast_results):
        problems.append("forged cast accepted")
    return _row("democracy-eligibility", not problems, "; ".join(problems))


def _pmv_row(election: Election) -> AssertionRow:
    budget = election.organizer.permissions.initial_total
    box = len(election.contract.ballot_box)
    problems = []
    if box > budget:
        problems.append(f"ballot box {box} exceeds total chances {budget}")
    for v in election.voters:
        if v.accepted > v.spec.chances:
            problems.append(f"{v.spec.name}: accepted casts exceed chances")
    return _row("democracy-pmv", not problems, "; ".join(problems))


def _fairness_row(election: Election) -> AssertionRow:
    problems = election.fairness_problems
    return _row("fairness", not problems, "; ".join(problems))


def _correctness_row(election: Election) -> AssertionRow:
    accepted = Counter(s.plain_ballot for v in election.voters for s in v.landed)
    tally = election.onchain_tally
    if tally is None:
        return _row("correctness", False, "tally unavailable")
    return _row(
        "correctness",
        tally == accepted,
        f"tally {sorted(tally.items())} vs casts {sorted(accepted.items())}"
        if tally != accepted
        else "",
    )


# --- transcript utilities ------------------------------------------------------------------

def recount(ledger: Ledger) -> Counter:
    """Off-chain recount over a (replayed) ledger's single election.

    Ignores phase windows: anyone holding the transcript counts the box.
    Raises ResultSealed when the election is sealed and the key was never
    published on-ledger.
    """
    contracts = ledger.contracts
    if len(contracts) != 1:
        raise ParseError(f"expected exactly one contract, found {len(contracts)}")
    (contract,) = contracts.values()
    return contract.count()


@dataclass(frozen=True)
class TranscriptCheck:
    ok: bool
    problem: str | None = None
    index: int | None = None
    tally_hex: dict[str, int] | None = None


def verify_transcript(
    transcript_path: str | Path, report_path: str | Path | None = None
) -> TranscriptCheck:
    """Parse, replay and recount a transcript; compare against its report.

    Any structural break (bad line, index gap, failing execution) and any
    tally or length mismatch against the report counts as divergence. A
    sealed transcript whose key was never published has no tally, and its
    report's tally must be empty, as run writes it. The report's numbers
    must be JSON integers. A report that is not a JSON object raises
    ValueError.
    """
    # the bytes as written: no newline translation, and any non-ASCII byte
    # escaped so that the parser rejects it at its line
    with open(transcript_path, encoding="ascii", errors="backslashreplace", newline="") as f:
        text = f.read()
    try:
        txs = import_log(text)
        replayed = replay(txs)
    except (ParseError, ReplayDivergence) as exc:
        return TranscriptCheck(False, str(exc), index=exc.index)
    tally_hex = None
    try:
        tally_hex = hex_tally(recount(replayed))
    except ResultSealed:
        pass
    except (ParseError, ValueError) as exc:
        return TranscriptCheck(False, f"recount: {exc}")
    if report_path is not None:
        doc = json.loads(Path(report_path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("report is not a JSON object")
        # only the JSON integers that run writes: 1 == 1.0 == True in Python
        tx_count, tally = doc.get("tx_count"), doc.get("tally")
        if not _is_int(tx_count) or tx_count != len(txs):
            return TranscriptCheck(
                False,
                f"transcript has {len(txs)} transactions, report says {tx_count}",
                tally_hex=tally_hex,
            )
        if tally != (tally_hex or {}) or not all(map(_is_int, tally.values())):
            return TranscriptCheck(
                False, "recomputed tally disagrees with the report", tally_hex=tally_hex
            )
    return TranscriptCheck(True, tally_hex=tally_hex)


# --- entry point ------------------------------------------------------------------------------

def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None) -> RunReport:
    """Run all four stages and grade the result; optionally write artifacts."""
    election = Election(config)
    election.run()
    report = election.build_report()
    if out_dir is not None:
        report.write(out_dir)
    return report
