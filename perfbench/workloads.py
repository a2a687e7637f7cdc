"""The benchmark's workloads: each turns a seed into the configs of a round.

Every round of a run repeats the same elections, so each round asks the
program for the same work and every sample of a metric measures the same
thing. A roster's make-up (chances, attempts, kinds) is fixed by voter
position; the benchmark seed picks the ballots, and with them every digest,
blinded value, signature and ciphertext. Elections with real keys use
election seed 0, which picks the keys: generating the two 2048-bit keys of
a sealed election takes from 0.9 s to 5.5 s depending on the election seed
(seeds 0-19 measured), and set-up and sweep times should compare the same
key generation from run to run. The toy election's seed comes from the
benchmark seed. Seeds are derived with sha256, so the same seed always
gives the same inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from blindvote.scenario import ScenarioConfig, VoterSpec

#: Candidate names are at least four bytes long: shorter ballots trip the
#: unguarded byte search in the sealed-mode leak scan (see CHANGES.md).
CANDIDATES = ("ALPHA", "BRAVO", "CHARLIE", "DELTA")

WINDOWS = {"st": 10, "ct": 20, "et": 30}

TOY_VOTERS = 3200
SEALED_VOTERS = 16
SEALED_KEY_BITS = 2048
BASE_VOTERS = 24
BASE_KEY_BITS = 512

#: Election seed of every election with real keys.
KEY_SEED = 0

#: The voters of configs/honest-10.json at seed 10: the first sign request of this run is
#: not a unit mod 3233, and the toy privacy enumeration grades it
#: "violated". Its inputs do not depend on the benchmark seed, so it fails
#: the same way in every round.
PROBE_SEED = 10


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _config(voters, seed, *, sealed=False, key_bits=None) -> ScenarioConfig:
    return ScenarioConfig(
        voters=voters, seed=seed, sealed=sealed, key_bits=key_bits, **WINDOWS
    )


def toy_roster(n: int, rng: random.Random) -> list[VoterSpec]:
    """Honest voters: every tenth has two chances, every twentieth tries
    three times on one chance, so the refusal path runs."""
    voters = []
    for i in range(n):
        chances, votes = 1, None
        if i % 10 == 3:
            chances = 2
        elif i % 20 == 7:
            votes = 3
        voters.append(VoterSpec(f"v{i:05d}", rng.choice(CANDIDATES), chances, votes=votes))
    return voters


def mixed_roster(n: int, rng: random.Random) -> list[VoterSpec]:
    """n listed voters (every eighth with two chances, one who tries twice
    on one chance) followed by one unlisted voter."""
    voters = []
    for i in range(n):
        chances, votes = (2, None) if i % 8 == 3 else (1, None)
        if i == 5:
            votes = 2
        voters.append(VoterSpec(f"v{i:03d}", rng.choice(CANDIDATES), chances, votes=votes))
    voters.append(VoterSpec("mallory", rng.choice(CANDIDATES), kind="unlisted"))
    return voters


def toy_config(voters: int, seed: int) -> ScenarioConfig:
    rng = random.Random(derive_seed(seed, "toy-roster"))
    return _config(toy_roster(voters, rng), derive_seed(seed, "toy"))


def probe_config() -> ScenarioConfig:
    voters = [VoterSpec(f"voter{i}", "ALPHA" if i < 6 else "BETA") for i in range(10)]
    return _config(voters, PROBE_SEED)


@dataclass
class Workload:
    """What one round runs.

    ``main`` is set up, run, graded and verified ``elections`` times, and
    each of its transcripts verified ``verifies`` times; ``base`` gets the
    seven-attack sweep; ``probe`` adds the fixed election that the toy
    privacy enumeration fails. The sweep is traced only where
    ``trace_sweep`` is set; on the other workloads it is there to give
    ``sweep_s`` a value. The repeats give short phases enough samples for
    a steady median in one run.
    """

    name: str
    main: ScenarioConfig
    base: ScenarioConfig
    probe: bool = False
    trace_sweep: bool = False
    elections: int = 1
    verifies: int = 1


def _base(seed: int) -> ScenarioConfig:
    roster = mixed_roster(BASE_VOTERS, random.Random(derive_seed(seed, "base-roster")))
    return _config(roster, KEY_SEED, key_bits=BASE_KEY_BITS)


def toy_large(seed: int) -> Workload:
    return Workload(
        "toy-large", toy_config(TOY_VOTERS, seed), _base(seed), probe=True, verifies=4
    )


def sealed_2048(seed: int) -> Workload:
    roster = mixed_roster(SEALED_VOTERS, random.Random(derive_seed(seed, "sealed-roster")))
    main = _config(
        roster, KEY_SEED, sealed=True, key_bits=SEALED_KEY_BITS
    )
    return Workload("sealed-2048", main, _base(seed))


def attack_sweep(seed: int) -> Workload:
    base = _base(seed)
    return Workload("attack-sweep", base, base, trace_sweep=True, elections=4)


WORKLOADS = {"toy-large": toy_large, "sealed-2048": sealed_2048, "attack-sweep": attack_sweep}
