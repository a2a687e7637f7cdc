"""Byte-identical outputs: sha256 of transcript.log and report.json.

Each case runs an election (or an attack) and writes its artifacts; the
hashes below pin both files. A refactor that changes no behaviour leaves
every hash in place. Cases: every shipped config, the seven attacks on
configs/adversarial.json, and a seeded set of random configs mixing
honest, careless and unlisted voters, sealed and unsealed, toy keys plus
one 128-bit key.
"""

import hashlib
import random
from pathlib import Path

import pytest

from blindvote.attacks import ATTACKS, run_attack
from blindvote.scenario import ScenarioConfig, VoterSpec, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RANDOM_CASES = 20


def random_config(case: int) -> ScenarioConfig:
    rng = random.Random(1000 + case)
    voters = []
    for j in range(rng.randint(2, 7)):
        kind = rng.choice(("honest", "honest", "honest", "careless", "unlisted"))
        votes = rng.choice((None, rng.randint(0, 4)))
        ballot = "".join(rng.choice("ABXYZ") for _ in range(rng.randint(1, 12)))
        voters.append(VoterSpec(f"v{j}", ballot, rng.randint(1, 3), kind, votes))
    return ScenarioConfig(
        st=10,
        ct=20,
        et=30,
        voters=voters,
        sealed=rng.random() < 0.5,
        key_bits=128 if case == 0 else None,
        seed=rng.randrange(1 << 16),
    )


def _cases():
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"config-{path.stem}", None, ScenarioConfig.from_json_file(path)
    adversarial = ScenarioConfig.from_json_file(CONFIGS / "adversarial.json")
    for name in sorted(ATTACKS):
        yield f"attack-{name}", name, adversarial
    for case in range(RANDOM_CASES):
        yield f"random-{case:02d}", None, random_config(case)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def artifact_hashes(attack, config, out_dir) -> tuple[str, str]:
    if attack is None:
        run_scenario(config, out_dir=out_dir)
    else:
        run_attack(attack, config, out_dir=out_dir)
    return _digest(out_dir / "transcript.log"), _digest(out_dir / "report.json")


#: case -> (transcript.log, report.json), first 16 hex digits of sha256
GOLDEN = {
    "config-adversarial": ("776b08db282e8413", "d3e765a43d452f06"),
    "config-honest-10": ("849339b2dfd73be1", "452831dc8d61f69b"),
    "config-sealed": ("cbf8a748fb279698", "546fb05ab4578dd0"),
    "attack-double-vote": ("e3de1be5a4944513", "010144fbcd08b920"),
    "attack-early-tally": ("f3c22d2c1a62bc50", "289cef429b5af6d7"),
    "attack-forge-signature": ("56607c7109508791", "ffdc76505aa0c2d3"),
    "attack-ineligible": ("776b08db282e8413", "87f9ad2046ab7d34"),
    "attack-receipt-prove": ("776b08db282e8413", "fb5ee1f3b76d9145"),
    "attack-replay-cast": ("e3de1be5a4944513", "2d3d1f7d818e80ba"),
    "attack-sealed-peek": ("42f196485bab1df8", "bb81c59aa6e75dbf"),
    "random-00": ("858f305fd60770b0", "10387c4118b35c97"),
    "random-01": ("fc6e1992b142ce1e", "bf8a851581ec40cf"),
    "random-02": ("f6601f9406109a17", "d64a2c7eb032fc99"),
    "random-03": ("aedee72bcbd7bb72", "23e7b385f3b75724"),
    "random-04": ("58d907b76803f674", "731845d8173439ca"),
    # sealed with a 1-byte ballot: the leak scan no longer flags a 1-byte
    # ballot found inside a ciphertext, so fairness now holds
    "random-05": ("8f9b7b110b7fe006", "dbf8a48ebe5ca386"),
    "random-06": ("d09d0cd53bca85ee", "24c8749fb90e2c8a"),
    "random-07": ("0fb83355486c7f24", "9e03f82d71846047"),
    "random-08": ("90cd2eb964c70777", "c5d6c0c56e76b339"),
    "random-09": ("edfe238c6fcd502b", "f1d9fc3c77afb7d1"),
    "random-10": ("bbda487cdb0a8b06", "3dbd6a361cf9b989"),  # as random-05
    "random-11": ("e7017f2b7857b1c3", "61637549f8272d7c"),
    "random-12": ("510242080d684d16", "9a9e341f4fc5fb2a"),
    "random-13": ("5ff5ef4c6fac2324", "b7cbce4772d145b3"),
    "random-14": ("be5205a407fce5e3", "d05aa49883f769e8"),
    "random-15": ("e0b14dd95140683a", "cd9df65378777d24"),
    "random-16": ("4d5ce20a23cf9898", "c5d501fcf241a551"),
    "random-17": ("3d44a50dced59730", "0adcbe719edfa03f"),
    "random-18": ("4d8d5fc164b00c8a", "ac26b2c1de8b8f00"),
    "random-19": ("9a1a65d2e8707a75", "d8ca8418dc8e6a3a"),
}

CASES = list(_cases())


@pytest.mark.parametrize("name,attack,config", CASES, ids=[c[0] for c in CASES])
def test_artifacts_byte_identical(name, attack, config, tmp_path):
    assert artifact_hashes(attack, config, tmp_path) == GOLDEN[name]
