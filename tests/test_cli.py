"""CLI verbs, exit codes, and the seed override chain."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blindvote.cli import main
from blindvote.blindsig import load_key

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def config_path(tmp_path, honest_config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(honest_config.to_dict()))
    return str(path)


@pytest.fixture
def careless_config_path(tmp_path, small_config):
    doc = small_config.to_dict()
    doc["voters"].append(
        {"name": "dave", "ballot": "ALPHA", "chances": 1, "kind": "careless", "votes": None}
    )
    path = tmp_path / "careless.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_exit_zero_and_artifacts(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out)]) == 0
        assert (out / "transcript.log").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["all_ok"] is True
        stdout = capsys.readouterr().out
        assert "[ok ] correctness" in stdout

    def test_privacy_violation_exits_nonzero(self, careless_config_path, capsys):
        assert main(["run", careless_config_path]) == 1
        assert "[FAIL] privacy" in capsys.readouterr().out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"windows": {"st": 5, "ct": 2, "et": 9}, "voters": []}')
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2


class TestSeedOverride:
    def _transcript(self, tmp_path, config_path, extra, name, monkeypatch, env=None):
        monkeypatch.delenv("BLINDVOTE_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("BLINDVOTE_SEED", env)
        out = tmp_path / name
        main(["run", config_path, "--out", str(out), *extra])
        return (out / "transcript.log").read_text()

    def test_env_overrides_config(self, tmp_path, config_path, monkeypatch):
        base = self._transcript(tmp_path, config_path, [], "a", monkeypatch)
        other = self._transcript(tmp_path, config_path, [], "b", monkeypatch, env="777")
        assert base != other

    def test_flag_overrides_env(self, tmp_path, config_path, monkeypatch):
        flagged = self._transcript(
            tmp_path, config_path, ["--seed", "42"], "c", monkeypatch, env="777"
        )
        base = self._transcript(tmp_path, config_path, [], "d", monkeypatch)
        assert flagged == base  # config seed is 42; the flag restored it


class TestAttack:
    def test_expected_attack_outcome_exit_zero(self, config_path, capsys):
        assert main(["attack", "double-vote", config_path]) == 0
        assert "FAILED as expected" in capsys.readouterr().out

    def test_receipt_prove_reports_success(self, config_path, capsys):
        assert main(["attack", "receipt-prove", config_path]) == 0
        assert "SUCCEEDED as expected" in capsys.readouterr().out

    def test_unknown_attack_rejected_by_parser(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "rubber-hose", config_path])
        assert exc.value.code == 2


class TestVerifyAndTally:
    @pytest.fixture
    def election_dir(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["run", config_path, "--out", str(out)])
        return out

    def test_verify_ok(self, election_dir, capsys):
        assert main(["verify", str(election_dir / "transcript.log")]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_finds_sibling_report(self, election_dir):
        # report.json sits next to the transcript and is picked up implicitly
        assert main(["verify", str(election_dir / "transcript.log")]) == 0

    def test_verify_mutated_exits_one(self, election_dir, capsys):
        path = election_dir / "transcript.log"
        lines = path.read_text().splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines))
        assert main(["verify", str(path)]) == 1
        assert "DIVERGENCE" in capsys.readouterr().out

    def test_tally_output(self, election_dir, capsys):
        assert main(["tally", str(election_dir / "transcript.log")]) == 0
        out = capsys.readouterr().out
        assert out == f"{b'ALPHA'.hex()} 6\n{b'BETA'.hex()} 4\n"

    def test_tally_sealed_unpublished_errors(self, tmp_path, small_config, capsys):
        import blindvote.scenario as scen
        from dataclasses import replace

        election = scen.Election(replace(small_config, sealed=True))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        path = tmp_path / "partial.log"
        path.write_text(election.ledger.export())
        assert main(["tally", str(path)]) == 1
        assert "not published" in capsys.readouterr().err


class TestDivergentTranscripts:
    """verify and tally both refuse a transcript that does not replay."""

    @pytest.fixture
    def transcript(self, tmp_path):
        out = tmp_path / "adv"
        assert main(["run", str(ROOT / "configs" / "adversarial.json"), "--out", str(out)]) == 0
        return out / "transcript.log"

    @staticmethod
    def _edit_first(path, kind, field, edit) -> int:
        """Rewrite one payload field on the first line of ``kind``; return its index."""
        lines = path.read_text().splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if line.split(" ")[4] == kind)
        parts = lines[index].rstrip("\n").split(" ")
        parts[5 + field] = edit(parts[5 + field])
        lines[index] = " ".join(parts) + "\n"
        path.write_text("".join(lines))
        return index

    def test_negated_signature(self, transcript, capsys):
        assert self._edit_first(transcript, "cast", 0, lambda sig: "-" + sig) == 16
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 16:")
        assert main(["tally", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 16:")

    def test_unit_modulus_does_not_hang(self, transcript):
        assert self._edit_first(transcript, "deploy", 0, lambda n: "1") == 0
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for verb in ("verify", "tally"):
            done = subprocess.run(
                [sys.executable, "-m", "blindvote.cli", verb, str(transcript)],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert done.returncode == 1, done.stderr
            assert done.stdout.startswith("DIVERGENCE at index 0:")

    def test_non_canonical_line_named(self, transcript, capsys):
        index = self._edit_first(transcript, "cast", 1, str.upper)
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith(f"DIVERGENCE at index {index}:")


class TestKeygen:
    def test_writes_private_and_public(self, tmp_path):
        priv = tmp_path / "priv.json"
        pub = tmp_path / "pub.json"
        code = main(
            ["keygen", "--bits", "64", "--seed", "9", "--out", str(priv), "--public", str(pub)]
        )
        assert code == 0
        key = load_key(priv)
        assert key.n.bit_length() == 64
        assert "d" in json.loads(priv.read_text())
        assert "d" not in json.loads(pub.read_text())
        assert load_key(pub) == key.public

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["keygen", "--bits", "64", "--seed", "9", "--out", str(a)])
        main(["keygen", "--bits", "64", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_tiny_bits_exits_two(self, tmp_path, capsys):
        assert main(["keygen", "--bits", "8", "--seed", "1", "--out", str(tmp_path / "k")]) == 2
